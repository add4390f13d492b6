import ast
import dataclasses
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vanishingflats import (
    GF, AffineSubspace, Cover, DifferentialSpectrum, FunctionTable, ParityCheckSpec,
    PartialQuadrupleSystem, PowerFunction, QuadraticFunction, cli, covers, kloosterman,
    vflats, weight_counts_from_flats,
)
from vanishingflats.cli import main, parse_do_terms, parse_univariate_terms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_vflats_count_examples(capsys):
    code, out = run(capsys, "vflats", "count", "--n", "8", "--monomial", "7")
    assert code == 0
    assert out.strip() == "3655"
    code, out = run(capsys, "vflats", "count", "--n", "6", "--do", "0,3:1")
    assert code == 0
    assert out.strip() == "1008"


def test_vflats_list_inverse(capsys):
    code, out = run(capsys, "vflats", "list", "--n", "4", "--monomial", "14")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "5 blocks"
    assert len(lines) == 6
    for line in lines[1:]:
        assert line.split()[0] == "0"


def test_vflats_list_json_roundtrip(capsys, monkeypatch):
    """The JSON listing holds the blocks of enumerate_flats as arrays, and
    the object it is encoded from shares them."""
    written = []
    to_json = PartialQuadrupleSystem.to_json

    def recorded(pqs):
        obj = to_json(pqs)
        written.append(obj["blocks"] is pqs.blocks)
        return obj
    monkeypatch.setattr(PartialQuadrupleSystem, "to_json", recorded)
    code, out = run(capsys, "vflats", "list", "--n", "4", "--monomial", "5", "--format", "json")
    assert code == 0 and written == [True]
    obj = json.loads(out)
    blocks = vflats.enumerate_flats(PowerFunction(GF(4), 5)).blocks
    assert obj["field"] == GF(4).to_json()
    assert obj["blocks"] == [list(b) for b in blocks]
    assert obj["block_count"] == len(blocks) == 20


def test_vflats_pqs_export_is_gone(capsys):
    # `vflats list --format json` prints the same object
    with pytest.raises(SystemExit) as exc:
        main(["vflats", "pqs-export", "--n", "6", "--monomial", "9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'pqs-export'" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"], ids=["list", "list-json"])
def test_vflats_listing_limit_exit_2_with_count(capsys, monkeypatch, fmt):
    argv = ["vflats", "list", "--n", "6", "--monomial", "9", "--format", fmt]
    monkeypatch.setattr(cli, "LIST_LIMIT", 1007)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: 1008 vanishing flats, more than the limit of 1007\n"
    monkeypatch.setattr(cli, "LIST_LIMIT", 1008)
    code, out = run(capsys, *argv)
    assert code == 0
    assert (out.splitlines()[0] == "1008 blocks" if fmt == "text"
            else json.loads(out)["block_count"] == 1008)


def test_vflats_list_runs_no_spectrum_pass(capsys, monkeypatch):
    def no_spectrum(f):
        raise AssertionError("spectrum pass on the list path")
    monkeypatch.setattr(vflats, "count_via_spectrum", no_spectrum)
    monkeypatch.setattr(vflats.FunctionTable, "spectrum", no_spectrum)
    code, out = run(capsys, "vflats", "list", "--n", "6", "--univariate", "1:7,3:11")
    lines = out.splitlines()
    assert code == 0 and lines[0] == f"{len(lines) - 1} blocks"


def test_vflats_list_text_builds_no_json(capsys, monkeypatch):
    def no_json(pqs):
        raise AssertionError("JSON copy built on the text path")
    monkeypatch.setattr(PartialQuadrupleSystem, "to_json", no_json)
    code, out = run(capsys, "vflats", "list", "--n", "6", "--univariate", "1:7,3:11")
    lines = out.splitlines()
    assert code == 0 and lines[0] == f"{len(lines) - 1} blocks"
    assert all(len(line.split()) == 4 for line in lines[1:])


@pytest.mark.parametrize("n, source", [
    (5, ["--monomial", "3"]),  # APN: no block, and no CSV line
    (7, ["--monomial", "7"]),
    (9, None),  # a seeded random table: 2-byte lanes
], ids=["x3-n5", "x7-n7", "random-n9"])
def test_vflats_list_csv_is_the_text_body_with_commas(capsys, tmp_path, n, source):
    if source is None:
        rng = random.Random(9)
        path = tmp_path / "table.txt"
        path.write_text("\n".join(str(rng.randrange(1 << n)) for _ in range(1 << n)))
        source = ["--table-file", str(path)]
    argv = ["vflats", "list", "--n", str(n), *source]
    code, text = run(capsys, *argv)
    assert code == 0
    header, body = text.split("\n", 1)
    code, csv = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert csv.split("\n") == body.replace(" ", ",").split("\n")  # lists: a short diff
    assert len(csv.splitlines()) == int(header.split()[0])
    assert all(len(line.split(",")) == 4 for line in csv.splitlines())


def test_spectrum_examples(capsys):
    code, out = run(capsys, "spectrum", "--n", "3", "--monomial", "3")
    assert code == 0
    assert "uniformity 2" in out
    code, out = run(capsys, "spectrum", "--n", "4", "--monomial", "1")
    assert code == 0
    assert "uniformity 16" in out


def test_spectrum_w_values(capsys):
    code, out = run(capsys, "spectrum", "--n", "6", "--monomial", "62")
    assert code == 0
    assert "l_0 = 2079  (w=33)" in out
    assert "l_2 = 1890  (w=30)" in out
    assert "l_4 = 63  (w=1)" in out


@pytest.mark.parametrize("source", [["--monomial", "7"], ["--do", "0,1:3,2,4:5"],
                                    ["--univariate", "1:7,3:11"]])
def test_spectrum_text_lists_the_values_of_per_direction(capsys, source):
    _, out = run(capsys, "spectrum", "--n", "6", *source, "--format", "json")
    values = sorted(set(json.loads(out)["per_direction"].values()))
    _, out = run(capsys, "spectrum", "--n", "6", *source)
    assert out.splitlines()[-1] == "per-direction uniformities: " + ", ".join(map(str, values))
    assert len(values) > 1 or source[0] == "--monomial"


def test_only_to_json_reads_per_direction(capsys, monkeypatch, tmp_path):
    """per_direction builds a 2^n - 1 entry dict: every statistic and every
    command but JSON spectrum output must take what it needs from the
    direction classes, for power, quadratic and generic functions alike."""
    def no_map(spec):
        raise AssertionError("per_direction read")
    monkeypatch.setattr(DifferentialSpectrum, "per_direction", property(no_map))
    gf = GF(6)
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{(x * 37 + x * x * x) % 64}\n" for x in range(64)))
    functions = [PowerFunction(gf, 7), FunctionTable.from_univariate(gf, [(3, 1), (5, 7)]),
                 QuadraticFunction(gf, FunctionTable.from_univariate(gf, [(3, 3), (9, 5)]).values)]
    for f in functions:
        vflats.count_via_spectrum(f)
        vflats.bounds(f)
        f.critical_directions()
        weight_counts_from_flats(f)
        with pytest.raises(AssertionError, match="per_direction read"):
            f.spectrum().to_json()
    sources = [["--monomial", "7"], ["--do", "0,1:3,2,4:5"], ["--univariate", "3:1,5:7"],
               ["--table-file", str(table)]]
    for source in sources:
        for argv in (["vflats", "count"], ["spectrum"], ["spectrum", "--format", "csv"]):
            code, out = run(capsys, *argv, "--n", "6", *source)
            assert code == 0 and out
    for argv in (["table", "table1", "--family", "d7", "--n", "9"], ["table", "table2", "--n", "6"],
                 ["codeweights", "--n", "6", "--d", "7", "--method", "both"]):
        code, out = run(capsys, *argv)
        assert code == 0 and out
    with pytest.raises(AssertionError, match="per_direction read"):
        main(["spectrum", "--n", "6", "--monomial", "7", "--format", "json"])


def test_table2_all_pass(capsys):
    code, out = run(capsys, "table", "table2", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.endswith("PASS") for line in lines)


def test_table1_examples(capsys):
    code, out = run(capsys, "table", "table1", "--n", "6", "--family", "gold", "--t", "3")
    assert code == 0
    assert "1008 PASS" in out
    code, out = run(capsys, "table", "table1", "--n", "7", "--family", "d7")
    assert code == 0
    assert "889 PASS" in out
    # checked beyond n = 10 too, through the power-function spectrum
    code, out = run(capsys, "table", "table1", "--n", "16", "--family", "d7")
    assert code == 0
    assert out == "d7 n=16: 175262435 PASS\n"


def test_table1_csv_rows_carry_t_and_status(capsys, monkeypatch):
    code, out = run(capsys, "table", "table1", "--n", "7", "--family", "d7", "--format", "csv")
    assert (code, out) == (0, "d7,7,,889,PASS\n")
    code, out = run(capsys, "table", "table1", "--n", "6", "--family", "gold", "--t", "3",
                    "--format", "csv")
    assert (code, out) == (0, "gold,6,3,1008,PASS\n")
    # beyond n = 16 no field is built, so there is no brute force to compare
    code, out = run(capsys, "table", "table1", "--n", "20", "--family", "d7", "--format", "csv")
    assert (code, out) == (0, f"d7,20,,{vflats.closed_form('d7', 20)[1]},unchecked\n")
    monkeypatch.setattr(vflats, "closed_form", lambda family, n, t=None: (7, 890))
    code, out = run(capsys, "table", "table1", "--n", "7", "--family", "d7", "--format", "csv")
    assert (code, out) == (1, "d7,7,,890,FAIL\n")


def test_table1_rejects_t_for_a_family_that_takes_none(capsys):
    for family in ("inverse", "d7", "odd-low", "half", "half-plus", "odd-plus", "twin-odd-t"):
        code = main(["table", "table1", "--family", family, "--n", "10", "--t", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: the {family} family takes no t, got t = 3\n"
    code = main(["table", "table1", "--family", "inverse", "--n", "-2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: n = -2: the closed forms need n >= 2\n"


def test_table1_rejects_modulus_where_no_field_is_built(capsys):
    code = main(["table", "table1", "--family", "d7", "--n", "20", "--modulus", "12345"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --modulus given, but no field is built at n = 20 > 16\n"
    # without --modulus the closed form still prints, unchecked
    code, out = run(capsys, "table", "table1", "--family", "d7", "--n", "20")
    assert (code, out) == (0, f"d7 n=20: {vflats.closed_form('d7', 20)[1]}\n")


def test_cover_build_gold2(capsys):
    code, out = run(capsys, "cover", "build", "gold2", "--n", "6", "--t", "2")
    assert code == 0
    assert "flats=16" in out
    assert "totally_skew=True" in out
    assert "valid=True" in out


def test_cover_build_thm8(capsys):
    code, out = run(capsys, "cover", "build", "thm8", "--n", "9", "--t", "3")
    assert code == 0
    assert "flats=64" in out
    assert "dimension=3" in out
    assert "totally_skew=True" in out


def test_cover_build_output_file_is_the_printed_json_cover(capsys, tmp_path):
    path = tmp_path / "cover.json"
    argv = ["cover", "build", "thm8", "--n", "9", "--t", "3"]
    code, _ = run(capsys, *argv, "--output", str(path))
    assert code == 0
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert path.read_bytes() == json.dumps(json.loads(out)["cover"]).encode()


def test_cover_verify_roundtrip_and_tamper(capsys, tmp_path):
    path = tmp_path / "cover.json"
    code, _ = run(capsys, "cover", "build", "gold2", "--n", "6", "--t", "2",
                  "--output", str(path))
    assert code == 0

    code, out = run(capsys, "cover", "verify", "--input", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["valid"] and verdict["totally_skew"]

    blob = json.loads(path.read_text())
    blob["flats"][1] = blob["flats"][0]  # duplicate a flat
    path.write_text(json.dumps(blob))
    code, out = run(capsys, "cover", "verify", "--input", str(path))
    assert code == 1
    verdict = json.loads(out)
    assert not verdict["valid"]
    assert [0, 1] in verdict["overlapping_flat_pairs"]


def test_codeweights_examples(capsys):
    code, out = run(capsys, "codeweights", "--n", "4", "--d", "14")
    assert code == 0
    assert "N3=5" in out and "N4=0" in out
    code, out = run(capsys, "codeweights", "--n", "5", "--d", "15")
    assert code == 0
    assert "N3=0" in out and "N4=0" in out
    code, out = run(capsys, "codeweights", "--n", "6", "--d", "9", "--method", "both")
    assert code == 0
    assert "agree=True" in out
    # the direct count reaches n = 8 for both weights; 85 + 3570 is the
    # d = 7 entry of the paper's n = 8 row
    code, out = run(capsys, "codeweights", "--n", "8", "--d", "7", "--method", "both")
    assert (code, out) == (0, "n=8 d=7 method=both N3=85 N4=3570 direct_N3=85 direct_N4=3570 "
                              "agree=True\n")
    code, out = run(capsys, "codeweights", "--n", "7", "--d", "7", "--method", "direct")
    assert (code, out) == (0, "n=7 d=7 method=direct N3=0 N4=889\n")
    code = main(["codeweights", "--n", "9", "--d", "7", "--method", "direct"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "capped at n <= 8" in captured.err


def test_kloosterman_command(capsys):
    code, out = run(capsys, "kloosterman", "--n", "6")
    assert code == 0
    assert out.strip() == "K(6) = -8"
    code, out = run(capsys, "kloosterman", "--format", "json")
    assert code == 0
    values = json.loads(out)
    assert values["7"] == -12
    assert len(values) == 15


def test_csv_output_of_summary_commands(capsys):
    code, out = run(capsys, "codeweights", "--n", "6", "--d", "9", "--format", "csv")
    assert code == 0
    assert out == "n,6\nd,9\nmethod,flats\nN3,63\nN4,945\n"
    code, out = run(capsys, "codeweights", "--n", "6", "--d", "9", "--method", "both",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[-3:] == ["direct_N3,63", "direct_N4,945", "agree,True"]
    code, out = run(capsys, "kloosterman", "--n", "6", "--format", "csv")
    assert code == 0
    assert out == "6,-8\n"
    code, out = run(capsys, "kloosterman", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [f"{n},{kloosterman(n)}" for n in range(2, 17)]
    code, out = run(capsys, "cover", "build", "gold2", "--n", "6", "--t", "2", "--verbose",
                    "--format", "csv")
    assert code == 0
    assert out == ("kind,gold2\nn,6\nt,2\ndimension,2\nflats,16\n"
                   "valid,True\nnonparallel,True\ntotally_skew,True\n")


def test_kloosterman_json_is_indented(capsys):
    code, out = run(capsys, "kloosterman", "--n", "6", "--format", "json")
    assert code == 0
    assert out == '{\n  "6": -8\n}\n'


def test_reducible_modulus_exit_2(capsys):
    # x^3 is APN over GF(16); 21 = (x^2 + x + 1)^2 makes a ring, not a field
    code, out = run(capsys, "vflats", "count", "--n", "4", "--modulus", "21",
                    "--monomial", "3")
    assert code == 2
    assert out == ""


def test_cover_commands_verify_each_cover_once(capsys, tmp_path, monkeypatch):
    calls = []
    real = covers.verify_cover
    monkeypatch.setattr(covers, "verify_cover", lambda c: calls.append(c) or real(c))
    path = tmp_path / "cover.json"
    code, out = run(capsys, "cover", "build", "thm8", "--n", "9", "--t", "3",
                    "--output", str(path))
    assert code == 0 and "nonparallel=True totally_skew=True" in out
    assert len(calls) == 1
    code, out = run(capsys, "cover", "verify", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"valid": True, "nonparallel": True, "totally_skew": True}
    assert len(calls) == 2


def test_cover_verify_points_outside_field(capsys, tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"field": {"n": 2, "modulus": 7}, "dimension": 1,
                                "flats": [{"base": 0, "basis": [1]},
                                          {"base": 4, "basis": [1]}]}))
    code, out = run(capsys, "cover", "verify", "--input", str(path))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_cover_verify_flat_wider_than_field_exit_2(capsys, tmp_path):
    # 40 independent vectors: listing the overlaps would mark 2^40 points
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"field": {"n": 3, "modulus": 11}, "dimension": 1,
                                "flats": [{"base": 0, "basis": [1]},
                                          {"base": 0, "basis": [1 << k for k in range(40)]}]}))
    code = main(["cover", "verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'flats[1]'" in captured.err


@pytest.mark.parametrize("dimension", [-1, 64])
def test_cover_verify_dimension_out_of_range_exit_2(capsys, tmp_path, dimension):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"field": {"n": 3, "modulus": 11}, "dimension": dimension,
                                "flats": [{"base": 0, "basis": [1]}]}))
    code = main(["cover", "verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'dimension'" in captured.err


def test_repeated_do_terms_add(capsys):
    # x^3 + x^3 = 0: the count of the zero function, as for --univariate
    zero = run(capsys, "vflats", "count", "--n", "5", "--univariate", "1:3,1:3")
    assert zero == (0, "1240\n")
    assert run(capsys, "vflats", "count", "--n", "5", "--do", "0,1:1,0,1:1") == zero
    assert run(capsys, "vflats", "count", "--n", "6", "--do", "0,3:1,0,3:2") == \
        run(capsys, "vflats", "count", "--n", "6", "--do", "0,3:3")
    assert parse_do_terms(GF(5), "0,1:1,2,3:4,0,1:2").coeffs == {(0, 1): 3, (2, 3): 4}


def test_cover_verify_missing_key_exit_2(capsys, tmp_path):
    path = tmp_path / "cover.json"
    code, _ = run(capsys, "cover", "build", "gold2", "--n", "6", "--t", "2",
                  "--output", str(path))
    assert code == 0
    blob = json.loads(path.read_text())
    del blob["flats"]
    path.write_text(json.dumps(blob))
    code = main(["cover", "verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "'flats'" in captured.err


@pytest.mark.parametrize("edit, field", [
    (lambda blob: blob["flats"][0].update(basis=["x"]), "basis[0]"),
    (lambda blob: blob["field"].update(n="6"), "n"),
], ids=["basis-string", "n-string"])
def test_cover_verify_wrong_type_exit_2(capsys, tmp_path, edit, field):
    path = tmp_path / "cover.json"
    code, _ = run(capsys, "cover", "build", "gold2", "--n", "6", "--t", "2",
                  "--output", str(path))
    assert code == 0
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    code = main(["cover", "verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert repr(field) in captured.err
    assert "Traceback" not in captured.err


def test_json_output(capsys):
    code, out = run(capsys, "vflats", "count", "--n", "4", "--monomial", "14",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "block_count": 5}


def test_parameter_errors_exit_2(capsys):
    code, _ = run(capsys, "vflats", "count", "--n", "4", "--monomial", "0")
    assert code == 2
    code, _ = run(capsys, "vflats", "count", "--n", "4",
                  "--table-file", "/no/such/file")
    assert code == 2
    code, _ = run(capsys, "table", "table2", "--n", "9")
    assert code == 2
    code, _ = run(capsys, "cover", "build", "gold2", "--n", "5", "--t", "2")
    assert code == 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["vflats", "count", "--n", "4"])  # no source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cover", "verify"])  # no --input
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "table1", "--n", "6"])  # no --family
    assert exc.value.code == 2


VERIFY = ["cover", "verify", "--input", "COVER"]
GOLD2 = ["cover", "build", "gold2", "--n", "9", "--t", "3"]
THM8 = ["cover", "build", "thm8", "--n", "9", "--t", "3"]
UNREAD_OPTIONS = {
    "table2 --family": ["table", "table2", "--n", "6", "--family", "gold"],
    "table2 --t": ["table", "table2", "--n", "6", "--t", "2"],
    "verify kind": ["cover", "verify", "gold2", "--input", "COVER"],
    "verify --n": VERIFY + ["--n", "6"],
    "verify --modulus": VERIFY + ["--modulus", "67"],
    "verify --t": VERIFY + ["--t", "2"],
    "verify --x": VERIFY + ["--x", "3"],
    "verify --y": VERIFY + ["--y", "5"],
    "verify --alpha": VERIFY + ["--alpha", "7"],
    "verify --output": VERIFY + ["--output", "COVER"],
    "verify --verbose": VERIFY + ["--verbose"],
    "verify --format": VERIFY + ["--format", "csv"],
    "gold2 --alpha": GOLD2 + ["--alpha", "7"],
    "gold2 --input": GOLD2 + ["--input", "COVER"],
    "thm8 --x": THM8 + ["--x", "3"],
    "thm8 --y": THM8 + ["--y", "5"],
    "thm8 --input": THM8 + ["--input", "COVER"],
}


@pytest.mark.parametrize("case", sorted(UNREAD_OPTIONS))
def test_option_the_command_does_not_read_exit_2(case, capsys, tmp_path):
    path = tmp_path / "cover.json"
    assert main(["cover", "build", "gold2", "--n", "6", "--t", "2", "--output", str(path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([str(path) if a == "COVER" else a for a in UNREAD_OPTIONS[case]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "kloosterman", "--n", "7") == (0, "K(7) = -12\n")
    with pytest.raises(SystemExit) as exc:
        main(["kloosterman", "--n", "7", "--d", "9"])
    assert exc.value.code == 2
    assert run(capsys, "kloosterman", "--n", "6") == (0, "K(6) = -8\n")
    assert cli.build_parser.cache_info().misses == 1


def test_cli_import_leaves_out_unused_stdlib():
    # fractions (with decimal), dataclasses (with inspect) and random cost
    # start-up and no command needs them
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import vanishingflats.cli; "
            "print(sorted({'fractions', 'decimal', 'random', 'dataclasses', 'inspect'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# Two argument lists per class, each valid and already canonical, that differ
# in the last field; and the dataclass options the class used to be made with.
PLAIN_CLASSES = [
    (AffineSubspace, [(5, (1, 2)), (5, (1, 6))], {"frozen": True}),
    (Cover, [(GF(2), 1, [AffineSubspace(0, (1,)), AffineSubspace(2, (1,))]),
             (GF(2), 1, [AffineSubspace(0, (1,)), AffineSubspace(3, (1,))])], {}),
    (PartialQuadrupleSystem, [(GF(3), [(0, 1, 2, 3)]), (GF(3), [(0, 1, 4, 5)])], {}),
    (ParityCheckSpec, [(GF(2), [1, 2, 3], [1, 3, 2]), (GF(2), [1, 2, 3], [3, 1, 2])], {}),
    (DifferentialSpectrum, [({0: 3, 2: 3}, 2, [((1, 2, 3), 2)], 0),
                            ({0: 3, 2: 3}, 2, [((1, 2, 3), 2)], 6)], {"eq": False}),
]


@pytest.mark.parametrize("cls, args, options", PLAIN_CLASSES,
                         ids=[c.__name__ for c, _, _ in PLAIN_CLASSES])
def test_plain_classes_behave_as_their_dataclasses(cls, args, options):
    twin = dataclasses.make_dataclass(cls.__name__, cls.__slots__, **options)
    objs, twins = [cls(*a) for a in args], [twin(*a) for a in args]
    first = args[0]
    assert cls(**dict(zip(cls.__slots__, first))) == objs[0]
    # a missing field, one too many, and an unknown or a repeated one in place of the last
    for make in (cls, twin):
        for bad_args, bad_kwargs in [(first[:-1], {}), ((*first, first[-1]), {}),
                                     (first[:-1], {"unknown": first[-1]}),
                                     (first[:-1], {cls.__slots__[0]: first[0]})]:
            with pytest.raises(TypeError):
                make(*bad_args, **bad_kwargs)
    if cls is DifferentialSpectrum:
        return  # its own __eq__ and __repr__: test_differential_spectrum_repr_leaves_out_classes
    assert list(map(repr, objs)) == list(map(repr, twins))
    assert [[x == y for y in objs] for x in objs] == [[x == y for y in twins] for x in twins]
    assert objs[0] == cls(*args[0]) and objs[0] != twins[0]
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    if cls.__hash__ is not None:
        assert list(map(hash, objs)) == list(map(hash, twins))
    last = cls.__slots__[-1]
    if options.get("frozen"):
        with pytest.raises(AttributeError):
            setattr(objs[0], last, getattr(objs[1], last))
        with pytest.raises(AttributeError):
            delattr(objs[0], last)
    else:
        setattr(objs[0], last, getattr(objs[1], last))
        assert objs[0] == objs[1]


def test_differential_spectrum_repr_leaves_out_classes():
    spec = FunctionTable.from_monomial(GF(3), 3).spectrum()
    assert repr(spec) == f"DifferentialSpectrum(counts={spec.counts!r}, uniformity=2)"
    assert DifferentialSpectrum.__hash__ is None


def test_thm8_alpha_zero_exit_2(capsys):
    code = main(["cover", "build", "thm8", "--n", "9", "--t", "3", "--alpha", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: alpha must be nonzero\n"


@pytest.mark.parametrize("kind,option", [("thm8", "alpha"), ("gold2", "x"), ("gold2", "y")])
@pytest.mark.parametrize("value", [64, -1])
def test_cover_build_element_out_of_range_names_the_option(capsys, kind, option, value):
    code = main(["cover", "build", kind, "--n", "6", "--t", "2", f"--{option}", str(value)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {option} = {value} out of range for GF(2^6, modulus=0x43)\n"


def test_cover_verify_deeply_nested_json_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code = main(["cover", "verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: maximum recursion depth exceeded")
    assert "Traceback" not in captured.err


def test_table_file_source(capsys, tmp_path):
    gf = GF(4)
    path = tmp_path / "table.txt"
    path.write_text("\n".join(str(gf.pow(x, 14)) for x in gf.elements()))
    code, out = run(capsys, "vflats", "count", "--n", "4",
                    "--table-file", str(path))
    assert code == 0
    assert out.strip() == "5"


@pytest.mark.parametrize("lines, bad", [
    (["0", "1", "", "3.0", "4", "5", "6", "7"], "line 4: '3.0'"),
    (["x"] + ["0"] * 7, "line 1: 'x'"),
    (["0"] * 7 + [" 0x7 "], "line 8: '0x7'"),
])
def test_table_file_line_that_is_not_an_integer_exit_2(capsys, tmp_path, lines, bad):
    path = tmp_path / "table.txt"
    path.write_text("\n".join(lines) + "\n")
    code = main(["vflats", "count", "--n", "3", "--table-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path} {bad} is not an integer\n"


@pytest.mark.parametrize("lines, bad", [
    (["0", "1", "2", "9", "4", "5", "6", "7"], " line 4: table entry 9 out of range"),
    (["0", "", "1", "2", "-1", "4", "5", "6", "7"], " line 5: table entry -1 out of range"),
    (["0", "1", "2", "3"], ": table must have 8 entries, got 4"),
    (["0"] * 9, ": table must have 8 entries, got 9"),
])
def test_table_file_entry_out_of_range_or_wrong_count_exit_2(capsys, tmp_path, lines, bad):
    path = tmp_path / "table.txt"
    path.write_text("\n".join(lines) + "\n")
    code = main(["vflats", "count", "--n", "3", "--table-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    field = " for GF(2^3, modulus=0xb)" if "range" in bad else ""
    assert captured.err == f"error: {path}{bad}{field}\n"


@pytest.mark.parametrize("terms, bad", [
    ("1:3,99:3", "term 99:3: coefficient 99 out of range for GF(2^3, modulus=0xb)"),
    ("1:3,1:-3", "term 1:-3: exponent must be non-negative"),
])
def test_univariate_term_out_of_range_names_the_term_exit_2(capsys, terms, bad):
    code = main(["vflats", "count", "--n", "3", "--univariate", terms])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {bad}\n"


def test_do_coefficient_out_of_range_names_the_term_exit_2(capsys):
    code = main(["vflats", "count", "--n", "3", "--do", "0,2:1,0,1:99"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: term 0,1:99: coefficient 99 out of range for GF(2^3, modulus=0xb)\n"


def test_term_parsers():
    gf = GF(6)
    f = parse_do_terms(gf, "0,3:1")
    assert f.coeffs == {(0, 3): 1}
    assert parse_do_terms(gf, "0,1:5,2,4:7").coeffs == {(0, 1): 5, (2, 4): 7}
    with pytest.raises(ValueError):
        parse_do_terms(gf, "nonsense")
    assert parse_univariate_terms("1:3,2:5") == [(1, 3), (2, 5)]
    with pytest.raises(ValueError):
        parse_univariate_terms("1:x")


# Exports that no package module, demo or benchmark op calls yet, each with
# the reason it stays public.
EXPORT_KEEP = {
    "flats_through_pair": "the pair-multiplicity profile of the partial quadruple "
                          "system (ROADMAP item 3) is defined through it",
}


# The classes that read or write JSON, each with the command that does.
JSON_READERS = {
    "GF": "cover verify --input reads the field of a cover",
    "AffineSubspace": "cover verify --input reads the flats of a cover",
    "Cover": "cover verify --input reads a cover",
}
JSON_WRITERS = {
    "GF": "cover build --output and vflats list --format json write the field",
    "AffineSubspace": "cover build --output writes the flats of a cover",
    "Cover": "cover build --output and --format json write a cover",
    "PartialQuadrupleSystem": "vflats list --format json writes the listing",
    "DifferentialSpectrum": "spectrum --format json writes the spectrum",
}


def test_json_only_at_the_cli_boundary():
    """from_json and to_json are defined only on the classes a command
    reads or writes as JSON: a reader or writer that no command uses is
    input or output code kept for nobody."""
    package = Path(__file__).resolve().parents[1] / "src" / "vanishingflats"
    classes = [node for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]

    def defining(method):
        return {c.name for c in classes
                if any(getattr(f, "name", None) == method for f in c.body)}
    assert defining("from_json") == set(JSON_READERS)
    assert defining("to_json") == set(JSON_WRITERS)


def test_every_export_is_called_outside_tests():
    """Each name imported in the package's __init__ occurs, outside its own
    definition, in a package module, a demo or a benchmark script: the public
    API is what the CLI, the demos and the benchmark call, and a member that
    only tests call belongs in tests/helpers.py."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "vanishingflats"
    tree = ast.parse((package / "__init__.py").read_text())
    exports = {alias.asname or alias.name: node.module
               for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    others = [p for p in [*package.glob("*.py"), *(root / "demos").glob("*.py"),
                          *(root / "bench").glob("*.py")] if p.name != "__init__.py"]
    unused = []
    for name, module in exports.items():
        texts = []
        for path in others:
            lines = path.read_text().splitlines()
            if path == package / f"{module}.py":
                for node in ast.parse("\n".join(lines)).body:
                    targets = getattr(node, "targets", [])
                    if (getattr(node, "name", None) == name
                            or any(getattr(t, "id", None) == name for t in targets)):
                        del lines[node.lineno - 1:node.end_lineno]
                        break
                else:
                    raise AssertionError(f"{name} has no definition in {module}")
            texts.append("\n".join(lines))
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts):
            unused.append(name)
    assert sorted(unused) == sorted(EXPORT_KEEP)
