"""Golden CLI output: the sha256 of stdout for a fixed set of commands.

A change that claims identical output on these commands is held to it here.
To re-record a hash after an intended output change, print
hashlib.sha256(stdout).hexdigest() for the case and update GOLDEN.
"""

import hashlib
import json

import pytest

from vanishingflats import vflats
from vanishingflats.cli import main


def _stdout(capsys, argv):
    main(argv)
    return capsys.readouterr().out


def _built_cover(capsys, tmp_path):
    path = tmp_path / "built.json"
    _stdout(capsys, ["cover", "build", "thm8", "--n", "12", "--t", "4", "--output", str(path)])
    return path


def _overlapping_cover(capsys, tmp_path):
    """A gold2 cover with one flat duplicated and one base moved by 1."""
    path = tmp_path / "overlap.json"
    _stdout(capsys, ["cover", "build", "gold2", "--n", "6", "--t", "2", "--output", str(path)])
    blob = json.loads(path.read_text())
    blob["flats"][1] = blob["flats"][0]
    blob["flats"][5]["base"] ^= 1
    path.write_text(json.dumps(blob))
    return path


def _parallel_cover(capsys, tmp_path):
    """The trivial cover of span{1, 2} at n = 4, its four flats given four
    different ordered bases of that plane: valid, and parallel only after
    every basis is reduced to its rref."""
    path = tmp_path / "parallel.json"
    bases = [[1, 2], [2, 1], [1, 3], [3, 2]]
    path.write_text(json.dumps({"field": {"n": 4, "modulus": 19}, "dimension": 2,
                                "flats": [{"base": 4 * i, "basis": b}
                                          for i, b in enumerate(bases)]}))
    return path


CASES = {
    "thm8-12-4-json": ["cover", "build", "thm8", "--n", "12", "--t", "4", "--format", "json"],
    "thm8-15-5-alpha-json": ["cover", "build", "thm8", "--n", "15", "--t", "5",
                             "--alpha", "1234", "--format", "json"],
    "gold2-9-3": ["cover", "build", "gold2", "--n", "9", "--t", "3"],
    "verify-built": ["cover", "verify", "--input", _built_cover],
    "verify-overlapping": ["cover", "verify", "--input", _overlapping_cover],
    "verify-parallel": ["cover", "verify", "--input", _parallel_cover],
    "spectrum-10-7-json": ["spectrum", "--n", "10", "--monomial", "7", "--format", "json"],
    "vflats-list-7-7": ["vflats", "list", "--n", "7", "--monomial", "7"],
    "vflats-count-8-univariate": ["vflats", "count", "--n", "8", "--univariate", "1:7,3:11"],
    "spectrum-10-do-json": ["spectrum", "--n", "10", "--do", "0,3:1,1,5:7,2,9:300",
                            "--format", "json"],
    "vflats-count-12-do": ["vflats", "count", "--n", "12", "--do",
                           "0,1:5,2,7:91,3,11:1234,4,6:77"],
    "spectrum-8-univariate-json": ["spectrum", "--n", "8", "--univariate", "1:7,3:11,5:13",
                                   "--format", "json"],
    "vflats-list-8-univariate": ["vflats", "list", "--n", "8", "--univariate", "1:7,3:11,5:13"],
    "vflats-list-7-7-json": ["vflats", "list", "--n", "7", "--monomial", "7", "--format", "json"],
    "vflats-list-7-7-csv": ["vflats", "list", "--n", "7", "--monomial", "7", "--format", "csv"],
    "vflats-list-5-3-apn": ["vflats", "list", "--n", "5", "--monomial", "3"],
    "codeweights-9-9": ["codeweights", "--n", "9", "--d", "9"],
    "codeweights-9-9-json": ["codeweights", "--n", "9", "--d", "9", "--format", "json"],
    "gold2-6-2-verbose": ["cover", "build", "gold2", "--n", "6", "--t", "2", "--verbose"],
    "spectrum-9-5-csv": ["spectrum", "--n", "9", "--monomial", "5", "--format", "csv"],
    "table2-6-csv": ["table", "table2", "--n", "6", "--format", "csv"],
    # 43,522 blocks of a random univariate at n = 10, the generic-tables shape
    "vflats-list-10-univariate": ["vflats", "list", "--n", "10", "--univariate",
                                  "505:1008,744:684,1022:358"],
    "vflats-list-10-univariate-csv": ["vflats", "list", "--n", "10", "--univariate",
                                      "505:1008,744:684,1022:358", "--format", "csv"],
    "table1-gold-10-2": ["table", "table1", "--family", "gold", "--n", "10", "--t", "2"],
    "table1-gold-10-2-csv": ["table", "table1", "--family", "gold", "--n", "10", "--t", "2",
                             "--format", "csv"],
    "table1-d7-7-json": ["table", "table1", "--family", "d7", "--n", "7", "--format", "json"],
    "thm8-9-3-csv": ["cover", "build", "thm8", "--n", "9", "--t", "3", "--format", "csv"],
    "vflats-count-8-univariate-csv": ["vflats", "count", "--n", "8", "--univariate", "1:7,3:11",
                                      "--format", "csv"],
    "kloosterman": ["kloosterman"],
    "vflats-list-5-3-apn-csv": ["vflats", "list", "--n", "5", "--monomial", "3",
                                "--format", "csv"],
    # x^3 + 7x^36 + x + 5: degree 2 with affine terms, so it takes the rank
    # route; recorded when every univariate ran the generic kernel
    "spectrum-10-univariate-affine-json": ["spectrum", "--n", "10", "--univariate",
                                           "3:3,7:36,1:1,5:0", "--format", "json"],
}

GOLDEN = {
    "thm8-12-4-json": "eeeb1333440ad4e7c6315b796e7505dc1a459bd38d598122f451ad81be2c9407",
    "thm8-15-5-alpha-json": "638f881af71047f23c4f74628538abf2a3455f65b629bd516f672999ba78f254",
    "gold2-9-3": "d801ad098a70195e9afe66136acd5e99b3e9f5c25aa1f073c2322c2b864680f8",
    "verify-built": "de50b4dfaf5514aa0563c0362d9b5c79d001343725995ec610bdcb59834e5a2f",
    "verify-overlapping": "3aa3c45d6dfaf515f5500f9705fdaec51b5ec2a96242148e1c7cb98174e425fc",
    "verify-parallel": "4b764a1f067eae8c4d8ce9cc586dfbb4531f2c260345c276a75fee445e47de32",
    "spectrum-10-7-json": "94f452ed86215bd8100dc587f555147122939b2171c962ef7bf0143c77341fc3",
    "vflats-list-7-7": "0bbad5b3e9da44f215473ae0ffb1e5139a963ed2be611981082f37946d7d5221",
    "vflats-count-8-univariate": "5e4d888a844cdde40bee4c109f3890130e787c006a092154df02f0627d979cd4",
    "spectrum-10-do-json": "d5bd55873bf8ddc099743dfd1e25be05e81e22694ddccb1f0d8a1f83f88c177e",
    "vflats-count-12-do": "2d41557d435cdbd7263c00824e1023fc87de4dcdc894cf0259d7c5bc8b930288",
    "spectrum-8-univariate-json": "ad0dba2389a6d354d7f033df1545599636e242792460f88b3a42a7a4de7e704c",
    "vflats-list-8-univariate": "0ae2847e1a80dc11a6bea54cdfe508d8e5e4dfe61b6b817b9a9775eb8d292f0d",
    "vflats-list-7-7-json": "5c8a3b42d705e1b7fe995f6ae79aaabe09e317e85a6a5c9b75347326bf464694",
    "vflats-list-7-7-csv": "c1e127b10243d128e23f37d94f691c031cb6238ce37ff73827f44d9f2f6301ec",
    "vflats-list-5-3-apn": "1e0abd588610c5ff8ccdd74b5c35cb644b5851645f982c8ffc28aac5c381f1f5",
    "codeweights-9-9": "576c11276eb61030efaa9cc57ab6c64e02de002dba58b00b41a59e42f7844e2d",
    "codeweights-9-9-json": "dca8bfb03b4034c74bf3dfb4e96382913670131e58a8ffb376339b9cf5cdb6c5",
    "gold2-6-2-verbose": "e498b2eb664b6d70fd15cba02e946ab39b18ba3036d772eac85e9493c4fed813",
    "spectrum-9-5-csv": "51c88b59e95f7d3063ea854ae659a221b266c3f4716adccccc3e57118f29a680",
    "table2-6-csv": "0fd59e2f928924078d77577176d0da49d94de5163036bca707da4b048a6dc3c2",
    "vflats-list-10-univariate": "ce10dd978202a10d992b2ee0adeeca807ede92309033c6e174a84a145b2d606b",
    "vflats-list-10-univariate-csv":
        "d538085bfb8625ceae5b67c11157196de73eaae1e5e8492fbe37e275e51008c3",
    "table1-gold-10-2": "560c67698af4c65939238e5fe73cae7f974fbe86ba84e01b5e1eb679a0cb5a9e",
    "table1-gold-10-2-csv": "8cff5696e66e14b8d455fda969e5e06ed155c14d59e5cc28a2fed7ef39062541",
    "table1-d7-7-json": "d230f14a576a590c7a05914f36462be2e50ebee55cdf63965cd6649276847ac6",
    "thm8-9-3-csv": "af4fee08e974140320b96bbc3b31ccb30e01fe02fefca528ebbbc50abb43107c",
    "vflats-count-8-univariate-csv":
        "683662f7a48c12d100c10cf45c1c43cffdf23464c452aed68cee64358000bf8c",
    "kloosterman": "2a644a5bcc304a75444a902e7e9a887fd0178bdaaa1c136791cb833ade723501",
    "vflats-list-5-3-apn-csv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "spectrum-10-univariate-affine-json":
        "4683abc7eacc2b0d8aff562140003929d46e33d2503c8d6e2134df94a8b2286c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden_hash(case, capsys, tmp_path):
    argv = [str(a(capsys, tmp_path)) if callable(a) else a for a in CASES[case]]
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]


def test_univariate_count_golden_value(capsys):
    assert _stdout(capsys, CASES["vflats-count-8-univariate"]) == "2760\n"


def test_do_count_golden_value(capsys):
    assert _stdout(capsys, CASES["vflats-count-12-do"]) == "714752\n"


def test_parallel_cover_golden_value(capsys, tmp_path):
    argv = [str(a(capsys, tmp_path)) if callable(a) else a for a in CASES["verify-parallel"]]
    assert _stdout(capsys, argv) == '{"valid": true, "nonparallel": false, "totally_skew": false}\n'


def test_apn_listing_is_header_only(capsys):
    assert _stdout(capsys, CASES["vflats-list-5-3-apn"]) == "0 blocks\n"


def test_apn_csv_listing_is_empty(capsys):
    assert _stdout(capsys, CASES["vflats-list-5-3-apn-csv"]) == ""


@pytest.mark.parametrize("case", ["vflats-list-7-7", "vflats-list-7-7-csv",
                                  "vflats-list-5-3-apn", "vflats-list-5-3-apn-csv"])
def test_listing_bytes_do_not_depend_on_the_chunk_size(case, capsys, monkeypatch):
    # 889 blocks: chunks of 1, 2 and 7 blocks split them unevenly, and the
    # default prints them as one chunk; an empty listing has no chunk at all
    want = _stdout(capsys, CASES[case])
    for chunk in (1, 2, 7):
        monkeypatch.setattr(vflats, "TEXT_CHUNK", chunk)
        assert _stdout(capsys, CASES[case]) == want
    assert hashlib.sha256(want.encode()).hexdigest() == GOLDEN[case]
