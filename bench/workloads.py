"""The benchmark's workloads: seeded inputs, the op list of one pass, and the
oracle each op's output is checked against.

An op either calls the command line in-process through cli.main(argv), the
way a user runs it, or makes the library call demos/do_search.py makes. The
package receives only the generated inputs: table files, --do and
--univariate strings, and cover JSON files.

Ops run one after another in a closed loop: the next op starts only after
the previous one returned and was checked. A check may compare against a
value an earlier op of the same pass stored in the pass context.
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
import gc
import io
import json
from pathlib import Path
import random
import time

import oracles
from oracles import OracleFailure, expect


@dataclass
class Outcome:
    code: object = None   # exit code of a command; None for a library call
    out: str = ""
    err: str = ""
    value: object = None  # return value of a library call


@dataclass
class Op:
    name: str
    run: object             # () -> Outcome
    check: object           # (Outcome, ctx) -> None; raises OracleFailure
    probe: bool = False     # known-defect probe: expected to fail until fixed
    top: bool = False       # the workload's heaviest op, reported as top_op_s
    files: tuple = ()       # files the op writes, counted in cli.file_bytes


@dataclass
class Workload:
    name: str
    ops: list

    @property
    def top(self):
        return next(op for op in self.ops if op.top)


@dataclass
class OpResult:
    op: Op
    seconds: float
    error: str = None       # None when the op passed its oracle
    out_bytes: int = 0      # size of what the op printed; the output itself
                            # is dropped so that memory does not grow per pass
    scaled: float = None    # seconds at the reference host speed, when sampled


def run_pass(ops, tracer=None, sampler=None):
    """Run every op once, in order. Each op catches its own exceptions, so a
    failing op is recorded and the pass carries on. With a
    hostspeed.Sampler, the host speed is also sampled just before and after
    each op, and each op's time is also given at the reference host speed."""
    ctx = {}
    results = []
    for op_id, op in enumerate(ops):
        error = outcome = scaled = None
        gc.collect()  # every op starts from the same heap, whatever ran before
        if tracer:
            tracer.begin_op(op_id, op.name)
        if sampler:
            sampler.sample()
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # the op's failure is the measurement
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        seconds = end - start
        if sampler:
            sampler.sample()
            seconds -= sampler.inside(start, end)
            scaled = sampler.scaled(start, end)
        if tracer:
            tracer.end_op()
        if error is None:
            try:
                op.check(outcome, ctx)
            except OracleFailure as exc:
                error = str(exc)
            except Exception as exc:  # malformed output the check could not parse
                error = f"output unreadable: {type(exc).__name__}: {exc}"
        out_bytes = len(outcome.out.encode()) if outcome is not None else 0
        results.append(OpResult(op, seconds, error, out_bytes=out_bytes, scaled=scaled))
    return results


def cli_op(cli, argv, check, **kw):
    """An op running the command line; input files in argv are Paths, shown
    by file name in the op's name."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return Outcome(code, out.getvalue(), err.getvalue())
    return Op(" ".join(a.name if isinstance(a, Path) else a for a in argv), run, check, **kw)


def _write_table(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def _write_json(path, obj):
    path.write_text(json.dumps(obj))


# --- census ------------------------------------------------------------------

def census(rng, wd, pkg):
    cli = pkg.cli

    def count_is(want):
        def check(o, ctx):
            got = oracles.single_int(o)
            expect(got == want, f"count {got}, expected {want}")
        return check

    def table2(o, ctx):
        oracles.exit_code(o, 0)
        rows = {}
        for line in o.out.splitlines():
            d, rest = line.split(": ", 1)
            rows[int(d[2:])] = int(rest.split()[0])
        expect(rows == oracles.TABLE2[8], "table2 rows differ from the paper's n=8 row")

    def table1(want):
        def check(o, ctx):
            oracles.exit_code(o, 0)
            got = int(o.out.split(": ", 1)[1].split()[0])
            expect(got == want and o.out.strip().endswith("PASS"),
                   f"{o.out.strip()!r}, closed form {want}")
        return check

    def gold_spectrum(o, ctx):
        counts, total = oracles.spectrum_facts(o, 10)
        q, image = 1 << 10, 1 << 8   # derivative of x^(2^t+1), gcd(10, t) = 2: 4-to-1
        expect(counts == {0: (q - 1) * (q - image), 4: (q - 1) * image},
               f"Gold spectrum {counts}")
        expect(total == oracles.gold_count(10, 2), f"spectrum gives {total} flats")

    def d7_spectrum(o, ctx):
        _, total = oracles.spectrum_facts(o, 10)
        expect(total == oracles.d7_count(10), f"spectrum gives {total} flats")

    def weights_n9(o, ctx):
        kv = oracles.key_values(o)
        n3, all_ = oracles.gold_flats_through_zero(9, 3), oracles.gold_count(9, 3)
        expect((int(kv["N3"]), int(kv["N4"])) == (n3, all_ - n3),
               f"N3={kv['N3']} N4={kv['N4']}, expected {n3} and {all_ - n3}")

    def weights_n6(o, ctx):
        kv = oracles.key_values(o)
        flats, direct = (int(kv["N3"]), int(kv["N4"])), (int(kv["direct_N3"]), int(kv["direct_N4"]))
        expect(sum(flats) == oracles.TABLE2[6][7] and flats == direct and kv["agree"] == "True",
               f"flats {flats}, parity-check enumerator {direct}, expected total "
               f"{oracles.TABLE2[6][7]}")

    def member(d, n):
        return oracles.class_member(d, n, rng.randrange(n))

    ops = [cli_op(cli, ["table", "table2", "--n", "8"], table2)]
    for d, want in [(5, oracles.gold_count(10, 2)),          # Gold, t = 2
                    (13, oracles.gold_count(10, 2)),         # Kasami, t = 2
                    (1022, oracles.inverse_count(10)),       # inverse, 2^10 - 2
                    (63, oracles.half_plus_count(10)),
                    (67, oracles.twin_odd_t_count(10))]:
        ops.append(cli_op(cli, ["vflats", "count", "--n", "10", "--monomial", str(member(d, 10))],
                          count_is(want)))
    ops += [
        cli_op(cli, ["spectrum", "--n", "10", "--monomial", str(member(5, 10)),
                     "--format", "json"], gold_spectrum),
        cli_op(cli, ["spectrum", "--n", "10", "--monomial", str(member(7, 10)),
                     "--format", "json"], d7_spectrum),
        cli_op(cli, ["table", "table1", "--family", "gold", "--n", "10", "--t", "2"],
               table1(oracles.gold_count(10, 2))),
        cli_op(cli, ["table", "table1", "--family", "d7", "--n", "10"],
               table1(oracles.d7_count(10))),
        cli_op(cli, ["codeweights", "--n", "9", "--d", str(member(9, 9))], weights_n9),
        cli_op(cli, ["codeweights", "--n", "6", "--d", str(member(7, 6)), "--method", "both"],
               weights_n6),
        cli_op(cli, ["vflats", "count", "--n", "12", "--monomial", "7"],
               count_is(oracles.d7_count(12)), top=True),
        # x^3 is APN over GF(16), but 21 = (x^2+x+1)^2 is reducible: the right
        # answer is a clean usage error (exit 2)
        cli_op(cli, ["vflats", "count", "--n", "4", "--modulus", "21", "--monomial", "3"],
               lambda o, ctx: oracles.exit_code(o, 2), probe=True),
    ]
    return ops


# --- generic-tables ------------------------------------------------------------

def generic_tables(rng, wd, pkg):
    cli = pkg.cli
    terms = [(rng.randrange(1, 1 << 10), e) for e in rng.sample(range(1, (1 << 10) - 1), 3)]
    functions = []
    for n in (8, 10):
        values = [rng.randrange(1 << n) for _ in range(1 << n)]
        path = wd / f"table{n}.txt"
        _write_table(path, values)
        functions.append((f"table{n}", n, ["--table-file", path], values))
    functions.append(("uni10", 10, ["--univariate", ",".join(f"{c}:{e}" for c, e in terms)],
                      oracles.power_table(10, terms)))

    ops = []
    for key, n, source, values in functions:
        def spectrum(o, ctx, key=key, n=n):
            ctx[key, "spectrum"] = oracles.spectrum_facts(o, n)[1]

        def listing(o, ctx, key=key, values=values):
            got = oracles.listed_blocks(o, values)
            want = ctx.get((key, "spectrum"))
            expect(got == want, f"listed {got} blocks, spectrum identity gives {want}")
            ctx[key, "list"] = got

        def count(o, ctx, key=key):
            got = oracles.single_int(o)
            want = ctx.get((key, "list"))
            expect(got == want, f"count {got}, list length {want}")

        base = ["--n", str(n)] + source
        ops += [cli_op(cli, ["spectrum"] + base + ["--format", "json"], spectrum),
                cli_op(cli, ["vflats", "list"] + base, listing, top=key == "table10"),
                cli_op(cli, ["vflats", "count"] + base, count)]
    return ops


# --- do-ranks --------------------------------------------------------------------

def balanced_support(rng, n, size):
    """Random DO support whose cost does not depend on the seed.

    The work per term grows with i + j (the Frobenius powers x^(2^i)), so
    terms come in mirror pairs (i, j), (n-1-j, n-1-i), plus one self-mirror
    term (i, n-1-i) when size is odd: every support of a size has the same
    sum of i + j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if i + j < n - 1]
    support = set()
    while len(support) < size - size % 2:
        i, j = rng.choice(pairs)
        support |= {(i, j), (n - 1 - j, n - 1 - i)}
    if size % 2:
        i = rng.randrange(n // 2)   # i < n-1-i
        support.add((i, n - 1 - i))
    return sorted(support)


def do_ranks(rng, wd, pkg):
    cli, GF, DOPolynomial = pkg.cli, pkg.gf2n.GF, pkg.dopoly.DOPolynomial
    polys = [(8, size) for size in range(1, 7)] + [(10, 4)]
    ops = []
    for idx, (n, size) in enumerate(polys):
        coeffs = {t: rng.randrange(1, 1 << n) for t in balanced_support(rng, n, size)}
        terms = ",".join(f"{i},{j}:{c}" for (i, j), c in coeffs.items())

        def rank_count(n=n, coeffs=coeffs):
            return Outcome(value=DOPolynomial(GF(n), coeffs).count_vanishing_flats())

        def rank_check(o, ctx, n=n, idx=idx):
            # DO flats are closed under translation, so the count is a
            # multiple of 2^(n-2)
            v = o.value
            expect(isinstance(v, int) and 0 <= v <= oracles.all_flats(n)
                   and v % (1 << (n - 2)) == 0,
                   f"rank count {v!r} is not a multiple of 2^{n - 2} in range")
            ctx[idx] = v

        def spectrum_check(o, ctx, idx=idx):
            got = oracles.single_int(o)
            expect(got == ctx.get(idx), f"spectrum count {got}, rank count {ctx.get(idx)}")

        ops += [Op(f"DOPolynomial.count_vanishing_flats n={n} terms={terms}",
                   rank_count, rank_check, top=n == 10),
                cli_op(cli, ["vflats", "count", "--n", str(n), "--do", terms], spectrum_check)]
    return ops


# --- covers ------------------------------------------------------------------------

def _trivial_cover(n, basis):
    """Cosets of span(basis), as cover JSON; representatives ascending."""
    covered = bytearray(1 << n)
    flats = []
    span = oracles.span(basis)
    for x in range(1 << n):
        if not covered[x]:
            flats.append({"base": x, "basis": list(basis)})
            for v in span:
                covered[x ^ v] = 1
    return {"field": {"n": n, "modulus": oracles.MODULI[n]}, "dimension": len(basis),
            "flats": flats}


def covers(rng, wd, pkg):
    cli = pkg.cli
    builds = [("gold2", 9, 3, 2, ["--x", str(rng.randrange(1, 1 << 9))]),
              ("thm8", 12, 4, 4, ["--alpha", str(rng.randrange(1, 1 << 12))]),
              ("thm8", 15, 5, 5, ["--alpha", str(rng.randrange(1, 1 << 15))])]
    ops = []
    verifies = []
    for kind, n, t, dim, extra in builds:
        path = wd / f"{kind}_{n}.json"

        def build_check(o, ctx, path=path, n=n, dim=dim, kind=kind):
            kv = oracles.key_values(o)
            facts = oracles.cover_facts(json.loads(path.read_text()), n, dim)
            if kind == "thm8":   # Theorem 8: the cover is totally skew
                expect(facts[1], "theorem-8 cover is not totally skew")
            want = {"dimension": str(dim), "flats": str(1 << (n - dim)), "valid": "True",
                    "nonparallel": str(facts[0]), "totally_skew": str(facts[1])}
            got = {k: kv.get(k) for k in want}
            expect(got == want, f"summary {got}, expected {want}")
            ctx[path] = facts

        def verify_check(o, ctx, path=path):
            oracles.exit_code(o, 0)
            facts = ctx.get(path)
            expect(facts is not None, "no built cover to compare with")
            want = {"valid": True, "nonparallel": facts[0], "totally_skew": facts[1]}
            expect(json.loads(o.out) == want, f"verify says {o.out.strip()}, expected {want}")

        ops.append(cli_op(cli, ["cover", "build", kind, "--n", str(n), "--t", str(t)] + extra
                          + ["--output", path], build_check, top=n == 15, files=(path,)))
        verifies.append(cli_op(cli, ["cover", "verify", "--input", path], verify_check))
    ops += verifies

    # a valid cover with one flat moved onto another: exactly that pair overlaps
    u = rng.randrange(1, 1 << 9)
    v = rng.choice([w for w in range(1, 1 << 9) if w != u])
    corrupt = _trivial_cover(9, [u, v])
    i, j = sorted(rng.sample(range(len(corrupt["flats"])), 2))
    corrupt["flats"][j]["base"] = corrupt["flats"][i]["base"]
    _write_json(wd / "overlap.json", corrupt)

    def overlap_check(o, ctx, pair=[i, j]):
        oracles.exit_code(o, 1)
        want = {"valid": False, "overlapping_flat_pairs": [pair]}
        expect(json.loads(o.out) == want, f"verify says {o.out.strip()}, expected {want}")

    ops.append(cli_op(cli, ["cover", "verify", "--input", wd / "overlap.json"],
                      overlap_check))

    # known-defect probes: the right outcome is a rejection (valid false, or a
    # clean exit 2 naming the bad field)
    base = 4 + 2 * rng.randrange(64)
    _write_json(wd / "out_of_field.json", {
        "field": {"n": 2, "modulus": oracles.MODULI[2]}, "dimension": 1,
        "flats": [{"base": 0, "basis": [1]}, {"base": base, "basis": [1]}]})

    def out_of_field_check(o, ctx):
        rejected = o.code == 2 or (o.code == 1 and json.loads(o.out).get("valid") is False)
        expect(rejected, f"cover with points {base}, {base + 1} outside GF(4) accepted: "
                         f"exit {o.code}, {o.out.strip()[:60]!r}")

    missing = dict(corrupt)
    del missing["flats"]
    _write_json(wd / "no_flats.json", missing)
    ops += [
        cli_op(cli, ["cover", "verify", "--input", wd / "out_of_field.json"],
               out_of_field_check, probe=True),
        cli_op(cli, ["cover", "verify", "--input", wd / "no_flats.json"],
               lambda o, ctx: oracles.exit_code(o, 2), probe=True),
    ]
    return ops


# Why each workload was chosen is recorded in bench/README.md and BENCHMARK.json.
WORKLOADS = {"census": census, "generic-tables": generic_tables, "do-ranks": do_ranks,
             "covers": covers}


def build(name, seed, wd, pkg):
    """The op list of one pass of the named workload, with its inputs written
    under wd. The same seed gives the same inputs."""
    ops = WORKLOADS[name](random.Random(f"{name}:{seed}"), wd, pkg)
    return Workload(name, ops)
