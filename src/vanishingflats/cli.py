"""Command-line interface: spectra, vanishing flats, covers, code weights.

Exit codes: 0 success, 1 a verification failed, 2 usage or parameter error.
"""

import argparse
import functools
from itertools import islice
import json
import re
import sys

from .gf2n import GF, MAX_DEGREE, kloosterman
from .boolfunc import FunctionTable
from . import vflats, covers, cycliccode
from .dopoly import DOPolynomial, QuadraticFunction


def _add_field_args(p):
    p.add_argument("--n", type=int, required=True, help="extension degree")
    p.add_argument("--modulus", type=int, default=None,
                   help="override the default irreducible modulus (integer encoding)")


def _add_source_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--monomial", type=int, metavar="D", help="power function x^D")
    src.add_argument("--do", metavar="TERMS",
                     help="DO polynomial terms as comma-separated i,j:c entries")
    src.add_argument("--univariate", metavar="TERMS",
                     help="univariate terms as comma-separated c:e entries")
    src.add_argument("--table-file", metavar="PATH",
                     help="raw value table, one integer per line")


def _add_format_arg(p):
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


_DO_TERM = re.compile(r"(\d+),(\d+):(\d+)")


def parse_do_terms(gf, text):
    matches = _DO_TERM.findall(text)
    if ",".join(f"{i},{j}:{c}" for i, j, c in matches) != text:
        raise ValueError(f"bad DO terms {text!r}; expected comma-separated i,j:c entries")
    return DOPolynomial(gf, [((int(i), int(j)), int(c)) for i, j, c in matches])


def parse_univariate_terms(text):
    terms = []
    for entry in text.split(","):
        c, _, e = entry.partition(":")
        try:
            terms.append((int(c), int(e)))
        except ValueError:
            raise ValueError(f"bad term {entry!r}; expected c:e") from None
    return terms


def read_table_file(gf, path):
    """The value table over gf in a file of integers, one a line; blank lines
    are skipped. A line that is not an integer or not an element of gf
    raises a ValueError naming the file and the line (1-based), and a count
    of entries other than 2^n one naming the file."""
    values = []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            if line.strip():
                try:
                    v = int(line)
                except ValueError:
                    raise ValueError(f"{path} line {i}: {line.strip()!r} "
                                     "is not an integer") from None
                if not 0 <= v < gf.order:
                    raise ValueError(f"{path} line {i}: table entry {v} out of range for {gf!r}")
                values.append(v)
    if len(values) != gf.order:
        raise ValueError(f"{path}: table must have {gf.order} entries, got {len(values)}")
    return FunctionTable(gf, values)


def load_function(args):
    """x^d, or the source's table: a QuadraticFunction if its degree is <= 2."""
    gf = GF(args.n, args.modulus)
    if args.monomial is not None:
        return FunctionTable.from_monomial(gf, args.monomial)
    if args.do is not None:
        table = parse_do_terms(gf, args.do).to_table()
    elif args.univariate is not None:
        table = FunctionTable.from_univariate(gf, parse_univariate_terms(args.univariate))
    else:
        table = read_table_file(gf, args.table_file)
    return QuadraticFunction.promote(table)


def _emit(args, payload, lines, rows):
    """Print the one format --format picks, and build only that one:
    payload is a zero-argument function giving the JSON object, and lines
    (text) and rows (CSV) are iterables, lazy where they are large, each
    line and row printed as it is made. A line, or a row's cell, may hold
    several lines of output. JSON is the text of json.dumps(indent=2),
    written 8,192 chunks of its encoder at a time: few writes, never whole."""
    if args.format == "json":
        chunks = json.JSONEncoder(indent=2).iterencode(payload())
        while batch := "".join(islice(chunks, 8192)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    elif args.format == "csv":
        for row in rows:
            print(",".join(map(str, row)))
    else:
        for line in lines:
            print(line)


def cmd_spectrum(args):
    f = load_function(args)
    spec = f.spectrum()
    q1 = f.field.order - 1

    def lines():
        yield f"uniformity {spec.uniformity}"
        for k, l in spec.csv_rows():
            w = f"  (w={l // q1})" if l % q1 == 0 else ""
            yield f"l_{k} = {l}{w}"
        dirs = sorted({u for _, u in spec.classes})
        yield "per-direction uniformities: " + ", ".join(map(str, dirs))

    _emit(args, spec.to_json, lines(), spec.csv_rows())
    return 0


# Most blocks `vflats list` prints: the blocks are most of its memory, and
# the 996,450 blocks of x^1036 at n = 12 peak at about 101 MB RSS as text,
# CSV or JSON.
LIST_LIMIT = 1_000_000


def cmd_vflats_count(args):
    count = vflats.count_via_spectrum(load_function(args))
    _emit(args, lambda: {"n": args.n, "block_count": count}, [str(count)],
          [("block_count", count)])
    return 0


def cmd_vflats_list(args):
    pqs = vflats.enumerate_flats(load_function(args), limit=LIST_LIMIT)

    def lines():
        yield f"{len(pqs)} blocks"
        yield from pqs.text_chunks()

    # one row a chunk, one cell each, the text with commas: the bytes one
    # row per block gives
    rows = ((chunk.replace(" ", ","),) for chunk in pqs.text_chunks())
    _emit(args, pqs.to_json, lines(), rows)
    return 0


def cmd_table1(args):
    d, count = vflats.closed_form(args.family, args.n, t=args.t)
    line = f"{args.family} n={args.n}" + (f" t={args.t}" if args.t else "") + f": {count}"
    status = "unchecked"  # no field, so no brute force, beyond MAX_DEGREE
    if args.n <= MAX_DEGREE:
        gf = GF(args.n, args.modulus)
        brute = vflats.count_via_spectrum(FunctionTable.from_monomial(gf, d))
        status = "PASS" if brute == count else "FAIL"
        line += " PASS" if brute == count else f" FAIL (brute force {brute})"
    elif args.modulus is not None:
        raise ValueError(f"--modulus given, but no field is built at n = {args.n} > {MAX_DEGREE}")
    row = (args.family, args.n, "" if args.t is None else args.t, count, status)
    failures = int(status == "FAIL")
    _emit(args, lambda: {"results": [line], "failures": failures}, [line], [row])
    return failures


def cmd_table2(args):
    if not 2 <= args.n <= 8:
        raise ValueError("table2 covers 2 <= n <= 8")
    failures = 0
    lines = []
    rows = []
    gf = GF(args.n, args.modulus)
    for d, expected in vflats.KNOWN_MONOMIAL_COUNTS[args.n]:
        got = vflats.count_via_spectrum(FunctionTable.from_monomial(gf, d))
        ok = got == expected
        failures += not ok
        lines.append(f"d={d}: {got} {'PASS' if ok else f'FAIL (expected {expected})'}")
        rows.append((args.n, d, got, expected, "PASS" if ok else "FAIL"))
    _emit(args, lambda: {"results": lines, "failures": failures}, lines, rows)
    return 1 if failures else 0


def cmd_cover_verify(args):
    with open(args.input) as fh:
        cover = covers.Cover.from_json(json.load(fh))
    props = covers.cover_properties(cover)
    if props["valid"]:
        print(json.dumps(props))
        return 0
    bad = covers.overlapping_flats(cover)
    print(json.dumps({"valid": False, "overlapping_flat_pairs": bad}))
    return 1


def cmd_cover_build(args):
    if args.kind == "gold2":
        cover = covers.gold_cover(args.n, args.t, x=args.x, y=args.y, modulus=args.modulus)
    else:
        cover = covers.theorem8_cover(args.n, args.t, alpha=args.alpha, modulus=args.modulus)
    props = covers.cover_properties(cover)
    if not props["valid"]:
        raise ValueError("not a valid cover")
    summary = {
        "kind": args.kind,
        "n": args.n,
        "t": args.t,
        "dimension": cover.dimension,
        "flats": len(cover),
        **props,
    }
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(cover.to_json()))  # the C encoder; json.dump is pure Python

    def lines():
        yield " ".join(f"{k}={v}" for k, v in summary.items())
        if cover.dimension <= 3 and args.verbose:
            yield cover.describe()

    _emit(args, lambda: {**summary, "cover": cover.to_json()}, lines(), summary.items())
    return 0


def cmd_codeweights(args):
    gf = GF(args.n, args.modulus)
    rep = cycliccode.report(gf, args.d, method=args.method)
    _emit(args, lambda: rep, [" ".join(f"{k}={v}" for k, v in rep.items())], rep.items())
    return 1 if rep.get("agree") is False else 0


def cmd_kloosterman(args):
    ns = range(2, 17) if args.n is None else [args.n]
    values = {n: kloosterman(n) for n in ns}
    _emit(args, lambda: values, (f"K({n}) = {v}" for n, v in values.items()), values.items())
    return 0


def _leaf(sub, name, func, help, *add_args):
    """A subcommand that runs func and takes exactly the options add_args add."""
    p = sub.add_parser(name, help=help)
    for add in add_args:
        add(p)
    p.set_defaults(func=func)
    return p


@functools.cache  # parsing keeps no state in the parser, so one serves every main()
def build_parser():
    parser = argparse.ArgumentParser(
        prog="vanishingflats",
        description="Differential spectra, vanishing flats, partial quadruple "
                    "systems, DO rank counts and affine-subspace covers over GF(2^n).")
    sub = parser.add_subparsers(dest="command", required=True)

    _leaf(sub, "spectrum", cmd_spectrum, "differential spectrum of a function",
          _add_field_args, _add_source_args, _add_format_arg)

    p = sub.add_parser("vflats", help="vanishing flats: count or list")
    modes = p.add_subparsers(dest="mode", required=True)
    for mode, func, help in (("count", cmd_vflats_count, "number of vanishing flats"),
                             ("list", cmd_vflats_list, "every vanishing flat, one per line")):
        _leaf(modes, mode, func, help, _add_field_args, _add_source_args, _add_format_arg)

    p = sub.add_parser("table", help="recompute the embedded reference tables")
    tables = p.add_subparsers(dest="which", required=True)
    p = _leaf(tables, "table1", cmd_table1, "closed-form count of a monomial family",
              _add_field_args, _add_format_arg)
    p.add_argument("--family", required=True, choices=[m.value for m in vflats.MonomialFamily])
    p.add_argument("--t", type=int, default=None,
                   help="the t of gold, kasami and niho; no other family takes one")
    _leaf(tables, "table2", cmd_table2, "every monomial class for 2 <= n <= 8",
          _add_field_args, _add_format_arg)

    p = sub.add_parser("cover", help="build or verify affine-subspace covers")
    actions = p.add_subparsers(dest="action", required=True)
    p = _leaf(actions, "verify", cmd_cover_verify, "verify a cover JSON file")
    p.add_argument("--input", required=True, help="cover JSON to verify")
    kinds = actions.add_parser("build").add_subparsers(dest="kind", required=True)
    for kind, help in (("gold2", "image of a dimension-2 cover under a Gold map"),
                       ("thm8", "totally skew cover of dimension gcd(n, t)")):
        p = _leaf(kinds, kind, cmd_cover_build, help, _add_field_args, _add_format_arg)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--output", help="write the built cover as JSON")
        p.add_argument("--verbose", action="store_true")
    kinds.choices["gold2"].add_argument("--x", type=int, default=None)
    kinds.choices["gold2"].add_argument("--y", type=int, default=None)
    kinds.choices["thm8"].add_argument("--alpha", type=int, default=1)

    p = _leaf(sub, "codeweights", cmd_codeweights, "low-weight codeword counts for x^d",
              _add_field_args, _add_format_arg)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("flats", "direct", "both"), default="flats")

    p = _leaf(sub, "kloosterman", cmd_kloosterman, "Kloosterman sum values", _add_format_arg)
    p.add_argument("--n", type=int, default=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError, RecursionError) as exc:  # deep JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
