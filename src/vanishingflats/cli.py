"""Command-line interface: spectra, vanishing flats, covers, code weights.

Exit codes: 0 success, 1 a verification failed, 2 usage or parameter error.
"""

import argparse
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


def _add_common_args(p):
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


def load_function(args):
    gf = GF(args.n, args.modulus)
    if args.monomial is not None:
        return FunctionTable.from_monomial(gf, args.monomial)
    if args.do is not None:
        return QuadraticFunction(parse_do_terms(gf, args.do))
    if args.univariate is not None:
        return FunctionTable.from_univariate(gf, parse_univariate_terms(args.univariate))
    with open(args.table_file) as fh:
        values = [int(line) for line in fh if line.strip()]
    return FunctionTable(gf, values)


def _emit(args, payload, lines, rows):
    """Print the one format --format picks, and build only that one:
    payload is a zero-argument function giving the JSON object, and lines
    (text) and rows (CSV) are iterables, lazy where they are large."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
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
        dirs = sorted(set(spec.per_direction.values()))
        yield "per-direction uniformities: " + ", ".join(map(str, dirs))

    _emit(args, spec.to_json, lines(), spec.csv_rows())
    return 0


# Most blocks `vflats list|pqs-export` prints: listing the 690,880 blocks of
# x^1 at n = 8 (every 2-flat) peaks at about 200 MB RSS.
LIST_LIMIT = 1_000_000


def cmd_vflats(args):
    f = load_function(args)
    if args.mode == "count":
        count = vflats.count_via_spectrum(f)
        _emit(args, lambda: {"n": args.n, "block_count": count}, [str(count)],
              [("block_count", count)])
        return 0
    pqs = vflats.enumerate_flats(f, limit=LIST_LIMIT)
    if args.mode == "list":
        def lines():
            yield f"{len(pqs)} blocks"
            if pqs.blocks:
                yield pqs.to_text()

        _emit(args, pqs.to_json, lines(), pqs.blocks)
    else:  # pqs-export
        print(json.dumps(pqs.to_json()))
    return 0


def cmd_table(args):
    failures = 0
    lines = []
    rows = []
    if args.which == "table2":
        if not 2 <= args.n <= 8:
            raise ValueError("table2 covers 2 <= n <= 8")
        gf = GF(args.n, args.modulus)
        for d, expected in vflats.KNOWN_MONOMIAL_COUNTS[args.n]:
            got = vflats.count_via_spectrum(FunctionTable.from_monomial(gf, d))
            ok = got == expected
            failures += not ok
            lines.append(f"d={d}: {got} {'PASS' if ok else f'FAIL (expected {expected})'}")
            rows.append((args.n, d, got, expected, "PASS" if ok else "FAIL"))
    else:
        count = vflats.closed_form_count(args.family, args.n, t=args.t)
        line = f"{args.family} n={args.n}" + (f" t={args.t}" if args.t else "") + f": {count}"
        status = "unchecked"  # no field, so no brute force, beyond MAX_DEGREE
        if args.n <= MAX_DEGREE:
            d = vflats.family_exponent(args.family, args.n, t=args.t)
            gf = GF(args.n, args.modulus)
            brute = vflats.count_via_spectrum(FunctionTable.from_monomial(gf, d))
            ok = brute == count
            failures += not ok
            status = "PASS" if ok else "FAIL"
            line += " PASS" if ok else f" FAIL (brute force {brute})"
        lines.append(line)
        rows.append((args.family, args.n, "" if args.t is None else args.t, count, status))
    _emit(args, lambda: {"results": lines, "failures": failures}, lines, rows)
    return 1 if failures else 0


def cmd_cover(args):
    if args.action == "verify":
        with open(args.input) as fh:
            cover = covers.Cover.from_json(json.load(fh))
        props = covers.cover_properties(cover)
        if props["valid"]:
            print(json.dumps(props))
            return 0
        bad = covers.overlapping_flats(cover)
        print(json.dumps({"valid": False, "overlapping_flat_pairs": bad}))
        return 1

    if args.kind == "gold2":
        _, cover = covers.gold_cover(args.n, args.t, x=args.x, y=args.y,
                                     modulus=args.modulus)
    else:
        cover = covers.theorem8_cover(args.n, args.t, alpha=args.alpha or 1,
                                      modulus=args.modulus)
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
            json.dump(cover.to_json(), fh)

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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vanishingflats",
        description="Differential spectra, vanishing flats, partial quadruple "
                    "systems, DO rank counts and affine-subspace covers over GF(2^n).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="differential spectrum of a function")
    _add_field_args(p)
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("vflats", help="vanishing flats: count, list or export")
    p.add_argument("mode", choices=("count", "list", "pqs-export"))
    _add_field_args(p)
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_vflats)

    p = sub.add_parser("table", help="recompute the embedded reference tables")
    p.add_argument("which", choices=("table1", "table2"))
    _add_field_args(p)
    p.add_argument("--family", choices=[m.value for m in vflats.MonomialFamily])
    p.add_argument("--t", type=int, default=None)
    _add_common_args(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cover", help="build or verify affine-subspace covers")
    p.add_argument("action", choices=("build", "verify"))
    p.add_argument("kind", nargs="?", choices=("gold2", "thm8"))
    p.add_argument("--n", type=int)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--t", type=int)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--input", help="cover JSON to verify")
    p.add_argument("--output", help="write the built cover as JSON")
    p.add_argument("--verbose", action="store_true")
    _add_common_args(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("codeweights", help="low-weight codeword counts for x^d")
    _add_field_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("flats", "direct", "both"), default="flats")
    _add_common_args(p)
    p.set_defaults(func=cmd_codeweights)

    p = sub.add_parser("kloosterman", help="Kloosterman sum values")
    p.add_argument("--n", type=int, default=None)
    _add_common_args(p)
    p.set_defaults(func=cmd_kloosterman)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cover" and args.action == "build":
        if args.kind is None or args.n is None or args.t is None:
            parser.error("cover build requires kind, --n and --t")
    if args.command == "cover" and args.action == "verify" and not args.input:
        parser.error("cover verify requires --input")
    if args.command == "table" and args.which == "table1" and not args.family:
        parser.error("table1 requires --family")
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
