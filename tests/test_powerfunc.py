"""The power-function fast path against the generic O(4^n) kernel and the
reference counts: PowerFunction must never be its own oracle."""

import io
import math
import random
from contextlib import redirect_stdout

import pytest

from vanishingflats import (
    GF,
    FunctionTable,
    PowerFunction,
    KNOWN_MONOMIAL_COUNTS,
    closed_form,
    count_via_spectrum,
    weight_counts_from_flats,
)
from vanishingflats import vflats
from vanishingflats.cli import build_parser, load_function, main
from helpers import assert_per_direction_pointwise, count_table_builds, histogram


def assert_matches_generic(f, rng, samples=200):
    """f against FunctionTable(gf, f.values) on every statistic the fast path
    overrides or feeds, and the generic kernel against the identity
    delta_f(a, b) = delta_f(1, b / a^d) that the fast path rests on."""
    assert type(f) is PowerFunction
    gf = f.field
    generic = FunctionTable(gf, f.values)
    fast, slow = f.spectrum(), generic.spectrum()
    assert fast.counts == slow.counts
    assert list(fast.counts) == list(slow.counts)  # same key order in the output
    assert fast.uniformity == slow.uniformity
    assert fast.per_direction == slow.per_direction
    n3, n4 = weight_counts_from_flats(generic)
    assert weight_counts_from_flats(f) == (n3, n4)
    assert count_via_spectrum(f) == n3 + n4
    for _ in range(samples):
        a, b = rng.randrange(1, gf.order), rng.randrange(gf.order)
        assert generic.delta(a, b) == generic.delta(1, gf.div(b, f[a]))
    return n3 + n4


@pytest.mark.parametrize("n", sorted(KNOWN_MONOMIAL_COUNTS))
def test_reference_rows_match_generic_kernel(n):
    gf = GF(n)
    rng = random.Random(n)
    for d, expected in KNOWN_MONOMIAL_COUNTS[n]:
        assert assert_matches_generic(FunctionTable.from_monomial(gf, d), rng) == expected


@pytest.mark.parametrize("n", [9, 10])
def test_random_exponents_match_generic_kernel(n):
    gf = GF(n)
    rng = random.Random(1000 + n)
    for d in rng.sample(range(2, gf.order - 1), 2):
        assert_matches_generic(FunctionTable.from_monomial(gf, d), rng)


@pytest.mark.parametrize("n", [*range(2, 13), 16])
def test_walking_table_equals_pointwise_pow(n):
    gf = GF(n)
    q = gf.order
    # gcd(q - 1, q - 1) > 1, and 2q + 1 exceeds the group order; at n <= 6
    # every d up to 2q + 1. A pointwise pow at n = 16 costs ~80 us, so there
    # the table is checked on 0, 1, q - 1 and 1,000 seeded points
    ds = range(1, 2 * q + 2) if n <= 6 else (1, q - 2, q - 1, 2 * q + 1)
    xs = gf.elements() if n <= 12 else [0, 1, q - 1, *random.Random(n).sample(range(q), 1000)]
    for d in ds:
        values = FunctionTable.from_monomial(gf, d).values
        assert [values[x] for x in xs] == [gf.pow(x, d) for x in xs]


def test_d7_count_at_n16_matches_closed_form():
    f = FunctionTable.from_monomial(GF(16), 7)
    assert count_via_spectrum(f) == closed_form("d7", 16)[1]


def test_delta_argument_checks():
    f = FunctionTable.from_monomial(GF(4), 7)
    with pytest.raises(ValueError):
        f.delta(0, 1)
    with pytest.raises(ValueError):
        f.delta(1, 16)
    with pytest.raises(ValueError):
        f.delta(16, 1)


def test_tables_from_files_stay_generic(tmp_path):
    f = FunctionTable.from_monomial(GF(5), 7)
    path = tmp_path / "table.txt"
    path.write_text("\n".join(map(str, f.values)))
    args = build_parser().parse_args(["vflats", "count", "--n", "5",
                                      "--table-file", str(path)])
    assert type(load_function(args)) is FunctionTable
    args = build_parser().parse_args(["vflats", "count", "--n", "5", "--monomial", "7"])
    assert type(load_function(args)) is PowerFunction


def class_leaders(q1):
    """The least d of each class d ~ 2d mod q1, 0 < d < q1."""
    seen, leaders = set(), []
    for d in range(1, q1):
        if d not in seen:
            leaders.append(d)
            while d not in seen:
                seen.add(d)
                d = 2 * d % q1
    return leaders


def non_primitive_moduli(n):
    """The irreducible moduli of degree n under which x = 2 is not primitive."""
    out = []
    for m in range(1 << n, 1 << (n + 1)):
        try:
            gf = GF(n, m)
        except ValueError:
            continue
        if gf.primitive_element() != 2:
            out.append(m)
    return out


def assert_kernel_matches_generic(f):
    """_histogram1, spectrum() and the count of f against FunctionTable(gf,
    f.values), the O(4^n) kernel, with one generic spectrum."""
    gf = f.field
    generic = FunctionTable(gf, f.values)
    assert {b: 2 * c for b, c in f._histogram1().items()} == histogram(generic, 1)
    fast, slow = f.spectrum(), generic.spectrum()
    assert (fast.counts, fast.uniformity, fast.per_direction, fast.through_zero) \
        == (slow.counts, slow.uniformity, slow.per_direction, slow.through_zero)
    assert count_via_spectrum(f) == vflats.count_from_spectrum(slow.counts)


@pytest.mark.parametrize("n", range(2, 10))
def test_every_class_matches_generic_kernel(n):
    gf = GF(n)
    for d in class_leaders(gf.order - 1):
        assert_kernel_matches_generic(PowerFunction(gf, d))


@pytest.mark.parametrize("n", range(2, 9))
def test_every_class_per_direction_matches_pointwise(n):
    """One direction class, a range, must give the same per_direction map
    and JSON as counting each direction's derivative."""
    gf = GF(n)
    for d in class_leaders(gf.order - 1):
        f = PowerFunction(gf, d)
        assert f.spectrum().classes[0][0] == range(1, gf.order)
        assert_per_direction_pointwise(f)


@pytest.mark.parametrize("n", range(2, 9))
def test_edge_exponents_match_generic_kernel(n):
    gf = GF(n)
    q, q1 = gf.order, gf.order - 1
    not_invertible = [d for d in range(2, q1) if math.gcd(d, q1) > 1]
    edges = [1, 2, 6, q - 2, q1, q, 2 * q1, 2 * q + 1, 5 * q + 3, *not_invertible[:3]]
    for d in edges:
        f = PowerFunction(gf, d)
        assert_kernel_matches_generic(f)
        assert f.values == [gf.pow(x, d) for x in gf.elements()]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_non_primitive_modulus(n):
    moduli = non_primitive_moduli(n)
    assert moduli and (n != 4 or 31 in moduli)
    gf = GF(n, moduli[0])
    assert gf.primitive_element() != 2
    for d in class_leaders(gf.order - 1) + [gf.order - 1, 3 * gf.order]:
        f = PowerFunction(gf, d)
        assert f.values == [gf.pow(x, d) for x in gf.elements()]
        assert_kernel_matches_generic(f)
        assert_per_direction_pointwise(f)


@pytest.mark.parametrize("d", [3, 5, 7, 15])
def test_cli_count_under_modulus_31(d):
    gf = GF(4, 31)
    want = count_via_spectrum(FunctionTable(gf, [gf.pow(x, d) for x in gf.elements()]))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["vflats", "count", "--n", "4", "--modulus", "31", "--monomial", str(d)]) == 0
    assert out.getvalue() == f"{want}\n"


def test_statistics_leave_the_table_unbuilt(monkeypatch):
    builds = count_table_builds(monkeypatch)
    f = PowerFunction(GF(10), 7)
    f.spectrum()
    count_via_spectrum(f)
    weight_counts_from_flats(f)
    f.critical_directions()
    repr(f)
    assert f._values is None and builds == []
    for argv in (["vflats", "count", "--n", "12", "--monomial", "7"],
                 ["spectrum", "--n", "10", "--monomial", "13", "--format", "json"],
                 ["table", "table1", "--family", "d7", "--n", "10"],
                 ["table", "table2", "--n", "6"],
                 ["codeweights", "--n", "9", "--d", "9"]):
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert builds == []


@pytest.mark.parametrize("n", [3, 8, 11])
def test_values_built_once_and_equal_pointwise_pow(n, monkeypatch):
    gf = GF(n)
    f = PowerFunction(gf, 7)
    before = f.spectrum()
    builds = count_table_builds(monkeypatch)
    table = f.values
    assert table == [gf.pow(x, 7) for x in gf.elements()]
    assert f.values is table and f[3] == table[3]
    f.delta(1, 1)
    assert builds == [gf]
    assert f.spectrum() == before


@pytest.mark.parametrize("n", range(2, 13))
def test_exp_and_log_match_pow(n):
    gf = GF(n)
    alpha, q1 = gf.primitive_element(), gf.order - 1
    exp, log = gf.exp_log()
    assert gf.exp_log() == (exp, log) and gf.exp_log()[0] is exp and gf.exp_log()[1] is log
    assert exp == [gf.pow(alpha, i) for i in range(q1)]
    assert len(log) == gf.order and all(log[exp[i]] == i for i in range(q1))


@pytest.mark.parametrize("n, modulus", [(16, None), (4, 31), (6, non_primitive_moduli(6)[0])])
def test_exp_and_log_sampled(n, modulus):
    gf = GF(n, modulus)
    alpha, q1 = gf.primitive_element(), gf.order - 1
    exp, log = gf.exp_log()
    assert len(exp) == q1 and sorted(log[1:]) == list(range(q1))
    for i in random.Random(n).sample(range(q1), min(q1, 200)):
        assert exp[i] == gf.pow(alpha, i) and log[gf.pow(alpha, i)] == i
