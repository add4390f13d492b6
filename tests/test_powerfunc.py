"""The power-function fast path against the generic O(4^n) kernel and the
reference counts: PowerFunction must never be its own oracle."""

import random

import pytest

from vanishingflats import (
    GF,
    FunctionTable,
    PowerFunction,
    KNOWN_MONOMIAL_COUNTS,
    closed_form_count,
    count_via_spectrum,
    weight_counts_from_flats,
)
from vanishingflats.cli import build_parser, load_function


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


@pytest.mark.parametrize("n", range(2, 13))
def test_walking_table_equals_pointwise_pow(n):
    gf = GF(n)
    q = gf.order
    # gcd(q - 1, q - 1) > 1, and 2q + 1 exceeds the group order
    for d in (1, q - 2, q - 1, 2 * q + 1):
        assert FunctionTable.from_monomial(gf, d).values == [gf.pow(x, d) for x in gf.elements()]


def test_d7_count_at_n16_matches_closed_form():
    f = FunctionTable.from_monomial(GF(16), 7)
    assert count_via_spectrum(f) == closed_form_count("d7", 16)


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
    assert type(FunctionTable.from_json(f.to_json())) is FunctionTable
    path = tmp_path / "table.txt"
    path.write_text("\n".join(map(str, f.values)))
    args = build_parser().parse_args(["vflats", "count", "--n", "5",
                                      "--table-file", str(path)])
    assert type(load_function(args)) is FunctionTable
    args = build_parser().parse_args(["vflats", "count", "--n", "5", "--monomial", "7"])
    assert type(load_function(args)) is PowerFunction
