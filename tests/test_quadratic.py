"""The quadratic fast path against the generic O(4^n) kernel, the polar-row
rank walk and enumeration: QuadraticFunction must never be its own oracle."""

import random

import pytest

from vanishingflats import (
    GF,
    FunctionTable,
    DOPolynomial,
    QuadraticFunction,
    count_via_spectrum,
    flats_through_pair,
    random_do_polynomial,
    weight_counts_from_flats,
)
from vanishingflats.cli import build_parser, load_function
from vanishingflats.gf2n import echelon


def assert_matches_generic(poly, rng, samples=200):
    """QuadraticFunction(poly) against FunctionTable(gf, f.values) on every
    statistic the hook feeds, its ranks against the polar-row walk, and the
    generic kernel against the rank identity the fast path rests on:
    delta_f(a, .) takes only the values 0 and 2^(n - rank L_{f,a})."""
    f = QuadraticFunction(poly)
    gf = f.field
    generic = FunctionTable(gf, f.values)
    fast, slow = f.spectrum(), generic.spectrum()
    assert fast.counts == slow.counts
    assert list(fast.counts) == list(slow.counts)  # same key order in the output
    assert fast.uniformity == slow.uniformity
    assert fast.per_direction == slow.per_direction
    assert fast.to_json() == slow.to_json()
    assert f.critical_directions() == generic.critical_directions()
    assert list(f.ranks()) == poly.rank_multiset()
    count = count_via_spectrum(f)
    assert count == count_via_spectrum(generic) == poly.count_vanishing_flats()
    n3 = sum(flats_through_pair(generic, 0, a) for a in range(1, gf.order)) // 3
    assert weight_counts_from_flats(f) == weight_counts_from_flats(generic) == (n3, count - n3)
    for _ in range(samples):
        a, b = rng.randrange(1, gf.order), rng.randrange(gf.order)
        assert generic.delta(a, b) in (0, 1 << (gf.n - f.ranks()[a - 1]))
    # b = f(a) + f(0) is always a value of the derivative along a
    for a in rng.sample(range(1, gf.order), min(20, gf.order - 1)):
        b = f[a] ^ f[0]
        assert generic.delta(a, b) == 1 << (gf.n - f.ranks()[a - 1])


@pytest.mark.parametrize("n", range(2, 10))
def test_random_do_polynomials_match_generic_kernel(n):
    gf = GF(n)
    rng = random.Random(600 + n)
    max_support = n * (n - 1) // 2
    for seed in range(4 if n <= 7 else 2):
        size = rng.randint(1, max_support)
        assert_matches_generic(random_do_polynomial(gf, size, seed=seed), rng)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_zero_polynomial(n):
    gf = GF(n)
    zero = DOPolynomial(gf, {})
    assert_matches_generic(zero, random.Random(n))
    spec = QuadraticFunction(zero).spectrum()
    assert spec.counts == {0: (gf.order - 1) ** 2, gf.order: gf.order - 1}


@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (6, 2), (6, 3), (8, 2), (9, 3)])
def test_gold_matches_power_function(n, t):
    gf = GF(n)
    gold = DOPolynomial.gold(gf, t)
    assert_matches_generic(gold, random.Random(n * 16 + t))
    f, monomial = QuadraticFunction(gold), FunctionTable.from_monomial(gf, (1 << t) + 1)
    assert f.values == monomial.values
    assert f.spectrum() == monomial.spectrum()


def per_direction_ranks(f):
    """rank(L_{f,a}) for each nonzero a, one elimination of the table-read
    columns per direction."""
    return bytes(len(echelon(f._columns(a))) for a in range(1, f.field.order))


@pytest.mark.parametrize("n", range(2, 11))
def test_ranks_match_per_direction_elimination(n):
    gf = GF(n)
    max_support = n * (n - 1) // 2
    polys = [random_do_polynomial(gf, 1 + (7 * seed + n) % max_support, seed=300 + seed)
             for seed in range(3)]
    polys += [DOPolynomial(gf, {}), DOPolynomial.gold(gf, 1), DOPolynomial.gold(gf, n - 1)]
    for poly in polys:
        f = QuadraticFunction(poly)
        assert f.ranks() == per_direction_ranks(f)


def test_ranks_match_per_direction_elimination_n12():
    f = QuadraticFunction(random_do_polynomial(GF(12), 9, seed=12))
    ranks = f.ranks()
    assert ranks == per_direction_ranks(f)
    assert list(ranks) == f.poly.rank_multiset()


def test_delta_argument_checks():
    f = QuadraticFunction(DOPolynomial.gold(GF(4), 1))
    with pytest.raises(ValueError):
        f.delta(0, 1)
    with pytest.raises(ValueError):
        f.delta(1, 16)
    with pytest.raises(ValueError):
        f.delta(16, 1)


def test_do_terms_load_as_quadratic_function():
    args = build_parser().parse_args(["vflats", "count", "--n", "6", "--do", "0,3:1"])
    f = load_function(args)
    assert type(f) is QuadraticFunction
    assert f.poly.coeffs == {(0, 3): 1}
    assert count_via_spectrum(f) == 1008
    args = build_parser().parse_args(["vflats", "count", "--n", "6", "--univariate", "1:9"])
    assert type(load_function(args)) is FunctionTable
