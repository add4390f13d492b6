"""The quadratic fast path against the generic O(4^n) kernel, one elimination
per direction of L_{f,a} evaluated by gf.pow, the Walsh fourth moment and
the algebraic normal form:
QuadraticFunction must never be its own oracle, and its degree test must
admit exactly the tables of algebraic degree <= 2."""

import math
import random

import pytest

from vanishingflats import (
    GF,
    FunctionTable,
    DifferentialSpectrum,
    DOPolynomial,
    QuadraticFunction,
    count_via_spectrum,
    flats_through_pair,
    random_do_polynomial,
    weight_counts_from_flats,
)
from vanishingflats.cli import build_parser, load_function
from vanishingflats.dopoly import _polar_of, _polar_ranks
from vanishingflats.gf2n import echelon
from helpers import (algebraic_degree, assert_per_direction_pointwise, assert_sampled_directions,
                     direct_rank_multiset, moebius, random_affine_permutation, read_columns,
                     walsh_flat_count)


def quadratic(poly):
    return QuadraticFunction(poly.field, poly.to_table().values)


def load(n, *source):
    return load_function(build_parser().parse_args(["vflats", "count", "--n", str(n), *source]))


def with_affine_terms(poly, rng):
    """The table of poly plus random linear terms c_k x^(2^k) and a random
    constant: still of degree <= 2, with the polar form of poly."""
    gf = poly.field
    terms = [(c, (1 << i) + (1 << j)) for (i, j), c in poly.coeffs.items()]
    terms += [(rng.randrange(gf.order), 1 << k) for k in range(gf.n)]
    terms.append((rng.randrange(gf.order), 0))
    return FunctionTable.from_univariate(gf, terms).values


def table_of_degree(n, d, rng):
    """A random table whose normal form uses only exponents of weight <= d."""
    return moebius([rng.randrange(1 << n) if bin(u).count("1") <= d else 0
                    for u in range(1 << n)])


def assert_matches_generic(f, rng, samples=200):
    """QuadraticFunction f against FunctionTable(gf, f.values) on every
    statistic the hook feeds, and the generic kernel against the rank
    identity the fast path rests on: delta_f(a, .) takes only the values 0
    and 2^(n - rank L_{f,a}). Returns the block count."""
    gf = f.field
    generic = FunctionTable(gf, f.values)
    fast, slow = f.spectrum(), generic.spectrum()
    assert fast.counts == slow.counts
    assert list(fast.counts) == list(slow.counts)  # same key order in the output
    assert fast.uniformity == slow.uniformity
    assert fast.per_direction == slow.per_direction
    assert fast.to_json() == slow.to_json()
    assert f.critical_directions() == generic.critical_directions()
    count = count_via_spectrum(f)
    assert count == count_via_spectrum(generic)
    n3 = sum(flats_through_pair(generic, 0, a) for a in range(1, gf.order)) // 3
    assert weight_counts_from_flats(f) == weight_counts_from_flats(generic) == (n3, count - n3)
    for _ in range(samples):
        a, b = rng.randrange(1, gf.order), rng.randrange(gf.order)
        assert generic.delta(a, b) in (0, 1 << (gf.n - f.ranks()[a - 1]))
    # b = f(a) + f(0) is always a value of the derivative along a
    for a in rng.sample(range(1, gf.order), min(20, gf.order - 1)):
        b = f[a] ^ f[0]
        assert generic.delta(a, b) == 1 << (gf.n - f.ranks()[a - 1])
    return count


@pytest.mark.parametrize("n", range(2, 10))
def test_random_do_polynomials_match_generic_kernel(n):
    gf = GF(n)
    rng = random.Random(600 + n)
    max_support = n * (n - 1) // 2
    for seed in range(4 if n <= 7 else 2):
        poly = random_do_polynomial(gf, rng.randint(1, max_support), seed=seed)
        f = quadratic(poly)
        assert assert_matches_generic(f, rng) == poly.count_vanishing_flats()
        if n <= 7:
            assert list(f.ranks()) == direct_rank_multiset(poly)


@pytest.mark.parametrize("n", range(2, 11))
def test_affine_terms_and_affine_equivalence_match_generic_kernel(n):
    """A DO polynomial plus linear and constant terms, and the same composed
    with a random affine permutation x -> Mx + c, keep degree 2 and the
    count. The first keeps the polar form, so its ranks are those of the
    polynomial; the second has rank(L_{g,a}) = rank(L_{f,Ma}), a permutation
    of them."""
    gf = GF(n)
    rng = random.Random(700 + n)
    poly = random_do_polynomial(gf, rng.randint(1, n * (n - 1) // 2), seed=70 + n)
    values = with_affine_terms(poly, rng)
    fwd, _ = random_affine_permutation(gf, rng)
    composed = [values[x] for x in fwd]
    ranks = direct_rank_multiset(poly) if n <= 7 else list(quadratic(poly).ranks())
    for table in (values, composed):
        assert algebraic_degree(table) <= 2
        f = QuadraticFunction(gf, table)
        assert assert_matches_generic(f, rng, samples=50) == poly.count_vanishing_flats()
        assert sorted(f.ranks()) == sorted(ranks)
        if n <= 9:
            assert_per_direction_pointwise(f)
    assert list(QuadraticFunction(gf, values).ranks()) == ranks


@pytest.mark.parametrize("n", range(3, 9))
def test_one_flipped_entry_leaves_the_fast_path(n, tmp_path):
    """A point function has degree n > 2, so a quadratic table with one entry
    changed must fail the degree test: the constructor raises, promote hands
    the table back, and it loads as a generic table whose count is the Walsh
    fourth moment's."""
    gf = GF(n)
    rng = random.Random(800 + n)
    poly = random_do_polynomial(gf, rng.randint(1, n * (n - 1) // 2), seed=80 + n)
    values = with_affine_terms(poly, rng)
    path = tmp_path / "table.txt"
    path.write_text("\n".join(map(str, values)) + "\n")
    f = load(n, "--table-file", str(path))
    assert type(f) is QuadraticFunction
    assert count_via_spectrum(f) == walsh_flat_count(values)
    table = FunctionTable(gf, values)
    promoted = QuadraticFunction.promote(table)
    assert type(promoted) is QuadraticFunction and promoted.values is table.values
    assert promoted.ranks() == QuadraticFunction(gf, values).ranks()
    for _ in range(3):
        bad = list(values)
        bad[rng.randrange(gf.order)] ^= rng.randrange(1, gf.order)
        assert algebraic_degree(bad) == n
        assert _polar_of(bad) is None
        with pytest.raises(ValueError, match="degree > 2"):
            QuadraticFunction(gf, bad)
        table = FunctionTable(gf, bad)
        assert QuadraticFunction.promote(table) is table
        path.write_text("\n".join(map(str, bad)) + "\n")
        f = load(n, "--table-file", str(path))
        assert type(f) is FunctionTable
        assert count_via_spectrum(f) == walsh_flat_count(bad)


@pytest.mark.parametrize("n", range(2, 9))
def test_degree_test_against_normal_form(n):
    """The degree test agrees with the algebraic normal form on tables of
    every degree 0..n, on random tables and on near-misses of quadratics,
    and the polar matrix it returns is the one read off the table."""
    rng = random.Random(900 + n)
    tables = [table_of_degree(n, d, rng) for d in range(n + 1) for _ in range(4)]
    tables += [[rng.randrange(1 << n) for _ in range(1 << n)] for _ in range(4)]
    for t in tables[:3 * 4]:
        for _ in range(2):
            bad = list(t)
            bad[rng.randrange(1 << n)] ^= rng.randrange(1, 1 << n)
            tables.append(bad)
    gf = GF(n)
    for t in tables:
        polar = _polar_of(t)
        assert (polar is None) == (algebraic_degree(t) > 2)
        if polar is not None:
            table = FunctionTable(gf, t)
            assert polar == [read_columns(table, 1 << k) for k in range(n)]


def test_every_table_at_n2_is_quadratic():
    """Over GF(4) every function has degree <= 2: all 256 tables take the
    rank route and agree with the generic kernel."""
    gf = GF(2)
    for code in range(256):
        values = [code >> 2 * x & 3 for x in range(4)]
        f = QuadraticFunction(gf, values)
        generic = FunctionTable(gf, values)
        assert f.spectrum() == generic.spectrum()
        assert weight_counts_from_flats(f) == weight_counts_from_flats(generic)


def test_spectra_compare_by_content_not_partition():
    """A QuadraticFunction groups its directions by rank, the generic table
    one per direction: their spectra are equal. A spectrum that differs
    from either in one direction's uniformity alone is not."""
    gf = GF(6)
    rng = random.Random(66)
    poly = random_do_polynomial(gf, 6, seed=66)
    f = QuadraticFunction(gf, with_affine_terms(poly, rng))
    fast, slow = f.spectrum(), FunctionTable(gf, f.values).spectrum()
    assert len(fast.classes) < len(slow.classes) == gf.order - 1
    assert fast == slow and not fast != slow
    top = max(u for _, u in fast.classes)
    a = next(a for directions, u in fast.classes if u < top for a in directions)
    classes = [((b,), top if b == a else u) for b, u in slow.per_direction.items()]
    changed = DifferentialSpectrum(counts=slow.counts, uniformity=slow.uniformity,
                                   classes=classes, through_zero=slow.through_zero)
    assert changed.per_direction != slow.per_direction
    assert changed != fast and changed != slow and fast != changed
    assert fast != fast.to_json()


@pytest.mark.parametrize("n", range(2, 11))
def test_every_do_table_loads_as_quadratic(n):
    """--do needs no branch of its own: every DO table passes the degree test."""
    gf = GF(n)
    max_support = n * (n - 1) // 2
    rng = random.Random(1000 + n)
    polys = [random_do_polynomial(gf, 1 + (5 * seed + n) % max_support, seed=seed)
             for seed in range(4)]
    polys += [DOPolynomial(gf, {}), DOPolynomial(gf, {(i, j): rng.randrange(1, gf.order)
                                                      for i in range(n) for j in range(i + 1, n)})]
    for poly in polys:
        assert _polar_of(poly.to_table().values) is not None
        terms = ",".join(f"{i},{j}:{c}" for (i, j), c in sorted(poly.coeffs.items()))
        f = load(n, "--do", terms)
        assert type(f) is QuadraticFunction
        assert f.values == poly.to_table().values


@pytest.mark.parametrize("n", [2, 5, 8])
def test_zero_polynomial(n):
    gf = GF(n)
    poly = DOPolynomial(gf, {})
    f = quadratic(poly)
    assert assert_matches_generic(f, random.Random(n)) == poly.count_vanishing_flats()
    assert f.ranks() == bytes(gf.order - 1)
    assert f.spectrum().counts == {0: (gf.order - 1) ** 2, gf.order: gf.order - 1}


@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (6, 2), (6, 3), (8, 2), (9, 3)])
def test_gold_matches_power_function(n, t):
    gf = GF(n)
    poly = DOPolynomial(gf, {(0, t): 1})
    f = quadratic(poly)
    assert assert_matches_generic(f, random.Random(n * 16 + t)) == poly.count_vanishing_flats()
    # the kernel of L_{f,a} is a * GF(2^s), s = gcd(n, t)
    assert f.ranks() == bytes([n - math.gcd(n, t)]) * (gf.order - 1)
    monomial = FunctionTable.from_monomial(gf, (1 << t) + 1)
    assert f.values == monomial.values
    assert f.spectrum() == monomial.spectrum()


def per_direction_ranks(f):
    """rank(L_{f,a}) for each nonzero a, one elimination of the table-read
    columns per direction."""
    return bytes(len(echelon(read_columns(f, a))) for a in range(1, f.field.order))


@pytest.mark.parametrize("n", range(2, 11))
def test_ranks_match_per_direction_elimination(n):
    gf = GF(n)
    max_support = n * (n - 1) // 2
    polys = [random_do_polynomial(gf, 1 + (7 * seed + n) % max_support, seed=300 + seed)
             for seed in range(3)]
    polys += [DOPolynomial(gf, {}), DOPolynomial(gf, {(0, 1): 1}),
              DOPolynomial(gf, {(0, n - 1): 1})]
    for poly in polys:
        f = quadratic(poly)
        assert f.ranks() == per_direction_ranks(f)


def test_ranks_match_per_direction_elimination_n12():
    poly = random_do_polynomial(GF(12), 9, seed=12)
    ranks = quadratic(poly).ranks()
    assert ranks == per_direction_ranks(quadratic(poly))


def test_delta_argument_checks():
    f = quadratic(DOPolynomial(GF(4), {(0, 1): 1}))
    with pytest.raises(ValueError):
        f.delta(0, 1)
    with pytest.raises(ValueError):
        f.delta(1, 16)
    with pytest.raises(ValueError):
        f.delta(16, 1)


def test_do_terms_load_as_quadratic_function():
    f = load(6, "--do", "0,3:1")
    assert type(f) is QuadraticFunction
    assert f.values == DOPolynomial(GF(6), {(0, 3): 1}).to_table().values
    assert count_via_spectrum(f) == 1008
    # x^9 is Gold, so as a univariate it takes the rank route as well
    f = load(6, "--univariate", "1:9")
    assert type(f) is QuadraticFunction
    assert count_via_spectrum(f) == 1008
    # x^3 + x^36 + x + 5: a quadratic part plus affine terms
    assert type(load(10, "--univariate", "3:3,7:36,1:1,5:0")) is QuadraticFunction
    # x^7 has degree 3; --monomial keeps the power-function path
    assert type(load(6, "--univariate", "1:7")) is FunctionTable
    assert type(load(6, "--monomial", "9")).__name__ == "PowerFunction"


# the DO polynomial of the CI smoke test at n = 16, and the same plus x + 5
# as a univariate: its table takes the rank route
CI_DO = {(0, 1): 3, (2, 5): 7, (1, 9): 11, (4, 13): 5}
CI_UNIVARIATE = [(3, 3), (7, 36), (11, 514), (5, 8208), (1, 1), (5, 0)]


def test_sampled_directions_of_the_ci_univariate_at_n16():
    gf = GF(16)
    f = QuadraticFunction.promote(FunctionTable.from_univariate(gf, CI_UNIVARIATE))
    assert type(f) is QuadraticFunction
    assert_sampled_directions(f, 8, random.Random(1616))


def test_do_ranks_at_sampled_directions_at_n16():
    """The ranks from the coefficients' polar matrix against one elimination
    of the columns B(a, e_k) read off the value table, at sampled a."""
    gf = GF(16)
    poly = DOPolynomial(gf, CI_DO)
    ranks, table = _polar_ranks(16, poly._polar()), poly.to_table()
    for a in random.Random(1617).sample(range(1, gf.order), 32):
        assert ranks[a] == len(echelon(read_columns(table, a)))
