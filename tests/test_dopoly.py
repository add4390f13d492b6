import io
import math
import random
from contextlib import redirect_stdout

import pytest

from vanishingflats import (
    GF,
    FunctionTable,
    DOPolynomial,
    QuadraticFunction,
    random_do_polynomial,
    enumerate_flats,
    count_via_spectrum,
)
from vanishingflats.cli import main
from vanishingflats.dopoly import _family_ranks, _polar_ranks
from vanishingflats.gf2n import echelon
from helpers import (apply, count_table_builds, derivative, direct_rank_multiset, do_value,
                     linearized_at, linearized_columns, read_columns)


def test_evaluate_basics():
    gf = GF(6)
    f = random_do_polynomial(gf, 4, seed=3)
    assert do_value(f, 0) == 0
    gold = DOPolynomial(gf, {(0, 3): 1})
    table = gold.to_table()
    assert table == FunctionTable.from_monomial(gf, 9)


def univariate_terms(f):
    return [(c, (1 << i) + (1 << j)) for (i, j), c in f.coeffs.items()]


def pointwise_table(f):
    """f evaluated at every point by gf.pow, independent of the exp table."""
    return FunctionTable(f.field, [do_value(f, x) for x in f.field.elements()])


def test_to_table_matches_univariate_expansion():
    gf = GF(6)
    f = random_do_polynomial(gf, 5, seed=17)
    assert f.to_table() == pointwise_table(f)
    for n in range(2, 11):
        gf = GF(n)
        max_support = n * (n - 1) // 2
        for seed in range(3):
            f = random_do_polynomial(gf, 1 + (seed * 3) % max_support, seed=seed)
            assert f.to_table() == pointwise_table(f)
        assert DOPolynomial(gf, {}).to_table() == FunctionTable(gf, [0] * gf.order)


def test_coefficient_validation():
    gf = GF(4)
    with pytest.raises(ValueError):
        DOPolynomial(gf, {(2, 1): 1})
    with pytest.raises(ValueError):
        DOPolynomial(gf, {(0, 4): 1})
    # zero coefficients are dropped
    assert DOPolynomial(gf, {(0, 1): 0}).coeffs == {}


def test_repeated_terms_add():
    gf = GF(5)
    assert DOPolynomial(gf, [((0, 1), 1), ((0, 1), 1)]).coeffs == {}
    assert DOPolynomial(gf, [((0, 1), 1), ((2, 3), 4), ((0, 1), 2)]).coeffs == \
        {(0, 1): 3, (2, 3): 4}
    with pytest.raises(ValueError):  # each coefficient is checked before they add
        DOPolynomial(gf, [((0, 1), 40), ((0, 1), 40)])
    f = DOPolynomial(gf, [((0, 1), 1), ((0, 1), 1), ((1, 3), 6), ((1, 3), 5)])
    assert f.coeffs == {(1, 3): 3}
    assert f.to_table() == FunctionTable.from_univariate(gf, [(1, 3), (1, 3), (6, 10), (5, 10)])


def table_columns(f, a):
    """The columns of L_{f,a} read off the value table of f."""
    return read_columns(f.to_table(), a)


def table_ranks(f):
    return QuadraticFunction.promote(f.to_table()).ranks()


def vanishes(table, x1, x2):
    """True iff f sums to 0 on {0, x1, x2, x1 + x2}."""
    return table[0] ^ table[x1] ^ table[x2] ^ table[x1 ^ x2] == 0


def test_table_columns_match_direct_formula():
    gf = GF(5)
    f = random_do_polynomial(gf, 3, seed=8)
    for a in (1, 9, 31):
        columns = table_columns(f, a)
        for x in gf.elements():
            assert apply(columns, x) == linearized_at(f, a, x)
        assert apply(columns, a) == 0  # L_{f,a}(a) = 0 always


def test_linearized_at_additive():
    gf = GF(6)
    f = random_do_polynomial(gf, 4, seed=12)
    columns = table_columns(f, 7)
    for x in range(0, 64, 5):
        for y in range(0, 64, 7):
            assert linearized_at(f, 7, x ^ y) == linearized_at(f, 7, x) ^ linearized_at(f, 7, y)
            assert linearized_at(f, 7, x ^ y) == apply(columns, x ^ y)


def test_gold_kernel_and_rank():
    gf = GF(6)
    gold = DOPolynomial(gf, {(0, 3): 1})  # s = 3
    for a in (1, 5, 44):
        columns = table_columns(gold, a)
        assert len(echelon(columns)) == 3
        kernel = {x for x in gf.elements() if apply(columns, x) == 0}
        assert kernel == {gf.mul(a, z) for z in gf.subfield(3)}


def matrix_at(planes, a):
    """The columns of M_a, read bit by bit out of the planes."""
    return [sum((plane >> a & 1) << i for i, plane in enumerate(column)) for column in planes]


@pytest.mark.parametrize("n", range(2, 9))
def test_family_ranks_against_per_matrix_elimination(n):
    """Random planes give a family that is not linear in a, so every 2^n
    matrix is an independent case; echelon on each one is the oracle."""
    q = 1 << n
    full = (1 << q) - 1
    rng = random.Random(900 + n)
    families = [[[rng.getrandbits(q) for _ in range(n)] for _ in range(n)] for _ in range(3)]
    # sparse planes leave many directions rank-deficient
    families.append([[rng.getrandbits(q) & rng.getrandbits(q) & rng.getrandbits(q)
                      for _ in range(n)] for _ in range(n)])
    # every column repeats column 0 on the directions in mask: rank <= 1 there
    mask = rng.getrandbits(q)
    first = [rng.getrandbits(q) for _ in range(n)]
    families.append([first] + [[p & mask | rng.getrandbits(q) & ~mask for p in first]
                               for _ in range(1, n)])
    for planes in families:
        oracle = bytes(len(echelon(matrix_at(planes, a))) for a in range(q))
        assert _family_ranks(planes) == oracle
    zero = [[0] * n for _ in range(n)]
    assert _family_ranks(zero) == bytes(q)
    identity = [[full if i == k else 0 for i in range(n)] for k in range(n)]
    assert _family_ranks(identity) == bytes([n]) * q


def test_rank_multiset():
    gf5 = GF(5)
    apn = DOPolynomial(gf5, {(0, 1): 1})  # x^3, APN
    assert table_ranks(apn) == bytes([4] * 31)
    gf6 = GF(6)
    assert table_ranks(DOPolynomial(gf6, {(0, 3): 1})) == bytes([3] * 63)
    f = random_do_polynomial(gf6, 6, seed=77)
    assert len(table_ranks(f)) == 63


# irreducible moduli whose root x is not primitive: it has order 5 and 51
NON_PRIMITIVE = {4: 0b11111, 8: 0x11b}


def polar_cases(n):
    """Seeded random DO polynomials over GF(2^n), the zero polynomial, and
    repeated (i, j) terms whose coefficients XOR; at n = 4 and 8, also over
    a field whose modulus has a non-primitive root."""
    gf = GF(n)
    max_support = min(n * (n - 1) // 2, n)
    polys = [random_do_polynomial(gf, 1 + (seed * 3 + n) % max_support, seed=700 + seed)
             for seed in range(3)]
    polys.append(DOPolynomial(gf, {}))
    rng = random.Random(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    repeated = [(rng.choice(pairs), rng.randrange(1, gf.order)) for _ in range(n)]
    # half the repeats cancel their term, half change its coefficient
    again = repeated[:n // 4] + [(key, rng.randrange(1, gf.order))
                                 for key, _ in repeated[n // 4:n // 2]]
    polys.append(DOPolynomial(gf, repeated + again))
    if n in NON_PRIMITIVE:
        odd = GF(n, modulus=NON_PRIMITIVE[n])
        assert odd.primitive_element() != 2
        polys += [random_do_polynomial(odd, size, seed=size) for size in (1, n // 2 + 1)]
    return polys


@pytest.mark.parametrize("n", range(2, 11))
def test_polar_matches_table_columns(n):
    """DOPolynomial._polar, read off f at 0, the e_k and the e_m + e_k,
    against the matrix of L_{f,e_m}(e_k) by gf.pow and gf.mul, which shares
    neither the evaluator nor the polar reader; then against the polar
    matrix the degree test stores and the columns read off the value table."""
    for f in polar_cases(n):
        table = f.to_table()
        polar = f._polar()
        assert polar == [[linearized_at(f, 1 << m, 1 << k) for m in range(n)]
                         for k in range(n)], f
        assert polar == QuadraticFunction.promote(table)._polar, f
        assert polar == [read_columns(table, 1 << k) for k in range(n)], f


@pytest.mark.parametrize("n", range(2, 9))
def test_rank_multiset_matches_direct_formula(n):
    """QuadraticFunction.ranks, and _polar_ranks fed the polar matrix of
    DOPolynomial._polar or of the direct formula, against one elimination
    per direction of the columns L_{f,a}(e_k) evaluated by gf.pow, which
    reads neither the exp and log lists nor the value table."""
    gf = GF(n)
    max_support = n * (n - 1) // 2
    polys = [random_do_polynomial(gf, 1 + seed % max_support, seed=seed) for seed in range(4)]
    polys += polar_cases(n) + [DOPolynomial(gf, {(0, n - 1): 1})]
    for f in polys:
        oracle = direct_rank_multiset(f)
        assert list(table_ranks(f)) == oracle, f
        direct = [[linearized_at(f, 1 << m, 1 << k) for m in range(n)] for k in range(n)]
        assert _polar_ranks(n, direct) == _polar_ranks(n, f._polar()) == bytes([0] + oracle), f
    assert table_ranks(DOPolynomial(gf, {})) == bytes(gf.order - 1)


def test_polar_rows_symmetric_with_zero_diagonal():
    """The polar matrix B(e_m, e_k) read off the value table against
    L_{f,a} evaluated by gf.pow, and f at each e_m + e_k by gf.pow against
    the exp-table expansion."""
    polys = [random_do_polynomial(GF(7), 6, seed=31)]
    for n in range(2, 11):
        gf = GF(n)
        max_support = n * (n - 1) // 2
        polys += [random_do_polynomial(gf, 1 + (3 * seed + n) % max_support, seed=500 + seed)
                  for seed in range(3)]
        polys += [DOPolynomial(gf, {}), DOPolynomial(gf, {(0, n - 1): 1})]
    for f in polys:
        n, table = f.field.n, f.to_table()
        rows = [table_columns(f, 1 << m) for m in range(n)]
        for m in range(n):
            assert rows[m][m] == 0
            for k in range(n):
                assert rows[m][k] == rows[k][m] == linearized_at(f, 1 << m, 1 << k)
                assert do_value(f, 1 << m | 1 << k) == table[1 << m | 1 << k]


@pytest.mark.parametrize("n", range(2, 10))
def test_count_matches_spectrum_of_univariate(n):
    """The table-free count against the O(4^n) histogram pass of a plain
    FunctionTable, which the degree test never sees."""
    gf = GF(n)
    max_support = n * (n - 1) // 2
    seeds = range(3) if n <= 7 else range(1)
    for seed in seeds:
        f = random_do_polynomial(gf, 1 + (seed * 5 + n) % max_support, seed=100 + seed)
        oracle = count_via_spectrum(FunctionTable.from_univariate(gf, univariate_terms(f)))
        assert f.count_vanishing_flats() == oracle
    for f in polar_cases(n) if n <= 8 else ():
        assert f.count_vanishing_flats() == \
            count_via_spectrum(FunctionTable(f.field, f.to_table().values)), f


def test_count_formula_examples():
    assert DOPolynomial(GF(6), {(0, 3): 1}).count_vanishing_flats() == 1008
    assert DOPolynomial(GF(5), {(0, 1): 1}).count_vanishing_flats() == 0


def test_count_formula_matches_enumeration():
    gf = GF(6)
    for seed in range(8):
        f = random_do_polynomial(gf, 3, seed=seed)
        assert f.count_vanishing_flats() == len(enumerate_flats(f.to_table()))


def test_count_builds_one_table(monkeypatch):
    """The library count reads the polar matrix and builds no value table;
    vflats count --do builds exactly one, which the degree test promotes
    with no copy."""
    f = random_do_polynomial(GF(10), 12, seed=5)
    terms = ",".join(f"{i},{j}:{c}" for (i, j), c in sorted(f.coeffs.items()))
    builds = count_table_builds(monkeypatch)
    count = f.count_vanishing_flats()
    assert builds == []
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["vflats", "count", "--n", "10", "--do", terms]) == 0
    assert builds == [f.field]
    assert out.getvalue() == f"{count}\n"


def test_derivative_identity():
    gf = GF(5)
    f = random_do_polynomial(gf, 4, seed=5)
    table = f.to_table()
    for a in range(1, gf.order):
        fa = table[a]
        columns = linearized_columns(f, a)
        for x in gf.elements():
            assert table[x ^ a] ^ table[x] == apply(columns, x) ^ fa


def test_image_size_is_power_of_rank():
    gf = GF(6)
    f = random_do_polynomial(gf, 5, seed=41)
    table = f.to_table()
    for a in (1, 13, 50):
        assert len(set(derivative(table, a))) == 1 << len(echelon(linearized_columns(f, a)))


def test_coset_closure():
    gf = GF(5)
    f = random_do_polynomial(gf, 4, seed=23)
    blocks = set(enumerate_flats(f.to_table()).blocks)
    count = len(blocks)
    if count:
        assert count % (1 << (gf.n - 2)) == 0
        assert count >= 1 << (gf.n - 2)
        for b in list(blocks)[:20]:
            for c in gf.elements():
                assert tuple(sorted(p ^ c for p in b)) in blocks


def test_is_vanishing_pair_gold():
    """For Gold x^(2^t + 1), {0, x1, x2, x1 + x2} vanishes on the table
    exactly when x2 / x1 lies in GF(2^s), s = gcd(n, t): every pair at
    n = 6, and at n = 9 sampled pairs plus every multiple of the sampled x1
    by the subfield, which random pairs would rarely hit."""
    rng = random.Random(90)
    for n, t in [(6, t) for t in range(1, 6)] + [(9, 1), (9, 3), (9, 6)]:
        gf = GF(n)
        table = DOPolynomial(gf, {(0, t): 1}).to_table()
        sub = gf.subfield(math.gcd(n, t))
        x1s = range(1, gf.order) if n == 6 else rng.sample(range(1, gf.order), 40)
        for x1 in x1s:
            multiples = {gf.mul(x1, z) for z in sub}
            x2s = range(1, gf.order) if n == 6 else \
                [rng.randrange(1, gf.order) for _ in range(20)] + sorted(multiples - {0})
            for x2 in x2s:
                if x2 != x1:
                    assert vanishes(table, x1, x2) == (x2 in multiples)


def test_is_vanishing_pair_matches_direct_formula():
    gf = GF(6)
    f = random_do_polynomial(gf, 5, seed=44)
    table = f.to_table()
    for x1 in range(1, gf.order):
        for x2 in range(1, gf.order, 7):
            if x2 != x1:
                assert vanishes(table, x1, x2) == (linearized_at(f, x1, x2) == 0)


def test_is_vanishing_pair_matches_enumeration():
    gf = GF(5)
    f = random_do_polynomial(gf, 3, seed=91)
    table = f.to_table()
    blocks = set(enumerate_flats(table).blocks)
    for x1 in range(1, gf.order, 3):
        for x2 in range(1, gf.order, 5):
            if x2 in (x1, 0) or x1 == 0:
                continue
            member = tuple(sorted((0, x1, x2, x1 ^ x2))) in blocks
            assert vanishes(table, x1, x2) == member == (linearized_at(f, x1, x2) == 0)


def test_random_do_seeded():
    gf = GF(8)
    a = random_do_polynomial(gf, 6, seed=100)
    b = random_do_polynomial(gf, 6, seed=100)
    assert a.coeffs == b.coeffs
    assert len(a.coeffs) == 6
    with pytest.raises(ValueError):
        random_do_polynomial(GF(3), 10, seed=0)
