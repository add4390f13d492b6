import math
import random
from collections import Counter

import pytest

from vanishingflats import GF, FunctionTable, PowerFunction, QuadraticFunction

from helpers import (assert_per_direction_pointwise, derivative, histogram, is_permutation,
                     non_primitive_moduli, random_table)


def test_from_monomial_identity_and_inverse():
    gf = GF(4)
    ident = FunctionTable.from_monomial(gf, 1)
    assert ident.values == list(gf.elements())
    inv = FunctionTable.from_monomial(gf, gf.order - 2)
    assert inv[0] == 0
    for x in range(1, gf.order):
        assert gf.mul(x, inv[x]) == 1
    with pytest.raises(ValueError):
        FunctionTable.from_monomial(gf, 0)


def test_cube_is_permutation_of_f8():
    f = FunctionTable.from_monomial(GF(3), 3)
    assert is_permutation(f)


def test_from_univariate():
    gf = GF(3)
    assert FunctionTable.from_univariate(gf, []).values == [0] * 8
    d5 = FunctionTable.from_univariate(gf, [(1, 5)])
    assert d5 == FunctionTable.from_monomial(gf, 5)
    f = FunctionTable.from_univariate(gf, [(1, 3), (1, 1)])
    for x in gf.elements():
        assert f[x] == gf.pow(x, 3) ^ x


@pytest.mark.parametrize("cls", [FunctionTable, PowerFunction, QuadraticFunction])
def test_from_univariate_on_a_subclass_returns_a_plain_table(cls):
    # x^7 + 5 x^3: two terms, so no power function, and of degree 3
    gf = GF(4)
    f = cls.from_univariate(gf, [(1, 7), (5, 3)])
    assert type(f) is FunctionTable
    for x in gf.elements():
        assert f[x] == gf.pow(x, 7) ^ gf.mul(5, gf.pow(x, 3))


@pytest.mark.parametrize("n", range(2, 10))
def test_from_univariate_matches_pointwise_pow(n):
    """Against gf.pow and gf.mul point by point, under the default modulus
    (alpha = x) and, at n = 4, 6, 8 and 9, also under the first modulus
    whose root x is not primitive, where the log list is not the walk of x."""
    fields = [GF(n)] + [GF(n, m) for m in non_primitive_moduli(n)[:1]]
    q = 1 << n
    rng = random.Random(n)
    exponents = [0, 1, q - 2, q - 1, q, 2 * q + 3, 5 * (q - 1)]
    for gf in fields:
        for _ in range(4):
            terms = [(rng.choice([0, 1, rng.randrange(q)]),
                      rng.choice(exponents + [rng.randrange(3 * q)]))
                     for _ in range(rng.randrange(1, 5))]
            terms.append(terms[0])  # a repeated term cancels itself
            expected = [0] * q
            for c, e in terms:
                for x in gf.elements():
                    expected[x] ^= gf.mul(c, gf.pow(x, e))
            assert FunctionTable.from_univariate(gf, terms).values == expected
        # a constant term and terms with c != 1 at once, under every field
        terms = [(3 % q, 0), (q - 1, 3), (2, q + 1)]
        expected = [3 % q ^ gf.mul(q - 1, gf.pow(x, 3)) ^ gf.mul(2, gf.pow(x, q + 1))
                    for x in gf.elements()]
        assert FunctionTable.from_univariate(gf, terms).values == expected
        assert FunctionTable.from_univariate(gf, [(3 % q, 0)]).values == [3 % q] * q  # 0^0 = 1
        with pytest.raises(ValueError):
            FunctionTable.from_univariate(gf, [(1, -1)])
        with pytest.raises(ValueError):
            FunctionTable.from_univariate(gf, [(q, 1)])
    assert len(fields) == (2 if n in (4, 6, 8, 9) else 1)


def test_delta_identity_function():
    gf = GF(4)
    f = FunctionTable.from_monomial(gf, 1)
    for a in range(1, gf.order):
        assert f.delta(a, a) == gf.order
        for b in gf.elements():
            if b != a:
                assert f.delta(a, b) == 0
    with pytest.raises(ValueError):
        f.delta(0, 1)


def test_delta_gold_and_inverse_rows():
    f = FunctionTable.from_monomial(GF(3), 3)  # Gold, s = 1: APN
    for a in range(1, 8):
        for b in range(8):
            assert f.delta(a, b) in (0, 2)
    inv = FunctionTable.from_monomial(GF(4), 14)
    for a in range(1, 16):
        assert max(inv.delta(a, b) for b in range(16)) == 4


def test_delta_parity_and_row_sum():
    gf = GF(5)
    rng = random.Random(11)
    f = random_table(gf, rng)
    for a in (1, 7, 19):
        row = [f.delta(a, b) for b in gf.elements()]
        assert all(v % 2 == 0 for v in row)
        assert sum(row) == gf.order


def test_spectrum_identity():
    gf = GF(4)
    spec = FunctionTable.from_monomial(gf, 1).spectrum()
    q = gf.order
    assert spec.counts[q] == q - 1
    assert spec.counts[0] == (q - 1) * (q - 1)
    assert spec.uniformity == q


def test_spectrum_inverse_f64():
    spec = FunctionTable.from_monomial(GF(6), 62).spectrum()
    q1 = 63
    assert spec.counts[0] == 33 * q1
    assert spec.counts[2] == 30 * q1
    assert spec.counts[4] == 1 * q1
    assert spec.uniformity == 4


def test_spectrum_mass_identities():
    gf = GF(6)
    rng = random.Random(5)
    for f in (FunctionTable.from_monomial(gf, 7), random_table(gf, rng)):
        spec = f.spectrum()
        q = gf.order
        assert sum(spec.counts.values()) == (q - 1) * q
        assert sum(k * v for k, v in spec.counts.items()) == (q - 1) * q
        assert all(k % 2 == 0 for k in spec.counts)


@pytest.mark.parametrize("n", range(2, 8))
def test_random_tables_per_direction_match_pointwise(n):
    """A generic table keeps one class, a 1-tuple, per direction."""
    gf = GF(n)
    rng = random.Random(80 + n)
    for f in [random_table(gf, rng) for _ in range(3)] + [FunctionTable(gf, [5 % gf.order] * gf.order)]:
        assert [directions for directions, _ in f.spectrum().classes] == \
            [(a,) for a in range(1, gf.order)]
        assert_per_direction_pointwise(f)


def test_image_set():
    gf = GF(6)
    ident = FunctionTable.from_monomial(gf, 1)
    assert set(derivative(ident, 5)) == {5}
    g9 = FunctionTable.from_monomial(gf, 9)
    for a in (1, 2, 40):
        assert len(set(derivative(g9, a))) == 8  # 2^(n-s) with s = 3
    g5 = FunctionTable.from_monomial(gf, 5)  # Gold t = 2, s = 2
    assert len(set(derivative(g5, 1))) == 16


def test_histogram_is_delta_row():
    gf = GF(5)
    f = random_table(gf, random.Random(7))
    for a in (1, 6, 31):
        hist = histogram(f, a)
        assert sum(hist.values()) == gf.order
        assert all(hist[b] == f.delta(a, b) for b in gf.elements())


def test_half_derivatives_visit_each_pair_once():
    gf = GF(5)
    f = random_table(gf, random.Random(11))
    seen = list(f.half_derivatives())
    assert [a for a, _, _ in seen] == list(range(1, gf.order))
    for a, half, values in seen:
        assert half == [x for x in gf.elements() if x < x ^ a]
        assert values == [f[x] ^ f[x ^ a] for x in half]
        doubled = Counter(values + values)
        assert doubled == Counter(derivative(f, a)) == histogram(f, a)
    # directions with one top bit share one half list
    assert seen[3][1] is seen[6][1] and seen[2][1] is not seen[3][1]  # a = 4..7 vs 3
    assert [a for a, _, _ in f.half_derivatives((3, 17))] == [3, 17]
    for bad in (0, gf.order):
        with pytest.raises(ValueError):
            list(f.half_derivatives((bad,)))
        with pytest.raises(ValueError):
            histogram(f, bad)


def comprehension_half_derivatives(f, directions):
    """The oracle: half and D_a f on it, one Python step per point."""
    t, q, halves = f.values, f.field.order, {}
    for a in directions:
        h = 1 << (a.bit_length() - 1)
        if h not in halves:
            halves[h] = [x for x in range(q) if not x & h]
        yield a, halves[h], [t[x] ^ t[x ^ a] for x in halves[h]]


def lane_edge_tables(gf):
    """Tables that put 0 and 2^n - 1 side by side at lane and block edges:
    blocks of 2^k alternating, the parity of x (every neighbour under every
    swap differs), and a single extreme entry at each end and the middle."""
    q, top = gf.order, gf.order - 1
    tables = [[top * (x >> k & 1) for x in range(q)] for k in range(gf.n)]
    tables.append([top * (bin(x).count("1") & 1) for x in range(q)])
    for x in (0, q // 2 - 1, q // 2, q - 1):
        tables += [[top * (y == x) for y in range(q)], [top * (y != x) for y in range(q)]]
    return [FunctionTable(gf, t) for t in tables]


@pytest.mark.parametrize("n", range(2, 12))
def test_half_derivatives_match_the_comprehension(n):
    """Lanes are 1 byte up to n = 8 and 2 bytes from n = 9."""
    gf = GF(n)
    q = gf.order
    rng = random.Random(1400 + n)
    every = range(1, q)
    f = random_table(gf, rng)
    assert list(f.half_derivatives()) == list(comprehension_half_derivatives(f, every))
    sample = every if n <= 9 else sorted(rng.sample(every, 48) + [1, q >> 1, q - 1])
    edges = lane_edge_tables(gf)
    for g in edges:
        assert list(g.half_derivatives(sample)) == list(comprehension_half_derivatives(g, sample))
    parity = edges[n]
    assert list(parity.half_derivatives()) == list(comprehension_half_derivatives(parity, every))


@pytest.mark.parametrize("n", range(3, 12))
def test_half_derivatives_follow_any_direction_sequence(n):
    gf = GF(n)
    q = gf.order
    rng = random.Random(1500 + n)
    orders = [(5, 3, 5, 1, q - 1, 2), (q - 1, q - 1, 1, q >> 1, (q >> 1) - 1, 6),
              [rng.randrange(1, q) for _ in range(40)]]
    for f in [random_table(gf, rng)] + lane_edge_tables(gf)[-4:]:
        for directions in orders:
            got = list(f.half_derivatives(directions))
            assert got == list(comprehension_half_derivatives(f, directions))
            assert [type(half) for _, half, _ in got] == [list] * len(directions)
            for (a, half, _), (b, next_half, _) in zip(got, got[1:]):  # shared per top bit
                assert (half is next_half) == (a.bit_length() == b.bit_length())


@pytest.mark.parametrize("bad", (0, -1, "q", "2q"))
def test_half_derivatives_reject_a_bad_direction_mid_sequence(bad):
    gf = GF(9)
    q = gf.order
    bad = {"q": q, "2q": 2 * q}.get(bad, bad)
    f = random_table(gf, random.Random(1600))
    walk = f.half_derivatives((3, 5, bad, 7))
    assert [next(walk)[0], next(walk)[0]] == [3, 5]
    with pytest.raises(ValueError):
        next(walk)


def test_half_derivatives_at_n16():
    gf = GF(16)
    q = gf.order
    rng = random.Random(1616)
    f = random_table(gf, rng)
    directions = (1, q - 1, q >> 1, 0x1234, 0x1234, 3, (q >> 1) - 1, 0x8001, rng.randrange(1, q))
    parity = FunctionTable(gf, [(q - 1) * (bin(x).count("1") & 1) for x in range(q)])
    for g, spots in ((f, directions), (parity, directions[:4])):
        assert list(g.half_derivatives(spots)) == list(comprehension_half_derivatives(g, spots))


def test_partially_apn_matches_image_size():
    gf = GF(6)
    rng = random.Random(99)
    f = random_table(gf, rng)
    for a in range(1, gf.order):
        direct = max(f.delta(a, b) for b in gf.elements()) == 2
        partially_apn = max(histogram(f, a).values()) == 2
        assert partially_apn == direct
        assert partially_apn == (len(set(derivative(f, a))) == gf.order // 2)


def test_apn_partially_apn_everywhere():
    f = FunctionTable.from_monomial(GF(5), 3)
    assert all(max(histogram(f, a).values()) == 2 for a in range(1, 32))
    assert f.critical_directions() == set()


def test_critical_directions():
    gf = GF(3)
    assert FunctionTable.from_monomial(gf, 3).critical_directions() == set()
    # non-APN monomial: every nonzero direction is critical
    g = FunctionTable.from_monomial(GF(4), 5)
    assert g.critical_directions() == set(range(1, 16))
    ident = FunctionTable.from_monomial(gf, 1)
    assert ident.critical_directions() == set(range(1, 8))


def test_monomial_direction_histograms_identical():
    gf = GF(5)
    f = FunctionTable.from_monomial(gf, 15)
    hists = set()
    for a in range(1, gf.order):
        hists.add(tuple(sorted(Counter(derivative(f, a)).values())))
    assert len(hists) == 1


def test_two_valued_spectrum_law():
    # Gold functions have nonzero delta values {2^s}
    for n, t in ((6, 2), (6, 3), (8, 4), (9, 3)):
        gf = GF(n)
        s = math.gcd(n, t)
        spec = FunctionTable.from_monomial(gf, (1 << t) + 1).spectrum()
        q = gf.order
        nonzero = [k for k in spec.counts if k != 0]
        assert nonzero == [1 << s]
        assert spec.counts[0] == (q - (q >> s)) * (q - 1)
        assert spec.counts[1 << s] == (q >> s) * (q - 1)


def test_is_permutation_gold_condition():
    for n in range(2, 9):
        gf = GF(n)
        for t in range(1, n):
            f = FunctionTable.from_monomial(gf, (1 << t) + 1)
            expect = (n // math.gcd(n, t)) % 2 == 1
            assert is_permutation(f) == expect
    assert not is_permutation(FunctionTable(GF(3), [1] * 8))


@pytest.mark.parametrize("n", range(2, 9))
def test_is_permutation_against_sorted_values(n):
    gf = GF(n)
    rng = random.Random(70 + n)
    for _ in range(5):
        values = list(gf.elements())
        rng.shuffle(values)
        assert is_permutation(FunctionTable(gf, values))
        x, y = rng.sample(range(gf.order), 2)
        values[x] = values[y]  # one value twice, one missing
        f = FunctionTable(gf, values)
        assert not is_permutation(f)
        assert sorted(f.values) != list(gf.elements())


def test_table_validation_and_serialization():
    gf = GF(3)
    with pytest.raises(ValueError):
        FunctionTable(gf, [0] * 7)
    with pytest.raises(ValueError):
        FunctionTable(gf, [0] * 7 + [8])
    f = FunctionTable.from_monomial(gf, 6)
    rows = f.spectrum().csv_rows()
    assert rows == sorted(rows)
