import math
import random
from collections import Counter

import pytest

from vanishingflats import GF, FunctionTable

from helpers import random_table


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
    assert f.is_permutation()


def test_from_univariate():
    gf = GF(3)
    assert FunctionTable.from_univariate(gf, []).values == [0] * 8
    d5 = FunctionTable.from_univariate(gf, [(1, 5)])
    assert d5 == FunctionTable.from_monomial(gf, 5)
    f = FunctionTable.from_univariate(gf, [(1, 3), (1, 1)])
    for x in gf.elements():
        assert f[x] == gf.pow(x, 3) ^ x


@pytest.mark.parametrize("n", range(2, 10))
def test_from_univariate_matches_pointwise_pow(n):
    gf = GF(n)
    q = gf.order
    rng = random.Random(n)
    exponents = [0, 1, q - 2, q - 1, q, 2 * q + 3, 5 * (q - 1)]
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
    assert FunctionTable.from_univariate(gf, [(3 % q, 0)]).values == [3 % q] * q  # 0^0 = 1
    with pytest.raises(ValueError):
        FunctionTable.from_univariate(gf, [(1, -1)])
    with pytest.raises(ValueError):
        FunctionTable.from_univariate(gf, [(q, 1)])


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


def test_image_set():
    gf = GF(6)
    ident = FunctionTable.from_monomial(gf, 1)
    assert ident.image_set(5) == {5}
    g9 = FunctionTable.from_monomial(gf, 9)
    for a in (1, 2, 40):
        assert len(g9.image_set(a)) == 8  # 2^(n-s) with s = 3
    g5 = FunctionTable.from_monomial(gf, 5)  # Gold t = 2, s = 2
    assert len(g5.image_set(1)) == 16


def test_histogram_is_delta_row():
    gf = GF(5)
    f = random_table(gf, random.Random(7))
    for a in (1, 6, 31):
        hist = f.histogram(a)
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
        assert doubled == Counter(f.derivative(a)) == f.histogram(a)
    # directions with one top bit share one half list
    assert seen[3][1] is seen[6][1] and seen[2][1] is not seen[3][1]  # a = 4..7 vs 3
    assert [a for a, _, _ in f.half_derivatives((3, 17))] == [3, 17]
    for bad in (0, gf.order):
        with pytest.raises(ValueError):
            list(f.half_derivatives((bad,)))
        with pytest.raises(ValueError):
            f.histogram(bad)


def test_partially_apn_matches_image_size():
    gf = GF(6)
    rng = random.Random(99)
    f = random_table(gf, rng)
    for a in range(1, gf.order):
        direct = max(f.delta(a, b) for b in gf.elements()) == 2
        assert f.is_partially_apn(a) == direct
        assert f.is_partially_apn(a) == (len(f.image_set(a)) == gf.order // 2)


def test_apn_partially_apn_everywhere():
    f = FunctionTable.from_monomial(GF(5), 3)
    assert all(f.is_partially_apn(a) for a in range(1, 32))
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
        hists.add(tuple(sorted(Counter(f.derivative(a)).values())))
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
            assert f.is_permutation() == expect
    assert not FunctionTable(GF(3), [1] * 8).is_permutation()


@pytest.mark.parametrize("n", range(2, 9))
def test_is_permutation_against_sorted_values(n):
    gf = GF(n)
    rng = random.Random(70 + n)
    for _ in range(5):
        values = list(gf.elements())
        rng.shuffle(values)
        assert FunctionTable(gf, values).is_permutation()
        x, y = rng.sample(range(gf.order), 2)
        values[x] = values[y]  # one value twice, one missing
        f = FunctionTable(gf, values)
        assert not f.is_permutation()
        assert sorted(f.values) != list(gf.elements())


def test_table_validation_and_serialization():
    gf = GF(3)
    with pytest.raises(ValueError):
        FunctionTable(gf, [0] * 7)
    with pytest.raises(ValueError):
        FunctionTable(gf, [0] * 7 + [8])
    f = FunctionTable.from_monomial(gf, 6)
    assert FunctionTable.from_json(f.to_json()) == f
    rows = f.spectrum().csv_rows()
    assert rows == sorted(rows)
