import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import re

from helpers import apply, cube_root_of_unity, gf_add, random_basis, span_closure

from vanishingflats import GF, AffineSubspace, Cover, kloosterman
from vanishingflats.gf2n import DEFAULT_MODULI, echelon, span


GF8 = GF(3, 0b1011)


def _echelon_reference(vectors):
    """The elimination as first written, v = min(v, v ^ b) per step."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return basis


def test_echelon_against_span_closure():
    rng = random.Random(2020)
    for _ in range(3000):
        width = rng.randint(1, 10)
        vectors = []
        for _ in range(rng.randint(0, 12)):
            r = rng.random()
            if r < 0.15:
                vectors.append(0)
            elif r < 0.3 and vectors:
                vectors.append(rng.choice(vectors))  # a repeat
            else:
                vectors.append(rng.randrange(1 << width))
        out = echelon(vectors)
        span = span_closure(vectors)
        assert span_closure(out) == span
        assert 1 << len(out) == len(span)
        tops = [v.bit_length() - 1 for v in out]
        assert len(set(tops)) == len(tops) and -1 not in tops
        assert out == _echelon_reference(vectors)


def test_add_is_xor():
    assert gf_add(GF8, 0b011, 0b101) == 0b110
    for a in GF8.elements():
        assert gf_add(GF8, a, 0) == a
        assert gf_add(GF8, a, a) == 0


def test_mul_known_products():
    # x * x = x^2 (no reduction); x^2 * x = x^3 = x + 1 mod x^3 + x + 1
    assert GF8.mul(0b010, 0b010) == 0b100
    assert GF8.mul(0b100, 0b010) == 0b011
    for a in GF8.elements():
        assert GF8.mul(a, 1) == a


@pytest.mark.parametrize("n", range(2, 9))
def test_field_axioms_exhaustive(n):
    gf = GF(n)
    elems = list(gf.elements())
    sample = elems if n <= 4 else elems[:8] + elems[-8:]
    for a in sample:
        for b in sample:
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in sample[:6]:
                assert gf.mul(a, gf_add(gf, b, c)) == gf_add(gf, gf.mul(a, b), gf.mul(a, c))
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_distributivity_gf256(a, b, c):
    gf = GF(8)
    assert gf.mul(a, gf_add(gf, b, c)) == gf_add(gf, gf.mul(a, b), gf.mul(a, c))


def test_pow_conventions():
    gf = GF(5)
    assert gf.pow(0, 0) == 1
    assert gf.pow(0, 7) == 0
    for a in gf.elements():
        assert gf.pow(a, 1) == a
    alpha = gf.primitive_element()
    assert gf.pow(alpha, gf.order - 1) == 1


def test_inv():
    gf = GF(6)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    assert gf.inv(1) == 1
    for a in range(1, gf.order):
        assert gf.mul(a, gf.inv(a)) == 1
        assert gf.inv(a) == gf.pow(a, gf.order - 2)


def test_frobenius():
    # x -> x^(2^i) by gf.pow is a field automorphism of order n
    gf = GF(6)
    for a in (0, 1, 5, 37, 63):
        assert gf.pow(a, 1 << 0) == a
        acc = a
        for _ in range(gf.n):
            acc = gf.pow(acc, 1 << 1)
        assert acc == a
    for a in range(0, gf.order, 7):
        for b in range(0, gf.order, 5):
            for i in range(gf.n):
                assert gf.pow(a ^ b, 1 << i) == gf.pow(a, 1 << i) ^ gf.pow(b, 1 << i)
                assert (gf.pow(gf.mul(a, b), 1 << i)
                        == gf.mul(gf.pow(a, 1 << i), gf.pow(b, 1 << i)))


@pytest.mark.parametrize("n", range(2, 11))
def test_multiplicative_group_cyclic(n):
    gf = GF(n)
    alpha = gf.primitive_element()
    seen = set()
    acc = 1
    for _ in range(gf.order - 1):
        seen.add(acc)
        acc = gf.mul(acc, alpha)
    assert acc == 1
    assert len(seen) == gf.order - 1


def test_primitive_element_smallest_and_deterministic():
    gf = GF(2, 0b111)
    assert gf.primitive_element() == 0b10
    assert GF(6).primitive_element() == GF(6).primitive_element()


def test_reducible_modulus_rejected():
    # x^4 + 1 = (x+1)^4 is reducible
    with pytest.raises(ValueError):
        GF(4, 0b10001).primitive_element()
    with pytest.raises(ValueError):
        GF(4, 0b101)  # wrong degree
    # 21 = x^4 + x^2 + 1 = (x^2 + x + 1)^2: rejected at construction
    with pytest.raises(ValueError, match="reducible"):
        GF(4, 21)


def test_irreducible_count_degree_8():
    # (2^8 - 2^4) / 8 = 30 irreducible polynomials of degree 8 over F_2
    accepted = 0
    for m in range(1 << 8, 1 << 9):
        try:
            GF(8, m)
            accepted += 1
        except ValueError:
            pass
    assert accepted == 30


# every default field, and non-primitive moduli, where alpha = x does not
# generate the multiplicative group
WALKED_FIELDS = [(n, None) for n in range(2, 17)] + \
    [(4, 0x1F), (6, 0x57), (8, 0x11B), (15, 0x806F), (16, 0x1002B)]


def test_alpha_powers():
    """The exp/log walk of every field in WALKED_FIELDS: exp[i+1] = alpha *
    exp[i] by the shift-and-XOR product, at every i up to n = 12 and at
    sampled ones above, the walk closes at 1, and log inverts exp."""
    for n, modulus in WALKED_FIELDS:
        gf = GF(n, modulus)
        alpha = gf.primitive_element()
        assert modulus is None or alpha != 2
        exp, log = gf.exp_log()
        q1 = gf.order - 1
        assert len(exp) == q1 and len(log) == gf.order and exp[0] == 1
        rng = random.Random(400 + n)
        steps = range(q1) if n <= 12 else [0, q1 - 1] + rng.sample(range(q1), 3000)
        for i in steps:
            assert gf.mul(exp[i], alpha) == exp[(i + 1) % q1]
        assert sorted(exp) == list(range(1, gf.order))
        assert all(log[x] == i for i, x in enumerate(exp))


@pytest.mark.parametrize("n", range(2, 17))
def test_subfield_matches_filter(n):
    gf = GF(n)
    for s in range(1, n + 1):
        if n % s != 0:
            with pytest.raises(ValueError):
                gf.subfield(s)
        elif n <= 12:
            assert gf.subfield(s) == [x for x in gf.elements() if gf.pow(x, 1 << s) == x]
        else:
            # x^(2^s) = x has at most 2^s roots: 2^s distinct ones are all of them
            sub = gf.subfield(s)
            assert sub == sorted(set(sub)) and len(sub) == 1 << s
            if s == n:
                assert sub == list(gf.elements())
            else:
                assert all(gf.pow(x, 1 << s) == x for x in sub)


def test_subfield_non_primitive_modulus():
    gf = GF(4, modulus=0b11111)  # x^4+x^3+x^2+x+1: irreducible, x has order 5
    assert gf.primitive_element() != 2
    for s in (1, 2, 4):
        assert gf.subfield(s) == [x for x in gf.elements() if gf.pow(x, 1 << s) == x]


def test_cube_root_of_unity():
    for n in (2, 4, 6, 8):
        gf = GF(n)
        z = cube_root_of_unity(gf)
        assert z != 1
        assert gf.pow(z, 3) == 1
        assert 1 ^ z ^ gf.mul(z, z) == 0
    gf2 = GF(2)
    assert cube_root_of_unity(gf2) == gf2.primitive_element()
    with pytest.raises(ValueError):
        cube_root_of_unity(GF(5))


def lookup_tables(columns):
    """(lo, hi), the two 256-entry tables of the F_2-linear map taking e_k to
    columns[k], k < 16, built as GF.exp_log builds the tables of its walk:
    one span over the two lists, split by parity."""
    both = span([0, 0], zip(columns[:8], columns[8:]))
    return both[::2], both[1::2]


@pytest.mark.parametrize("n", range(2, 9))
def test_mul_tables_every_constant(n):
    """The chain c x^k of GF.chain as the columns of lookup_tables gives the
    product by c, for every constant c: the tables exp_log reads at c = alpha."""
    gf = GF(n)
    for c in gf.elements():
        lo, hi = lookup_tables(gf.chain(c, 16))
        assert len(lo) == len(hi) == 256
        assert [lo[x & 255] ^ hi[x >> 8] for x in gf.elements()] == \
            [gf.mul(c, x) for x in gf.elements()]


def test_mul_tables_sampled_at_n16():
    gf = GF(16)
    rng = random.Random(16)
    alpha = gf.primitive_element()
    for c in [0, 1, alpha, gf.order - 1] + [rng.randrange(gf.order) for _ in range(8)]:
        lo, hi = lookup_tables(gf.chain(c, 16))
        for x in [0, 1, 255, 256, gf.order - 1] + [rng.randrange(gf.order) for _ in range(1500)]:
            assert lo[x & 255] ^ hi[x >> 8] == gf.mul(c, x)
    with pytest.raises(ValueError):
        gf.chain(gf.order, 16)


@pytest.mark.parametrize("n", range(2, 11))
def test_span_lists_each_point_once(n):
    """span([base], zip(vectors)) against the set-closure oracle: for k
    independent vectors, 2^k points, each listed once, with entry x the base
    plus the vectors at the bits of x. Over F flats at once, entry x * F + j
    is the entry x of flat j alone."""
    rng = random.Random(700 + n)
    for k in range(n + 1):
        vectors = random_basis(n, k, rng)
        base = rng.randrange(1 << n)
        points = span([base], zip(vectors))
        assert len(points) == len(set(points)) == 1 << k
        assert set(points) == {base ^ v for v in span_closure(vectors)}
        assert points == [base ^ apply(vectors, x) for x in range(1 << k)]
        flats = [(rng.randrange(1 << n), random_basis(n, k, rng)) for _ in range(3)]
        points = span([b for b, _ in flats], zip(*(w for _, w in flats)))
        assert points == [b ^ apply(w, x) for x in range(1 << k) for b, w in flats]
    assert span([5], zip([])) == [5]
    assert span([5, 6], zip()) == [5, 6]


@pytest.mark.parametrize("n", range(2, 17))
def test_linear_map_tables_match_apply(n):
    """lookup_tables of seeded random images of e_0..e_(n-1), padded with
    zeros to 16 columns; every x below 2^n for n <= 12, sampled ones above."""
    rng = random.Random(300 + n)
    columns = [rng.randrange(1 << n) for _ in range(n)]
    lo, hi = lookup_tables(columns + [0] * (16 - n))
    assert len(lo) == len(hi) == 256
    xs = range(1 << n) if n <= 12 else [0, 1, 255, 256, (1 << n) - 1] + \
        [rng.randrange(1 << n) for _ in range(2000)]
    for x in xs:
        assert lo[x & 255] ^ hi[x >> 8] == apply(columns, x)
    if n <= 8:
        assert hi == [0] * 256


def test_default_moduli_all_valid():
    for n, mod in DEFAULT_MODULI.items():
        gf = GF(n)
        assert gf.modulus == mod
        assert mod >> n == 1
        gf.primitive_element()


def test_kloosterman_values():
    assert kloosterman(6) == -8
    assert kloosterman(7) == -12
    for n in range(2, 17):
        assert isinstance(kloosterman(n), int)


def test_kloosterman_matches_direct_sum():
    # independent evaluation of the binomial sum with Fraction-free integers
    for n in range(2, 17):
        total = sum((-1) ** i * math.comb(n, 2 * i) * 7 ** i
                    for i in range(n // 2 + 1))
        num = (-1) ** (n - 1) * total
        assert num % (1 << (n - 1)) == 0
        assert kloosterman(n) == 1 + num // (1 << (n - 1))


def test_field_spec_serialization():
    gf = GF(7)
    assert GF.from_json(gf.to_json()) == gf
    assert gf.to_json() == {"n": 7, "modulus": 0b10000011}


F4 = {"n": 2, "modulus": 7}


@pytest.mark.parametrize("cls, blob, field", [
    (GF, {"n": "6", "modulus": 67}, "n"),
    (GF, {"n": 6, "modulus": True}, "modulus"),
    (AffineSubspace, {"base": 0, "basis": ["x"]}, "basis[0]"),
    (AffineSubspace, {"base": False, "basis": [1]}, "base"),
    (Cover, {"field": F4, "dimension": "1", "flats": []}, "dimension"),
    (Cover, {"field": F4, "dimension": 1, "flats": {}}, "flats"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_from_json_rejects_wrong_types(cls, blob, field):
    with pytest.raises(ValueError, match=re.escape(repr(field))):
        cls.from_json(blob)
