import json
import random
from collections import Counter

import pytest

from vanishingflats import (
    GF,
    FunctionTable,
    PartialQuadrupleSystem,
    canonical_block,
    enumerate_flats,
    count_via_spectrum,
    count_from_spectrum,
    flats_through_pair,
    bounds,
    closed_form,
    KNOWN_MONOMIAL_COUNTS,
    MonomialFamily,
    PowerFunction,
)
from vanishingflats.dopoly import random_do_polynomial

from helpers import (
    blocks_through,
    brute_force_flats,
    cube_root_of_unity,
    direction_emits,
    format_blocks,
    is_permutation,
    isomorphism_witness_check,
    map_blocks,
    random_table,
    random_affine_permutation,
    random_affine_map,
    twin_odd_t_exponents,
    walsh_flat_count,
)


def test_canonical_block_validation():
    assert canonical_block((3, 0, 2, 1)) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        canonical_block((0, 1, 2, 4))  # XOR != 0
    with pytest.raises(ValueError):
        canonical_block((0, 1, 1, 0))  # not distinct


def test_enumerate_apn_empty():
    assert len(enumerate_flats(FunctionTable.from_monomial(GF(3), 3))) == 0


def test_enumerate_inverse_f16():
    gf = GF(4)
    pqs = enumerate_flats(FunctionTable.from_monomial(gf, 14))
    assert len(pqs) == 5
    z = cube_root_of_unity(gf)
    z2 = gf.mul(z, z)
    expected = set()
    for beta in range(1, gf.order):
        expected.add(canonical_block((0, beta, gf.mul(beta, z), gf.mul(beta, z2))))
    assert set(pqs.blocks) == expected
    assert all(b[0] == 0 for b in pqs.blocks)


def test_enumerate_identity_f4():
    gf = GF(2)
    pqs = enumerate_flats(FunctionTable.from_monomial(gf, 1))
    assert pqs.blocks == [(0, 1, 2, 3)]


def test_count_identity_random_tables():
    gf = GF(5)
    rng = random.Random(2024)
    for _ in range(25):
        f = random_table(gf, rng)
        assert len(enumerate_flats(f)) == count_via_spectrum(f)


def test_count_not_divisible_by_three_raises():
    # one pair (a, b) with delta_f(a, b) = 4 holds C(2, 2) = 1 flat, but a
    # flat lies along three directions, so the l_k of any table sum to a
    # multiple of 3; this check is the only one on the DO rank route too
    with pytest.raises(ArithmeticError):
        count_from_spectrum({0: 1, 4: 1})


def test_triple_cover():
    gf = GF(4)
    for d in (1, 5, 14):
        f = FunctionTable.from_monomial(gf, d)
        emitted = direction_emits(f)
        assert len(emitted) == 3 * len(set(emitted))
        assert Counter(Counter(emitted).values()) in (Counter(), Counter({3: len(set(emitted))}))
        assert set(emitted) == set(enumerate_flats(f).blocks)


def _oracle_functions(gf, rng):
    q = gf.order
    yield from (random_table(gf, rng) for _ in range(3))
    yield from (FunctionTable.from_monomial(gf, d) for d in (1, 3, 7, q - 2))
    for support in range(1, min(3, gf.n * (gf.n - 1) // 2) + 1):
        yield random_do_polynomial(gf, support, seed=rng.randrange(1000)).to_table()
    yield FunctionTable(gf, [q - 1] * q)  # constant: one bucket of q/2 points per direction
    yield FunctionTable(gf, [rng.randrange(2) for _ in range(q)])  # Boolean-valued


def _largest_bucket(f):
    """The most points x < x+a sharing one value of D_a f, over 0 < a < 2^(n-1)."""
    t = f.values
    q = len(t)
    return max(max(Counter(t[x] ^ t[x ^ a] for x in range(q) if x < x ^ a).values())
               for a in range(1, q // 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_enumeration_matches_brute_force(n):
    gf = GF(n)
    functions = list(_oracle_functions(gf, random.Random(700 + n)))
    for f in functions:
        blocks = enumerate_flats(f).blocks
        assert blocks == brute_force_flats(f)
        assert all(b[0] < b[1] < b[2] < b[3] for b in blocks)
        assert all(b < c for b, c in zip(blocks, blocks[1:]))
    if n >= 3:  # at n = 2 a half holds two points
        assert max(map(_largest_bucket, functions)) >= 3


@pytest.mark.parametrize("n", range(2, 7))
def test_least_direction_lacks_the_top_bit(n):
    """The premise of walking only a < 2^(n-1): of the three directions of a
    flat, which XOR to 0, the least has a lower top bit than the other two."""
    gf = GF(n)
    q = gf.order
    rng = random.Random(900 + n)
    tables = [random_table(gf, rng) for _ in range(3)] + [FunctionTable(gf, list(range(q)))]
    for f in tables:
        for x1, x2, x3, x4 in brute_force_flats(f):
            least, middle, most = sorted((x1 ^ x2, x1 ^ x3, x1 ^ x4))
            assert least.bit_length() < middle.bit_length() == most.bit_length()
            assert least < q >> 1


@pytest.mark.parametrize("n", range(2, 7))
def test_enumeration_walks_only_the_low_directions(n, monkeypatch):
    asked = []
    walk = FunctionTable.half_derivatives

    def spy(self, directions=None):
        for item in walk(self, directions):
            asked.append(item[0])
            yield item

    monkeypatch.setattr(FunctionTable, "half_derivatives", spy)
    gf = GF(n)
    for f in _oracle_functions(gf, random.Random(700 + n)):
        asked.clear()
        enumerate_flats(f)
        assert asked == list(range(1, gf.order >> 1))


@pytest.mark.parametrize("n", range(2, 11))
def test_to_text_matches_format_oracle(n):
    pqs = enumerate_flats(random_table(GF(n), random.Random(1100 + n)))
    assert "\n".join(pqs.text_chunks()) == format_blocks(pqs.blocks)


@pytest.mark.parametrize("gf, d, blocks", [
    (GF(5), 3, 0),  # APN: no block, and no per-point strings
    (GF(8, 0x11b), 7, 3655),  # x is not primitive modulo 0x11b
])
def test_to_text_matches_format_oracle_special_fields(gf, d, blocks):
    pqs = enumerate_flats(FunctionTable.from_monomial(gf, d))
    assert len(pqs) == blocks
    assert "\n".join(pqs.text_chunks()) == format_blocks(pqs.blocks)


@pytest.mark.parametrize("n", (7, 8))
def test_walsh_fourth_moment_oracle(n):
    gf = GF(n)
    f = random_table(gf, random.Random(800 + n))
    count = walsh_flat_count(f.values)
    assert count_via_spectrum(f) == count
    assert len(enumerate_flats(f)) == count


def test_walsh_fourth_moment_oracle_univariate():
    f = FunctionTable.from_univariate(GF(8), [(1, 7), (3, 11), (5, 13)])
    count = walsh_flat_count(f.values)
    assert count == 2753
    assert count_via_spectrum(f) == len(enumerate_flats(f)) == count


def test_walsh_fourth_moment_oracle_known_counts():
    gf = GF(6)
    for d, expected in KNOWN_MONOMIAL_COUNTS[6]:
        assert walsh_flat_count(FunctionTable.from_monomial(gf, d).values) == expected


def test_enumeration_limit_is_exact():
    f = FunctionTable.from_monomial(GF(6), 9)
    assert len(enumerate_flats(f, limit=1008)) == 1008
    with pytest.raises(ValueError, match="^1008 vanishing flats, more than the limit of 1007$"):
        enumerate_flats(f, limit=1007)
    with pytest.raises(ValueError):
        enumerate_flats(f, limit=0)
    assert len(enumerate_flats(FunctionTable.from_monomial(GF(5), 3), limit=0)) == 0


def test_flats_through_pair():
    apn = FunctionTable.from_monomial(GF(5), 3)
    assert flats_through_pair(apn, 4, 9) == 0

    gf = GF(6)
    g9 = FunctionTable.from_monomial(gf, 9)
    pqs = enumerate_flats(g9)
    for x, a in ((0, 1), (5, 17), (33, 60)):
        expect = len(blocks_through(pqs, x, x ^ a))
        assert flats_through_pair(g9, x, a) == expect
    # delta(a, b) = 8 along every direction for x^9 over GF(2^6)
    assert flats_through_pair(g9, 0, 1) == 3

    ident = FunctionTable.from_monomial(gf, 1)
    assert flats_through_pair(ident, 7, 3) == gf.order // 2 - 1
    with pytest.raises(ValueError):
        flats_through_pair(ident, 7, 0)


def test_block_directions_are_critical():
    gf = GF(4)
    f = FunctionTable.from_monomial(gf, 5)
    crit = f.critical_directions()
    for b in enumerate_flats(f).blocks:
        for a in (b[0] ^ b[1], b[0] ^ b[2], b[0] ^ b[3]):
            assert a in crit


def test_bounds():
    gf4 = GF(4)
    inv = FunctionTable.from_monomial(gf4, 14)
    lo, hi = bounds(inv)
    assert lo == 5
    assert len(enumerate_flats(inv)) == lo

    ident = FunctionTable.from_monomial(gf4, 1)
    lo1, hi1 = bounds(ident)
    assert hi1 == 140
    assert len(enumerate_flats(ident)) == hi1

    gf5 = GF(5)
    non_apn = FunctionTable.from_monomial(gf5, 1)
    lo5, _ = bounds(non_apn)
    assert lo5 == 11

    rnd = random_table(gf4, random.Random(1))
    assert bounds(rnd)[0] == 0


def test_affine_addition_preserves_blocks():
    gf = GF(4)
    rng = random.Random(7)
    f = FunctionTable.from_monomial(gf, 5)
    base = enumerate_flats(f).blocks
    for _ in range(5):
        affine = random_affine_map(gf, rng)
        g = FunctionTable(gf, [f[x] ^ affine[x] for x in gf.elements()])
        assert enumerate_flats(g).blocks == base


def test_map_blocks_and_witness():
    gf = GF(4)
    f = FunctionTable.from_monomial(gf, 14)
    pqs = enumerate_flats(f)
    assert map_blocks(pqs, list(gf.elements())).blocks == pqs.blocks
    assert isomorphism_witness_check(pqs, pqs, list(gf.elements()))

    # translation maps the block set of a DO monomial to itself
    g9 = enumerate_flats(FunctionTable.from_monomial(GF(6), 9))
    shift = [x ^ 13 for x in range(64)]
    assert map_blocks(g9, shift).blocks == g9.blocks

    with pytest.raises(ValueError):
        map_blocks(pqs, [0] * gf.order)


def test_frobenius_composition_keeps_blocks():
    gf = GF(6)
    f = FunctionTable.from_monomial(gf, 9)
    pqs = enumerate_flats(f)
    for i in range(1, gf.n):
        sf = FunctionTable(gf, [gf.pow(v, 1 << i) for v in f.values])
        assert enumerate_flats(sf).blocks == pqs.blocks
        assert isomorphism_witness_check(pqs, enumerate_flats(sf), list(gf.elements()))


def test_inverse_permutation_isomorphism():
    gf = GF(6)
    f = FunctionTable.from_monomial(gf, 5)  # gcd(5, 63) = 1, so a permutation
    assert is_permutation(f)
    finv = [0] * gf.order
    for x in gf.elements():
        finv[f[x]] = x
    p = enumerate_flats(f)
    q = enumerate_flats(FunctionTable(gf, finv))
    assert isomorphism_witness_check(p, q, f.values)


def test_ea_transform_witness():
    gf = GF(6)
    rng = random.Random(31)
    f = FunctionTable.from_monomial(gf, 9)
    pqs = enumerate_flats(f)
    a1, _ = random_affine_permutation(gf, rng)
    a2, a2_inv = random_affine_permutation(gf, rng)
    a3 = random_affine_map(gf, rng)
    g = FunctionTable(gf, [a1[f[a2[x]]] ^ a3[x] for x in gf.elements()])
    q = enumerate_flats(g)
    assert len(q) == len(pqs)
    assert isomorphism_witness_check(pqs, q, a2_inv)


GOLD_CASES = [(6, 2, 336), (6, 3, 1008), (8, 4, 38080), (9, 3, 65408)]


@pytest.mark.parametrize("n,t,expected", GOLD_CASES)
def test_gold_closed_form(n, t, expected):
    assert closed_form("gold", n, t=t)[1] == expected


def test_closed_forms_match_reference_counts():
    assert closed_form("inverse", 8)[1] == 85
    assert closed_form("d7", 6)[1] == 84
    assert closed_form("d7", 7)[1] == 889
    assert closed_form("d7", 8)[1] == 3655
    assert closed_form("niho", 8, t=2)[1] == 2040
    assert closed_form("half", 6)[1] == 84
    assert closed_form("half", 8)[1] == 1785
    assert closed_form("half-plus", 6)[1] == 126
    assert closed_form("half-plus", 8)[1] == 2380
    assert closed_form("odd-plus", 7)[1] == 889
    assert closed_form("kasami", 7, t=2)[1] == 0


def test_closed_form_brute_force_beyond_reference():
    # both twin-odd-t exponents share the count; closed_form names one of them
    gf10 = GF(10)
    d, count = closed_form("twin-odd-t", 10)
    assert d in twin_odd_t_exponents(10)
    for d in twin_odd_t_exponents(10):
        assert count_via_spectrum(FunctionTable.from_monomial(gf10, d)) == count


def test_every_closed_form_up_to_n14_matches_the_spectrum_count():
    """Each (family, n, t) that closed_form accepts with n <= 14 and t None
    or 1..n-1: the count is that of its own exponent d, by the spectrum."""
    accepted = []
    for family in MonomialFamily:
        for n in range(2, 15):
            for t in (None, *range(1, n)):
                try:
                    accepted.append((family, n, t, *closed_form(family, n, t=t)))
                except ValueError:
                    pass
    assert len(accepted) == 107
    assert {family for family, *_ in accepted} == set(MonomialFamily)
    for family, n, t, d, count in accepted:
        assert count_via_spectrum(PowerFunction(GF(n), d)) == count, (family.value, n, t, d)


def test_closed_form_rejects_t_where_unused_and_n_below_2():
    takes_t = {MonomialFamily.GOLD, MonomialFamily.KASAMI, MonomialFamily.NIHO}
    # t is rejected before the side conditions, which odd-low and odd-plus fail at n = 10
    for family in set(MonomialFamily) - takes_t:
        with pytest.raises(ValueError, match=f"the {family.value} family takes no t, got t = 3"):
            closed_form(family, 10, t=3)
    for n in (1, 0, -2):
        with pytest.raises(ValueError, match=f"n = {n}: the closed forms need n >= 2"):
            closed_form("inverse", n)


def test_closed_form_side_conditions():
    with pytest.raises(ValueError):
        closed_form("gold", 6, t=4)
    with pytest.raises(ValueError):
        closed_form("inverse", 5)
    with pytest.raises(ValueError):
        closed_form("kasami", 9, t=3)  # n = 3t
    with pytest.raises(ValueError):
        closed_form("kasami", 8, t=2)  # n/s even
    with pytest.raises(ValueError):
        closed_form("d7", 5)
    with pytest.raises(ValueError):
        closed_form("odd-low", 6)  # enabled only for odd n >= 7
    with pytest.raises(ValueError):
        closed_form("twin-odd-t", 12)  # t = 6 even
    with pytest.raises(ValueError):
        closed_form("no-such-family", 6)


def test_pqs_serialization_roundtrip():
    gf = GF(4)
    pqs = enumerate_flats(FunctionTable.from_monomial(gf, 5))
    text = "\n".join(pqs.text_chunks())
    assert len(text.splitlines()) == len(pqs)
    # the JSON object holds the block list itself, not a copy: json writes
    # the tuples as arrays
    obj = pqs.to_json()
    assert obj["blocks"] is pqs.blocks
    assert json.loads(json.dumps(obj)) == {"field": gf.to_json(), "block_count": 20,
                                           "blocks": [list(b) for b in pqs.blocks]}


def test_block_entries_share_the_point_objects():
    # past the small-int cache (n >= 9) a fresh x + a would be a new object
    # in every block; the listing holds every block, so no id is reused
    gf = GF(10)
    pqs = enumerate_flats(random_table(gf, random.Random(10)))
    assert len(pqs) > gf.order
    assert len({id(p) for block in pqs.blocks for p in block}) <= gf.order


def test_duplicate_blocks_rejected():
    with pytest.raises(ValueError):
        PartialQuadrupleSystem(GF(2), [(0, 1, 2, 3), (3, 2, 1, 0)])
