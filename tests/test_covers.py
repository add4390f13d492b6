import json
import math
import random
import re

import pytest

from helpers import (contains, corrupt_cover, count_table_builds, from_points, image_cover,
                     linear_part, oracle_is_affine, oracle_is_cover, oracle_nonparallel,
                     oracle_overlapping_pairs, oracle_rref, oracle_totally_skew,
                     oracle_trivial_cover, random_basis, random_cover, skew_condition_check,
                     span_closure)

from vanishingflats import (
    GF,
    DOPolynomial,
    FunctionTable,
    AffineSubspace,
    Cover,
    cover_properties,
    trivial_cover,
    verify_cover,
    overlapping_flats,
    parallel_decomposition,
    gold_cover,
    theorem8_cover,
    enumerate_flats,
)
from vanishingflats import covers
from vanishingflats.covers import _gold_form, _rref_lanes, quadratic_image
from vanishingflats.dopoly import _polar_of, random_do_polynomial


def test_rref_lanes_canonical_in_one_lane():
    """The canonical cases of one flat in one lane, against the one-flat
    oracle: equal spans give equal rref bases, each pivot bit lies in one
    vector, and the widest 16-bit vectors still reduce."""
    def rref(vectors):
        slots, _ = _rref_lanes(1, [(v,) for v in vectors])
        return tuple(v for (v,) in slots if v)

    for vectors in ([1, 2, 3], [3, 5], [5, 6], [0, 0], [7, 5, 13], [0xFFFF, 0x8001, 0x7FFE]):
        assert rref(vectors) == oracle_rref(vectors)
    assert rref([1, 2, 3]) == (2, 1)
    assert rref([3, 5]) == rref([5, 6])
    assert rref([0, 0]) == ()
    basis = rref([7, 5, 13])
    for v in basis:
        top = v.bit_length() - 1
        assert sum((w >> top) & 1 for w in basis) == 1
    assert rref([0xFFFF, 0x8001, 0x7FFE]) == (0x8001, 0x7FFE)


def rref_family(n, d, count, rng):
    """count lists of d vectors of n bits: random vectors with zero, repeated
    and dependent ones mixed in, so that many ranks fall below d."""
    family = []
    for _ in range(count):
        vectors = []
        for _ in range(d):
            kind = rng.randrange(8) if vectors else rng.choice([0, 4, 7])
            if kind < 4:
                vectors.append(rng.randrange(1 << n))
            elif kind == 4:
                vectors.append(0)
            elif kind == 5:
                vectors.append(rng.choice(vectors))
            elif kind == 6:
                vectors.append(rng.choice(vectors) ^ rng.choice(vectors))
            else:
                vectors.append(1 << rng.randrange(n))
        family.append(vectors)
    return family


@pytest.mark.parametrize("count", [1, 2, 63, 1024])
@pytest.mark.parametrize("n", [2, 8, 9, 15, 16])
def test_rref_lanes_match_the_oracle(n, count):
    """The lane-parallel reduction of count flats gives, flat by flat, the
    rref of the one-flat oracle, padded with zeros past its rank, and
    reduces each extra to the least point of its flat's span through it."""
    rng = random.Random(1000 * n + count)
    ranks = set()
    for d in range(min(n, 6) + 1):
        family = rref_family(n, d, count, rng)
        extras = [[rng.randrange(1 << n) for _ in range(count)] for _ in range(2)]
        slots, reduced = _rref_lanes(count, list(zip(*family)), extras)
        assert len(slots) == d and all(len(s) == count for s in slots)
        assert len(reduced) == 2
        for j, vectors in enumerate(family):
            want = oracle_rref(vectors)
            ranks.add((d, len(want)))
            assert tuple(s[j] for s in slots) == want + (0,) * (d - len(want))
            linear = span_closure(vectors)
            for extra, out in zip(extras, reduced):
                assert out[j] == min(extra[j] ^ v for v in linear)
    if count >= 63:  # full and deficient ranks both occur
        assert {(d, d) for d in range(min(n, 6) + 1)} <= ranks
        assert any(r < d for d, r in ranks)


def test_affine_subspace_points_and_contains():
    flat = AffineSubspace(5, (2, 8))
    assert len(flat.basis) == 2
    assert flat.points() == [5, 7, 13, 15]
    assert contains(flat, 13)
    assert not contains(flat, 6)
    assert linear_part(flat) == frozenset({0, 2, 8, 10})
    with pytest.raises(ValueError):
        AffineSubspace(0, (3, 5, 6))  # dependent


def test_affine_subspace_stores_a_list_basis_as_a_tuple():
    """A list basis compares equal to the same tuple, and the cover checks,
    which set and hash the bases, take it."""
    assert AffineSubspace(0, [1]) == AffineSubspace(0, (1,))
    assert AffineSubspace(5, [2, 8]).basis == (2, 8)
    cover = Cover(GF(3), 2, [AffineSubspace(0, [1, 2]), AffineSubspace(4, [2, 1])])
    assert cover_properties(cover) == {"valid": True, "nonparallel": False,
                                       "totally_skew": False}


def test_from_points_roundtrip():
    flat = AffineSubspace(9, (1, 6))
    back = from_points(flat.points())
    assert set(back.points()) == set(flat.points())
    with pytest.raises(ValueError):
        from_points([0, 1, 2, 4])
    with pytest.raises(ValueError):
        from_points([0, 1, 2])


@pytest.mark.parametrize("n", range(1, 9))
def test_from_points_against_basis_and_near_misses(n):
    """Shuffled points of base + span(basis), for a random basis in no echelon
    form, give (least point, rref basis); near misses of such a point set,
    each not affine by the x + y + z closure oracle, raise ValueError."""
    rng = random.Random(800 + n)
    for _ in range(25):
        k = rng.randint(0, n)
        basis = random_basis(n, k, rng)
        base = rng.randrange(1 << n)
        pts = [base ^ v for v in span_closure(basis)]
        rng.shuffle(pts)
        flat = from_points(pts)
        assert (flat.base, flat.basis) == (min(pts), oracle_rref(basis))

        inside = set(pts)
        outside = [x for x in range(1 << n) if x not in inside]
        misses = []
        if k >= 2:
            misses.append(pts[1:])  # 2^k - 1 points
        if k >= 2 and outside:
            misses.append([rng.choice(outside), *pts[1:]])  # one point swapped out
        if k >= 1 and outside:
            misses.append([rng.choice(outside), *pts])  # 2^k + 1 points
        if 2 <= k < n:
            # 2^k points of a (k+1)-flat whose differences span k+1 dimensions
            wider = [base ^ v for v in span_closure(random_basis(n, k + 1, rng))]
            while oracle_is_affine(chosen := rng.sample(wider, 1 << k)):
                pass
            assert len(span_closure(p ^ chosen[0] for p in chosen)) > 1 << k
            misses.append(chosen)
        for miss in misses:
            assert not oracle_is_affine(miss)
            with pytest.raises(ValueError):
                from_points(miss)


def spanning_lists(basis, rng):
    """Three other lists that span what basis spans: shuffled, recombined by
    XOR, and padded with 0 and a repeat. basis has at least two vectors."""
    mixed = list(basis)
    for _ in range(3 * len(mixed)):
        i, j = rng.sample(range(len(mixed)), 2)
        mixed[i] ^= mixed[j]
    padded = [*basis, 0, rng.choice(basis)]
    rng.shuffle(padded)
    return rng.sample(basis, len(basis)), mixed, padded


@pytest.mark.parametrize("n,t", [(6, 2), (9, 3), (12, 4), (15, 5)])
def test_a_cover_depends_only_on_the_span(n, t):
    """quadratic_image and trivial_cover reduce their input by echelon, so
    every list that spans V must give the same Cover as a basis of V: the
    Gold image on a * GF(2^s), and the trivial cover on it and on a random
    (s + 1)-dimensional V."""
    gf, s = GF(n), math.gcd(n, t)
    form = _gold_form(gf, t)
    rng = random.Random(300 + n)
    for alpha in (1, rng.randrange(2, gf.order)):
        basis = [gf.mul(alpha, z) for z in oracle_rref(gf.subfield(s))]
        image, triv = quadratic_image(gf, *form, basis), trivial_cover(gf, basis)
        for vectors in spanning_lists(basis, rng):
            assert quadratic_image(gf, *form, vectors) == image
            assert trivial_cover(gf, vectors) == triv
    basis = random_basis(n, s + 1, rng)
    triv = trivial_cover(gf, basis)
    for vectors in spanning_lists(basis, rng):
        assert trivial_cover(gf, vectors) == triv


@pytest.mark.parametrize("n", range(2, 9))
def test_trivial_cover_is_least_uncovered_point_construction(n):
    rng = random.Random(900 + n)
    for k in range(n + 1):
        basis = random_basis(n, k, rng)
        assert trivial_cover(GF(n), basis) == oracle_trivial_cover(GF(n), basis)


def test_trivial_cover():
    gf = GF(4)
    cover = trivial_cover(gf, (1, 2))
    assert len(cover) == 4
    assert cover.dimension == 2
    assert verify_cover(cover)
    assert not cover_properties(cover)["nonparallel"]
    assert [f.base for f in cover.flats] == [0, 4, 8, 12]
    assert len(parallel_decomposition(cover)) == 1


def test_trivial_cover_rejects_a_vector_past_the_field():
    # 16 has no place in GF(16): it would span 16 flats of GF(2^5)
    with pytest.raises(ValueError, match=r"basis\[0\] = 16 out of range for GF\(2\^4"):
        trivial_cover(GF(4), [16])


def test_trivial_cover_rejects_a_negative_vector():
    with pytest.raises(ValueError, match=r"basis\[0\] = -1 out of range for GF\(2\^4"):
        trivial_cover(GF(4), [-1])


def test_quadratic_image_rejects_a_vector_past_the_field():
    gf = GF(6)
    with pytest.raises(ValueError, match=r"basis\[1\] = 64 out of range for GF\(2\^6"):
        quadratic_image(gf, *_gold_form(gf, 2), [1, 64])


def test_parallel_flats_with_different_bases_are_not_nonparallel():
    # {0, 1, 2, 3} and {4, 5, 6, 7}: one linear part, spanned by the bases
    # (3, 1) and (2, 1), so only their rref forms show the flats parallel
    gf = GF(3)
    cover = Cover(gf, 2, [AffineSubspace(0, (3, 1)), AffineSubspace(4, (2, 1))])
    assert oracle_nonparallel(cover) is False
    assert cover_properties(cover) == {"valid": True, "nonparallel": False,
                                       "totally_skew": False}


def test_verify_cover_rejects_bad_families():
    gf = GF(3)
    good = trivial_cover(gf, (1,))
    assert verify_cover(good)
    overlapping = Cover(gf, 1, [AffineSubspace(0, (1,))] * 4)
    assert not verify_cover(overlapping)
    assert overlapping_flats(overlapping)
    missing = Cover(gf, 1, good.flats[:-1])
    assert not verify_cover(missing)
    assert overlapping_flats(good) == []
    assert cover_properties(missing) == {"valid": False}


def test_image_cover_requires_permutation_and_flat_images():
    gf = GF(6)
    not_perm = FunctionTable.from_monomial(gf, 9)  # 3 | gcd(9, 63)
    cover = trivial_cover(gf, (1, 2))
    with pytest.raises(ValueError):
        image_cover(not_perm, cover)
    perm = FunctionTable.from_monomial(gf, 5)
    with pytest.raises(ValueError):
        image_cover(perm, cover)  # {0,1,2,3} is not a vanishing flat of x^5
    ident = FunctionTable.from_monomial(gf, 1)
    assert verify_cover(image_cover(ident, cover))


def test_gold_cover_basic():
    gf = GF(6)
    img = gold_cover(6, 2)
    # the default pair is x = 1, y = the least element of GF(4) beyond {0, 1}
    triv = trivial_cover(gf, (1, gf.subfield(2)[2]))
    assert len(triv) == 16 and len(img) == 16
    assert verify_cover(triv) and verify_cover(img)
    assert img.dimension == 2
    assert cover_properties(img)["totally_skew"]
    f = FunctionTable.from_monomial(gf, 5)
    assert img.to_json() == image_cover(f, triv).to_json()
    # every flat of the trivial cover is a vanishing flat of the Gold function
    blocks = set(enumerate_flats(f).blocks)
    for flat in triv.flats:
        assert tuple(flat.points()) in blocks


GOLD_PAIRS = [(6, 2), (6, 4), (9, 3), (9, 6), (10, 2), (10, 4), (10, 6), (10, 8)]


@pytest.mark.parametrize("n,t", GOLD_PAIRS)
def test_gold_image_skew_or_parallel_pairs(n, t):
    # dichotomy for n <= 10: either totally skew, or parallel classes of size 2
    img = gold_cover(n, t)
    assert verify_cover(img)
    groups = parallel_decomposition(img)
    props = cover_properties(img)
    if props["totally_skew"]:
        assert all(len(g) == 1 for g in groups)
        assert props["nonparallel"]
    else:
        assert all(len(g) == 2 for g in groups)
        assert len(groups) * 2 == len(img)


def test_gold_cover_parameter_validation():
    with pytest.raises(ValueError):
        gold_cover(6, 3)  # x^9 is not a permutation of GF(2^64)
    with pytest.raises(ValueError):
        gold_cover(5, 2)  # gcd(5, 2) = 1: APN, nothing to cover with
    with pytest.raises(ValueError):
        gold_cover(6, 0)
    with pytest.raises(ValueError):
        gold_cover(6, 2, x=0)
    with pytest.raises(ValueError):
        gold_cover(6, 2, x=1, y=2)  # ratio outside GF(4)
    for y, ratio in ((1, 1), (3, 62)):  # 1, and 1/3 outside GF(4)
        with pytest.raises(ValueError, match=re.escape(
                f"x/y = {ratio} must lie in GF(2^2) minus {{0, 1}}")):
            gold_cover(6, 2, x=1, y=y)


def test_gold_cover_explicit_pair():
    gf = GF(6)
    z = gf.subfield(2)[2]
    img = gold_cover(6, 2, x=3, y=gf.mul(3, z))
    assert verify_cover(trivial_cover(gf, (3, gf.mul(3, z)))) and verify_cover(img)
    assert cover_properties(img)["totally_skew"]


@pytest.mark.parametrize("n,t", [(6, 2), (9, 3), (10, 2)])
def test_theorem8_cover_totally_skew(n, t):
    cover = theorem8_cover(n, t)
    s = math.gcd(n, t)
    assert cover.dimension == s
    assert len(cover) == 1 << (n - s)
    assert verify_cover(cover)
    assert cover_properties(cover)["totally_skew"]


def test_theorem8_zero_coset_linear_part():
    # the image of alpha * GF(2^s) itself is alpha^d * GF(2^s)
    n, t, alpha = 9, 3, 5
    gf = GF(n)
    s = math.gcd(n, t)
    d = (1 << t) + 1
    cover = theorem8_cover(n, t, alpha=alpha)
    through_zero = next(f for f in cover.flats if contains(f, 0))
    scale = gf.pow(alpha, d)
    expected = frozenset(gf.mul(scale, z) for z in gf.subfield(s))
    assert linear_part(through_zero) == expected
    with pytest.raises(ValueError):
        theorem8_cover(n, t, alpha=0)


@pytest.mark.parametrize("n,t", [*GOLD_PAIRS, (12, 4), (12, 8), (15, 5)])
def test_constructions_match_the_pointwise_image(n, t):
    """thm8 and gold2 from the quadratic identity give, flat for flat and in
    the same order, the pointwise image of the trivial cover under a value
    table of x^(2^t + 1) made by gf.pow."""
    assert_constructions_match_the_pointwise_image(n, t)


@pytest.mark.parametrize("n,t,modulus", [(6, 2, 0x49), (9, 3, 0x203)])
def test_constructions_match_the_pointwise_image_under_another_modulus(n, t, modulus):
    """The same under an irreducible modulus that is not the default one
    (x^6 + x^3 + 1 is not even primitive): the coset leaders, the quadratic
    doubling of f over them and the derivative spans must not lean on the
    default field."""
    assert_constructions_match_the_pointwise_image(n, t, modulus)


def assert_constructions_match_the_pointwise_image(n, t, modulus=None):
    gf, s = GF(n, modulus), math.gcd(n, t)
    f = FunctionTable(gf, [gf.pow(x, (1 << t) + 1) for x in gf.elements()])
    sub = gf.subfield(s)
    rng = random.Random(100 * n + t)
    for alpha in (1, rng.randrange(2, gf.order), rng.randrange(2, gf.order)):
        triv = trivial_cover(gf, [gf.mul(alpha, z) for z in sub])
        img = theorem8_cover(n, t, alpha, modulus=modulus)
        assert img.to_json() == image_cover(f, triv).to_json()
    for _ in range(3):
        x = rng.randrange(1, gf.order)
        y = gf.mul(x, rng.choice(sub[2:]))
        img = gold_cover(n, t, x, y, modulus=modulus)
        assert img.to_json() == image_cover(f, trivial_cover(gf, (x, y))).to_json()


def test_constructed_flats_equal_checked_flats():
    """trivial_cover and quadratic_image build their flats past the echelon
    check; each must compare equal to the checked flat with the same base
    and basis, and Cover.from_json must still refuse a dependent basis."""
    covers = [trivial_cover(GF(6), (3, 5, 6, 12)), theorem8_cover(9, 3, alpha=7),
              gold_cover(12, 4)]
    for cover in covers:
        for flat in cover.flats:
            assert flat == AffineSubspace(flat.base, flat.basis)
            assert type(flat) is AffineSubspace
        assert Cover.from_json(cover.to_json()) == cover
    bad = {"field": {"n": 4, "modulus": 19}, "dimension": 2,
           "flats": [{"base": 0, "basis": [3, 3]}]}
    with pytest.raises(ValueError, match="not linearly independent"):
        Cover.from_json(bad)


def test_constructions_build_no_value_table(monkeypatch):
    """Neither a value table nor the field's exp and log lists: the Gold
    form comes from shift-and-reduce chains, and GF(2^15).exp_log alone
    costs about as much as a whole thm8 build at n = 15."""
    builds = count_table_builds(monkeypatch)
    walks = []
    exp_log = GF.exp_log
    monkeypatch.setattr(GF, "exp_log", lambda gf: walks.append(gf) or exp_log(gf))
    theorem8_cover(12, 4, alpha=5)
    gold_cover(12, 4)
    gold_cover(9, 3, modulus=0x203)
    assert builds == []
    assert walks == []


@pytest.mark.parametrize("n,t,modulus", [*[(n, t, None) for n, t in GOLD_PAIRS], (6, 3, None),
                                         (15, 5, None), (6, 2, 0x49), (9, 3, 0x203)])
def test_gold_form_matches_the_exp_log_builder(n, t, modulus):
    """_gold_form against the independent route through the exp and log
    lists: its polar matrix is DOPolynomial._polar of x^(2^0 + 2^t), and
    f(e_k) is the value table of that polynomial at e_k. x^9 on GF(2^6) is
    no permutation, and the form is still that of x^9."""
    gf = GF(n, modulus)
    at_units, polar = _gold_form(gf, t)
    gold = DOPolynomial(gf, {(0, t): 1})
    assert polar == gold._polar()
    values = gold.to_table().values
    assert at_units == [values[1 << k] for k in range(n)]


@pytest.mark.parametrize("n", [6, 9])
def test_quadratic_image_matches_the_pointwise_image_of_do_permutations(n):
    """The kernel on quadratics that are not Gold: seeded DO permutations
    with two or three terms, at the least isotropic plane through each of
    1, 2 and q - 1, found from the table's own B(a, b) = f(a + b) + f(a) +
    f(b) + f(0). Fed f(e_k) and the polar matrix _polar_of stores for a
    QuadraticFunction, the kernel must give the pointwise image of the
    trivial cover flat for flat, and reject the least plane through 1 that
    is not isotropic."""
    gf = GF(n)
    q, checked = gf.order, 0
    for size in (2, 3):
        for seed in range(200):
            f = random_do_polynomial(gf, size, seed).to_table()
            t = f.values
            if len(set(t)) != q:
                continue
            at_units, polar = [t[1 << k] for k in range(n)], _polar_of(t)
            for a in (1, 2, q - 1):
                b = next((b for b in range(1, q)
                          if b != a and t[a ^ b] ^ t[a] ^ t[b] ^ t[0] == 0), None)
                if b is not None:
                    img = quadratic_image(gf, at_units, polar, (a, b))
                    assert img.to_json() == image_cover(f, trivial_cover(gf, (a, b))).to_json()
                    checked += 1
            b = next(b for b in range(2, q) if t[1 ^ b] ^ t[1] ^ t[b] ^ t[0])
            with pytest.raises(ValueError, match="totally isotropic"):
                quadratic_image(gf, at_units, polar, (1, b))
    assert checked >= 9


def test_gold_image_rejects_a_span_that_is_not_isotropic():
    gf = GF(6)
    assert 2 not in gf.subfield(2)
    with pytest.raises(ValueError, match="totally isotropic"):
        quadratic_image(gf, *_gold_form(gf, 2), (1, 2))
    # x^9 is additive on GF(8), but not injective on the cosets of GF(8)
    # outside it: there D_v f(c) = v^2 + (c^8 + c) v vanishes at v = c^8 + c
    with pytest.raises(ValueError, match="dimension 2, not 3"):
        quadratic_image(gf, *_gold_form(gf, 3), gf.subfield(3))


def test_gold_image_rank_error_names_the_least_deficient_coset():
    """The rank error names the least coset leader whose image under x^9
    falls short of dimension 3, as the pointwise image finds it."""
    gf = GF(6)
    sub = gf.subfield(3)
    f = [gf.pow(x, 9) for x in gf.elements()]
    short = []
    for flat in oracle_trivial_cover(gf, sub).flats:  # least points, ascending
        image = {f[flat.base ^ v] for v in span_closure(flat.basis)}
        rank = len(oracle_rref([y ^ f[flat.base] for y in image]))
        if rank < 3:
            short.append((flat.base, rank))
    c, rank = short[0]
    assert rank == 2 and c > 0
    with pytest.raises(ValueError) as err:
        quadratic_image(gf, *_gold_form(gf, 3), sub)
    assert str(err.value) == f"the image of the coset of {c} has dimension 2, not 3"


def test_skew_condition_check_matches_cover_predicate():
    gf6 = GF(6)
    f6 = FunctionTable.from_monomial(gf6, 5)
    y6 = gf6.subfield(2)[2]
    assert skew_condition_check(f6, 1, y6)

    gf9 = GF(9)
    f9 = FunctionTable.from_monomial(gf9, 9)
    y9 = gf9.subfield(3)[2]
    assert not skew_condition_check(f9, 1, y9)

    with pytest.raises(ValueError):
        skew_condition_check(f6, 0, 1)
    with pytest.raises(ValueError):
        skew_condition_check(f6, 1, 2)  # {0, 1, 2, 3} not a vanishing flat


def test_verify_cover_rejects_points_outside_field():
    gf = GF(2)
    outside = Cover(gf, 1, [AffineSubspace(0, (1,)), AffineSubspace(4, (1,))])
    assert not verify_cover(outside)


def test_cover_from_json_checks_dimension_range():
    blob = trivial_cover(GF(3), (1,)).to_json()
    for bad in (-1, 4, 64):
        blob["dimension"] = bad
        with pytest.raises(ValueError, match="'dimension'"):
            Cover.from_json(blob)
    for good in (0, 3):  # in range, though not this cover's dimension
        blob["dimension"] = good
        assert not verify_cover(Cover.from_json(blob))


def assert_matches_oracles(cover):
    """The marking checks against the pairwise definitions."""
    valid = oracle_is_cover(cover)
    assert verify_cover(cover) == valid
    assert overlapping_flats(cover) == oracle_overlapping_pairs(cover)
    if valid:
        assert cover_properties(cover) == {"valid": True,
                                           "nonparallel": oracle_nonparallel(cover),
                                           "totally_skew": oracle_totally_skew(cover)}
    else:
        assert cover_properties(cover) == {"valid": False}
    return valid


def test_cover_properties_at_dimension_zero_and_n():
    # dimension 0: no linear part has a nonzero point, so the cover is
    # vacuously totally skew, yet its 8 flats share the linear part {0}
    points = trivial_cover(GF(3), [])
    assert (points.dimension, len(points.flats)) == (0, 8)
    assert cover_properties(points) == {"valid": True, "nonparallel": False,
                                        "totally_skew": True}
    assert parallel_decomposition(points) == [points.flats]  # no slots to reduce
    whole = trivial_cover(GF(3), [1, 2, 4])
    assert (whole.dimension, len(whole.flats)) == (3, 1)
    assert cover_properties(whole) == {"valid": True, "nonparallel": True,
                                       "totally_skew": True}
    assert parallel_decomposition(whole) == [whole.flats]
    # a skew cover of dimension >= 1 is nonparallel; a parallel one is neither
    assert cover_properties(trivial_cover(GF(3), [1])) == {"valid": True, "nonparallel": False,
                                                          "totally_skew": False}


@pytest.mark.parametrize("n", range(3, 9))
def test_cover_checks_match_pairwise_oracles(n):
    gf = GF(n)
    # the corruptions draw from their own stream, so the covers are the same
    # whichever kinds of corruption there are
    rng, spoil = random.Random(n), random.Random(-n)
    outcomes = set()
    for d in range(n + 1):
        for _ in range(4):
            cover = random_cover(gf, d, rng)
            assert assert_matches_oracles(cover)
            outcomes.add((oracle_nonparallel(cover), oracle_totally_skew(cover)))
            for _ in range(3):
                assert_matches_oracles(corrupt_cover(cover, spoil))
    # parallel, totally skew, and (which needs d >= 2 in a 4-flat) nonparallel
    # but partially meeting
    assert {(False, False), (True, True)} <= outcomes
    assert ((True, False) in outcomes) == (n >= 4)


@pytest.mark.parametrize("n,t", [(6, 2), (9, 3), (10, 2)])
def test_built_covers_match_pairwise_oracles(n, t):
    gf = GF(n)
    triv = trivial_cover(gf, (1, gf.subfield(math.gcd(n, t))[2]))
    for cover in (triv, gold_cover(n, t), theorem8_cover(n, t, alpha=3)):
        assert assert_matches_oracles(cover)


def test_cover_checks_on_negative_and_overlapping_points():
    gf = GF(3)
    negative = Cover(gf, 1, [AffineSubspace(-2, (1,)), *trivial_cover(gf, (1,)).flats[1:]])
    assert not assert_matches_oracles(negative)
    doubled = Cover(gf, 1, [AffineSubspace(0, (1,))] * 4)
    assert overlapping_flats(doubled) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert not assert_matches_oracles(doubled)
    # a partition of GF(8) into 4 flats of 8 points in all, but of
    # dimensions 2, 0, 0 and 1: no cover of dimension 1
    mixed = Cover(gf, 1, [AffineSubspace(0, (1, 2)), AffineSubspace(4, ()),
                          AffineSubspace(5, ()), AffineSubspace(6, (1,))])
    assert overlapping_flats(mixed) == []
    assert not assert_matches_oracles(mixed)
    # 8 distinct points with every base in GF(8), but the basis vector 9 is
    # not, so 6 + 9 = 15 lies outside the field
    wide = Cover(gf, 1, [*trivial_cover(gf, (1,)).flats[:3], AffineSubspace(6, (9,))])
    assert overlapping_flats(wide) == []
    assert not assert_matches_oracles(wide)
    assert not verify_cover(Cover(gf, -1, []))
    assert not verify_cover(Cover(gf, 4, []))


def test_cover_from_json_names_the_flat_of_every_error(monkeypatch):
    """Every per-flat error names flats[i], and a basis longer than n is
    refused by its count before echelon sees it."""
    seen = []
    echelon = covers.echelon
    monkeypatch.setattr(covers, "echelon", lambda vectors: seen.append(len(vectors))
                        or echelon(vectors))
    for basis, message in (([1, 1], "basis vectors are not linearly independent: (1, 1)"),
                           ([1, 2, 4, 3], "has 4 basis vectors, more than n = 3"),
                           (list(range(1, 6001)), "has 6000 basis vectors, more than n = 3"),
                           ([1, "2"], "JSON field 'basis[1]' must be an integer, got '2'")):
        blob = trivial_cover(GF(3), (1,)).to_json()
        blob["flats"][2]["basis"] = basis
        seen.clear()
        with pytest.raises(ValueError) as err:
            Cover.from_json(blob)
        assert str(err.value) == f"JSON field 'flats[2]': {message}"
        assert max(seen, default=0) <= 3


@pytest.mark.parametrize("path", [("field",), ("dimension",), ("flats",),
                                  ("field", "modulus"), ("flats", 0, "basis")],
                         ids=lambda path: ".".join(map(str, path)))
def test_cover_from_json_names_missing_field(path):
    blob = trivial_cover(GF(3), (1,)).to_json()
    parent = blob
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(ValueError, match=repr(path[-1])):
        Cover.from_json(blob)


def test_cover_serialization_and_describe():
    gf = GF(4)
    cover = trivial_cover(gf, (1, 2))
    blob = json.dumps(cover.to_json())
    back = Cover.from_json(json.loads(blob))
    assert back.field == gf
    assert back.dimension == cover.dimension
    assert [f.to_json() for f in back.flats] == [f.to_json() for f in cover.flats]
    text = cover.describe()
    assert text.splitlines()[0].endswith("4 flats")
    assert len(text.splitlines()) == 5
