import random

import pytest

from vanishingflats import (
    GF,
    FunctionTable,
    ParityCheckSpec,
    weight_counts_from_flats,
    direct_low_weight_counts,
    count_via_spectrum,
    enumerate_flats,
    DOPolynomial,
    KNOWN_MONOMIAL_COUNTS,
)
from vanishingflats.cycliccode import report

from helpers import cyclotomic_class_reps, generalized_spec, random_table, triple_loop_weight_counts


def test_cyclic_spec_structure():
    gf = GF(4)
    spec = ParityCheckSpec.cyclic(gf, 5)
    assert len(spec.labels) == gf.order - 1
    assert spec.labels[:2] == [1, gf.primitive_element()]
    assert sorted(spec.labels) == list(range(1, gf.order))
    assert spec.images == [gf.pow(x, 5) for x in spec.labels]
    gen = generalized_spec(gf, FunctionTable.from_monomial(gf, 5))
    assert len(gen.labels) == gf.order
    assert gen.labels[0] == 0
    for n in range(2, 9):
        gf = GF(n)
        for d in cyclotomic_class_reps(n):
            spec = ParityCheckSpec.cyclic(gf, d)
            assert spec.images == [gf.pow(x, d) for x in spec.labels]


def test_spec_labels_do_not_share_the_exp_list():
    # the field's exp list is shared by every caller: a spec must hold a copy
    gf = GF(5)
    exp = gf.exp_log()[0]
    before = list(exp)
    for spec in (ParityCheckSpec.cyclic(gf, 3),
                 generalized_spec(gf, FunctionTable.from_monomial(gf, 3))):
        spec.labels.reverse()
        spec.labels[0] ^= 1
        assert gf.exp_log()[0] is exp and exp == before


def test_spec_validation():
    gf = GF(3)
    with pytest.raises(ValueError):
        ParityCheckSpec(gf, [1, 2], [1])
    with pytest.raises(ValueError):
        ParityCheckSpec(gf, [1, 2, 3], [1, 2, 3])
    # a repeated label would make the weight-3 loop miss a codeword
    with pytest.raises(ValueError, match="label 3 "):
        ParityCheckSpec(GF(2), [1, 2, 3, 3], [0, 0, 0, 0])


def test_conservation_n3_plus_n4():
    # the N3 formula against enumeration, on every Table-2 monomial up to n = 7
    # and on seeded random tables normalised to f(0) = 0
    monomials = [(4, 14), (5, 15), (6, 7), (6, 9)]
    monomials += [(n, d) for n, rows in KNOWN_MONOMIAL_COUNTS.items() if n <= 7
                  for d, _ in rows]
    rng = random.Random(2006)
    randoms = []
    for n in (4, 5, 6, 6):
        f = random_table(GF(n), rng)
        randoms.append(FunctionTable(f.field, [v ^ f[0] for v in f.values]))
    for f in [FunctionTable.from_monomial(GF(n), d) for n, d in monomials] + randoms:
        n3, n4 = weight_counts_from_flats(f)
        blocks = enumerate_flats(f).blocks
        assert n3 == sum(1 for b in blocks if b[0] == 0)
        assert n3 + n4 == len(blocks)
    for f in randoms:
        # with f(0) = 0 the weight-3 words of the generalized code are the
        # flats through 0, and its weight-4 words are all the flats
        n3, n4 = weight_counts_from_flats(f)
        direct = direct_low_weight_counts(generalized_spec(f.field, f))
        assert direct == {3: n3, 4: n3 + n4}


@pytest.mark.parametrize("n,d", [(4, 5), (4, 14), (5, 15), (6, 7), (6, 21)])
def test_direct_matches_flats_small(n, d):
    gf = GF(n)
    direct = direct_low_weight_counts(ParityCheckSpec.cyclic(gf, d))
    f = FunctionTable.from_monomial(gf, d)
    assert (direct[3], direct[4]) == weight_counts_from_flats(f)


@pytest.mark.parametrize("n,d", [(7, 7), (7, 21), (8, 5), (8, 7), (8, 21)])
def test_direct_weight4_larger_fields(n, d):
    gf = GF(n)
    direct = direct_low_weight_counts(ParityCheckSpec.cyclic(gf, d))
    f = FunctionTable.from_monomial(gf, d)
    assert (direct[3], direct[4]) == weight_counts_from_flats(f)
    if n == 8:  # the paper's n = 8 row counts every flat: N3 + N4
        assert direct[3] + direct[4] == dict(KNOWN_MONOMIAL_COUNTS[8])[d]


@pytest.mark.parametrize("n", range(2, 7))
def test_pair_sum_kernel_matches_triple_loop_on_every_class(n):
    gf = GF(n)
    for d in cyclotomic_class_reps(n):
        spec = ParityCheckSpec.cyclic(gf, d)
        want = triple_loop_weight_counts(spec)
        assert direct_low_weight_counts(spec) == want


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pair_sum_kernel_matches_triple_loop_on_random_tables(n):
    # the generalized spec has the label-0 column; f(0) = 0 and f(0) != 0
    # both occur
    gf = GF(n)
    rng = random.Random(4096 + n)
    for _ in range(3):
        f = random_table(gf, rng)
        shift = f[0] ^ rng.randrange(1, gf.order)
        for g in (FunctionTable(gf, [v ^ f[0] for v in f.values]),
                  FunctionTable(gf, [v ^ shift for v in f.values])):
            spec = generalized_spec(gf, g)
            assert direct_low_weight_counts(spec) == triple_loop_weight_counts(spec)


def test_pair_sums_not_split_three_ways_raise():
    # repeated labels break the disjointness the pair-sum count relies on:
    # two pairs sharing a column collide once, and 1 is no multiple of 3.
    # The constructor rejects such rows, so the spec is built past it
    with pytest.raises(ValueError, match="label 1 "):
        ParityCheckSpec(GF(2), [1, 1, 2], [3, 3, 1])
    spec = object.__new__(ParityCheckSpec)
    spec.field, spec.labels, spec.images = GF(2), [1, 1, 2], [3, 3, 1]
    with pytest.raises(ArithmeticError):
        direct_low_weight_counts(spec)


@pytest.mark.parametrize("n,d", [(7, 7), (8, 7)])
def test_direct_weight3_larger_fields(n, d):
    gf = GF(n)
    direct = direct_low_weight_counts(ParityCheckSpec.cyclic(gf, d))
    f = FunctionTable.from_monomial(gf, d)
    assert direct[3] == weight_counts_from_flats(f)[0]


def test_capacity_caps():
    with pytest.raises(ValueError):
        direct_low_weight_counts(ParityCheckSpec.cyclic(GF(9), 7))


def test_generalized_code_counts_all_flats():
    gf = GF(5)
    f = random_table(gf, random.Random(13))
    spec = generalized_spec(gf, f)
    direct = direct_low_weight_counts(spec)
    assert count_via_spectrum(f) == direct[4]
    assert count_via_spectrum(f) == len(enumerate_flats(f))


def test_do_monomial_n3_fraction():
    # blocks of a DO function are closed under translation, so exactly a
    # 2^(n-2) fraction of them passes through 0
    gf = GF(6)
    gold = DOPolynomial(gf, {(0, 3): 1})
    n3, n4 = weight_counts_from_flats(FunctionTable.from_monomial(gf, 9))
    total = gold.count_vanishing_flats()
    assert total == 1008
    assert n3 == total // (1 << (gf.n - 2))
    assert n4 == total - n3


def test_report_both_methods_agree():
    gf = GF(5)
    out = report(gf, 15, method="both")
    assert out["agree"]
    assert out["N3"] == out["direct_N3"]
    assert out["N4"] == out["direct_N4"]
    flats_only = report(gf, 15, method="flats")
    assert (flats_only["N3"], flats_only["N4"]) == (out["N3"], out["N4"])
    direct_only = report(gf, 15, method="direct")
    assert (direct_only["N3"], direct_only["N4"]) == (out["N3"], out["N4"])


def test_apn_code_has_no_low_weights():
    gf = GF(5)
    direct = direct_low_weight_counts(ParityCheckSpec.cyclic(gf, 3))
    assert direct == {3: 0, 4: 0}
