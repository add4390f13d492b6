"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
are produced; under default capture the verdicts still appear for failures.
"""

import math
import random

from vanishingflats import (
    GF,
    FunctionTable,
    DOPolynomial,
    ParityCheckSpec,
    enumerate_flats,
    count_via_spectrum,
    bounds,
    closed_form,
    kloosterman,
    random_do_polynomial,
    gold_cover,
    theorem8_cover,
    cover_properties,
    parallel_decomposition,
    weight_counts_from_flats,
    direct_low_weight_counts,
    KNOWN_MONOMIAL_COUNTS,
)

from helpers import (
    canonical_block,
    cube_root_of_unity,
    cyclotomic_class_reps,
    generalized_spec,
    isomorphism_witness_check,
    random_table,
    random_affine_permutation,
    random_affine_map,
)


def _verdict(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name} failed"


def test_ac_01_reference_table_exact():
    ok = True
    for n, pairs in KNOWN_MONOMIAL_COUNTS.items():
        gf = GF(n)
        for d, expected in pairs:
            got = len(enumerate_flats(FunctionTable.from_monomial(gf, d)))
            if got != expected:
                print(f"  n={n} d={d}: got {got}, expected {expected}")
                ok = False
    _verdict("AC-1", ok)


def test_ac_02_count_identity_random():
    gf = GF(6)
    ok = True
    for seed in range(200):
        f = random_table(gf, random.Random(seed))
        if len(enumerate_flats(f)) != count_via_spectrum(f):
            ok = False
    _verdict("AC-2", ok)


def test_ac_03_gold_closed_form_all_pairs():
    ok = True
    for n in range(2, 11):
        gf = GF(n)
        for t in range(1, n // 2 + 1):
            s = math.gcd(n, t)
            num = (1 << (n - 2)) * ((1 << (s - 1)) - 1) * (gf.order - 1)
            assert num % 3 == 0
            f = FunctionTable.from_monomial(gf, (1 << t) + 1)
            if len(enumerate_flats(f)) != num // 3:
                ok = False

    # explicit coset structure at (6, 2): the difference ratios of every
    # block lie in the subfield GF(4) minus {0, 1}
    gf = GF(6)
    f = FunctionTable.from_monomial(gf, 5)
    ratios = set(gf.subfield(2)) - {0, 1}
    for b in enumerate_flats(f).blocks:
        d1 = b[0] ^ b[1]
        if not {gf.div(b[0] ^ b[2], d1), gf.div(b[0] ^ b[3], d1)} <= ratios:
            ok = False
    _verdict("AC-3", ok)


def test_ac_04_inverse_block_structure():
    ok = True
    for n in (4, 6, 8):
        gf = GF(n)
        z = cube_root_of_unity(gf)
        z2 = gf.mul(z, z)
        expected = {canonical_block((0, b, gf.mul(b, z), gf.mul(b, z2)))
                    for b in range(1, gf.order)}
        pqs = enumerate_flats(FunctionTable.from_monomial(gf, gf.order - 2))
        if (set(pqs.blocks) != expected
                or len(pqs) != (gf.order - 1) // 3
                or any(b[0] != 0 for b in pqs.blocks)):
            ok = False
    _verdict("AC-4", ok)


def test_ac_05_do_structure():
    ok = True
    for n in (5, 6, 8):
        gf = GF(n)
        quarter = 1 << (n - 2)
        max_support = n * (n - 1) // 2
        for seed in range(100):
            f = random_do_polynomial(gf, 1 + seed % min(6, max_support), seed=seed)
            blocks = enumerate_flats(f.to_table()).blocks
            if len(blocks) % quarter != 0:
                ok = False
            groups = {}
            for b in blocks:
                key = frozenset(p ^ b[0] for p in b)
                groups[key] = groups.get(key, 0) + 1
            if any(size != quarter for size in groups.values()):
                ok = False
            if f.count_vanishing_flats() != len(blocks):
                ok = False
    _verdict("AC-5", ok)


def test_ac_06_bounds():
    ok = True
    for n in range(2, 9):
        gf = GF(n)
        lower = (gf.order + 1) // 3 if n % 2 else (gf.order - 1) // 3
        upper = bounds(FunctionTable.from_monomial(gf, 1))[1]
        for d in range(1, gf.order - 1):
            f = FunctionTable.from_monomial(gf, d)
            count = count_via_spectrum(f)
            if f.spectrum().uniformity > 2:  # non-APN
                if not lower <= count <= upper:
                    ok = False
            elif count != 0:
                ok = False
        if n % 2 == 0:
            inverse = count_via_spectrum(FunctionTable.from_monomial(gf, gf.order - 2))
            if inverse != lower:
                ok = False
        if count_via_spectrum(FunctionTable.from_monomial(gf, 1)) != upper:
            ok = False
    _verdict("AC-6", ok)


def test_ac_07_kloosterman_and_d7():
    ok = kloosterman(6) == -8 and kloosterman(7) == -12
    for n, expected in ((6, 84), (7, 889), (8, 3655)):
        if closed_form("d7", n)[1] != expected:
            ok = False
        gf = GF(n)
        if count_via_spectrum(FunctionTable.from_monomial(gf, 7)) != expected:
            ok = False
    _verdict("AC-7", ok)


def test_ac_08_covers():
    ok = True
    skew = {"valid": True, "nonparallel": True, "totally_skew": True}
    # (a): one totally skew cover per coset x * GF(4), 21 in total
    gf = GF(6)
    z = gf.subfield(2)[2]
    seen = set()
    for x in range(1, gf.order):
        subspace = frozenset({0, x, gf.mul(x, z), gf.mul(x, z ^ 1)})
        if subspace in seen:
            continue
        seen.add(subspace)
        img = gold_cover(6, 2, x=x, y=gf.mul(x, z))
        if cover_properties(img) != skew:
            ok = False
    if len(seen) != (gf.order - 1) // 3:
        ok = False

    # (b): the (9, 3) image cover splits into 64 parallel pairs
    img93 = gold_cover(9, 3)
    groups = parallel_decomposition(img93)
    if not (cover_properties(img93) == {"valid": True, "nonparallel": False, "totally_skew": False}
            and len(groups) == 64 and all(len(g) == 2 for g in groups)):
        ok = False

    # (c): the dimension-3 construction at (9, 3) is totally skew
    c93 = theorem8_cover(9, 3)
    if not (len(c93) == 64 and c93.dimension == 3
            and cover_properties(c93) == skew):
        ok = False
    _verdict("AC-8", ok)


def test_ac_09_gap_oracle():
    # when n / gcd(n, t) is odd, x^(2^t) + x never lands in GF(2^s) minus 0
    ok = True
    for n in range(2, 11):
        gf = GF(n)
        for t in range(1, n):
            s = math.gcd(n, t)
            if (n // s) % 2 == 0:
                continue
            image = {gf.pow(x, 1 << t) ^ x for x in gf.elements()}
            if image & (set(gf.subfield(s)) - {0}):
                ok = False
    _verdict("AC-9", ok)


def test_ac_10_code_weight_correspondence():
    ok = True
    for n in range(2, 7):
        gf = GF(n)
        for d in cyclotomic_class_reps(n):
            direct = direct_low_weight_counts(ParityCheckSpec.cyclic(gf, d))
            f = FunctionTable.from_monomial(gf, d)
            if (direct[3], direct[4]) != weight_counts_from_flats(f):
                ok = False
    gf5 = GF(5)
    for seed in range(50):
        f = random_table(gf5, random.Random(1000 + seed))
        direct = direct_low_weight_counts(generalized_spec(gf5, f))
        if count_via_spectrum(f) != direct[4]:
            ok = False
    _verdict("AC-10", ok)


def test_ac_11_invariance_suite():
    ok = True
    # extended-affine transforms of x^9 over GF(2^6)
    gf = GF(6)
    f = FunctionTable.from_monomial(gf, 9)
    pqs = enumerate_flats(f)
    for seed in range(20):
        rng = random.Random(seed)
        a1, _ = random_affine_permutation(gf, rng)
        a2, a2_inv = random_affine_permutation(gf, rng)
        a3 = random_affine_map(gf, rng)
        g = FunctionTable(gf, [a1[f[a2[x]]] ^ a3[x] for x in gf.elements()])
        q = enumerate_flats(g)
        if len(q) != len(pqs) or not isomorphism_witness_check(pqs, q, a2_inv):
            ok = False

    for n in range(2, 7):
        gfn = GF(n)
        rng = random.Random(n)
        base = random_table(gfn, rng)
        blocks = enumerate_flats(base).blocks

        # composing with field squarings on either side
        for i in range(1, n):
            outer = FunctionTable(gfn, [gfn.pow(v, 1 << i) for v in base.values])
            if enumerate_flats(outer).blocks != blocks:
                ok = False
            inner = FunctionTable(gfn, [base[gfn.pow(x, 1 << i)]
                                        for x in gfn.elements()])
            inverse_map = [gfn.pow(x, 1 << (n - i)) for x in gfn.elements()]
            if not isomorphism_witness_check(enumerate_flats(base),
                                             enumerate_flats(inner), inverse_map):
                ok = False

        # adding an affine function never changes the block set
        for _ in range(25):
            affine = random_affine_map(gfn, rng)
            shifted = FunctionTable(gfn, [base[x] ^ affine[x] for x in gfn.elements()])
            if enumerate_flats(shifted).blocks != blocks:
                ok = False

        # every monomial permutation and its compositional inverse
        for d in range(1, gfn.order - 1):
            if math.gcd(d, gfn.order - 1) != 1:
                continue
            perm = FunctionTable.from_monomial(gfn, d)
            inv_values = [0] * gfn.order
            for x in gfn.elements():
                inv_values[perm[x]] = x
            p = enumerate_flats(perm)
            q = enumerate_flats(FunctionTable(gfn, inv_values))
            if not isomorphism_witness_check(p, q, perm.values):
                ok = False
    _verdict("AC-11", ok)
