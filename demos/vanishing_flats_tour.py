"""Vanishing flats of power functions: enumeration, bounds and closed forms.

Run with: python3 demos/vanishing_flats_tour.py
"""

from vanishingflats import (
    GF,
    FunctionTable,
    enumerate_flats,
    count_via_spectrum,
    bounds,
    closed_form,
    KNOWN_MONOMIAL_COUNTS,
)


def main():
    gf = GF(4)
    inverse = FunctionTable.from_monomial(gf, 14)
    pqs = enumerate_flats(inverse)
    print(f"x^14 over GF(2^4) has {len(pqs)} vanishing flats, all through 0:")
    for b in pqs.blocks:
        print(f"  {b}")
    lo, hi = bounds(inverse)
    print(f"bounds for a non-APN monomial at n=4: [{lo}, {hi}]"
          f" (upper = {hi} is the linear-function count)")
    print()

    gf6 = GF(6)
    print("all monomial classes over GF(2^6):")
    for d, expected in KNOWN_MONOMIAL_COUNTS[6]:
        got = count_via_spectrum(FunctionTable.from_monomial(gf6, d))
        assert got == expected
        print(f"  d={d:3d}: {got}")
    print()

    print("closed forms evaluated without any enumeration:")
    for family, n, t in (("gold", 6, 3), ("d7", 8, None), ("inverse", 10, None),
                         ("half", 12, None), ("twin-odd-t", 14, None)):
        d, count = closed_form(family, n, t=t)
        print(f"  {family} (x^{d}) at n={n}: {count}")


if __name__ == "__main__":
    main()
