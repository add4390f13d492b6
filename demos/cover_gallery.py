"""Covers of GF(2^n) by disjoint affine subspaces built from Gold permutations.

Run with: python3 demos/cover_gallery.py
"""

from vanishingflats import (
    GF,
    trivial_cover,
    gold_cover,
    theorem8_cover,
    cover_properties,
    parallel_decomposition,
)


def summarize(name, cover):
    print(f"{name}: {len(cover)} flats of dimension {cover.dimension}")
    props = cover_properties(cover)
    print(f"  cover valid:   {props['valid']}")
    print(f"  nonparallel:   {props['nonparallel']}")
    print(f"  totally skew:  {props['totally_skew']}")
    groups = parallel_decomposition(cover)
    sizes = sorted(set(len(g) for g in groups))
    print(f"  parallel classes: {len(groups)} of sizes {sizes}")
    print()


def main():
    gf = GF(6)
    trivial = trivial_cover(gf, (1, gf.subfield(2)[2]))  # gold_cover's default plane
    print("the trivial cover is just the cosets of one plane:")
    print(trivial.describe().splitlines()[0])
    print()

    # its image under x^5 is again a cover, and a totally skew one
    summarize("gold_cover(6, 2) image", gold_cover(6, 2))

    # at (9, 3) skewness fails in a structured way: parallel pairs
    summarize("gold_cover(9, 3) image", gold_cover(9, 3))

    # the dimension-3 construction restores total skewness
    summarize("theorem8_cover(9, 3)", theorem8_cover(9, 3))


if __name__ == "__main__":
    main()
