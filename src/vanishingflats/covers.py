"""Covers of GF(2^n): partitions into disjoint equidimensional affine subspaces.

Constructions here follow the Gold permutations x^(2^t + 1): the image of a
trivial cover contained in the vanishing flats of a permutation is again a
cover, and for suitable parameters the result is nonparallel or totally skew.
"""

from dataclasses import dataclass
from itertools import combinations
import math

from .gf2n import GF, as_int, as_int_list, as_list, echelon, require
from .boolfunc import FunctionTable


def rref_basis(vectors):
    """Reduced row-echelon basis of the span, as a descending tuple of ints.

    Canonical: two subspaces are equal iff their rref bases are equal.
    """
    basis = echelon(vectors)
    # back-substitute so each pivot bit appears in exactly one basis vector
    basis.sort(reverse=True)
    for i in range(len(basis)):
        top = basis[i].bit_length() - 1
        for j in range(i):
            if basis[j] >> top & 1:
                basis[j] ^= basis[i]
    return tuple(basis)


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(basis); basis vectors must be linearly independent."""

    base: int
    basis: tuple

    def __post_init__(self):
        if len(echelon(self.basis)) != len(self.basis):
            raise ValueError(f"basis vectors are not linearly independent: {self.basis}")

    @property
    def dimension(self):
        return len(self.basis)

    def points(self):
        pts = [self.base]
        for b in self.basis:
            pts += [p ^ b for p in pts]
        return sorted(pts)

    def linear_part(self):
        """The associated linear subspace {p + base}, as a point set."""
        return frozenset(p ^ self.base for p in self.points())

    def canonical_linear_basis(self):
        return rref_basis(self.basis)

    def __contains__(self, x):
        return len(echelon([*self.basis, x ^ self.base])) == len(self.basis)

    def to_json(self):
        return {"base": self.base, "basis": list(self.basis)}

    @classmethod
    def from_json(cls, obj):
        return cls(require(obj, "base", as_int), tuple(require(obj, "basis", as_int_list)))

    @classmethod
    def from_points(cls, pts):
        """Recover (base, basis) from a point set; raises if not an affine subspace."""
        pts = sorted(set(pts))
        base = pts[0]
        diffs = {p ^ base for p in pts}
        basis = rref_basis(diffs)
        if 1 << len(basis) != len(pts):
            raise ValueError("point set is not an affine subspace")
        flat = cls(base, basis)
        if set(flat.points()) != set(pts):
            raise ValueError("point set is not an affine subspace")
        return flat


@dataclass
class Cover:
    field: GF
    dimension: int
    flats: list

    def __len__(self):
        return len(self.flats)

    def to_json(self):
        return {"field": self.field.to_json(),
                "dimension": self.dimension,
                "flats": [f.to_json() for f in self.flats]}

    @classmethod
    def from_json(cls, obj):
        return cls(GF.from_json(require(obj, "field")), require(obj, "dimension", as_int),
                   [AffineSubspace.from_json(f) for f in require(obj, "flats", as_list)])

    def describe(self):
        """Human-readable listing of each flat's points (sensible for d <= 3)."""
        lines = [f"cover of GF(2^{self.field.n}), dimension {self.dimension}, "
                 f"{len(self.flats)} flats"]
        for f in self.flats:
            lines.append("  {" + ", ".join(map(str, f.points())) + "}")
        return "\n".join(lines)


def trivial_cover(gf, basis):
    """The subspace spanned by basis together with all its cosets.

    Coset representatives are chosen ascending among not-yet-covered points,
    so the output is deterministic.
    """
    basis = rref_basis(basis)
    d = len(basis)
    flats = []
    covered = set()
    for x in gf.elements():
        if x not in covered:
            flat = AffineSubspace(x, basis)
            covered.update(flat.points())
            flats.append(flat)
    return Cover(gf, d, flats)


def verify_cover(cover):
    """True iff the flats are pairwise disjoint 2^d-point sets whose union is
    exactly GF(2^n)."""
    seen = set()
    for flat in cover.flats:
        pts = flat.points()
        if len(pts) != 1 << cover.dimension:
            return False
        if seen & set(pts):
            return False
        seen.update(pts)
    # 2^n distinct points, all in [0, 2^n), are exactly the field
    return len(seen) == cover.field.order and min(seen) >= 0 and max(seen) < cover.field.order


def overlapping_flats(cover):
    """Indices (i, j) of flat pairs with intersecting point sets (diagnostics)."""
    point_sets = [set(f.points()) for f in cover.flats]
    return [(i, j) for i, j in combinations(range(len(point_sets)), 2)
            if point_sets[i] & point_sets[j]]


def verify_nonparallel(cover):
    """True iff all linear parts are pairwise distinct."""
    if not verify_cover(cover):
        raise ValueError("not a valid cover")
    parts = [f.canonical_linear_basis() for f in cover.flats]
    return len(set(parts)) == len(parts)


def verify_totally_skew(cover):
    """True iff every pair of linear parts intersects only in 0."""
    if not verify_cover(cover):
        raise ValueError("not a valid cover")
    parts = [f.linear_part() for f in cover.flats]
    for p, q in combinations(parts, 2):
        if len(p & q) > 1:
            return False
    return True


def parallel_decomposition(cover):
    """Group flats by equal linear part; groups are sorted deterministically."""
    if not verify_cover(cover):
        raise ValueError("not a valid cover")
    groups = {}
    for flat in cover.flats:
        groups.setdefault(flat.canonical_linear_basis(), []).append(flat)
    return [groups[k] for k in sorted(groups)]


def image_cover(f, cover):
    """The cover formed by the pointwise images of each flat under f.

    Requires f to be a permutation and every flat's image to again be an
    affine subspace (i.e. each flat is a vanishing flat of f).
    """
    if not f.is_permutation():
        raise ValueError("f must be a permutation")
    flats = []
    for idx, flat in enumerate(cover.flats):
        try:
            flats.append(AffineSubspace.from_points(f[p] for p in flat.points()))
        except ValueError:
            raise ValueError(f"image of flat #{idx} (base {flat.base}) "
                             "is not an affine subspace") from None
    return Cover(cover.field, cover.dimension, flats)


def _gold_preconditions(gf, t):
    n = gf.n
    if not 1 <= t < n:
        raise ValueError(f"need 1 <= t < {n}")
    d = (1 << t) + 1
    if math.gcd(d, gf.order - 1) != 1:
        raise ValueError(f"x^{d} is not a permutation of GF(2^{n}): "
                         f"gcd({d}, {gf.order - 1}) != 1")
    s = math.gcd(n, t)
    if s <= 1:
        raise ValueError(f"gcd(n, t) = {s}: the Gold function is APN, no flats to cover with")
    return d, s


def gold_cover(n, t, x=None, y=None, modulus=None):
    """(trivial, image) covers from the Gold permutation x^(2^t + 1).

    The trivial cover is built on {0, x, y, x+y} with x/y in the subfield
    GF(2^s) minus {0, 1}; its image under the Gold function is again a
    dimension-2 cover. Defaults: x = 1, y = a generator choice in GF(2^s).
    """
    gf = GF(n, modulus)
    d, s = _gold_preconditions(gf, t)
    sub = gf.subfield(s)
    if x is None:
        x = 1
    if y is None:
        y = gf.mul(x, sub[2])  # smallest subfield element beyond {0, 1}
    if x == 0 or y == 0:
        raise ValueError("x and y must be nonzero")
    ratio = gf.div(x, y)
    if gf.pow(ratio, 1 << s) != ratio or ratio == 1:
        raise ValueError(f"x/y = {ratio} must lie in GF(2^{s}) minus {{0, 1}}")
    triv = trivial_cover(gf, (x, y))
    f = FunctionTable.from_monomial(gf, d)
    return triv, image_cover(f, triv)


def theorem8_cover(n, t, alpha=1, modulus=None):
    """Totally skew cover of dimension s = gcd(n, t): images of the cosets of
    alpha * GF(2^s) under the Gold permutation."""
    gf = GF(n, modulus)
    d, s = _gold_preconditions(gf, t)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    basis = rref_basis([gf.mul(alpha, z) for z in gf.subfield(s)])
    triv = trivial_cover(gf, basis)
    f = FunctionTable.from_monomial(gf, d)
    return image_cover(f, triv)


def skew_condition_check(f, x, y):
    """Direct test that the image of the trivial cover on {0, x, y, x+y} is
    totally skew: delta_f along x, y, x+y is 4 and the three derivative image
    sets are pairwise disjoint."""
    if x == 0 or y == 0 or x == y:
        raise ValueError("x, y, x+y must be nonzero and distinct")
    vals = [f[0] ^ f[x] ^ f[y] ^ f[x ^ y]]
    if vals[0] != 0:
        raise ValueError("{0, x, y, x+y} is not a vanishing flat of f")
    directions = (x, y, x ^ y)
    images = []
    for a in directions:
        hist = f.histogram(a)
        if max(hist.values()) != 4:
            return False
        images.append(set(hist))
    return (not images[0] & images[1] and not images[0] & images[2]
            and not images[1] & images[2])
