"""Covers of GF(2^n): partitions into disjoint equidimensional affine subspaces.

Constructions here follow the Gold permutations x^(2^t + 1): the image of a
trivial cover contained in the vanishing flats of a permutation is again a
cover, and for suitable parameters the result is nonparallel or totally skew.
"""

from itertools import combinations
import math

from .gf2n import (GF, Record, as_int, as_int_list, as_list, echelon, linear_map_tables,
                   require, span)


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


class AffineSubspace(Record):
    """base + span(basis); basis vectors must be linearly independent.
    Both constructors store the fields directly, not through Record's
    __init__, as each runs once per flat of a cover."""

    __slots__ = ("base", "basis")

    def __init__(self, base, basis):
        if len(echelon(basis)) != len(basis):
            raise ValueError(f"basis vectors are not linearly independent: {basis}")
        self.base, self.basis = base, basis

    @classmethod
    def _independent(cls, base, basis):
        """base + span(basis) with no echelon check, for a basis that
        rref_basis has just made independent."""
        flat = object.__new__(cls)
        flat.base, flat.basis = base, basis
        return flat

    @property
    def dimension(self):
        return len(self.basis)

    def points(self):
        return sorted(span([self.base], zip(self.basis)))

    def to_json(self):
        return {"base": self.base, "basis": list(self.basis)}

    @classmethod
    def from_json(cls, obj):
        return cls(require(obj, "base", as_int), tuple(require(obj, "basis", as_int_list)))


class Cover(Record):
    """dimension-d flats meant to partition GF(2^n); verify_cover checks it."""

    __slots__ = ("field", "dimension", "flats")

    def __len__(self):
        return len(self.flats)

    def to_json(self):
        return {"field": self.field.to_json(),
                "dimension": self.dimension,
                "flats": [f.to_json() for f in self.flats]}

    @classmethod
    def from_json(cls, obj):
        gf = GF.from_json(require(obj, "field"))
        dimension = require(obj, "dimension", as_int)
        if not 0 <= dimension <= gf.n:
            raise ValueError(f"JSON field 'dimension' must be in [0, {gf.n}], got {dimension}")
        flats = [AffineSubspace.from_json(f) for f in require(obj, "flats", as_list)]
        for i, flat in enumerate(flats):
            # more than n independent vectors cannot lie in GF(2^n), and the
            # 2^dimension points of such a flat would be listed by diagnostics
            if flat.dimension > gf.n:
                raise ValueError(f"JSON field 'flats[{i}]' has {flat.dimension} independent "
                                 f"basis vectors, more than n = {gf.n}")
        return cls(gf, dimension, flats)

    def describe(self):
        """Human-readable listing of each flat's points (sensible for d <= 3)."""
        lines = [f"cover of GF(2^{self.field.n}), dimension {self.dimension}, "
                 f"{len(self.flats)} flats"]
        for f in self.flats:
            lines.append("  {" + ", ".join(map(str, f.points())) + "}")
        return "\n".join(lines)


def trivial_cover(gf, basis):
    """The subspace spanned by basis together with all its cosets.

    Each coset is given by its least point, ascending: in the rref basis each
    pivot bit lies in one vector, so that point is the one with every pivot
    bit clear.
    """
    basis = rref_basis(basis)
    return Cover(gf, len(basis),
                 [AffineSubspace._independent(x, basis)
                  for x in span([0], zip(_free_units(gf.n, basis)))])


def _free_units(n, rref):
    """The unit vectors e_k, k < n, at the bits that are no pivot of rref,
    ascending. Their span, listed by span([0], ...), is the points with every
    pivot bit clear, ascending: the least point of each coset of span(rref)."""
    pivots = {b.bit_length() - 1 for b in rref}
    return [1 << k for k in range(n) if k not in pivots]


def _columns(flats):
    """The basis vectors of flats of equal dimension d as d columns, column
    m holding vector m of every flat, for one span over all of them: entry
    i * F + j of span(bases, columns) is a point of flats[j], for F flats.
    zip drops the extra vectors of a longer basis, so every caller first
    makes the lengths equal."""
    return list(zip(*(f.basis for f in flats)))


def verify_cover(cover):
    """True iff the flats are pairwise disjoint 2^d-point sets whose union is
    exactly GF(2^n).

    There must be 2^(n-d) flats, each with d basis vectors, all in [0, 2^n);
    their points, listed by one span over every flat, must then be 2^n
    distinct values: O(2^n + F*d) for F flats, with no pair of flats
    compared. 2^n distinct points, all in [0, 2^n), are exactly the field."""
    q, d, flats = cover.field.order, cover.dimension, cover.flats
    if not 0 <= d <= cover.field.n or len(flats) << d != q:
        return False
    if any(len(f.basis) != d for f in flats):
        return False
    bases, columns = [f.base for f in flats], _columns(flats)
    # XORs of values in [0, 2^n) stay there, so checking the bases and the
    # basis vectors range-checks every point; a negative base cannot wrap
    if any(min(values) < 0 or max(values) >= q for values in (bases, *columns)):
        return False
    return len(set(span(bases, columns))) == q


def overlapping_flats(cover):
    """Indices (i, j), i < j and sorted, of flat pairs with intersecting point
    sets (diagnostics). The owners of each point are collected from one span
    per dimension over its flats, so only pairs of flats that do meet are
    ever formed."""
    groups = {}
    for i, flat in enumerate(cover.flats):
        groups.setdefault(len(flat.basis), []).append(i)
    owners = {}
    for d, index in groups.items():
        flats = [cover.flats[i] for i in index]
        points = span([f.base for f in flats], _columns(flats))
        for p, i in zip(points, index * (1 << d)):
            owners.setdefault(p, []).append(i)
    return sorted({pair for own in owners.values() if len(own) > 1
                   for pair in combinations(sorted(own), 2)})


def cover_properties(cover):
    """{"valid", "nonparallel", "totally_skew"} from one validity pass; an
    invalid cover gives {"valid": False} alone."""
    if not verify_cover(cover):
        return {"valid": False}
    skew = _totally_skew(cover)
    # for d >= 1, parallel flats share a nonzero point of their linear part,
    # so a totally skew cover is nonparallel; for d = 0 skew holds vacuously
    nonparallel = skew and cover.dimension >= 1 or _nonparallel(cover)
    return {"valid": True, "nonparallel": nonparallel, "totally_skew": skew}


def _nonparallel(cover):
    """Equal basis tuples span equal linear parts, so a repeated tuple means
    parallel flats at once; only when every tuple differs is each basis
    reduced to its rref to compare the spans."""
    bases = [f.basis for f in cover.flats]
    if len(set(bases)) != len(bases):
        return False
    parts = set(map(rref_basis, bases))
    return len(parts) == len(bases)


def _totally_skew(cover):
    """The linear parts of a valid cover, listed by one span over every flat,
    hold F * (2^d - 1) + 1 distinct points iff no nonzero point lies in two
    of them (parallel flats give exactly that). O(F * 2^d) = O(2^n), with no
    pair of flats compared."""
    flats = cover.flats
    linear = span([0] * len(flats), _columns(flats))
    return len(set(linear)) == len(flats) * ((1 << cover.dimension) - 1) + 1


def parallel_decomposition(cover):
    """Group flats by equal linear part; groups are sorted deterministically."""
    if not verify_cover(cover):
        raise ValueError("not a valid cover")
    groups = {}
    for flat in cover.flats:
        groups.setdefault(rref_basis(flat.basis), []).append(flat)
    return [groups[k] for k in sorted(groups)]


def _element(gf, name, value):
    """value, or a ValueError naming the parameter if it is no element of gf."""
    if not 0 <= value < gf.order:
        raise ValueError(f"{name} = {value} out of range for {gf!r}")
    return value


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
    return s


def gold_image(gf, t, basis):
    """The image of trivial_cover(gf, basis) under the Gold function
    f(x) = x^(2^t + 1), flat by flat in the same order, with no value table.

    f is quadratic: f(c + v) = f(c) + f(v) + B(c, v) with B bilinear. On a
    totally isotropic V = span(basis), one with B = 0 on V x V, the
    derivative D_v f(c) = f(v) + B(c, v) is linear in v, so f(c + V) is
    f(c) + span{D_v f(c) : v in rref(V)}, fixed by s + 1 values for
    s = dim V. The coset leaders c are the span of the n - s free unit
    vectors w, and B(c, w) is read from the linear_map_tables of c -> B(c, w),
    one pair per w. So each D_v f over all leaders is one span of the
    B(w, v) from f(v), and f over the leaders doubles as
    f(c + w) = f(c) + f(w) + B(c, w): O(2^(n-s) * s) table reads and XORs,
    and O(n^2) products.

    Raises ValueError if V is not totally isotropic, or if an image flat has
    dimension below s (f is not injective on that coset).
    """
    n = gf.n
    basis = rref_basis(basis)
    lo, hi = linear_map_tables([gf.pow(1 << k, 1 << t) for k in range(n)])

    def f(x):
        return gf.mul(lo[x & 255] ^ hi[x >> 8], x)

    at_basis = [f(v) for v in basis]
    # B is bilinear, so B = 0 on V x V iff f is additive on each pair of basis vectors
    for (u, fu), (v, fv) in combinations(zip(basis, at_basis), 2):
        if f(u ^ v) != fu ^ fv:
            raise ValueError(f"span{{{u}, {v}}} is not totally isotropic for x^{(1 << t) + 1}")
    at_units = [f(1 << k) for k in range(n)]
    free = _free_units(n, basis)
    at_free = [at_units[w.bit_length() - 1] for w in free]
    # tables of c -> B(c, w) for each free w, with B(e_k, w) = f(e_k + w) + f(e_k) + f(w)
    polar = [linear_map_tables([f((1 << k) ^ w) ^ fe ^ fw for k, fe in enumerate(at_units)])
             for w, fw in zip(free, at_free)]
    leaders = span([0], zip(free))
    at_leaders = [0]
    for fw, (wlo, whi) in zip(at_free, polar):
        at_leaders += [fc ^ fw ^ wlo[c & 255] ^ whi[c >> 8]
                       for c, fc in zip(leaders, at_leaders)]
    derivatives = [span([fv], zip([wlo[v & 255] ^ whi[v >> 8] for wlo, whi in polar]))
                   for v, fv in zip(basis, at_basis)]
    flats = []
    for c, base, *image in zip(leaders, at_leaders, *derivatives):
        image = rref_basis(image)
        if len(image) != len(basis):
            raise ValueError(f"the image of the coset of {c} has dimension {len(image)}, "
                             f"not {len(basis)}")
        # the least point of the image: f(c) with every pivot bit of image cleared
        for b in image:
            if base >> (b.bit_length() - 1) & 1:
                base ^= b
        flats.append(AffineSubspace._independent(base, image))
    return Cover(gf, len(basis), flats)


def gold_cover(n, t, x=None, y=None, modulus=None):
    """The image under the Gold permutation x^(2^t + 1) of the trivial
    cover on {0, x, y, x+y}, x/y in the subfield GF(2^s) minus {0, 1}: again
    a dimension-2 cover. Defaults: x = 1, y = a generator choice in GF(2^s).
    """
    gf = GF(n, modulus)
    s = _gold_preconditions(gf, t)
    sub = gf.subfield(s)
    x = _element(gf, "x", 1 if x is None else x)
    # y defaults to x times the smallest subfield element beyond {0, 1}
    y = gf.mul(x, sub[2]) if y is None else _element(gf, "y", y)
    if x == 0 or y == 0:
        raise ValueError("x and y must be nonzero")
    ratio = gf.div(x, y)
    if ratio not in sub[2:]:  # sub is sorted: 0, 1, then the rest
        raise ValueError(f"x/y = {ratio} must lie in GF(2^{s}) minus {{0, 1}}")
    return gold_image(gf, t, (x, y))


def theorem8_cover(n, t, alpha=1, modulus=None):
    """Totally skew cover of dimension s = gcd(n, t): images of the cosets of
    alpha * GF(2^s) under the Gold permutation."""
    gf = GF(n, modulus)
    s = _gold_preconditions(gf, t)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _element(gf, "alpha", alpha)
    return gold_image(gf, t, [gf.mul(alpha, z) for z in gf.subfield(s)])
