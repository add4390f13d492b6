"""Covers of GF(2^n): partitions into disjoint equidimensional affine subspaces.

The image of a trivial cover contained in the vanishing flats of a
permutation is again a cover. quadratic_image builds it for any quadratic f,
from f at the unit vectors and its polar matrix, and a trivial cover on a
totally isotropic V. The Gold permutations x^(2^t + 1) are one caller:
_gold_form gives their f(e_k) and polar matrix, and for suitable parameters
the image is nonparallel or totally skew.
"""

from functools import reduce
from itertools import combinations, repeat
import math
from operator import xor
import struct

from .gf2n import GF, Record, as_int, as_int_list, as_list, echelon, require, span


def rref_basis(vectors):
    """Reduced row-echelon basis of the span, as a descending tuple of ints.

    Canonical: two subspaces are equal iff their rref bases are equal. The
    one-flat call of _rref_lanes, so vectors may be any non-negative ints.
    """
    slots, _ = _rref_lanes(1, [(v,) for v in vectors])
    return tuple(v for (v,) in slots if v)


def _pack(values, size):
    """values as one int of little-endian lanes of size bytes: one
    struct.pack for 2-byte lanes, which hold every element of GF(2^n),
    n <= 16; a join of to_bytes for the wider vectors of rref_basis."""
    if size == 2:
        return int.from_bytes(struct.pack(f"<{len(values)}H", *values), "little")
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")


def _unpack(packed, count, size):
    """The count lanes of size bytes of packed, as a tuple of ints."""
    raw = packed.to_bytes(count * size, "little")
    if size == 2:
        return struct.unpack(f"<{count}H", raw)
    return tuple(int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size))


def _rref_lanes(count, columns, extras=()):
    """The reduced row-echelon bases of count flats at once, and extras
    reduced by them. columns[m] holds vector m of every flat (the layout of
    _columns); extras[e] holds one more value per flat, such as a base.

    Returns (slots, reduced). slots[k][j] is the k-th largest rref vector of
    flat j, or 0 past its rank, so zip(*slots) lists the rref bases as
    descending tuples, padded with zeros. reduced[e][j] is extras[e][j]
    with every pivot bit of flat j cleared: the least point of
    extras[e][j] + span(flat j).

    Gauss-Jordan elimination in lanes: each column is one int with lane j
    holding the vector of flat j, w = 16 bits wide unless a vector is
    wider. For each bit p, from the top down, the first row with bit p in a
    lane becomes that lane's pivot and leaves the rows; it is XORed into
    every row, earlier pivot and extra with bit p in that lane, and then
    fills the lane's next slot. Lane masks are ((x >> p) & ones) * (2^w - 1),
    ones holding bit 0 of every lane, which sets whole lanes with no carry.
    O(n d^2) big-int operations on count * w-bit ints for d columns, in
    place of count eliminations in Python."""
    top = max(map(max, [*columns, *extras]), default=0).bit_length()
    size = max(2, -(-top // 8))
    lane = (1 << 8 * size) - 1
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * count, "little")
    full = ones * lane
    rows = [_pack(c, size) for c in columns]
    reduced = [_pack(e, size) for e in extras]
    slots = [0] * len(rows)
    at = [full] + [0] * (len(rows) - 1)  # at[k]: the lanes with k pivots so far
    for p in reversed(range(top)):
        free = full  # the lanes with no pivot at bit p yet
        pivot = 0
        for i, row in enumerate(rows):
            sel = (row >> p & ones) * lane & free
            if sel:
                free ^= sel
                pivot |= row & sel
                rows[i] = row & ~sel
        if free == full:
            continue
        for values in (rows, slots, reduced):
            for i, v in enumerate(values):
                hit = (v >> p & ones) * lane
                if hit:
                    values[i] = v ^ pivot & hit
        for k, lanes in enumerate(at):
            slots[k] |= pivot & lanes
        found = full ^ free
        at = [lanes & free | below & found for lanes, below in zip(at, [0, *at])]
    return ([_unpack(s, count, size) for s in slots],
            [_unpack(e, count, size) for e in reduced])


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
        """base + span(basis) with no echelon check, for a full-rank basis
        that rref_basis or _rref_lanes has just reduced."""
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
    parallel flats at once; only when every tuple differs are the bases
    reduced to their rref, all at once, to compare the spans."""
    bases = [f.basis for f in cover.flats]
    if len(set(bases)) != len(bases):
        return False
    slots, _ = _rref_lanes(len(bases), _columns(cover.flats))
    return len(set(zip(*slots))) == len(bases)


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
    slots, _ = _rref_lanes(len(cover.flats), _columns(cover.flats))
    groups = {}
    # at d = 0 there are no slots, and every linear part is ()
    for part, flat in zip(zip(*slots) if slots else repeat(()), cover.flats):
        groups.setdefault(part, []).append(flat)
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


def quadratic_image(gf, at_units, polar, basis):
    """The image of trivial_cover(gf, basis) under a quadratic f with f(0) = 0,
    flat by flat in the same order, with no value table. f is given by
    at_units[k] = f(e_k) and the polar matrix polar[k][m] = B(e_m, e_k) of
    its bilinear form B, so B(u, v) is the XOR of polar[k][m] over the bits
    m of u and k of v.

    f(c + v) = f(c) + f(v) + B(c, v). On a totally isotropic V = span(basis),
    one with B = 0 on V x V, the derivative D_v f(c) = f(v) + B(c, v) is
    linear in v, so f(c + V) is f(c) + span{D_v f(c) : v in rref(V)}, fixed
    by s + 1 values for s = dim V. The coset leaders c are the span of the
    n - s free unit vectors e_k, so f over them doubles as
    f(c + e_k) = f(c) + f(e_k) + B(c, e_k), the last term one span of row k
    of polar over the free units, and each D_v f over all leaders is one
    span of the B(e_k, v) from f(v): O(2^(n-s) * s) XORs, and O(n^2 s)
    reads of polar. One reduction of every image at once, _rref_lanes,
    then gives each image's rref basis, its rank and its least point.

    Raises ValueError if V is not totally isotropic, or if an image flat has
    dimension below s (f is not injective on that coset).
    """
    basis = rref_basis(basis)
    bits = [[k for k in range(gf.n) if v >> k & 1] for v in basis]
    # B is bilinear, so B = 0 on V x V iff it vanishes on each pair of basis vectors
    for (u, ub), (v, vb) in combinations(zip(basis, bits), 2):
        if reduce(xor, [polar[k][m] for k in vb for m in ub]):
            raise ValueError(f"span{{{u}, {v}}} is not totally isotropic")
    # f(v) as the sum of f(e_k) + B(y, e_k) over the bits k of v, y its bits below k
    at_basis = [reduce(xor, [at_units[k] for k in vb] +
                       [polar[k][m] for i, k in enumerate(vb) for m in vb[:i]]) for vb in bits]
    units = _free_units(gf.n, basis)
    free = [w.bit_length() - 1 for w in units]
    leaders, at_leaders = span([0], zip(units)), [0]
    for i, k in enumerate(free):
        # f(c + e_k) = f(c) + f(e_k) + B(c, e_k) over the 2^i leaders c so far
        shift = span([at_units[k]], zip([polar[k][m] for m in free[:i]]))
        at_leaders += map(xor, at_leaders, shift)
    derivatives = [span([fv], zip([reduce(xor, [polar[j][k] for j in vb]) for k in free]))
                   for vb, fv in zip(bits, at_basis)]
    # the rref of every image, its rank, and its least point (f(c) with
    # every pivot bit of the image cleared) from one reduction in lanes
    slots, (bases,) = _rref_lanes(len(leaders), derivatives, [at_leaders])
    if slots and 0 in slots[-1]:
        j = slots[-1].index(0)  # leaders ascend: the least deficient coset
        raise ValueError(f"the image of the coset of {leaders[j]} has dimension "
                         f"{sum(1 for s in slots if s[j])}, not {len(basis)}")
    flats = list(map(AffineSubspace._independent, bases, zip(*slots) if slots else repeat(())))
    return Cover(gf, len(basis), flats)


def _gold_form(gf, t):
    """(at_units, polar) of x^(2^t + 1), as quadratic_image takes them:
    B(x, y) = x^(2^t) y + x y^(2^t), and e_m^(2^t) e_k is entry k of the
    chain of e_m^(2^t). No permutation check: callers make their own."""
    chains = [gf.chain(gf.pow(1 << m, 1 << t), gf.n) for m in range(gf.n)]
    return ([chain[k] for k, chain in enumerate(chains)],
            [[chains[m][k] ^ chains[k][m] for m in range(gf.n)] for k in range(gf.n)])


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
    return quadratic_image(gf, *_gold_form(gf, t), (x, y))


def theorem8_cover(n, t, alpha=1, modulus=None):
    """Totally skew cover of dimension s = gcd(n, t): images of the cosets of
    alpha * GF(2^s) under the Gold permutation."""
    gf = GF(n, modulus)
    s = _gold_preconditions(gf, t)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _element(gf, "alpha", alpha)
    return quadratic_image(gf, *_gold_form(gf, t), [gf.mul(alpha, z) for z in gf.subfield(s)])
