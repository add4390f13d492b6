"""Dembowski-Ostrom polynomials and the rank route for tables of degree <= 2.

A DO polynomial is f = sum over 0 <= i < j < n of c_ij * x^(2^i + 2^j). Its
derivative along a is the affine map L_{f,a}(x) + f(a), where
L_{f,a}(x) = sum c_ij (a^(2^i) x^(2^j) + a^(2^j) x^(2^i)) is F_2-linear.

L_{f,a}(x) = B(a, x) for the polar form B(x, y) = f(x + y) + f(x) + f(y) +
f(0), which is symmetric and F_2-bilinear, and unchanged when an affine
map is added to f (f(0) = 0 for a DO polynomial). So column k of the matrix
of L_{f,a} is B(a, e_k), the XOR of B(e_m, e_k) over the bits m of a: every
rank(L_{f,a}) is fixed by the n x n polar matrix B(e_m, e_k).

`_polar_ranks` turns that matrix into every rank at once. Bit a of a 2^n-bit
int holds entry (i, k) of the matrix of L_{f,a}, a XOR of coordinate planes,
and one bitsliced elimination, `_family_ranks`, acts on all 2^n matrices
with each big-int AND, OR or XOR: about 2n^3 such operations in all, instead
of one elimination per direction.

A QuadraticFunction is any function of algebraic degree <= 2, and its
ranks come from its polar matrix. One reader, `_polar_read`, gives that
matrix from f at 0, the e_k and the e_m + e_k as B(e_m, e_k) =
f(e_m + e_k) + f(e_m) + f(e_k) + f(0), from anything indexable at those
points. A value table, however it was given, is admitted by the O(2^n)
degree test `_polar_of`, which returns the matrix the reader gives off the
table, or None at a higher degree. A DOPolynomial is a QuadraticFunction by
construction and needs no test: its constructor passes the reader the values
of the one univariate evaluator, boolfunc.univariate_values, at those
1 + n(n+1)/2 points alone, O(s n^2) lookups for s terms, and to_table builds
its value table only when values is first read. Its spectrum and count come
from the ranks, against O(4^n) for the generic pass.
"""

from itertools import compress
from operator import xor

from .gf2n import span
from .boolfunc import FunctionTable, univariate_values
from . import vflats

_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _family_ranks(planes):
    """bytes: entry a is the F_2 rank of M_a, for a in [0, 2^n), where
    planes[k][i] is the 2^n-bit int whose bit a is bit i of column k of the
    n x n matrix M_a.

    Gaussian elimination on all 2^n matrices at once, one pass over the
    columns per row i. Where an unused column has bit i, the directions
    whose pivot for row i an earlier column already holds XOR that pivot
    into it, and the others make it their pivot. The pivots found for row i
    are the "used" plane of row i, and the rank of M_a is the number of used
    planes with bit a set, summed as a bitsliced counter: count[p] holds bit
    p of each running rank, and each used plane is one ripple-carry add. The
    planes are reduced in place."""
    n = len(planes)
    q = 1 << n
    full = (1 << q) - 1
    unused = [full] * n
    count = []
    for i in range(n):
        free = full  # directions with no pivot for row i yet
        pivot = [0] * n
        for k, column in enumerate(planes):
            hit = column[i] & unused[k]
            if not hit:
                continue
            # pivot is 0 on the free lanes, so only the lanes with a pivot change
            for j in range(i + 1, n):
                column[j] ^= pivot[j] & hit
            sel = hit & free
            if sel:
                free ^= sel
                unused[k] ^= sel
                for j in range(i + 1, n):
                    pivot[j] |= column[j] & sel
        carry = full ^ free
        for p, c in enumerate(count):
            if not carry:
                break
            count[p], carry = c ^ carry, c & carry
        if carry:
            count.append(carry)
    # each count plane as one byte per direction holding 0 or 2^p: at most
    # ceil(log2(n + 1)) <= 5 planes, their bytes ORed lane by lane
    total = 0
    for p, c in enumerate(count):
        total |= int.from_bytes(format(c, f"0{q}b")[::-1].encode().translate(_ZERO_ONE),
                                "little") << p
    return total.to_bytes(q, "little")


def _coordinate_planes(n):
    """[X_m for m < n]: bit a of the 2^n-bit int X_m is bit m of a."""
    q = 1 << n
    planes = []
    for m in range(n):
        x, period = ((1 << (1 << m)) - 1) << (1 << m), 2 << m
        while period < q:
            x |= x << period
            period <<= 1
        planes.append(x)
    return planes


def _polar_ranks(n, polar):
    """bytes: entry a is rank(L_{f,a}) for a in [0, 2^n), where polar[k][m]
    is B(e_m, e_k) for the polar form B of f.

    Bit i of column k of L_{f,a} is bit i of B(a, e_k), the parity of the
    bits of a at the m where bit i of B(e_m, e_k) is set: plane (k, i) is
    the XOR of those coordinate planes X_m, at most n^3 / 2 XORs in all."""
    coordinates = _coordinate_planes(n)
    planes = []
    for row in polar:
        column = [0] * n
        for x, b in zip(coordinates, row):
            for i in range(b.bit_length()):
                if b >> i & 1:
                    column[i] ^= x
        planes.append(column)
    return _family_ranks(planes)


def _polar_read(n, f):
    """[[B(e_m, e_k) for m < n] for k < n] for the polar form B(x, y) =
    f(x + y) + f(x) + f(y) + f(0), from any f indexable at 0, the e_k and
    the e_m + e_k: a value table or a map of those values alone. B is
    symmetric with zero diagonal, so each m < k is read once."""
    polar = [[0] * n for _ in range(n)]
    for k in range(n):
        h, row = 1 << k, polar[k]
        for m in range(k):
            row[m] = polar[m][k] = f[h | 1 << m] ^ f[h] ^ f[1 << m] ^ f[0]
    return polar


def _polar_of(t):
    """The polar matrix _polar_read of the value table t, or None if t has
    algebraic degree > 2, in O(2^n): at degree <= 2, f(x + e_k) + f(x) =
    f(e_k) + f(0) + B(x, e_k), with B(x, e_k) the XOR of B(e_m, e_k) over
    the bits m of x. Spanning over each top bit k rebuilds from f on 0, the
    e_k and the e_m + e_k the one table of degree <= 2 they fix, and f must
    equal it."""
    polar = _polar_read((len(t) - 1).bit_length(), t)
    for k, row in enumerate(polar):
        h = 1 << k
        # f(x + e_k) + f(x) for x < 2^k
        shift = span([t[h] ^ t[0]], zip(row[:k]))
        if list(map(xor, t, shift)) != t[h:2 * h]:
            return None
    return polar


class QuadraticFunction(FunctionTable):
    """A function of algebraic degree <= 2 (a DO polynomial plus affine
    terms) whose statistics come from ranks; a table of higher degree raises
    ValueError.

    D_a f(x) = L_{f,a}(x) + D_a f(0) is affine, so if h = rank(L_{f,a}) the
    derivative along a takes 2^h values, each 2^(n-h) times, and
    delta_f(a, b) = 2^(n-h) exactly when b + D_a f(0) lies in im(L_{f,a}).
    _polar_ranks gives every rank from the polar matrix _polar, B(e_m, e_k),
    by one bitsliced elimination of about 2n^3 operations on 2^n-bit ints.
    A table gets that matrix from the degree test _polar_of as it is
    admitted; the subclass DOPolynomial from its coefficients.
    spectrum(), count_via_spectrum and the cyclic-code weights inherit the
    ranks through _direction_classes, against O(4^n) for a generic table.
    delta(a, b) is the inherited kernel.
    FunctionTable(gf, f.values) stays the generic oracle.
    """

    __slots__ = ("_polar", "_ranks")

    def __init__(self, gf, values):
        values = FunctionTable(gf, values).values
        polar = _polar_of(values)
        if polar is None:
            raise ValueError("table has algebraic degree > 2")
        self._fill(gf, values, polar)

    def _fill(self, gf, values, polar):
        self.field, self._values, self._polar, self._ranks = gf, values, polar, None
        return self

    @classmethod
    def promote(cls, table):
        """table itself, or if its degree is <= 2 a QuadraticFunction sharing its values."""
        polar = _polar_of(table.values)
        if polar is None:
            return table
        # table's values are already checked: no copy
        return object.__new__(cls)._fill(table.field, table.values, polar)

    def ranks(self):
        """bytes: entry a - 1 is rank(L_{f,a}) for each nonzero a, from the
        polar matrix."""
        if self._ranks is None:
            self._ranks = _polar_ranks(self.field.n, self._polar)[1:]
        return self._ranks

    def _direction_classes(self):
        """One class per rank h: shape {2^(n-h): 2^h}, and D_a f(0) is a
        value of the derivative, so at_zero = 2^(n-h). The directions of rank
        h are those whose ranks() byte translates to 1 by a table that is 1 at
        h alone: one compress per rank present."""
        n, ranks = self.field.n, self.ranks()
        directions = list(range(1, self.field.order))
        for h in range(n + 1):
            if h in ranks:
                is_h = ranks.translate(bytes(h) + b"\1" + bytes(255 - h))
                yield list(compress(directions, is_h)), {1 << (n - h): 1 << h}, 1 << (n - h)


class DOPolynomial(QuadraticFunction):
    """Sparse coefficient map (i, j) -> c_ij with 0 <= i < j < n, c_ij != 0:
    a QuadraticFunction by construction, so it needs no degree test.

    coeffs is a mapping or an iterable of ((i, j), c) terms; the coefficients
    of a repeated (i, j) add, i.e. XOR. The polar matrix is read as it is
    made, with no value table; to_table builds that table on the first read
    of values (delta, enumerate_flats, ==), and it is kept. Like every
    FunctionTable it is equal to any function of the same field and values,
    and so it is not hashable."""

    __slots__ = ("coeffs",)

    def __init__(self, gf, coeffs):
        total = {}
        for (i, j), c in coeffs.items() if hasattr(coeffs, "items") else coeffs:
            if not 0 <= i < j < gf.n:
                raise ValueError(f"term key ({i}, {j}) must satisfy 0 <= i < j < {gf.n}")
            if not 0 <= c < gf.order:
                raise ValueError(f"term {i},{j}:{c}: coefficient {c} out of range for {gf!r}")
            total[(i, j)] = total.get((i, j), 0) ^ c
        self.coeffs = {key: c for key, c in total.items() if c}
        # f at 0, the e_k and the e_m + e_k alone: no value table
        n = gf.n
        points = [1 << k | 1 << m for k in range(n) for m in range(k + 1)]
        values = univariate_values(gf, self._terms(), points)
        self._fill(gf, None, _polar_read(n, dict(zip([0, *points], values))))

    def __repr__(self):
        terms = " + ".join(f"{c}*x^(2^{i}+2^{j})" for (i, j), c in sorted(self.coeffs.items()))
        return f"DOPolynomial({self.field!r}, {terms or '0'})"

    def _terms(self):
        """The univariate terms (c, 2^i + 2^j) of f."""
        return [(c, (1 << i) + (1 << j)) for (i, j), c in self.coeffs.items()]

    def to_table(self):
        """Value table of the univariate expansion, by from_univariate."""
        return FunctionTable.from_univariate(self.field, self._terms())

    def count_vanishing_flats(self):
        """Block count from the ranks h = rank(L_{f,a}), with no value table:
        along a of rank h, delta_f(a, b) = 2^(n-h) for 2^h values of b, so
        the spectrum counts are l_{2^(n-h)} = 2^h times the number of a != 0
        of rank h, read by vflats.count_from_spectrum."""
        n, ranks = self.field.n, self.ranks()
        return vflats.count_from_spectrum({1 << (n - h): ranks.count(h) << h for h in set(ranks)})


def random_do_polynomial(gf, support_size, seed):
    """Seeded random DO polynomial: uniform support of the given size, uniform
    nonzero coefficients."""
    import random  # here, not at module level: the CLI never loads it

    rng = random.Random(seed)
    n = gf.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if support_size > len(pairs):
        raise ValueError(f"support size {support_size} exceeds {len(pairs)} available terms")
    support = rng.sample(pairs, support_size)
    return DOPolynomial(gf, {k: rng.randrange(1, gf.order) for k in support})
