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

Both routes to the ranks feed it a polar matrix, and one reader,
`_polar_read`, gives it from f at 0, the e_k and the e_m + e_k as
B(e_m, e_k) = f(e_m + e_k) + f(e_m) + f(e_k) + f(0), from anything indexable
at those points. DOPolynomial passes the values of the one univariate
evaluator, boolfunc.univariate_values, at those 1 + n(n+1)/2 points alone,
O(s n^2) lookups for s terms, so count_vanishing_flats builds no value
table. QuadraticFunction is any value table of algebraic degree <= 2,
however it was given. The O(2^n) degree test, `_polar_of`, admits it and
returns the matrix the reader gives off the table, or None at a higher
degree. Its spectrum and count come from the ranks, against O(4^n) for the
generic pass.
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

    Gaussian elimination on all 2^n matrices at once. For each row i, the
    first unused column with bit i becomes the pivot of that direction; the
    pivot is XORed into every other unused column with bit i. The pivots
    found for row i are the "used" plane of row i, and the rank of M_a is the
    number of used planes with bit a set. The planes are reduced in place."""
    n = len(planes)
    q = 1 << n
    full = (1 << q) - 1
    unused = [full] * n
    used = []
    for i in range(n):
        free = full  # directions with no pivot for row i yet
        pivot = [0] * n
        for k, column in enumerate(planes):
            sel = column[i] & unused[k] & free
            if sel:
                free ^= sel
                unused[k] ^= sel
                for j in range(i + 1, n):
                    pivot[j] |= column[j] & sel
        for k, column in enumerate(planes):
            hit = column[i] & unused[k]
            if hit:
                for j in range(i + 1, n):
                    column[j] ^= pivot[j] & hit
        used.append(full ^ free)
    # one byte per direction per used plane, summed lane by lane: a lane
    # reaches at most n <= 16, so no carry crosses into the next direction
    total = sum(int.from_bytes(format(u, f"0{q}b")[::-1].encode().translate(_ZERO_ONE),
                               "little") for u in used)
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


class DOPolynomial:
    """Sparse coefficient map (i, j) -> c_ij with 0 <= i < j < n, c_ij != 0.

    coeffs is a mapping or an iterable of ((i, j), c) terms; the coefficients
    of a repeated (i, j) add, i.e. XOR."""

    def __init__(self, gf, coeffs):
        self.field = gf
        total = {}
        for (i, j), c in coeffs.items() if hasattr(coeffs, "items") else coeffs:
            if not 0 <= i < j < gf.n:
                raise ValueError(f"term key ({i}, {j}) must satisfy 0 <= i < j < {gf.n}")
            if not 0 <= c < gf.order:
                raise ValueError(f"term {i},{j}:{c}: coefficient {c} out of range for {gf!r}")
            total[(i, j)] = total.get((i, j), 0) ^ c
        self.coeffs = {key: c for key, c in total.items() if c}

    def __repr__(self):
        terms = " + ".join(f"{c}*x^(2^{i}+2^{j})" for (i, j), c in sorted(self.coeffs.items()))
        return f"DOPolynomial({self.field!r}, {terms or '0'})"

    def _terms(self):
        """The univariate terms (c, 2^i + 2^j) of f."""
        return [(c, (1 << i) + (1 << j)) for (i, j), c in self.coeffs.items()]

    def to_table(self):
        """Value table of the univariate expansion, by from_univariate."""
        return FunctionTable.from_univariate(self.field, self._terms())

    def _polar(self):
        """[[B(e_m, e_k) for m < n] for k < n] for the polar form B, with no
        value table: _polar_read of f at 0, the e_k and the e_m + e_k, the
        1 + n(n+1)/2 values univariate_values gives."""
        n = self.field.n
        points = [1 << k | 1 << m for k in range(n) for m in range(k + 1)]
        values = univariate_values(self.field, self._terms(), points)
        return _polar_read(n, dict(zip([0, *points], values)))

    def count_vanishing_flats(self):
        """Block count from the ranks h = rank(L_{f,a}) of the polar matrix,
        with no value table: along a of rank h, delta_f(a, b) = 2^(n-h) for
        2^h values of b, so the spectrum counts are l_{2^(n-h)} = 2^h times
        the number of a != 0 of rank h, read by vflats.count_from_spectrum."""
        n = self.field.n
        ranks = _polar_ranks(n, self._polar())[1:]
        return vflats.count_from_spectrum({1 << (n - h): ranks.count(h) << h for h in set(ranks)})


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
    """A table of algebraic degree <= 2 (a DO polynomial plus affine terms)
    whose statistics come from ranks; a higher degree raises ValueError.

    D_a f(x) = L_{f,a}(x) + D_a f(0) is affine, so if h = rank(L_{f,a}) the
    derivative along a takes 2^h values, each 2^(n-h) times, and
    delta_f(a, b) = 2^(n-h) exactly when b + D_a f(0) lies in im(L_{f,a}).
    The degree test _polar_of gives the polar matrix B(e_m, e_k) as it
    admits the table, and _polar_ranks gives every rank from it by one
    bitsliced elimination of about 2n^3 operations on 2^n-bit ints.
    spectrum(), count_via_spectrum and the cyclic-code weights inherit that
    through _direction_classes, against O(4^n) for a generic table.
    delta(a, b) is the inherited kernel.
    FunctionTable(gf, f.values) stays the generic oracle.
    """

    __slots__ = ("_polar", "_ranks")

    def __init__(self, gf, values):
        super().__init__(gf, values)
        self._polar = _polar_of(self.values)
        if self._polar is None:
            raise ValueError("table has algebraic degree > 2")
        self._ranks = None

    @classmethod
    def promote(cls, table):
        """table itself, or if its degree is <= 2 a QuadraticFunction sharing its values."""
        polar = _polar_of(table.values)
        if polar is None:
            return table
        f = object.__new__(cls)  # table's values are already checked: no copy
        f.field, f.values, f._polar, f._ranks = table.field, table.values, polar, None
        return f

    def ranks(self):
        """bytes: entry a - 1 is rank(L_{f,a}) for each nonzero a, from the
        polar matrix the degree test read."""
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
