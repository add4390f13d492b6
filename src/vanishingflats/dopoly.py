"""Dembowski-Ostrom polynomials: evaluation, linearized derivatives, rank counts.

A DO polynomial is f = sum over 0 <= i < j < n of c_ij * x^(2^i + 2^j). Its
derivative along a is the affine map L_{f,a}(x) + f(a), where
L_{f,a}(x) = sum c_ij (a^(2^i) x^(2^j) + a^(2^j) x^(2^i)) is F_2-linear.
"""

from dataclasses import dataclass
import math
import random

from .gf2n import GF, as_int, as_list, echelon, require
from .boolfunc import FunctionTable


@dataclass
class BinaryMatrix:
    """An n x n matrix over F_2; columns[k] is the image of basis vector e_k."""

    n: int
    columns: list

    def apply(self, x):
        r = 0
        k = 0
        while x:
            if x & 1:
                r ^= self.columns[k]
            x >>= 1
            k += 1
        return r

    def rank(self):
        """F_2 rank by elimination on bit-packed vectors."""
        return len(echelon(self.columns))

    @classmethod
    def identity(cls, n):
        return cls(n, [1 << k for k in range(n)])


class DOPolynomial:
    """Sparse coefficient map (i, j) -> c_ij with 0 <= i < j < n, c_ij != 0."""

    def __init__(self, gf, coeffs):
        self.field = gf
        clean = {}
        for (i, j), c in dict(coeffs).items():
            if not 0 <= i < j < gf.n:
                raise ValueError(f"term key ({i}, {j}) must satisfy 0 <= i < j < {gf.n}")
            gf._check(c)
            if c:
                clean[(i, j)] = c
        self.coeffs = clean

    def __repr__(self):
        terms = " + ".join(f"{c}*x^(2^{i}+2^{j})" for (i, j), c in sorted(self.coeffs.items()))
        return f"DOPolynomial({self.field!r}, {terms or '0'})"

    @classmethod
    def gold(cls, gf, t):
        """x^(2^t + 1) as the single-term DO polynomial c_{0,t} = 1."""
        if not 1 <= t < gf.n:
            raise ValueError(f"gold exponent needs 1 <= t < {gf.n}")
        return cls(gf, {(0, t): 1})

    def evaluate(self, x):
        gf = self.field
        r = 0
        for (i, j), c in self.coeffs.items():
            r ^= gf.mul(c, gf.pow(x, (1 << i) + (1 << j)))
        return r

    def to_table(self):
        return FunctionTable(self.field, [self.evaluate(x) for x in self.field.elements()])

    def linearized_at(self, a, x):
        """L_{f,a}(x), evaluated directly."""
        gf = self.field
        r = 0
        for (i, j), c in self.coeffs.items():
            ai, aj = gf.pow(a, 1 << i), gf.pow(a, 1 << j)
            xi, xj = gf.pow(x, 1 << i), gf.pow(x, 1 << j)
            r ^= gf.mul(c, gf.mul(ai, xj) ^ gf.mul(aj, xi))
        return r

    def linearized_matrix(self, a):
        """The linear map x -> L_{f,a}(x) in the polynomial basis."""
        if a == 0:
            raise ValueError("direction a must be nonzero")
        gf = self.field
        n = gf.n
        # Precompute a^(2^i) once; column k follows from e_k = x^... powers.
        a_pows = {i: gf.pow(a, 1 << i) for i in range(n)}
        columns = []
        for k in range(n):
            e = 1 << k
            col = 0
            for (i, j), c in self.coeffs.items():
                ei, ej = gf.pow(e, 1 << i), gf.pow(e, 1 << j)
                col ^= gf.mul(c, gf.mul(a_pows[i], ej) ^ gf.mul(a_pows[j], ei))
            columns.append(col)
        return BinaryMatrix(n, columns)

    def rank_multiset(self):
        """[rank(L_{f,a}) for each nonzero a], 2^n - 1 values."""
        return [self.linearized_matrix(a).rank() for a in range(1, self.field.order)]

    def count_vanishing_flats(self):
        """Block count via the rank multiset: (2^(n-2)/3) * sum(2^(n-h-1) - 1)."""
        n = self.field.n
        total = sum((1 << (n - h - 1)) - 1 for h in self.rank_multiset())
        scaled = (1 << (n - 2)) * total
        if scaled % 3 != 0:
            raise ArithmeticError("rank-count formula did not produce an exact integer")
        return scaled // 3

    def is_vanishing_pair(self, x1, x2):
        """True iff {0, x1, x2, x1+x2} (and hence each coset) is a vanishing flat."""
        if x1 == 0 or x2 == 0 or x1 == x2:
            raise ValueError("x1, x2, x1+x2 must be nonzero and distinct")
        gf = self.field
        r = 0
        for (i, j), c in self.coeffs.items():
            a = gf.mul(gf.pow(x1, 1 << i), gf.pow(x2, 1 << j))
            b = gf.mul(gf.pow(x1, 1 << j), gf.pow(x2, 1 << i))
            r ^= gf.mul(c, a ^ b)
        return r == 0

    def to_json(self):
        return {"field": self.field.to_json(),
                "terms": [{"i": i, "j": j, "c": c} for (i, j), c in sorted(self.coeffs.items())]}

    @classmethod
    def from_json(cls, obj):
        gf = GF.from_json(require(obj, "field"))
        return cls(gf, {(require(t, "i", as_int), require(t, "j", as_int)):
                        require(t, "c", as_int) for t in require(obj, "terms", as_list)})


def random_do_polynomial(gf, support_size, seed):
    """Seeded random DO polynomial: uniform support of the given size, uniform
    nonzero coefficients."""
    rng = random.Random(seed)
    n = gf.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if support_size > len(pairs):
        raise ValueError(f"support size {support_size} exceeds {len(pairs)} available terms")
    support = rng.sample(pairs, support_size)
    return DOPolynomial(gf, {k: rng.randrange(1, gf.order) for k in support})
