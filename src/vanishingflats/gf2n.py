"""Arithmetic in GF(2^n) for 2 <= n <= 16, polynomial basis, bit-packed elements.

An element is an integer in [0, 2^n); bit i is the coefficient of x^i. The
modulus is an (n+1)-bit integer encoding an irreducible polynomial the same
way.
"""

from functools import lru_cache
import math
from operator import xor

MIN_DEGREE = 2
MAX_DEGREE = 16
# The largest n at which kloosterman and vflats.closed_form evaluate their
# formulas: K(4096) takes about 0.4 s, and the counts at n = 4096 print in
# at most about 3,100 digits, within CPython's 4,300-digit limit on
# converting an int to a string.
MAX_FORMULA_DEGREE = 4096

# One primitive polynomial per degree: lowest weight first, then smallest
# integer encoding. Users may override via GF(n, modulus=...).
DEFAULT_MODULI = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100000000101011,
    15: 0b1000000000000011,
    16: 0b10000000000101101,
}


def _poly_gcd(a, b):
    """gcd in F_2[x] of two polynomials bit-packed as ints."""
    while b:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        a, b = b, a
    return a


def echelon(vectors):
    """F_2 elimination: the nonzero reductions of vectors against the earlier
    ones, as a list of linearly independent ints spanning the same space.
    Each has every earlier one's top bit clear, so their top bits are
    distinct: they are the pivots of the space's reduced row-echelon basis,
    which covers.quadratic_image reads its coset leaders off."""
    basis = []
    for v in vectors:
        for b in basis:
            if v ^ b < v:  # v has the top bit of b
                v ^= b
        if v:
            basis.append(v)
    return basis


def span(bases, columns):
    """The points of the F = len(bases) flats bases[j] + span(vectors of flat
    j), by doubling. columns[m] holds vector m of every flat (the zip of F
    equal-length vector lists), and entry i * F + j is bases[j] XOR the
    columns[m][j] at the bits m of i, so each flat lists its points once
    when its vectors are linearly independent. Each level is one map over
    every flat. One flat is span([base], zip(vectors))."""
    points = list(bases)
    copies = 1
    for column in columns:
        points += map(xor, points, column * copies)
        copies *= 2
    return points


def require(obj, key, kind=None):
    """obj[key] of a parsed JSON object, or a ValueError naming the missing field;
    kind(key, value), such as as_int, checks the value's type."""
    try:
        value = obj[key]
    except (KeyError, TypeError):
        raise ValueError(f"JSON object lacks the field {key!r}") from None
    return value if kind is None else kind(key, value)


def as_int(key, value):
    """A JSON integer field (a bool or a string is not one), or a ValueError naming it."""
    if type(value) is not int:
        raise ValueError(f"JSON field {key!r} must be an integer, got {value!r}")
    return value


def as_list(key, value):
    """A JSON array field, or a ValueError naming it."""
    if type(value) is not list:
        raise ValueError(f"JSON field {key!r} must be an array, got {value!r}")
    return value


def as_int_list(key, value):
    """A JSON array of integers, or a ValueError naming the field or its bad
    entry. The array itself is returned, so callers copy it. A valid array
    is checked in one C-level pass; entry names are made only on failure."""
    if not set(map(type, as_list(key, value))) <= {int}:
        for i, v in enumerate(value):
            as_int(f"{key}[{i}]", v)
    return value


class Record:
    """Base of the value types: the dataclass __init__, __eq__ and __repr__
    over the fields a subclass names in its __slots__, without importing
    dataclasses (and inspect) at start-up. As with a dataclass, defining
    __eq__ leaves __hash__ None unless a subclass defines one."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(zip(fields, args), **kwargs)
        # a missing, unknown or repeated field, or one too many, breaks one of the two
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}, got "
                            f"{len(args)} by position and {sorted(kwargs)} by keyword")
        for item in values.items():
            setattr(self, *item)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self.__slots__]
                == [getattr(other, f) for f in self.__slots__])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def _prime_factors(m):
    fs = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            fs.add(d)
            m //= d
        d += 1
    if m > 1:
        fs.add(m)
    return fs


class GF:
    """The field GF(2^n) with a fixed irreducible modulus."""

    def __init__(self, n, modulus=None):
        if not MIN_DEGREE <= n <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {n}")
        if modulus is None:
            modulus = DEFAULT_MODULI[n]
        if modulus >> n != 1:
            raise ValueError(f"modulus {modulus:#x} does not have degree exactly {n}")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n          # field size 2^n
        # Ben-Or: irreducible iff gcd(x^(2^i) + x, modulus) = 1 for 1 <= i <= n/2
        h = 0b10
        for i in range(1, n // 2 + 1):
            h = self.mul(h, h)
            if _poly_gcd(modulus, h ^ 0b10) != 1:
                raise ValueError(f"modulus {modulus:#x} is reducible: it shares a factor "
                                 f"with x^(2^{i}) + x")
        self._primitive = None
        self._exp_log = None

    def __eq__(self, other):
        return isinstance(other, GF) and (self.n, self.modulus) == (other.n, other.modulus)

    def __hash__(self):
        return hash((self.n, self.modulus))

    def __repr__(self):
        return f"GF(2^{self.n}, modulus={self.modulus:#x})"

    def elements(self):
        return range(self.order)

    def _check(self, a):
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} out of range for {self!r}")
        return a

    def mul(self, a, b):
        """Carry-less shift-and-XOR product, reduced by the modulus."""
        self._check(a)
        self._check(b)
        n, mod = self.n, self.modulus
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> n & 1:
                a ^= mod
        return r

    def pow(self, a, d):
        """Square-and-multiply; by convention 0^0 = 1."""
        self._check(a)
        if d < 0:
            raise ValueError("exponent must be non-negative")
        r = 1
        while d:
            if d & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            d >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def primitive_element(self):
        """Smallest element of multiplicative order 2^n - 1."""
        if self._primitive is None:
            q1 = self.order - 1
            cofactors = [q1 // p for p in _prime_factors(q1)]
            # every g != 0 has g^q1 = 1 (Lagrange), so its order is q1 unless
            # it divides some q1 / p
            for g in range(2, self.order):
                if all(self.pow(g, c) != 1 for c in cofactors):
                    self._primitive = g
                    break
        return self._primitive

    def subfield(self, s):
        """Elements of the subfield GF(2^s), sorted. Requires s | n."""
        if s <= 0 or self.n % s != 0:
            raise ValueError(f"GF(2^{s}) is not a subfield of GF(2^{self.n})")
        # {0} and the powers of beta = alpha^((2^n - 1)/(2^s - 1)), of order
        # 2^s - 1: a walk of at most 2^s - 2 products by beta
        beta = self.pow(self.primitive_element(), (self.order - 1) // ((1 << s) - 1))
        elements, x = [0, 1], beta
        while x != 1:
            elements.append(x)
            x = self.mul(x, beta)
        return sorted(elements)

    def chain(self, c, count):
        """[c * x^k for k < count], by shift and reduce: entry k is c times
        the unit vector e_k, for k < n."""
        self._check(c)
        n, mod = self.n, self.modulus
        products = []
        for _ in range(count):
            products.append(c)
            c <<= 1
            if c >> n & 1:
                c ^= mod
        return products

    def exp_log(self):
        """(exp, log) for alpha = primitive_element(): exp[i] = alpha^i for
        0 <= i < 2^n - 1, and log[exp[i]] = i (log[0] = 0 is a placeholder).
        Both come from one walk of products by alpha, each read off two
        256-entry tables as alpha * x = lo[x & 255] ^ hi[x >> 8]: lo is the
        span of the chain alpha * x^k for k < 8, hi for 8 <= k < 16, and one
        span over the two lists builds both. Made once per field and
        shared, not copied: callers must not modify them."""
        if self._exp_log is None:
            q1 = self.order - 1
            chain = self.chain(self.primitive_element(), 16)
            both = span([0, 0], zip(chain[:8], chain[8:]))
            lo, hi = both[::2], both[1::2]
            exp, log = [0] * q1, [0] * self.order
            x = 1
            for i in range(q1):
                exp[i] = x
                log[x] = i
                x = lo[x & 255] ^ hi[x >> 8]
            self._exp_log = exp, log
        return self._exp_log

    def to_json(self):
        return {"n": self.n, "modulus": self.modulus}

    @classmethod
    def from_json(cls, obj):
        return cls(require(obj, "n", as_int), require(obj, "modulus", as_int))


@lru_cache(maxsize=None)
def kloosterman(n):
    """Kloosterman sum K over GF(2^n), by the explicit binomial formula.

    K = 1 + ((-1)^(n-1) / 2^(n-1)) * sum_{i=0}^{floor(n/2)} (-1)^i C(n, 2i) 7^i.
    Integer arithmetic throughout; the division must leave no remainder.
    n outside [2, MAX_FORMULA_DEGREE] raises ValueError.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_FORMULA_DEGREE:
        raise ValueError(f"n = {n}: Kloosterman sums are evaluated for n <= {MAX_FORMULA_DEGREE}")
    total = sum((-1) ** i * math.comb(n, 2 * i) * 7 ** i for i in range(n // 2 + 1))
    k, rest = divmod((-1) ** (n - 1) * total, 1 << (n - 1))
    if rest:
        raise ArithmeticError(f"Kloosterman sum for n={n} is not an integer")
    return 1 + k
