"""Value tables of functions GF(2^n) -> GF(2^n) and their derivative statistics."""

from collections import Counter
from itertools import compress, repeat
import struct

from .gf2n import Record


def pack_lanes(values):
    """bytes holding each value as one little-endian lane: 1 byte wide for
    at most 256 values, else 2. Values must fit their lane, as the entries
    of a table over GF(2^n), n <= 16, do."""
    if len(values) <= 256:
        return bytes(values)
    return struct.pack(f"<{len(values)}H", *values)


def univariate_values(gf, terms, points):
    """[f(0)] + [f(x) for x in points], for the sum f of the monomials
    c * x^e over (c, e) in terms and nonzero elements x of gf, from the
    field's exp and log lists: at x = alpha^k, c * x^e = alpha^(log c +
    k * e), an index taken mod 2^n - 1. At x = 0 only the terms with e = 0
    count (0^0 = 1). A coefficient outside gf or a negative exponent raises
    ValueError naming its term."""
    exp, log = gf.exp_log()
    q1 = len(exp)
    logs = [log[x] for x in points]
    at_zero = 0
    acc = [0] * len(logs)
    for c, e in terms:
        if not 0 <= c < gf.order:
            raise ValueError(f"term {c}:{e}: coefficient {c} out of range for {gf!r}")
        if e < 0:
            raise ValueError(f"term {c}:{e}: exponent must be non-negative")
        if c == 0:
            continue
        if e == 0:
            at_zero ^= c
        log_c, step = log[c], e % q1
        acc = [v ^ exp[(log_c + k * step) % q1] for v, k in zip(acc, logs)]
    return [at_zero, *acc]


class FunctionTable:
    """A function f: GF(2^n) -> GF(2^n) stored as a full value table."""

    __slots__ = ("field", "_values")

    def __init__(self, gf, values):
        values = list(values)
        if len(values) != gf.order:
            raise ValueError(f"table must have {gf.order} entries, got {len(values)}")
        # a loop with the bound in a local: at n = 16, min() plus max() took
        # 8-25% longer than the loop on CPython 3.11-3.13 (less only on 3.10)
        q = gf.order
        for v in values:
            if not 0 <= v < q:
                raise ValueError(f"table entry {v} out of range for {gf!r}")
        self.field = gf
        self._values = values

    @property
    def values(self):
        """The value table: given, or, for a function given by a formula (a
        subclass with to_table, whose constructor leaves _values None), built
        by to_table on the first read and kept."""
        if self._values is None:
            self._values = self.to_table().values
        return self._values

    def __getitem__(self, x):
        return self.values[x]

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and self.field == other.field and self.values == other.values)

    def __repr__(self):
        return f"FunctionTable({self.field!r}, <{self.field.order} values>)"

    @staticmethod
    def from_monomial(gf, d):
        """The power function x^d (d >= 1), with its O(2^n) statistics."""
        return PowerFunction(gf, d)

    @staticmethod
    def from_univariate(gf, terms):
        """A plain FunctionTable on any subclass: the pointwise sum of
        monomials c * x^e for (c, e) in terms, f(0) and then univariate_values
        over the nonzero points in natural order."""
        return FunctionTable(gf, univariate_values(gf, terms, range(1, gf.order)))

    def _check_direction(self, a):
        if not 0 < a < self.field.order:
            raise ValueError(f"direction {a} must be a nonzero element of {self.field!r}")

    def delta(self, a, b):
        """delta_f(a, b) = #{x : f(x+a) + f(x) = b}, counted point by point:
        the check on half_derivatives, which shares no code with it."""
        self.field._check(b)
        self._check_direction(a)
        t = self.values
        return [t[x ^ a] ^ t[x] for x in range(len(t))].count(b)

    def half_derivatives(self, directions=None):
        """Yield (a, half, values) for each direction a, all a != 0 by default:
        half lists the x with the top bit of a clear (the x < x+a) and values
        lists D_a f on half. D_a f(x) = D_a f(x+a), so each b occurs
        delta_f(a, b)/2 times. In increasing order, directions sharing a top
        bit share one half list.

        The table is packed once into one int, lane x holding f(x)
        (pack_lanes). Lane x of moved holds f(x + a): going from one direction
        to the next, each bit 2^k that changes swaps adjacent blocks of 2^k
        lanes by two masked shifts. moved ^ packed holds D_a f, and one struct
        format per top bit reads the lanes of half, skipping the others as pad
        bytes; the struct module caches it compiled across calls."""
        t, q = self.values, self.field.order
        raw = pack_lanes(t)
        width = len(raw) // q
        packed = int.from_bytes(raw, "little")
        masks = {}  # 2^k -> the lanes with bit k clear, all ones
        moved, at, top = packed, 0, 0
        for a in range(1, q) if directions is None else directions:
            self._check_direction(a)
            change, at = a ^ at, a
            while change:
                k = change & -change
                change ^= k
                lanes = k * width
                mask = masks.get(k)
                if mask is None:
                    mask = masks[k] = int.from_bytes(
                        (b"\xff" * lanes + bytes(lanes)) * (q // (2 * k)), "little")
                moved = (moved >> 8 * lanes) & mask | (moved & mask) << 8 * lanes
            h = 1 << (a.bit_length() - 1)
            if h != top:
                top, blocks = h, q // (2 * h)
                half = list(compress(range(q), (b"\1" * h + bytes(h)) * blocks))
                fmt = "<" + f"{h}{'BH'[width - 1]}{h * width}x" * blocks
            yield a, half, list(struct.unpack(fmt, (moved ^ packed).to_bytes(len(raw), "little")))

    def _direction_classes(self):
        """Yield (directions, shape, at_zero) for classes of directions a that
        share one histogram shape: shape maps each nonzero value of
        delta_f(a, .) to the number of b taking it, and at_zero is
        delta_f(a, f(a) + f(0)). Generic tables: one class per direction,
        with the half-space counts of half_derivatives doubled."""
        t = self.values
        for a, _, values in self.half_derivatives():
            yield _doubled_class((a,), Counter(values), t[a] ^ t[0])

    def spectrum(self):
        """Full differential spectrum, one histogram shape per direction class."""
        q = self.field.order
        counts = Counter()
        classes = []
        through_zero = 0
        for directions, shape, at_zero in self._direction_classes():
            m = len(directions)
            counts[0] += m * (q - sum(shape.values()))
            for k, l in shape.items():
                counts[k] += m * l
            classes.append((directions, max(shape)))
            through_zero += m * at_zero
        return DifferentialSpectrum(
            counts=dict(sorted(counts.items())),
            uniformity=max(u for _, u in classes),
            classes=classes,
            through_zero=through_zero,
        )

    def critical_directions(self):
        """D_f = {a != 0 : delta_f(a) >= 4}; empty iff f is APN."""
        return {a for directions, u in self.spectrum().classes if u >= 4 for a in directions}


def _doubled_class(directions, half_counts, b):
    """(directions, shape, at_zero) for directions that share one histogram
    shape, from the half counts b -> delta_f(a, b)/2 of one of them, a, and
    b = f(a) + f(0)."""
    shape = {2 * k: l for k, l in Counter(half_counts.values()).items()}
    return directions, shape, 2 * half_counts[b]


class PowerFunction(FunctionTable):
    """The power function x^d, whose statistics all come from direction 1.

    D_a f(x) = a^d * D_1 f(x/a), so delta_f(a, b) = delta_f(1, b/a^d) and every
    direction has the histogram of a = 1 (Blondeau, Canteaut and Charpin,
    "Differential properties of power functions", 2010). spectrum() therefore
    costs O(2^n) once, against O(4^n) for a generic table; count_via_spectrum,
    bounds, critical_directions and the cyclic-code weights inherit that
    through _direction_classes, none of them building the value table:
    to_table makes it on the first read of values (delta, enumerate_flats,
    ParityCheckSpec.cyclic), and it is kept. delta(a, b) is the inherited
    kernel, and FunctionTable(gf, f.values) stays the generic oracle.
    """

    __slots__ = ("d", "_hist1")

    def __init__(self, gf, d):
        if d < 1:
            raise ValueError("monomial exponent must be positive")
        self.field = gf
        self.d = d
        self._hist1 = None
        self._values = None

    def to_table(self):
        """The value table of x^d, by from_univariate."""
        return FunctionTable.from_univariate(self.field, [(1, self.d)])

    def _histogram1(self):
        """b -> delta_f(1, b)/2, from the field's exp and log lists. The pairs
        {x, x + 1} are the even x with x + 1. For x != 0 their logs are
        log[2::2] and log[3::2] (the Zech pairs), and x^d = exp[e * log x mod
        2^n - 1] with e = d mod 2^n - 1. The pair {0, 1} adds b = 1."""
        if self._hist1 is None:
            exp, log = self.field.exp_log()
            q1 = len(exp)
            e = self.d % q1
            hist = Counter([exp[e * i % q1] ^ exp[e * j % q1]
                            for i, j in zip(log[2::2], log[3::2])])
            hist[1] += 1
            self._hist1 = hist
        return self._hist1

    def _direction_classes(self):
        """One class: every direction has the histogram of a = 1, and
        f(a) + f(0) = a^d, so at_zero = delta_f(1, 1)."""
        yield _doubled_class(range(1, self.field.order), self._histogram1(), 1)


class DifferentialSpectrum(Record):
    """counts maps each even value 2i to its frequency l_{2i} over all (a, b).

    classes lists (directions, uniformity) pairs that partition the nonzero
    directions, as _direction_classes groups them: directions is a range for
    a PowerFunction, a list per rank for a QuadraticFunction and a 1-tuple
    per direction for a generic table, and uniformity is max_b delta_f(a, b)
    for each a in it. through_zero is the sum over a != 0 of
    delta_f(a, f(a) + f(0)); each vanishing flat through 0 holds three pairs
    (0, a), so it gives N3. Two spectra are equal when their counts,
    uniformity, through_zero and per_direction map are, however their
    directions are grouped."""

    __slots__ = ("counts", "uniformity", "classes", "through_zero")

    def __repr__(self):
        return f"DifferentialSpectrum(counts={self.counts!r}, uniformity={self.uniformity!r})"

    @property
    def per_direction(self):
        """a -> max_b delta_f(a, b) for each a != 0: a new dict built from
        the classes on each read, 2^n - 1 entries, so only to_json reads it."""
        per_direction = {}
        for directions, u in self.classes:
            per_direction.update(zip(directions, repeat(u)))
        return per_direction

    def __eq__(self, other):
        if not isinstance(other, DifferentialSpectrum):
            return NotImplemented
        return ((self.counts, self.uniformity, self.through_zero, self.per_direction)
                == (other.counts, other.uniformity, other.through_zero, other.per_direction))

    def to_json(self):
        return {
            "uniformity": self.uniformity,
            "counts": {str(k): v for k, v in self.counts.items()},
            "per_direction": {str(a): d for a, d in sorted(self.per_direction.items())},
        }

    def csv_rows(self):
        """Rows (2i, l_{2i}) in increasing order of 2i."""
        return sorted(self.counts.items())
