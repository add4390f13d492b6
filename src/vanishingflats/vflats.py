"""Vanishing flats of a function: enumeration, counting identities, closed forms.

A vanishing flat of f is a 2-dimensional flat {x1, x2, x3, x4} (four distinct
points with XOR zero) on which the values of f also XOR to zero. The block set
of all vanishing flats makes (GF(2^n), blocks) a partial quadruple system.

A flat lies along three directions. The count divides the pair statistics by
three; the enumeration emits each flat along the least of them only.
"""

from enum import Enum
from itertools import chain, cycle
import math

from .gf2n import MAX_FORMULA_DEGREE, Record, kloosterman
from .boolfunc import FunctionTable, PowerFunction

# Blocks per chunk of PartialQuadrupleSystem.text_chunks: a listing's text
# is made and printed a chunk at a time, never whole.
TEXT_CHUNK = 4096


class PartialQuadrupleSystem(Record):
    """The block set of vanishing flats over GF(2^n), as enumerate_flats
    makes it: sorted 4-tuples of distinct points XOR-ing to zero, in
    increasing order, with no duplicate. It stores them unchecked."""

    __slots__ = ("field", "blocks")

    def __len__(self):
        return len(self.blocks)

    def to_json(self):
        """The blocks are shared, not copied: json writes the tuples as arrays."""
        return {"field": self.field.to_json(),
                "block_count": len(self.blocks),
                "blocks": self.blocks}

    def text_chunks(self):
        """One line "x1 x2 x3 x4" per block, TEXT_CHUNK blocks a chunk, each
        chunk its lines joined by "\n"; none for no blocks. Each point's
        decimal string is made once, bare and with a "\n" or " " before it,
        and a chunk's lines are joined by a C-level map over the points of
        its blocks, so only one chunk's strings are held at a time."""
        digits = list(map(str, self.field.elements()))
        first = ["\n" + p for p in digits]
        rest = [" " + p for p in digits]
        blocks = self.blocks
        for i in range(0, len(blocks), TEXT_CHUNK):
            yield "".join(map(list.__getitem__, cycle((first, rest, rest, rest)),
                              chain.from_iterable(blocks[i:i + TEXT_CHUNK])))[1:]


def enumerate_flats(f, limit=None):
    """The partial quadruple system of f, each block emitted once.

    A flat {x, x+a, y, y+a} with D_a f(x) = D_a f(y) and x < y in the half
    of a (FunctionTable.half_derivatives) lies along a, x+y and x+y+a. a is
    the least of them iff x+y has a bit above the top bit of a, and then
    x < x+a < y < y+a: the block is emitted there alone, already sorted.

    Only a < 2^(n-1) is walked: the three directions of a flat XOR to 0, so
    two of them share the highest bit set in any of them and the third, the
    least, lacks it. Collisions are found by C-level dict and set operations:
    last maps each value of D_a f to the last (largest) x of the half taking
    it, so a direction with as many values as points has no flat. Otherwise
    only the points that are not last of their value are walked, in
    descending order, each against the larger points of its value already
    seen (last[v] first, then in the order seen, so descending). The blocks
    of a direction thus come out in descending order; reversed, each is a
    sorted run, and one merge sort (Timsort) of the runs orders them all.
    More than limit blocks raise a ValueError that gives the exact count.

    Every block entry is an object of one list of the 2^n point ints (the
    half lists are read through it once per top bit), so at n >= 9, past
    CPython's small-int cache, a block allocates no ints of its own.
    """
    t, blocks, shared = f.values, [], None
    point = list(f.field.elements())
    for a, half, values in f.half_derivatives(range(1, f.field.order >> 1)):
        if shared is not half:  # once per shared half list, i.e. per top bit
            shared, own = half, list(map(point.__getitem__, half))
            pool = set(own)
        last = dict(zip(values, own))
        if len(last) == len(own):
            continue
        shift = a.bit_length()
        seen, run = {}, []
        for x in sorted(pool.difference(last.values()), reverse=True):
            v = t[x ^ a] ^ t[x]
            ys = seen.get(v)
            if ys is None:  # the first such point of v pairs with last[v] alone
                y = last[v]
                if (x ^ y) >> shift:
                    run.append((x, point[x ^ a], y, point[y ^ a]))
                seen[v] = [y, x]
                continue
            for y in ys:
                if (x ^ y) >> shift:
                    run.append((x, point[x ^ a], y, point[y ^ a]))
            ys.append(x)
        run.reverse()
        blocks += run
        if limit is not None and len(blocks) > limit:
            raise ValueError(f"{count_via_spectrum(f)} vanishing flats, "
                             f"more than the limit of {limit}")
    blocks.sort()
    return PartialQuadrupleSystem(f.field, blocks)


def count_via_spectrum(f):
    """Block count from the differential spectrum alone, without materializing.

    Each flat {x, x+a, y, y+a} is derived exactly three times over the
    (a, b) pairs, once along each of its directions a, x+y and x+y+a, so the
    count is (1/3) * sum over (a, b) of C(delta_f(a,b)/2, 2), that is
    (1/3) * sum_k l_k * C(k/2, 2). The spectrum costs O(4^n) for a generic
    table, O(2^n) for a PowerFunction (x^d from FunctionTable.from_monomial),
    whose every direction has the histogram of a = 1, and O(2^n n^2) for a
    dopoly.QuadraticFunction, whose histograms come from ranks.
    """
    return count_from_spectrum(f.spectrum().counts)


def count_from_spectrum(counts):
    """The block count (1/3) * sum_k l_k * C(k/2, 2) of spectrum counts {k: l_k}."""
    total = sum(l * math.comb(k // 2, 2) for k, l in counts.items())
    if total % 3 != 0:
        raise ArithmeticError("triple-cover identity violated: count not divisible by 3")
    return total // 3


def flats_through_pair(f, x, a):
    """Number of vanishing flats containing both x and x+a: delta_f(a,b)/2 - 1."""
    if a == 0:
        raise ValueError("direction a must be nonzero")
    b = f[x ^ a] ^ f[x]
    return f.delta(a, b) // 2 - 1


def bounds(f):
    """(lower, upper) bounds on the block count.

    The lower bound is 0 except for a non-APN PowerFunction x^d, which has
    a flat (two pairs {x, x+a} with one derivative value). Scaling x -> cx,
    c != 0, maps the flats of x^d onto flats of x^d, as (cx)^d = c^d x^d.
    A c != 1 that fixes a block permutes its points and fixes none but 0.
    c has odd order (it divides 2^n - 1), which rules out swaps and
    4-cycles, so the block holds 0 and c is a 3-cycle on the other three:
    c has order 3, and that needs 3 | 2^n - 1, i.e. n even. So every
    scaling orbit has at least
    (2^n - 1)/gcd(3, 2^n - 1) blocks: (2^n - 1)/3 at even n, which the
    inverse reaches, and 2^n - 1 at odd n, where every count is a multiple
    of 2^n - 1. The upper bound is the total number of 2-flats, attained
    by x^1.
    """
    q = f.field.order
    upper = (q // 4) * ((q // 2) - 1) * (q - 1) // 3
    lower = 0
    if isinstance(f, PowerFunction) and f.spectrum().uniformity > 2:
        lower = (q - 1) // math.gcd(3, q - 1)
    return lower, upper


# Known vanishing-flat counts of x^d over GF(2^n), one representative d per
# equivalence class (d ~ 2d, and d ~ d^-1 when invertible). Golden data for
# the acceptance tests and the `table table2` command.
KNOWN_MONOMIAL_COUNTS = {
    2: [(1, 1)],
    3: [(1, 14), (3, 0)],
    4: [(1, 140), (3, 0), (5, 20), (7, 5)],
    5: [(1, 1240), (3, 0), (5, 0), (15, 0)],
    6: [(1, 10416), (3, 0), (5, 336), (7, 84), (9, 1008), (11, 336),
        (15, 126), (21, 2520), (27, 1260), (31, 21)],
    7: [(1, 85344), (3, 0), (5, 0), (7, 889), (9, 0), (11, 0), (19, 889),
        (21, 889), (23, 0), (63, 0)],
    8: [(1, 690880), (3, 0), (5, 5440), (7, 3655), (9, 0), (11, 5185),
        (13, 5185), (15, 1785), (17, 38080), (19, 4420), (21, 2040),
        (23, 4930), (25, 4420), (27, 15810), (31, 2380), (39, 0),
        (43, 27625), (45, 1785), (51, 66300), (53, 7480), (55, 5440),
        (63, 3570), (85, 174760), (87, 24480), (95, 2380), (111, 1020),
        (119, 41905), (127, 85)],
}


class MonomialFamily(str, Enum):
    """Power-function families with known closed-form vanishing-flat counts."""

    GOLD = "gold"              # d = 2^t + 1
    KASAMI = "kasami"          # d = 2^(2t) - 2^t + 1
    INVERSE = "inverse"        # d = 2^n - 2
    NIHO = "niho"              # n = 4t, d = 2^(2t) + 2^t + 1
    D7 = "d7"                  # d = 7
    ODD_LOW = "odd-low"        # d = 2^(n-2) - 1 or 2^((n-1)/2) - 1, n odd
    HALF = "half"              # d = 2^(n/2) - 1, n even
    HALF_PLUS = "half-plus"    # d = 2^(n/2 + 1) - 1, n even
    ODD_PLUS = "odd-plus"      # d = 2^((n+3)/2) - 1, n odd
    TWIN_ODD_T = "twin-odd-t"  # n = 2t, t odd, d = 2^t + 2^((t+1)/2) + 1 or 2^(t+1) + 3


_TAKES_T = (MonomialFamily.GOLD, MonomialFamily.KASAMI, MonomialFamily.NIHO)


def _need(condition, message):
    if not condition:
        raise ValueError(f"side condition violated: {message}")


def _divides(a, b):
    return 1 if b % a == 0 else 0


def closed_form(family, n, t=None):
    """(d, count): a representative exponent d of the family at n, and the
    exact closed-form number of vanishing flats of x^d over GF(2^n).

    Only gold, kasami and niho take t; t given to any other family, n < 2,
    n > MAX_FORMULA_DEGREE (4096) or a violated side condition raises a
    ValueError. The count is num * (2^n - 1) / den, den 3 or 24, in
    integers; a remainder signals a transcription bug and raises.
    """
    family = MonomialFamily(family)
    if n < 2:
        raise ValueError(f"n = {n}: the closed forms need n >= 2")
    if n > MAX_FORMULA_DEGREE:
        raise ValueError(f"n = {n}: the closed forms are evaluated for n <= {MAX_FORMULA_DEGREE}")
    if t is not None and family not in _TAKES_T:
        raise ValueError(f"the {family.value} family takes no t, got t = {t}")
    q1 = (1 << n) - 1

    if family in (MonomialFamily.GOLD, MonomialFamily.KASAMI):
        if family is MonomialFamily.GOLD:
            _need(t is not None and 1 <= t <= n // 2, "gold requires 1 <= t <= n/2")
            d = (1 << t) + 1
        else:
            _need(t is not None and 2 <= t <= n // 2, "kasami requires 2 <= t <= n/2")
            _need(n != 3 * t, "kasami requires n != 3t")
            _need((n // math.gcd(n, t)) % 2 == 1, "kasami requires n/gcd(n,t) odd")
            d = (1 << (2 * t)) - (1 << t) + 1
        s = math.gcd(n, t)
        num, den = (1 << (n - 2)) * ((1 << (s - 1)) - 1), 3
    elif family is MonomialFamily.INVERSE:
        _need(n % 2 == 0, "inverse count requires n even")
        d, num, den = (1 << n) - 2, 1, 3
    elif family is MonomialFamily.NIHO:
        _need(t is not None and n == 4 * t, "requires n = 4t")
        d = (1 << (2 * t)) + (1 << t) + 1
        num, den = (1 << (n - 3)) - (1 << (3 * t - 3)), 3
    elif family is MonomialFamily.D7:
        _need(n >= 6, "d = 7 row requires n >= 6")
        w4 = _divides(2, n)
        k = kloosterman(n)
        d = 7
        # ((2^(n-2) + 1 - 3 w4)/6 + (-1)^n K/8), over 24
        num, den = 4 * ((1 << (n - 2)) + 1 - 3 * w4) + 3 * (-1) ** n * k, 24
    elif family is MonomialFamily.ODD_LOW:
        # Table header admits n >= 6 but the row needs n odd; enabled for odd n >= 7.
        _need(n % 2 == 1 and n >= 7, "requires n odd, n >= 7")
        w8 = _divides(3, n)
        k = kloosterman(n)
        d = (1 << (n - 2)) - 1
        # ((2^(n-1) - 3 - 5 (-1)^n)/12 + (-1)^n K/8 + w8), over 24
        num = 2 * ((1 << (n - 1)) - 3 - (-1) ** n * 5) + 3 * (-1) ** n * k + 24 * w8
        den = 24
    elif family is MonomialFamily.HALF:
        _need(n % 2 == 0 and n >= 6, "requires n even, n >= 6")
        w4 = 1 - _divides(4, n)
        h = n // 2
        d = (1 << h) - 1
        num, den = ((1 << (h - 1)) - 1) * ((1 << (h - 2)) - 1) + w4, 3
    elif family is MonomialFamily.HALF_PLUS:
        _need(n % 2 == 0 and n >= 6, "requires n even, n >= 6")
        h = n // 2
        d = (1 << (h + 1)) - 1
        num, den = (1 << (h - 2)) * ((1 << (h - 1)) - 1), 3
    elif family is MonomialFamily.ODD_PLUS:
        _need(n % 2 == 1 and n >= 7, "requires n odd, n >= 7")
        k = kloosterman(n)
        d = (1 << ((n + 3) // 2)) - 1
        # ((2^(n-2) + 1)/6 - K/8), over 24
        num, den = 4 * ((1 << (n - 2)) + 1) - 3 * k, 24
    else:  # MonomialFamily.TWIN_ODD_T: t is n/2, not a parameter
        _need(n % 2 == 0 and n // 2 >= 5 and n // 2 % 2 == 1, "requires n = 2t, t >= 5 odd")
        d = (1 << (n // 2 + 1)) + 3
        num, den = 1 << (n - 2), 3

    count, rest = divmod(num * q1, den)
    if rest:
        raise ArithmeticError(f"closed form for {family} at n={n} is not an integer: "
                              f"{num * q1}/{den}")
    return d, count
