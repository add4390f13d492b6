"""Reference values and output checks for the benchmark, written apart from
the package: nothing here imports vanishingflats, so a package defect cannot
hide in its own oracle.

Each check raises OracleFailure with a one-line reason when an output is
wrong, and returns the facts later checks compare against.
"""

from fractions import Fraction
import json
import math
import re


class OracleFailure(Exception):
    """An op gave a wrong answer or a wrong exit code."""


def expect(condition, message):
    if not condition:
        raise OracleFailure(message)


# Irreducible moduli the benchmark's own inputs are built over; the same
# polynomials the package uses by default, so inputs need no --modulus flag.
MODULI = {2: 0b111, 9: 0b1000010001, 10: 0b10000001001}

# Vanishing-flat counts of x^d, one exponent d per equivalence class
# (d ~ 2d mod 2^n - 1, and d ~ d^-1 when invertible): the paper's Table 2
# rows for n = 6 and n = 8.
TABLE2 = {
    6: {1: 10416, 3: 0, 5: 336, 7: 84, 9: 1008, 11: 336, 15: 126, 21: 2520,
        27: 1260, 31: 21},
    8: {1: 690880, 3: 0, 5: 5440, 7: 3655, 9: 0, 11: 5185, 13: 5185, 15: 1785,
        17: 38080, 19: 4420, 21: 2040, 23: 4930, 25: 4420, 27: 15810,
        31: 2380, 39: 0, 43: 27625, 45: 1785, 51: 66300, 53: 7480, 55: 5440,
        63: 3570, 85: 174760, 87: 24480, 95: 2380, 111: 1020, 119: 41905,
        127: 85},
}


# --- closed forms --------------------------------------------------------

def kloosterman(n):
    """Binary Kloosterman sum K(n) = 1 + (-1)^(n-1) (w^n + conj(w)^n), where
    w = (1 + sqrt(-7))/2; the power sums follow s_k = s_(k-1) - 2 s_(k-2)."""
    s_prev, s = 2, 1
    for _ in range(n - 1):
        s_prev, s = s, s - 2 * s_prev
    return 1 + (-1) ** (n - 1) * s


def _exact(value):
    expect(value.denominator == 1, f"closed form is not an integer: {value}")
    return int(value)


def gold_count(n, t):
    """x^(2^t+1), and the Kasami exponents with the same gcd(n, t)."""
    s = math.gcd(n, t)
    return _exact(Fraction((1 << (n - 2)) * ((1 << (s - 1)) - 1) * ((1 << n) - 1), 3))


def gold_flats_through_zero(n, t):
    """Flats {0, x, y, x+y} of a Gold function: y/x in GF(2^s) minus {0, 1},
    so (2^n - 1)(2^s - 2) ordered pairs, six per flat."""
    s = math.gcd(n, t)
    return ((1 << n) - 1) * ((1 << s) - 2) // 6


def inverse_count(n):
    return _exact(Fraction((1 << n) - 1, 3))


def d7_count(n):
    w4 = 1 if n % 2 == 0 else 0
    return _exact((Fraction((1 << (n - 2)) + 1 - 3 * w4, 6)
                   + Fraction((-1) ** n * kloosterman(n), 8)) * ((1 << n) - 1))


def half_plus_count(n):
    """x^(2^(n/2+1) - 1), n even."""
    h = n // 2
    return _exact(Fraction((1 << (h - 2)) * ((1 << (h - 1)) - 1) * ((1 << n) - 1), 3))


def twin_odd_t_count(n):
    """x^(2^(t+1) + 3), n = 2t with t odd."""
    return _exact(Fraction((1 << (n - 2)) * ((1 << n) - 1), 3))


def all_flats(n):
    """Number of 2-dimensional flats of GF(2^n)."""
    q = 1 << n
    return (q // 4) * (q // 2 - 1) * (q - 1) // 3


def class_member(d, n, k):
    """d * 2^k mod 2^n - 1: x^d and x^(2^k d) differ by a Frobenius power
    on the output, so they have the same vanishing flats."""
    return d * (1 << k) % ((1 << n) - 1)


# --- field arithmetic for the benchmark's own inputs -------------------------

def power_table(n, terms):
    """Values of sum c * x^e over GF(2^n), by exp/log tables built from the
    generator x of the primitive modulus MODULI[n]."""
    q = 1 << n
    exp = [0] * (q - 1)
    log = [None] * q
    acc = 1
    for i in range(q - 1):
        expect(log[acc] is None, f"modulus for n={n} is not primitive")
        exp[i], log[acc] = acc, i
        acc <<= 1
        if acc >> n:
            acc ^= MODULI[n]
    values = [0] * q
    for c, e in terms:
        for x in range(q):
            if x == 0:
                values[x] ^= c if e == 0 else 0
            else:
                values[x] ^= exp[(log[c] + e * log[x]) % (q - 1)]
    return values


# --- output checks ----------------------------------------------------------

def exit_code(outcome, want):
    said = outcome.out.strip() or outcome.err.strip()
    expect(outcome.code == want,
           f"expected exit {want}, got exit {outcome.code}"
           + (f" with output {said[:60]!r}" if said else ""))


def single_int(outcome):
    exit_code(outcome, 0)
    text = outcome.out.strip()
    expect(text.isdigit(), f"expected one integer, got {text[:60]!r}")
    return int(text)


def key_values(outcome):
    """Parse 'k=v k=v ...' summary lines printed by codeweights and cover build."""
    exit_code(outcome, 0)
    first = outcome.out.strip().splitlines()[0] if outcome.out.strip() else ""
    pairs = dict(item.split("=", 1) for item in first.split() if "=" in item)
    expect(pairs, f"no k=v summary in {first[:60]!r}")
    return pairs


def spectrum_facts(outcome, n):
    """Check a spectrum --format json output against identities every
    function satisfies, and return (counts, flat count by the triple-cover
    identity count = (1/3) sum_k l_k C(k/2, 2))."""
    exit_code(outcome, 0)
    spec = json.loads(outcome.out)
    q = 1 << n
    counts = {int(k): v for k, v in spec["counts"].items()}
    pairs = (q - 1) * q
    expect(sum(counts.values()) == pairs,
           f"spectrum counts {sum(counts.values())} pairs (a, b), expected {pairs}")
    expect(sum(k * v for k, v in counts.items()) == pairs,
           "spectrum does not account for every x in every direction")
    expect(all(k % 2 == 0 for k in counts), "odd delta value in spectrum")
    per_dir = spec["per_direction"]
    expect(len(per_dir) == q - 1, f"{len(per_dir)} directions, expected {q - 1}")
    top = max(k for k, v in counts.items() if v)
    expect(spec["uniformity"] == top == max(per_dir.values()),
           f"uniformity {spec['uniformity']} disagrees with the counts ({top})")
    total = sum(v * math.comb(k // 2, 2) for k, v in counts.items())
    expect(total % 3 == 0, "triple-cover identity gives a non-integer count")
    return counts, total // 3


_BLOCKS_HEADER = re.compile(r"(\d+) blocks")


def listed_blocks(outcome, values):
    """Check a vflats list text output: every block is four distinct sorted
    points XOR-ing to zero on which the values also XOR to zero, blocks are
    strictly increasing (hence distinct), and the header count matches."""
    exit_code(outcome, 0)
    lines = outcome.out.splitlines()
    head = _BLOCKS_HEADER.fullmatch(lines[0].strip()) if lines else None
    expect(head is not None, "missing 'N blocks' header")
    q = len(values)
    prev = None
    for line in lines[1:]:
        b = tuple(map(int, line.split()))
        expect(len(b) == 4 and b[0] < b[1] < b[2] < b[3] < q, f"malformed block {line!r}")
        expect(b[0] ^ b[1] ^ b[2] ^ b[3] == 0, f"block {b} is not a 2-flat")
        expect(values[b[0]] ^ values[b[1]] ^ values[b[2]] ^ values[b[3]] == 0,
               f"block {b} is not vanishing")
        expect(prev is None or b > prev, f"blocks out of order or repeated at {b}")
        prev = b
    count = len(lines) - 1
    expect(int(head.group(1)) == count, f"header says {head.group(1)}, listed {count}")
    return count


def span(basis):
    """The points of the linear span of basis."""
    pts = [0]
    for b in basis:
        pts += [p ^ b for p in pts]
    return pts


def cover_facts(obj, n, dim):
    """Check a cover JSON: 2^(n-dim) flats of dimension dim, pairwise disjoint,
    covering GF(2^n). Return (nonparallel, totally_skew), decided from the
    linear parts: distinct parts, and parts that share no nonzero vector."""
    q = 1 << n
    expect(obj["field"]["n"] == n and obj["dimension"] == dim, "wrong field or dimension")
    flats = obj["flats"]
    expect(len(flats) == q >> dim, f"{len(flats)} flats, expected {q >> dim}")
    seen = bytearray(q)
    parts = set()
    nonzero = set()
    skew = True
    for f in flats:
        linear = span(f["basis"])
        expect(len(f["basis"]) == dim and len(set(linear)) == 1 << dim,
               f"flat at base {f['base']} is not {dim}-dimensional")
        for v in linear:
            p = f["base"] ^ v
            expect(0 <= p < q, f"point {p} outside GF(2^{n})")
            expect(not seen[p], f"point {p} covered twice")
            seen[p] = 1
        parts.add(frozenset(linear))
        for v in linear[1:]:
            skew = skew and v not in nonzero
            nonzero.add(v)
    expect(all(seen), "cover misses points")
    return len(parts) == len(flats), skew
