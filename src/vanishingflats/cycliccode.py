"""Low-weight codeword counts of the cyclic codes attached to x^d.

The binary cyclic code of length 2^n - 1 with zeroes alpha and alpha^d has a
two-row parity-check matrix whose columns are (alpha^i, alpha^(d i)). Its
weight-3 codewords correspond to vanishing flats of x^d through 0, and its
weight-4 codewords to vanishing flats avoiding 0. Prepending the zero column
generalizes the weight-4 correspondence to arbitrary f; only the tests build
that row (generalized_spec in tests/helpers.py). The direct counts read the
parity check alone, through one count of the column pair sums in O(4^n)
time and memory: a weight-4 support splits three ways into two column pairs
of equal sum, and a weight-3 support three ways into a pair and the column
that is its sum, so N4 and N3 are thirds of those counts.
"""

from collections import Counter

from .gf2n import Record
from .boolfunc import FunctionTable
from . import vflats

# direct enumeration limit; beyond it use the flat-based path
MAX_N_DIRECT = 8


class ParityCheckSpec(Record):
    """Two-row parity check: labels are the coordinate field elements, images
    their values under x^d (cyclic, length 2^n - 1) or under any f (length
    2^n, the zero column first)."""

    __slots__ = ("field", "labels", "images")

    def __init__(self, field, labels, images):
        if len(labels) != len(images):
            raise ValueError("label and image rows must have equal length")
        expected = {field.order - 1, field.order}
        if len(labels) not in expected:
            raise ValueError(f"row length must be one of {sorted(expected)}")
        repeated = [lab for lab, c in Counter(labels).items() if c > 1]
        if repeated:
            raise ValueError(f"label {repeated[0]} occurs more than once")
        super().__init__(field, labels, images)

    @classmethod
    def cyclic(cls, gf, d):
        """Length 2^n - 1, coordinates alpha^0 .. alpha^(2^n - 2). labels is a
        copy: the field's exp list is shared and must not be modified."""
        labels = list(gf.exp_log()[0])
        f = FunctionTable.from_monomial(gf, d)
        return cls(gf, labels, [f[x] for x in labels])


def weight_counts_from_flats(f):
    """(N3, N4): the vanishing flats of f through 0 and avoiding 0, from one
    spectrum and without enumerating. The flats through 0 and a number
    delta_f(a, f(a) + f(0))/2 - 1, and a flat through 0 holds three of the
    pairs (0, a), so N3 = (through_zero/2 - (2^n - 1)) / 3."""
    spec = f.spectrum()
    through_pairs = spec.through_zero // 2 - (f.field.order - 1)
    if through_pairs % 3 != 0:
        raise ArithmeticError("flats through 0 not counted three times each")
    n3 = through_pairs // 3
    return n3, vflats.count_from_spectrum(spec.counts) - n3


def direct_low_weight_counts(spec):
    """{3: N3, 4: N4}, the weight-3/4 codeword counts, from the parity-check
    rows in O(4^n), by one count of the column pair sums.

    Two pairs of columns with equal sums are disjoint, as the labels are
    distinct, and make a weight-4 support; each support splits into three
    such pairs of pairs, so N4 is a third of the sum of C(c, 2) over the
    counts c of the pair sums. A weight-3 support is a pair summing to its
    third column in three ways, so N3 is a third of the pair-sum counts at
    the columns, once the m - 1 pairs {0, c} that a zero column makes with
    each other column c are taken off. The independent oracle of the flat
    counts."""
    n = spec.field.n
    if n > MAX_N_DIRECT:
        raise ValueError(f"direct enumeration capped at n <= {MAX_N_DIRECT}; "
                         "use the flat-based counts instead")
    cols = [lab << n | img for lab, img in zip(spec.labels, spec.images)]
    pair_sums = Counter(a ^ b for i, a in enumerate(cols) for b in cols[i + 1:])
    triples = sum(pair_sums[c] for c in cols) - (len(cols) - 1) * (0 in cols)
    if triples % 3 != 0:
        raise ArithmeticError("weight-3 supports not found three times each")
    splits = sum(c * (c - 1) // 2 for c in pair_sums.values())
    if splits % 3 != 0:
        raise ArithmeticError("weight-4 supports not split three ways each")
    return {3: triples // 3, 4: splits // 3}


def report(gf, d, method="flats"):
    """JSON-ready weight report for the cyclic code of x^d: the flat counts,
    and with method="both" the direct counts and whether they agree."""
    if method not in ("flats", "both"):
        raise ValueError(f"method must be 'flats' or 'both', got {method!r}")
    out = {"n": gf.n, "d": d, "method": method}
    out["N3"], out["N4"] = weight_counts_from_flats(FunctionTable.from_monomial(gf, d))
    if method == "both":
        direct = direct_low_weight_counts(ParityCheckSpec.cyclic(gf, d))
        out["direct_N3"], out["direct_N4"] = direct[3], direct[4]
        out["agree"] = (out["N3"], out["N4"]) == (direct[3], direct[4])
    return out
