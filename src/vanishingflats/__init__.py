"""Planarity invariants of functions over GF(2^n): differential spectra,
vanishing flats, partial quadruple systems, Dembowski-Ostrom rank counts, and
covers of the vector space by disjoint equidimensional affine subspaces."""

from .gf2n import GF, kloosterman, DEFAULT_MODULI
from .boolfunc import FunctionTable, PowerFunction, DifferentialSpectrum
from .vflats import (
    PartialQuadrupleSystem,
    MonomialFamily,
    enumerate_flats,
    count_via_spectrum,
    count_from_spectrum,
    flats_through_pair,
    bounds,
    closed_form,
    KNOWN_MONOMIAL_COUNTS,
)
from .dopoly import DOPolynomial, QuadraticFunction, random_do_polynomial
from .covers import (
    AffineSubspace,
    Cover,
    trivial_cover,
    overlapping_flats,
    verify_cover,
    cover_properties,
    parallel_decomposition,
    gold_cover,
    theorem8_cover,
)
from .cycliccode import (
    ParityCheckSpec,
    weight_counts_from_flats,
    direct_low_weight_counts,
)

__version__ = "0.1.0"
