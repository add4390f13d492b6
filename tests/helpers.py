"""Shared test utilities: random tables and random affine maps over GF(2^n)."""

import random

from vanishingflats import BinaryMatrix, FunctionTable


def random_table(gf, rng):
    return FunctionTable(gf, [rng.randrange(gf.order) for _ in gf.elements()])


def random_invertible_matrix(n, rng):
    """Random invertible n x n matrix over F_2."""
    while True:
        m = BinaryMatrix(n, [rng.randrange(1, 1 << n) for _ in range(n)])
        if m.rank() == n:
            return m


def random_affine_permutation(gf, rng):
    """(forward, inverse) point maps of a random affine permutation."""
    m = random_invertible_matrix(gf.n, rng)
    c = rng.randrange(gf.order)
    fwd = [m.apply(x) ^ c for x in gf.elements()]
    inv = [0] * gf.order
    for x, y in enumerate(fwd):
        inv[y] = x
    return fwd, inv


def random_affine_map(gf, rng):
    """A random (not necessarily invertible) F_2-affine point map."""
    m = BinaryMatrix(gf.n, [rng.randrange(gf.order) for _ in range(gf.n)])
    c = rng.randrange(gf.order)
    return [m.apply(x) ^ c for x in gf.elements()]
