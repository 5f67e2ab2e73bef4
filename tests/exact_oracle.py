"""The true maximal function at alpha = 0, in exact rationals.

At alpha = 0 the value of a rect R of L cells is |R|^(-m) * prod_i
integral_R f_i = prod_i S_i / L^m, S_i the sum of f_i over R's cells:
integral_R f_i = S_i * v and |R| = L * v for the cell volume v, so the
cell sides cancel. Every double is a rational, so ``fractions.Fraction``
forms each S_i from exact prefix sums and each value with no rounding, and
the supremum at a cell is the largest value of the basis rects that hold
it. The engine rounds where this does not: the prefix sums and their
differences, the volume and its libm power, and the products.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from strongmax.grid import Basis, GridFunction, enumerate_basis


def exact_prefix_sum(f: GridFunction) -> tuple[np.ndarray, int]:
    """(cum, d): cum[i] / d is the exact sum of f over the index box [0, i);
    cum is an object array of Python ints of shape (N_1+1, ..., N_n+1), and
    d, a power of two, the largest denominator of f's values."""
    values = [Fraction(x) for x in f.values.ravel().tolist()]
    d = max(q.denominator for q in values)
    cum = np.zeros(tuple(k + 1 for k in f.shape), dtype=object)
    cum[(slice(1, None),) * f.dims] = np.array([q.numerator * (d // q.denominator) for q in values],
                                               dtype=object).reshape(f.shape)
    for axis in range(f.dims):
        cum = np.cumsum(cum, axis=axis)
    return cum, d


def exact_maximal(fs: list[GridFunction], basis: Basis) -> np.ndarray:
    """The maximal function of the m-tuple fs at alpha = 0 over basis, as an
    object array of Fractions on fs[0]'s grid."""
    f0, m = fs[0], len(fs)
    sums = [exact_prefix_sum(f) for f in fs]
    values = []
    for r in enumerate_basis(basis, f0.shape, f0.cell_size):
        top = 1
        for cum, _ in sums:
            # inclusion-exclusion over the 2^n corners of the rect
            top *= sum((-1) ** (f0.dims - sum(corner)) * cum[tuple(hi + 1 if c else lo for c, lo, hi in zip(corner, r.lo, r.hi))]
                       for corner in itertools.product((0, 1), repeat=f0.dims))
        # prod_i S_i / L^m, but for the positive factor prod_i 1 / d_i
        values.append((Fraction(top, math.prod(hi - lo + 1 for lo, hi in zip(r.lo, r.hi)) ** m), r))
    # the largest values first: each cell takes the first rect that holds it.
    # Rounding to the nearest double is monotone, so ordering by the double
    # and then by the exact value is the exact order, and cheaper
    out = np.empty(f0.shape, dtype=object)
    free = np.ones(f0.shape, dtype=bool)
    for val, r in sorted(values, key=lambda item: (float(item[0]), item[0]), reverse=True):
        hit = free[r.slices()]
        if hit.any():
            out[r.slices()][hit] = val
            hit[...] = False
            if not free.any():
                break
    return out / math.prod(d for _, d in sums)


def ulps_off(got: np.ndarray, exact: np.ndarray) -> float:
    """The largest distance of a double in got from its exact value, in ulps
    of the double nearest that value."""
    worst = 0.0
    for g, x in zip(got.ravel().tolist(), exact.ravel().tolist()):
        worst = max(worst, float(abs(Fraction(g) - x) / Fraction(math.ulp(float(x)))))
    return worst
