"""The exact all-rectangles sweep and the libm volume powers it reads.

``sweep_all_rects`` takes the stacked cumulative cell sums P of the m input
functions, with P[i] = prefix-sum array of f_i (shape (N_1+1, ..., N_n+1)),
and the volume exponent e = alpha/n - m; the output cell value is
max over rects R containing the cell of |R|^e * prod_i integral_R f_i.
One numpy sweep serves every dimension: it recurses over the leading axis's
intervals and solves the last axis with a vectorised interval maximum.

The sweep and the per-rectangle reference scan in ``maximal`` agree bit for
bit for two reasons. First, they form |R|, the cell sums and the product of
the factors with the same floating-point expressions in the same order: the
sweep differences the prefix sums axis by axis, leading axis first, which is
the inclusion-exclusion order of ``grid.rect_cell_sum``. Second, the volume
power |R|^e comes from one libm ``pow`` call per side-count tuple
(L_1, ..., L_n): ``vol_pow_table`` calls ``math.pow``, and the reference
scan's scalar ``vol**e`` calls the same C ``pow`` on the same double. An
array ``**`` would not do: numpy's SIMD ``power`` may differ from libm in the
last bit.
"""

from __future__ import annotations

import math

import numpy as np

# the sweep is numpy only; perfbench's run fingerprint reads this constant
USING_NUMBA = False


def vol_pow_table(shape: tuple[int, ...], h: tuple[float, ...], e: float) -> np.ndarray:
    """T[L_1-1, ..., L_n-1] = |R|**e for a rect of L_k cells along axis k.

    |R| is the left-associated product ((L_1*h_1)*(L_2*h_2))*(L_3*h_3) of
    per-axis spans, as in ``maximal._rect_value``; each power is one
    ``math.pow`` call (+inf where it overflows). T has the grid's shape, one entry per side-count tuple.
    """
    vol = np.arange(1, shape[0] + 1) * h[0]
    for nk, hk in zip(shape[1:], h[1:]):
        vol = vol[..., None] * (np.arange(1, nk + 1) * hk)
    return libm_pow(vol, e)


def libm_pow(x: np.ndarray, e: float) -> np.ndarray:
    """x**e elementwise, one libm ``pow`` call per element.

    Bit-equal to the scalar ``float ** float`` on every element where that
    returns a float; numpy's own ``power`` may differ in the last bit.
    """
    return np.array([_c_pow(v, e) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _c_pow(v: float, e: float) -> float:
    try:
        return math.pow(v, e)
    except OverflowError:
        # past the double range: C pow returns +inf (bases here are >= 0)
        return math.inf
    except ValueError:
        # C pow returns +inf for 0 to a negative power and NaN for a
        # negative base to a non-integer power; math.pow raises for both
        return math.inf if v == 0 else math.nan


def _interval_best(vals: np.ndarray) -> np.ndarray:
    """best[x] = max over a <= x <= b of vals[a, b] (upper triangle valid)."""
    n = vals.shape[0]
    v = np.where(np.triu(np.ones((n, n), dtype=bool)), vals, -np.inf)
    # suffix max over b, then prefix max over a; diagonal picks x = both
    w = np.maximum.accumulate(v[:, ::-1], axis=1)[:, ::-1]
    u = np.maximum.accumulate(w, axis=0)
    return u.diagonal().copy()


def _interval_vals(pc: np.ndarray, powrow: np.ndarray, cellvol: float) -> np.ndarray:
    """vals[a, b] for all column intervals given cumulative cell sums pc[m, N+1].

    powrow[L-1] is the volume power of the interval's rect with L columns.
    The lower triangle (a > b) is not an interval; it reads powrow[a - b]
    and is masked by _interval_best.
    """
    n = pc.shape[1] - 1
    a = np.arange(n)
    b = np.arange(n)
    vals = powrow[np.abs(b[None, :] - a[:, None])]
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(pc.shape[0]):
            s = pc[i, b + 1][None, :] - pc[i, a][:, None]
            vals = vals * (s * cellvol)
    return vals


def _sweep(P: np.ndarray, powtab: np.ndarray, cellvol: float) -> np.ndarray:
    """Maximal values over prefix sums P (m, N_1+1, ..., N_n+1); powtab (N_1, ..., N_n)."""
    if P.ndim == 2:
        return _interval_best(_interval_vals(P, powtab, cellvol))
    n0 = P.shape[1] - 1
    out = np.zeros(powtab.shape)
    for r0 in range(n0):
        for r1 in range(r0, n0):
            # cell sums over rows r0..r1 of the leading axis, one dimension down
            best = _sweep(P[:, r1 + 1] - P[:, r0], powtab[r1 - r0], cellvol)
            np.maximum(out[r0 : r1 + 1], best, out=out[r0 : r1 + 1])
    return out


def sweep_all_rects(P: np.ndarray, h: tuple[float, ...], e: float) -> np.ndarray:
    """Exact all-rectangles maximal over the stacked prefix sums P.

    P has shape (m, N_1+1, ..., N_n+1); returns an array of shape
    (N_1, ..., N_n).
    """
    cellvol = h[0]
    for hk in h[1:]:
        cellvol = cellvol * hk  # left-associated, as in maximal._rect_value
    return _sweep(P, vol_pow_table(tuple(k - 1 for k in P.shape[1:]), h, e), cellvol)
