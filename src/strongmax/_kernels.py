"""Hot loops for exact all-rectangles maximal evaluation.

Two interchangeable backends compute the same maxima:

* numba: @njit sweep kernels (default when numba imports cleanly);
* numpy: vectorized sweeps using suffix/prefix max-accumulates.

Set STRONGMAX_NO_NUMBA=1 to force the numpy path. Each kernel takes the
stacked cumulative cell sums P of the m input functions, with
P[i] = prefix-sum array of f_i (shape (N_1+1, ..., N_n+1)), and the volume
exponent e = alpha/n - m; the output cell value is
max over rects R containing the cell of |R|^e * prod_i integral_R f_i.

Both backends, and the per-rectangle reference scan in ``maximal``, agree
bit for bit for two reasons. First, they form |R|, the cell sums and the
product of the factors with the same floating-point expressions in the same
order. Second, the volume power |R|^e comes from one libm ``pow`` call per
side-count tuple (L_1, ..., L_n): ``vol_pow_table`` calls ``math.pow``, and
the reference scan's scalar ``vol**e`` calls the same C ``pow`` on the same
double. An array ``**`` would not do: numpy's SIMD ``power`` (and numba's
vectorised ``pow``) may differ from libm in the last bit.
"""

from __future__ import annotations

import math
import os

import numpy as np

_FORCE_NUMPY = os.environ.get("STRONGMAX_NO_NUMBA", "").strip() not in ("", "0", "false")

if not _FORCE_NUMPY:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - depends on environment
        _FORCE_NUMPY = True

USING_NUMBA = not _FORCE_NUMPY


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


# --- numpy backend ----------------------------------------------------------


def _interval_best_numpy(vals: np.ndarray) -> np.ndarray:
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
    and is masked by _interval_best_numpy.
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


def _sweep_1d_numpy(P: np.ndarray, h: tuple, e: float) -> np.ndarray:
    powtab = vol_pow_table((P.shape[1] - 1,), h, e)
    return _interval_best_numpy(_interval_vals(P, powtab, h[0]))


def _sweep_2d_numpy(P: np.ndarray, h: tuple, e: float) -> np.ndarray:
    m, n1p, n2p = P.shape
    n1, n2 = n1p - 1, n2p - 1
    cellvol = h[0] * h[1]
    powtab = vol_pow_table((n1, n2), h, e)
    out = np.zeros((n1, n2))
    for r0 in range(n1):
        for r1 in range(r0, n1):
            colcum = P[:, r1 + 1, :] - P[:, r0, :]
            best = _interval_best_numpy(_interval_vals(colcum, powtab[r1 - r0], cellvol))
            np.maximum(out[r0 : r1 + 1, :], best[None, :], out=out[r0 : r1 + 1, :])
    return out


def _sweep_3d_numpy(P: np.ndarray, h: tuple, e: float) -> np.ndarray:
    m, n1p, n2p, n3p = P.shape
    n1, n2, n3 = n1p - 1, n2p - 1, n3p - 1
    cellvol = h[0] * h[1] * h[2]
    powtab = vol_pow_table((n1, n2, n3), h, e)
    out = np.zeros((n1, n2, n3))
    for r0 in range(n1):
        for r1 in range(r0, n1):
            plane = P[:, r1 + 1, :, :] - P[:, r0, :, :]
            for s0 in range(n2):
                for s1 in range(s0, n2):
                    line = plane[:, s1 + 1, :] - plane[:, s0, :]
                    best = _interval_best_numpy(
                        _interval_vals(line, powtab[r1 - r0, s1 - s0], cellvol)
                    )
                    np.maximum(
                        out[r0 : r1 + 1, s0 : s1 + 1, :],
                        best[None, None, :],
                        out=out[r0 : r1 + 1, s0 : s1 + 1, :],
                    )
    return out


# --- numba backend ----------------------------------------------------------
# The loop kernels stay plain Python functions when numba is missing, so
# their logic can be checked against the reference scan without a compiler.

if USING_NUMBA:
    _jit = njit(cache=True)
else:

    def _jit(fn):
        return fn


@_jit
def _sweep_1d_numba(P, h0, powtab):
    # out[x] = max over a <= x of (max over b >= x of val(a, b)),
    # computed with a running suffix max per a: O(n^2) total
    m = P.shape[0]
    n = P.shape[1] - 1
    out = np.zeros(n)
    for a in range(n):
        run = 0.0
        for b in range(n - 1, a - 1, -1):
            val = powtab[b - a]
            for i in range(m):
                val *= (P[i, b + 1] - P[i, a]) * h0
            if val > run:
                run = val
            if run > out[b]:
                out[b] = run
    return out


@_jit
def _sweep_2d_numba(P, h0, h1, powtab):
    m = P.shape[0]
    n1 = P.shape[1] - 1
    n2 = P.shape[2] - 1
    cellvol = h0 * h1
    out = np.zeros((n1, n2))
    colcum = np.empty((m, n2 + 1))
    best = np.empty(n2)
    for r0 in range(n1):
        for r1 in range(r0, n1):
            for i in range(m):
                for c in range(n2 + 1):
                    colcum[i, c] = P[i, r1 + 1, c] - P[i, r0, c]
            for x in range(n2):
                best[x] = 0.0
            for a in range(n2):
                run = 0.0
                for b in range(n2 - 1, a - 1, -1):
                    val = powtab[r1 - r0, b - a]
                    for i in range(m):
                        val *= (colcum[i, b + 1] - colcum[i, a]) * cellvol
                    if val > run:
                        run = val
                    if run > best[b]:
                        best[b] = run
            for y in range(r0, r1 + 1):
                for x in range(n2):
                    if best[x] > out[y, x]:
                        out[y, x] = best[x]
    return out


@_jit
def _sweep_3d_numba(P, h0, h1, h2, powtab):
    m = P.shape[0]
    n1 = P.shape[1] - 1
    n2 = P.shape[2] - 1
    n3 = P.shape[3] - 1
    cellvol = h0 * h1 * h2
    out = np.zeros((n1, n2, n3))
    line = np.empty((m, n3 + 1))
    best = np.empty(n3)
    for r0 in range(n1):
        for r1 in range(r0, n1):
            for s0 in range(n2):
                for s1 in range(s0, n2):
                    for i in range(m):
                        for c in range(n3 + 1):
                            line[i, c] = (P[i, r1 + 1, s1 + 1, c] - P[i, r0, s1 + 1, c]) - (
                                P[i, r1 + 1, s0, c] - P[i, r0, s0, c]
                            )
                    for x in range(n3):
                        best[x] = 0.0
                    for a in range(n3):
                        run = 0.0
                        for b in range(n3 - 1, a - 1, -1):
                            val = powtab[r1 - r0, s1 - s0, b - a]
                            for i in range(m):
                                val *= (line[i, b + 1] - line[i, a]) * cellvol
                            if val > run:
                                run = val
                            if run > best[b]:
                                best[b] = run
                    for y in range(r0, r1 + 1):
                        for z in range(s0, s1 + 1):
                            for x in range(n3):
                                if best[x] > out[y, z, x]:
                                    out[y, z, x] = best[x]
    return out


def sweep_all_rects(P: np.ndarray, h: tuple[float, ...], e: float) -> np.ndarray:
    """Exact all-rectangles maximal over the stacked prefix sums P.

    P has shape (m, N_1+1, ..., N_n+1); returns an array of shape
    (N_1, ..., N_n).
    """
    n = P.ndim - 1
    if USING_NUMBA:
        powtab = vol_pow_table(tuple(k - 1 for k in P.shape[1:]), h, e)
        if n == 1:
            return _sweep_1d_numba(P, h[0], powtab)
        if n == 2:
            return _sweep_2d_numba(P, h[0], h[1], powtab)
        return _sweep_3d_numba(P, h[0], h[1], h[2], powtab)
    if n == 1:
        return _sweep_1d_numpy(P, h, e)
    if n == 2:
        return _sweep_2d_numpy(P, h, e)
    return _sweep_3d_numpy(P, h, e)
