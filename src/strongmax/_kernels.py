"""The exact maximal-function engine and the libm volume powers it reads.

``sweep`` takes the stacked cumulative cell sums P of the m input functions,
with P[i] = prefix-sum array of f_i (shape (N_1+1, ..., N_n+1)), the volume
exponent e = alpha/n - m, and the cell-count tuples of a basis
(``grid.basis_sizes``); the output cell value is max over the basis rects R
containing the cell of |R|^e * prod_i integral_R f_i. It takes one size at
a time: the cell sums of all its rects are shifted prefix-sum differences,
times the size's one volume power, folded into the output by ``fold_max``.

On a normal cell volume the engine and the per-rectangle reference scan in
``maximal`` agree bit for bit, for three reasons. They form |R|, the cell
sums and the product of the factors with the same floating-point
expressions in the same order: the engine differences the prefix sums axis
by axis, leading axis first, the order of ``grid.rect_cell_sum``. The volume power
|R|^e comes from one libm ``pow`` call per side-count tuple (L_1, ..., L_n):
``vol_pow_table`` calls ``math.pow``, and the reference scan's scalar
``vol**e`` calls the same C ``pow`` on the same double (numpy's SIMD
``power`` may differ from libm in the last bit). And a maximum rounds
nothing, so any grouping of the maxima gives the same bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import ALL_RECTS, Basis, basis_sizes

# the engine is numpy only; perfbench's run fingerprint reads this constant
USING_NUMBA = False


def volume_table(shape: tuple[int, ...], h: tuple[float, ...]) -> np.ndarray:
    """V[L_1-1, ..., L_n-1] = |R| for a rect of L_k cells along axis k: the
    left-associated product ((L_1*h_1)*(L_2*h_2))*(L_3*h_3), as Rect.volume
    forms it."""
    vol = np.arange(1, shape[0] + 1) * h[0]
    for nk, hk in zip(shape[1:], h[1:]):
        vol = vol[..., None] * (np.arange(1, nk + 1) * hk)
    return vol


def vol_pow_table(shape: tuple[int, ...], h: tuple[float, ...], e: float) -> np.ndarray:
    """T[L_1-1, ..., L_n-1] = |R|**e, one ``math.pow`` call per entry of
    ``volume_table`` (+inf where it overflows)."""
    return libm_pow(volume_table(shape, h), e)


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


def fold_max(out: np.ndarray, vals: np.ndarray, counts: tuple[int, ...], step: tuple[int, ...]) -> None:
    """out[x] = max(out[x], vals[a] over anchors a whose rect holds cell x).

    vals[a] belongs to the rect of the given cell counts whose lowest cell
    is step * a; a flat vals holds the anchors in C order. The rects holding
    x have lowest cells in the box x - counts + 1 .. x, so the fold is a box
    maximum over lowest cells, one axis at a time, by doubling windows.
    """
    vals = np.reshape(vals, [(n - c) // s + 1 for n, c, s in zip(out.shape, counts, step)])
    for axis, (c, s) in enumerate(zip(counts, step)):
        if c == 1:
            continue  # then s == 1 too: one rect per lowest cell, no window
        n, pre = out.shape[axis], (slice(None),) * axis
        # lowest cell l sits at l + c - 1, with -inf where no rect starts
        win = np.full(vals.shape[:axis] + (n + c - 1,) + vals.shape[axis + 1 :], -np.inf)
        win[pre + (slice(c - 1, n, s),)] = vals
        w = 1
        while 2 * w <= c:
            # now win[i] = max over i .. i + 2w - 1 along axis
            win = np.maximum(win[pre + (slice(None, -w),)], win[pre + (slice(w, None),)])
            w *= 2
        vals = np.maximum(win[pre + (slice(None, n),)], win[pre + (slice(c - w, c - w + n),)])
    np.maximum(out, vals, out=out)


def sweep(P: np.ndarray, h: tuple[float, ...], e: float, sizes) -> np.ndarray:
    """Maximal values over prefix sums P (m, N_1+1, ..., N_n+1) for the rects
    of the (counts, step) pairs in sizes; returns shape (N_1, ..., N_n).

    Sizes sharing a count prefix (one run in the lexicographic order of
    ``grid.basis_sizes``) share that prefix's differencing and folds; a flat
    loop over the sizes would fold every axis for every size.

    Below a normal cell volume (and only there can |R| >= cellvol be
    subnormal), and wherever a direct value is not finite, the value is
    L^e * prod_k h_k^(alpha/n) * prod_i S_i, with L = prod counts and S_i the
    cell sums; alpha/n = e + m >= 0, so that form stays finite.
    """
    m, n = P.shape[0], P.ndim - 1
    shape = tuple(k - 1 for k in P.shape[1:])
    powtab = vol_pow_table(shape, h, e)
    cellvol = math.prod(h)
    ones = (1,) * n

    def fold_axis(out: np.ndarray, sums: np.ndarray, sizes, prefix: tuple[int, ...]) -> None:
        # sizes all start with prefix; on the axes before axis = len(prefix)
        # sums and out hold anchors, from axis on out cells and sums prefix sums
        axis = len(prefix)
        pre = (slice(None),) * (axis + 1)
        for (c, s), group in itertools.groupby(sizes, key=lambda cs: (cs[0][axis], cs[1][axis])):
            diff = sums[pre + (slice(c, None, s),)] - sums[pre + (slice(0, shape[axis] - c + 1, s),)]
            if axis < n - 1:
                vals = np.full(diff.shape[1 : axis + 2] + shape[axis + 1 :], -np.inf)
                fold_axis(vals, diff, group, prefix + (c,))
            else:
                counts = prefix + (c,)
                vals = powtab[tuple(k - 1 for k in counts)]
                with np.errstate(over="ignore", invalid="ignore"):
                    for i in range(m):
                        vals = vals * (diff[i] * cellvol)
                redo = ~np.isfinite(vals) | (cellvol < np.finfo(float).smallest_normal)
                if redo.any():
                    fix = _c_pow(float(math.prod(counts)), e)
                    for x in [_c_pow(hk, e + m) for hk in h] + [diff[i][redo] for i in range(m)]:
                        fix = fix * x
                    vals[redo] = fix
            fold_max(out, vals, ones[:axis] + (c,) + ones[axis + 1 :], ones[:axis] + (s,) + ones[axis + 1 :])

    out = np.zeros(shape)
    fold_axis(out, P, sizes, ())
    return out


def sweep_all_rects(P: np.ndarray, h: tuple[float, ...], e: float) -> np.ndarray:
    """``sweep`` over every cell-count tuple; no caller in the package, kept
    as the name perfbench's layer tracer times."""
    return sweep(P, h, e, basis_sizes(Basis(ALL_RECTS), [k - 1 for k in P.shape[1:]], h))
