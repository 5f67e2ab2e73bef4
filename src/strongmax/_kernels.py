"""The one walk over a basis by cell-count tuple, the exact maximal-function
engine on it, and the libm volume powers it reads.

``fold_sizes`` walks the (counts, step) pairs of a basis
(``grid.basis_sizes``): it narrows a stack of arrays over the grid to the
rects of each size, one axis at a time, asks a leaf for one value per rect,
and folds the values into each cell's maximum. The walk carries a batch
axis: B members on one grid (B functions, or B m-tuples of them) share
every per-size step, so the Python work of a walk, which dominates it, is
paid once for the batch. The stack axis comes first and the batch axis
second, P is (m, B, N_1+1, ...) and the output (B, N_1, ...), so the leaf
still reads ``prod[i]`` and multiplies in place; only the grid axes move
one place to the right. A single call is the batch of one: there is one
fold and one leaf. Each axis is folded in one
pass from its largest count down. On an axis whose rects start at every
cell (step 1), a rect of count c' >= c anchored at l covers the cells
l .. l + c - 1 of the count-c rect anchored there, so a running maximum
over the larger counts joins each count's values, and each count then folds
by ``fold_max`` only the window of anchors that the next smaller count does
not reach (one anchor wide on the all basis). On a dyadic axis the step
equals the count, so the rects of each count tile the axis and each value
is repeated over its own cells. Every maximum over a basis runs on this walk:
``sweep`` narrows the stacked prefix sums P of the m input functions by
shifted differences, and its leaf is |R|^e * prod_i integral_R f_i with
e = alpha/n - m; the Orlicz maximal operator computes the value of every
rect first (its Luxemburg norms come from ``orlicz.size_norms``), so its
narrowing returns its source and its leaf looks the values up.

On a normal cell volume the engine and the per-rectangle reference scan in
``maximal`` agree bit for bit, for three reasons. They form |R|, the cell
sums and the product of the factors with the same floating-point
expressions in the same order: the engine differences the prefix sums axis
by axis, leading axis first, the order of ``grid.rect_cell_sum``. The volume power
|R|^e comes from one libm ``pow`` call per side-count tuple (L_1, ..., L_n):
``vol_pow_table`` goes through ``libm_pow``, whose ``np.float_power``
calls the C ``pow`` on each element, and the reference scan's scalar
``vol**e`` calls the same C ``pow`` on the same double (numpy's SIMD
``power`` may differ from libm in the last bit). And a maximum rounds
nothing, so any grouping of the maxima gives the same value. Only the sign
of a zero maximum depends on the grouping: a zero cell sum times one that
rounding left negative is -0.0, and numpy's ``maximum`` keeps its second
operand on a tie, so -0.0 can win. The walk returns +0.0 there; the
reference scan keeps the sign its rect order gives, so the two agree up to
the sign of zero.

Batching moves no bit either. The leaf forms each member's value from that
member's own cell sums with the same expressions in the same order, whatever
else the batch holds, and a maximum rounds nothing; so each member of a
batch gets the bits of its own call. The redo walk below is decided per
member as well.

The tiny-cell rule: where |R|^e or a direct value leaves the double range,
or the cell volume is subnormal, ``sweep`` forms the value from the cell
count and the cell sums instead, a finite value where the reference scan
raises. One finiteness check of the output per member, not one per rect,
finds those inputs (see ``sweep``), so an ordinary input takes one walk
whose leaf is a few in-place multiplies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import ALL_RECTS, Basis, basis_sizes

# the engine is numpy only; perfbench's run fingerprint reads this constant
USING_NUMBA = False
# the most members one sweep or Orlicz walk folds at once, as
# orlicz.CELL_BLOCK caps the Luxemburg chunks; 8 was the fastest of 2-50 for
# the sweep on 64^2
BATCH = 8


def volume_table(shape: tuple[int, ...], h: tuple[float, ...]) -> np.ndarray:
    """V[L_1-1, ..., L_n-1] = |R| for a rect of L_k cells along axis k: the
    left-associated product ((L_1*h_1)*(L_2*h_2))*(L_3*h_3), as Rect.volume
    forms it."""
    vol = np.arange(1, shape[0] + 1) * h[0]
    for nk, hk in zip(shape[1:], h[1:]):
        vol = vol[..., None] * (np.arange(1, nk + 1) * hk)
    return vol


def vol_pow_table(shape: tuple[int, ...], h: tuple[float, ...], e: float) -> np.ndarray:
    """T[L_1-1, ..., L_n-1] = |R|**e, one libm ``pow`` per entry of
    ``volume_table`` (+inf where it overflows)."""
    return libm_pow(volume_table(shape, h), e)


def libm_pow(x, e: float):
    """x**e elementwise, one C library ``pow`` call per element.

    numpy's float64 ``float_power`` loop calls the C ``pow``, as ``math.pow``
    and the scalar ``float ** float`` do, so each element is bit-equal to
    theirs wherever they return a float; past the double range, and for +0.0
    to a negative power, it is +inf. numpy's ``power`` may differ in the
    last bit: it dispatches to a SIMD ``pow``.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.float_power(x, e)


def fold_max(out: np.ndarray, vals: np.ndarray, axis: int, w: int) -> None:
    """out[x] = max(out[x], vals[a] over a = x - w + 1 .. x) along ``axis``.

    vals has out.shape[axis] - w + 1 entries along the axis, one per lowest
    cell, and an a outside them adds nothing; the box maximum of width w is
    taken by doubling windows.
    """
    if w > 1:
        n, pre = out.shape[axis], (slice(None),) * axis
        # lowest cell l sits at l + w - 1, with -inf where no rect starts
        win = np.full(vals.shape[:axis] + (n + w - 1,) + vals.shape[axis + 1 :], -np.inf)
        win[pre + (slice(w - 1, n),)] = vals
        k = 1
        while 2 * k <= w:
            # now win[i] = max over i .. i + 2k - 1 along axis
            win = np.maximum(win[pre + (slice(None, -k),)], win[pre + (slice(k, None),)])
            k *= 2
        vals = np.maximum(win[pre + (slice(None, n),)], win[pre + (slice(w - k, w - k + n),)])
    np.maximum(out, vals, out=out)


def fold_sizes(shape: tuple[int, ...], sizes, src: np.ndarray, narrow, leaf) -> np.ndarray:
    """out[b, x] = max of +0.0 and the leaf values of batch member b at the
    rects of the (counts, step) pairs in sizes that hold cell x; returns shape
    ``shape`` = (B, N_1, ..., N_n), B members on one grid of shape (N_1, ...,
    N_n).

    src is a stack of arrays over the grid (the grid axes follow a leading
    stack axis and the batch axis). narrow(src, axis, c, s) keeps the rects
    of count c and step s along grid axis ``axis``, its earlier axes already
    narrowed; leaf(counts, src) turns a src narrowed on every axis into one
    value per member and anchor, shaped (B, anchors...).

    Sizes sharing a count prefix (one run in the lexicographic order of
    ``grid.basis_sizes``) share that prefix's narrowing and folds. On each
    axis the steps are all 1, or each equals its count and the count divides
    the axis (the dyadic basis). Each axis is walked from its largest count
    down, with a running maximum where the steps are 1 and a tiling where
    they equal the counts (see the module docstring).
    """
    grid = shape[1:]
    n = len(grid)

    def fold_axis(out: np.ndarray, src: np.ndarray, sizes, prefix: tuple[int, ...]) -> None:
        # sizes all start with prefix; on the grid axes before axis =
        # len(prefix) src and out hold anchors, from axis on out holds cells;
        # the batch axis comes first, so grid axis k is array axis k + 1
        axis = len(prefix)
        lead = (slice(None),) * (axis + 1)
        groups = [(c, s, list(g)) for (c, s), g in
                  itertools.groupby(sizes, key=lambda cs: (cs[0][axis], cs[1][axis]))]
        run = None  # on a step-1 axis: max over the larger counts, per anchor
        for j in reversed(range(len(groups))):
            c, s, group = groups[j]
            sub = narrow(src, axis, c, s)
            if axis < n - 1:
                vals = np.full(out.shape[: axis + 1] + ((grid[axis] - c) // s + 1,) + grid[axis + 1 :], -np.inf)
                fold_axis(vals, sub, group, prefix + (c,))
            else:
                vals = leaf(prefix + (c,), sub)
            if s > 1:
                # step s = count c: the rects of count c tile the axis
                np.maximum(out, np.repeat(vals, s, axis=axis + 1), out=out)
                continue
            # a rect of a larger count anchored at l covers the cells
            # l .. l + c - 1 too, so its value joins vals[l]; then cell x
            # needs only the anchors x - c + 1 .. x - c_prev, the smaller
            # counts reaching the rest
            if run is not None:
                head = lead + (slice(0, run.shape[axis + 1]),)
                np.maximum(vals[head], run, out=vals[head])
            run = vals
            c_prev = groups[j - 1][0] if j else 0
            fold_max(out[lead + (slice(c_prev, None),)], vals, axis + 1, c - c_prev)

    out = np.zeros(shape)
    fold_axis(out, src, sizes, ())
    return out + 0.0  # -0.0 -> +0.0


def sweep(P: np.ndarray, h: tuple[float, ...], e: float, sizes) -> np.ndarray:
    """Maximal values over prefix sums P (m, B, N_1+1, ..., N_n+1) of B
    members, each a stack of m functions on one grid, for the rects of the
    (counts, step) pairs in sizes; returns shape (B, N_1, ..., N_n).

    The members are walked BATCH at a time, one ``fold_sizes`` walk per
    batch; a single call is the batch of one. Each member's values are
    those of its own call bit for bit: the leaf forms every member's product
    with the same expressions in the same order, and a maximum rounds
    nothing.

    Below a normal cell volume (and only there can |R| >= cellvol be
    subnormal), and wherever a direct value |R|^e * prod_i (S_i * cellvol)
    is not finite, the value is L^e * prod_k h_k^(alpha/n) * prod_i S_i,
    with L = prod counts and S_i the cell sums; alpha/n = e + m >= 0, so
    that form stays finite.

    One finiteness check per member decides where that redo form is needed.
    On a normal cell volume one walk takes the direct values alone. Each
    leaf value reaches the output through ``np.maximum``, which propagates
    NaN and +inf, and the output starts at +0.0. The redo form replaces only
    non-finite values, so a +inf or NaN among them shows in the output; a
    -inf loses to +0.0, and so does its redo value, which has the sign of
    prod_i S_i. So a finite output of the direct walk is the output with
    every redo applied, and only the members whose output is not finite
    walk again with the per-rect redo, together. A subnormal cell volume,
    which the whole batch shares, sends every member to the redo walk alone.
    """
    m = P.shape[0]
    shape = tuple(k - 1 for k in P.shape[2:])
    powtab = vol_pow_table(shape, h, e)
    cellvol = math.prod(h)
    tiny = cellvol < np.finfo(float).smallest_normal

    def narrow(sums: np.ndarray, axis: int, c: int, s: int) -> np.ndarray:
        pre = (slice(None),) * (axis + 2)
        return sums[pre + (slice(c, None, s),)] - sums[pre + (slice(0, shape[axis] - c + 1, s),)]

    def leaf(counts: tuple[int, ...], diff: np.ndarray, redo: bool = False) -> np.ndarray:
        # diff is the fresh array that narrow's subtraction returned, never a
        # view of P, so the direct pass may scale it in place; the redo pass
        # reads the unscaled cell sums
        prod = np.multiply(diff, cellvol, out=None if redo else diff)
        vals = prod[0]
        vals *= powtab[tuple(k - 1 for k in counts)]
        for i in range(1, m):
            vals *= prod[i]
        if redo:
            bad = ~np.isfinite(vals) | tiny
            if bad.any():
                fix = libm_pow(float(math.prod(counts)), e)
                for x in [libm_pow(hk, e + m) for hk in h] + [diff[i][bad] for i in range(m)]:
                    fix = fix * x
                vals[bad] = fix
        return vals

    def redo_leaf(counts: tuple[int, ...], diff: np.ndarray) -> np.ndarray:
        return leaf(counts, diff, redo=True)

    def walk(part: np.ndarray) -> np.ndarray:
        if tiny:
            return fold_sizes(part.shape[1:2] + shape, sizes, part, narrow, redo_leaf)
        out = fold_sizes(part.shape[1:2] + shape, sizes, part, narrow, leaf)
        bad = ~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
        if bad.any():
            sub = part[:, bad]
            out[bad] = fold_sizes(sub.shape[1:2] + shape, sizes, sub, narrow, redo_leaf)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([walk(P[:, b : b + BATCH]) for b in range(0, P.shape[1], BATCH)])


def sweep_all_rects(P: np.ndarray, h: tuple[float, ...], e: float) -> np.ndarray:
    """``sweep`` over every cell-count tuple, P and the result laid out as
    there. Nothing in the package calls it: it is kept only as the name that
    perfbench's layer tracer wraps, and it goes once that tracer wraps
    ``sweep`` (the perfbench refresh of ROADMAP item 3)."""
    return sweep(P, h, e, basis_sizes(Basis(ALL_RECTS), [k - 1 for k in P.shape[2:]], h))
