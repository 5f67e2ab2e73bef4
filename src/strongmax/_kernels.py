"""The one walk over a basis by cell-count tuple, the exact maximal-function
engine on it, and the libm volume powers it reads.

``fold_sizes`` walks the (counts, step) pairs of a basis
(``grid.basis_sizes``) as rows: a row is one rect of the leading axes
(every axis but the last), and a leading count tuple has one row per
anchor. The walk takes a chunk of rows at a time: consecutive leading
tuples that offer the same last-axis (count, step) pairs, up to
CHUNK_CELLS cells, so that the working set stays in cache. It narrows a
stack of arrays over the grid to the chunk's rows once, walks the last axis
by count over all of them at once, asking a leaf for one value per rect of
each last-axis count, and folds the values into each cell's maximum. On the
all and dyadic bases a chunk holds many leading tuples, so a 64^2 sweep
takes a few hundred numpy steps where a walk per count tuple took 4,096;
on the cubes basis each leading tuple offers its own last counts, so a
chunk is one tuple. A 1-D grid has no leading axis: its one row is the
whole axis.

The walk carries a batch axis: B members on one grid (B functions, or B
m-tuples of them) share every step, so the Python work of a walk is paid
once for the batch. The stack axis comes first and the batch axis second, P
is (m, B, N_1+1, ...) and the output (B, N_1, ...), so the leaf still reads
``prod[i]`` and multiplies in place. Inside the walk the last grid axis
comes right after the batch axis and the rows last, so the rows are the
contiguous axis of the leaf's arithmetic: (m, B, N_n+1, R) for the
narrowed sums, (B, anchors, R) for a leaf's values. A single call is the
batch of one.

Each axis is folded by ``fold_counts`` from its largest count down: the
last axis over all rows of a chunk, then the chunk's values back over the
leading axes one axis at a time, the last leading axis first, each over the
tuples that share the axes before it. On an axis whose rects start at every
cell (step 1), a rect of count c' >= c anchored at l covers the cells
l .. l + c - 1 of the count-c rect anchored there, so a running maximum
over the larger counts joins each count's values, and each count then folds
by ``fold_max`` only the window of anchors that the next smaller count does
not reach (one anchor wide on the all basis). On a dyadic axis the step
equals the count, so the rects of each count tile the axis and each value
is repeated over its own cells. Every maximum over a basis runs on this walk:
``sweep`` narrows the stacked prefix sums P of the m input functions by
differences at the corners of each row's rect and then by shifted
differences along the last axis, and its leaf is |R|^e * prod_i
integral_R f_i with e = alpha/n - m; the Orlicz maximal operator computes
the value of every rect first (its Luxemburg norms come from
``orlicz.size_norms``), so its narrowing returns nothing and its leaf lays
the values of the chunk's tuples out as rows.

On a normal cell volume the engine and the per-rectangle reference scan in
``maximal`` agree bit for bit, for three reasons. They form |R|, the cell
sums and the product of the factors with the same floating-point
expressions in the same order: the engine differences the prefix sums axis
by axis, leading axis first, the order of ``grid.rect_cell_sum``. The
volume power |R|^e comes from one libm ``pow`` call per side-count tuple
(L_1, ..., L_n), whichever rows share a chunk:
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
# the most cells, counting the stack and the batch, that the rows of one
# chunk of a walk gather, unless one leading count tuple holds more (see
# fold_sizes); 1 << 14 to 1 << 17 ran alike on 64^2 and 12^3
CHUNK_CELLS = 1 << 15


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


def fold_counts(out: np.ndarray, axis: int, pairs, value) -> None:
    """out = max(out, the values of each (count, step) pair in pairs over the
    cells its rects cover) along array axis ``axis``; pairs ascend by count,
    and value(j) gives the values of pairs[j], one per anchor along the
    axis, which the fold may change in place. Walked from the largest count
    down: a running maximum where the steps are 1, a tiling where they equal
    the counts (see the module docstring)."""
    lead = (slice(None),) * axis
    run = None  # on a step-1 axis: max over the larger counts, per anchor
    for j in reversed(range(len(pairs))):
        (c, s), vals = pairs[j], value(j)
        if s > 1:
            # step s = count c: the rects of count c tile the axis
            np.maximum(out, np.repeat(vals, s, axis=axis), out=out)
            continue
        # a rect of a larger count anchored at l covers the cells
        # l .. l + c - 1 too, so its value joins vals[l]; then cell x needs
        # only the anchors x - c + 1 .. x - c_prev, the smaller counts
        # reaching the rest
        if run is not None:
            head = lead + (slice(0, run.shape[axis]),)
            np.maximum(vals[head], run, out=vals[head])
        run = vals
        c_prev = pairs[j - 1][0] if j else 0
        fold_max(out[lead + (slice(c_prev, None),)], vals, axis, c - c_prev)


def fold_sizes(shape: tuple[int, ...], sizes, src: np.ndarray, narrow, leaf) -> np.ndarray:
    """out[b, x] = max of +0.0 and the leaf values of batch member b at the
    rects of the (counts, step) pairs in sizes that hold cell x; returns shape
    ``shape`` = (B, N_1, ..., N_n), B members on one grid of shape (N_1, ...,
    N_n).

    src is a stack (m, B, ...) of arrays over the grid. A row is one rect of
    the leading axes (every axis but the last), and the walk takes the rows
    a chunk at a time. A chunk is a run of consecutive leading count tuples
    that offer the same last-axis (count, step) pairs, as long as its rows
    hold at most CHUNK_CELLS cells of m * B * (N_n + 1) each, and at least
    one tuple. Its rows are count-major: each tuple's rects, their anchors
    in C order. narrow(src, lows, counts) narrows src to the chunk's rows,
    given the lowest cells and the counts of their rects as (R, n - 1) int
    arrays. Then leaf(leads, c, s, narrowed) gives one value per member,
    last-axis anchor and row for the rects of count c and step s on the last
    axis, shaped (B, anchors, R); leads are the chunk's leading count
    tuples. The last axis is folded by count over all rows of the chunk at
    once; then the leading axes one at a time, the last first, each by count
    over the chunk's tuples that share the axes before it.
    """
    grid, n = shape[1:], len(shape) - 1
    lasts: dict = {}  # (leading counts, leading steps) -> last-axis pairs
    for counts, step in sizes:
        lasts.setdefault((counts[:-1], step[:-1]), []).append((counts[-1], step[-1]))
    keys = list(lasts)
    lc, ls = (np.array([key[i] for key in keys], dtype=np.intp).reshape(len(keys), n - 1) for i in (0, 1))
    anchors = (np.array(grid[:-1], dtype=np.intp) - lc) // ls + 1
    first = np.concatenate([[0], np.cumsum(anchors.prod(axis=1))])  # each tuple's first row
    # every row's tuple, and its anchor along each leading axis, last
    # fastest: a tuple's row r is anchor r % span // (span // anchors) on
    # an axis, span the product of the anchors on that axis and the later
    tup = np.repeat(np.arange(len(keys)), np.diff(first))
    span = np.cumprod(anchors[:, ::-1], axis=1)[tup, ::-1]
    lows = (np.arange(len(tup)) - first[tup])[:, None] % span // (span // anchors[tup]) * ls[tup]

    # inside the walk the last grid axis comes right after the batch axis,
    # so the rows, many where the anchors of a large count are few, are the
    # contiguous axis of the leaf's arithmetic
    out = np.zeros(shape[:1] + grid[-1:] + grid[:-1])
    width = src.shape[0] * shape[0] * (grid[-1] + 1)
    j0 = 0
    while j0 < len(keys):
        j1, pairs = j0 + 1, lasts[keys[j0]]  # the chunk: tuples j0 .. j1 - 1
        while j1 < len(keys) and lasts[keys[j1]] == pairs and (first[j1 + 1] - first[j0]) * width <= CHUNK_CELLS:
            j1 += 1
        a, b = first[j0], first[j1]
        narrowed = narrow(src, lows[a:b], lc[tup[a:b]])
        leads = [key[0] for key in keys[j0:j1]]
        vals = np.full((shape[0], grid[-1], b - a), -np.inf) if n > 1 else out[..., None]
        fold_counts(vals, 1, pairs, lambda i: leaf(leads, *pairs[i], narrowed))
        items = [(keys[j], vals[..., first[j] - a : first[j + 1] - a].reshape(out.shape[:2] + tuple(anchors[j])))
                 for j in range(j0, j1)]
        for k in reversed(range(n - 1)):
            groups: dict = {}  # (counts, steps) before axis k -> (count, step, values) on it
            for (c, s), v in items:
                groups.setdefault((c[:k], s[:k]), []).append((c[k], s[k], v))
            items = []
            for prefix, group in groups.items():
                folded = np.full(group[0][2].shape[: k + 2] + grid[k:-1], -np.inf) if k else out
                fold_counts(folded, k + 2, [g[:2] for g in group], lambda i: group[i][2])
                items.append((prefix, folded))
        j0 = j1
    return np.add(np.moveaxis(out, 1, -1), 0.0, order="C")  # -0.0 -> +0.0


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
    that form stays finite. L is an exact integer product per row, the
    leading counts times the last, so its ``libm_pow`` gets the double that
    the scalar call gets.

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
    powtab = vol_pow_table(tuple(k + 1 for k in shape), h, e)  # up to N_k + 1 cells, as P
    cellvol = math.prod(h)
    tiny = cellvol < np.finfo(float).smallest_normal

    # flat offsets of the leading axes in P and in powtab, which has P's
    # shape; the last axis first, for the walk
    strides = np.array([math.prod(k + 1 for k in shape[j + 1 : -1]) for j in range(len(shape) - 1)], dtype=np.intp)
    powcols = np.ascontiguousarray(powtab.reshape(-1, shape[-1] + 1).T)

    def narrow(sums: np.ndarray, lows: np.ndarray, counts: np.ndarray):
        # the rows' cell sums (m, B, N_n+1, R), differenced axis by axis,
        # leading axis first; the rows' volume powers (N_n+1, R); and counts
        flat = np.ascontiguousarray(np.moveaxis(sums, -1, 2)).reshape(sums.shape[:2] + (shape[-1] + 1, -1))
        # the 2^(n-1) corners of each row's rect in C order, low corner first
        v = [np.take(flat, (lows + counts * np.asarray(corner, dtype=np.intp)) @ strides, axis=3)
             for corner in itertools.product((0, 1), repeat=len(shape) - 1)]
        while len(v) > 1:
            v = [b - a for a, b in zip(v[: len(v) // 2], v[len(v) // 2 :])]
        return v[0], np.take(powcols, (counts - 1) @ strides, axis=1), counts

    def leaf(leads, c: int, s: int, narrowed, redo: bool = False) -> np.ndarray:
        rowsums, pw, counts = narrowed
        # the difference is a fresh array, never a view of P, so the direct
        # pass may scale it in place; the redo pass reads the unscaled sums
        diff = rowsums[:, :, c::s] - rowsums[:, :, : shape[-1] - c + 1 : s]
        prod = np.multiply(diff, cellvol, out=None if redo else diff)
        vals = prod[0]
        vals *= pw[c - 1]
        for i in range(1, m):
            vals *= prod[i]
        if redo:
            bad = ~np.isfinite(vals) | tiny
            if bad.any():
                cells = (np.prod(counts, axis=1) * c).astype(float)  # L, one per row
                fix = np.broadcast_to(libm_pow(cells, e), vals.shape)[bad]
                for x in [libm_pow(hk, e + m) for hk in h] + [diff[i][bad] for i in range(m)]:
                    fix = fix * x
                vals[bad] = fix
        return vals

    def redo_leaf(*args) -> np.ndarray:
        return leaf(*args, redo=True)

    def walk(part: np.ndarray) -> np.ndarray:
        # a subnormal cell volume takes the redo walk alone
        out = fold_sizes(part.shape[1:2] + shape, sizes, part, narrow, redo_leaf if tiny else leaf)
        bad = ~tiny & ~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
        if bad.any():
            out[bad] = fold_sizes((np.count_nonzero(bad),) + shape, sizes, part[:, bad], narrow, redo_leaf)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([walk(P[:, b : b + BATCH]) for b in range(0, P.shape[1], BATCH)])


def sweep_all_rects(P: np.ndarray, h: tuple[float, ...], e: float) -> np.ndarray:
    """``sweep`` over every cell-count tuple, P and the result laid out as
    there. Nothing in the package calls it: it is kept only as the name that
    perfbench's layer tracer wraps, and it goes once that tracer wraps
    ``sweep`` (the perfbench refresh of ROADMAP item 3)."""
    return sweep(P, h, e, basis_sizes(Basis(ALL_RECTS), [k - 1 for k in P.shape[2:]], h))
