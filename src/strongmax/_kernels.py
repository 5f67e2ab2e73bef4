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
chunk is one tuple. The (counts, step) pairs and the walk's plan of them
(the leading tuples, their last-axis pairs, anchors and rows) are kept per
grid and basis (``basis_plan``); the chunk bounds, which read m and the
batch, are drawn per walk.

A 1-D grid has no leading axis: its one row is the whole axis, and a walk
by count takes one leaf call per count on a single row. So a chunk of one
row whose last axis offers every count at step 1 (a 1-D grid on the all or
cubes basis, and grids such as (1, 4096)) folds that axis by halving where
it has more than BLOCK cells and the walk is given a tile leaf, as the
sweep's is (``fold_halves``): the intervals of at most BLOCK cells by count, and each
longer interval [a, b] at the one halving level w where a is in the left
half [o, o + w) of a node and b in its right half. Those intervals are a
full tile of left ends by right ends, with no triangle, mask or padding;
its values come from views alone (P[b + 1] and P[a] as reshapes of P into
nodes, |R|^e as a Toeplitz view of the volume-power column indexed by
the count b - a + 1), and its row maxima fold into the left half by a
prefix maximum over a, its column maxima into the right half by a suffix
maximum over b. A 1-D 4096 sweep takes 64 counts and about 250 tiles of
CHUNK_CELLS cells, where it took 4,096 leaf calls. Chunks of more rows
keep the fold by count, whose calls the rows already share, and so does
the Orlicz walk, which has no tile leaf. This is not the fold of the
whole (count x anchor) square that was tried and dropped (a triangle mask
and a skewed fold over all of it): every tile element is a valid
interval, and ``np.maximum.accumulate`` runs only on the row and column
maxima, O(N) per level.

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
``maximal`` agree bit for bit, for three reasons, whichever fold a chunk
takes. They form |R|, the cell
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

import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
# the intervals of one row up to this many cells fold by count, the longer
# ones by halving in tiles (see fold_halves); 32 to 128 ran alike on 1-D 4096
BLOCK = 64


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


def fold_halves(out: np.ndarray, pairs, value, tile) -> None:
    """out = max(out, the values of every interval of one row over the cells
    it covers); out is (B, N, 1), pairs every count 1..N at step 1 and
    value(j) the values of pairs[j], as for fold_counts.

    The intervals of at most BLOCK cells fold by count. Every other interval
    [a, b] crosses a multiple of BLOCK, so for exactly one half-width w (BLOCK,
    2 * BLOCK, ...) a lies in [o, o + w) and b in [o + w, o + 2w) of a node o,
    a multiple of 2w. tile(o, k, width, w, rows) gives the values of those
    intervals at the k nodes o, o + width, ... as (B, k, rows, width - w),
    for a = node + i, i in the slice rows, and b = node + w + j: a full
    w x w tile where width = 2w, and the ragged last node alone. Each tile
    holds up to CHUNK_CELLS values, counting the batch (its m slots of
    differences multiply into them at once, and m = 2 ran 15% faster than
    with the slots counted too). A left cell x is in every tile interval with
    a <= x and a right cell y in every one with b >= y, so the row maxima
    fold by a prefix maximum over a and the column maxima by a suffix
    maximum over b.
    """
    fold_counts(out, 1, pairs[:BLOCK], value)
    batch, n = out.shape[:2]
    # a tile's rows do not coalesce, and numpy's buffered loops then copy
    # the operands row by row into a buffer of 8192 elements, which made the
    # tiles 2-3x slower; a full tile's rows hold at least BLOCK cells, so a
    # buffer of BLOCK elements (a multiple of 16, as numpy asks) copies none.
    # errstate restores the buffer size
    with np.errstate():
        np.setbufsize(BLOCK)
        w = BLOCK
        while w < n:
            full = n // (2 * w)
            for o, k, width in [(0, full, 2 * w), (2 * w * full, 1, n - 2 * w * full)]:
                if k == 0 or width <= w:
                    continue
                best = np.full((batch, k, width), -np.inf)  # row maxima, then column maxima
                rows = max(1, CHUNK_CELLS // (batch * k * (width - w)))
                for i in range(0, w, rows):
                    vals = tile(o, k, width, w, slice(i, min(i + rows, w)))
                    best[..., i : min(i + rows, w)] = vals.max(axis=-1)
                    np.maximum(best[..., w:], vals.max(axis=-2), out=best[..., w:])
                for half in (best[..., :w], best[..., w:][..., ::-1]):
                    np.maximum.accumulate(half, axis=-1, out=half)
                seg = out[:, o : o + k * width, 0]
                np.maximum(seg, best.reshape(batch, -1), out=seg)
            w *= 2


class Plan:
    """A basis on one grid as ``fold_sizes`` walks it: its (counts, step)
    pairs, and per leading count tuple the last-axis pairs it offers, its
    anchors and its rows. ``basis_plan`` hands one Plan to every walk on its
    grid and basis, so nothing writes to it."""

    def __init__(self, sizes, grid: tuple[int, ...]):
        self.sizes = tuple(sizes)
        lasts: dict = {}  # (leading counts, leading steps) -> last-axis pairs
        for counts, step in self.sizes:
            lasts.setdefault((counts[:-1], step[:-1]), []).append((counts[-1], step[-1]))
        self.keys, self.pairs = list(lasts), list(lasts.values())
        lc, ls = (np.array([key[i] for key in self.keys], dtype=np.intp).reshape(len(lasts), len(grid) - 1) for i in (0, 1))
        self.anchors = (np.array(grid[:-1], dtype=np.intp) - lc) // ls + 1
        self.first = first = np.concatenate([[0], np.cumsum(self.anchors.prod(axis=1))])  # each tuple's first row
        # every row's tuple, and its anchor along each leading axis, last
        # fastest: a tuple's row r is anchor r % span // (span // anchors) on
        # an axis, span the product of the anchors on that axis and the later
        tup = np.repeat(np.arange(len(lasts)), np.diff(first))
        span = np.cumprod(self.anchors[:, ::-1], axis=1)[tup, ::-1]
        self.lows = (np.arange(len(tup)) - first[tup])[:, None] % span // (span // self.anchors[tup]) * ls[tup]
        self.counts = lc[tup]


@functools.lru_cache(maxsize=16)
def basis_plan(basis: Basis, shape: tuple[int, ...], h: tuple[float, ...]) -> Plan:
    """The Plan of ``basis_sizes(basis, shape, h)``, kept for the latest 16
    grids and bases."""
    return Plan(basis_sizes(basis, shape, h), shape)


def fold_sizes(shape: tuple[int, ...], plan: Plan, src: np.ndarray, narrow, leaf, tile=None) -> np.ndarray:
    """out[b, x] = max of +0.0 and the leaf values of batch member b at the
    rects of the plan's (counts, step) pairs that hold cell x; returns shape
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

    A chunk of one row whose last axis, of more than BLOCK cells, offers
    every count at step 1 (a 1-D grid on the all or cubes basis) has no rows
    to spread the per-count steps over; given tile(narrowed, o, k, width, w,
    rows), the values of the interval tiles of ``fold_halves``, it folds its
    last axis by halving.
    """
    grid, n = shape[1:], len(shape) - 1
    keys, first = plan.keys, plan.first

    # inside the walk the last grid axis comes right after the batch axis,
    # so the rows, many where the anchors of a large count are few, are the
    # contiguous axis of the leaf's arithmetic
    out = np.zeros(shape[:1] + grid[-1:] + grid[:-1])
    width = src.shape[0] * shape[0] * (grid[-1] + 1)
    j0 = 0
    while j0 < len(keys):
        j1, pairs = j0 + 1, plan.pairs[j0]  # the chunk: tuples j0 .. j1 - 1
        while j1 < len(keys) and plan.pairs[j1] == pairs and (first[j1 + 1] - first[j0]) * width <= CHUNK_CELLS:
            j1 += 1
        a, b = first[j0], first[j1]
        narrowed = narrow(src, plan.lows[a:b], plan.counts[a:b])
        leads = [key[0] for key in keys[j0:j1]]
        vals = np.full((shape[0], grid[-1], b - a), -np.inf) if n > 1 else out[..., None]
        value = lambda i: leaf(leads, *pairs[i], narrowed)
        if tile is not None and b - a == 1 and grid[-1] > BLOCK and pairs == [(c, 1) for c in range(1, grid[-1] + 1)]:
            fold_halves(vals, pairs, value, lambda *at: tile(narrowed, *at))
        else:
            fold_counts(vals, 1, pairs, value)
        items = [(keys[j], vals[..., first[j] - a : first[j + 1] - a].reshape(out.shape[:2] + tuple(plan.anchors[j])))
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
    (counts, step) pairs in sizes, a list or a ``Plan``; returns shape (B,
    N_1, ..., N_n).

    The members are walked BATCH at a time, one ``fold_sizes`` walk per
    batch; a single call is the batch of one. Each member's values are
    those of its own call bit for bit: the leaf forms every member's product
    with the same expressions in the same order, and a maximum rounds
    nothing. The per-count leaf and the interval tiles of a one-row chunk
    form a value by one expression, ((S_0 * cellvol) * |R|^e) * (S_1 *
    cellvol) * ..., so a rect's value has the same bits in either.

    Below a normal cell volume (and only there can |R| >= cellvol be
    subnormal), and wherever a direct value |R|^e * prod_i (S_i * cellvol)
    is not finite, the value is L^e * prod_k h_k^(alpha/n) * prod_i S_i,
    with L = prod counts and S_i the cell sums; alpha/n = e + m >= 0, so
    that form stays finite. L is an exact integer product per rect, the
    leading counts times the last, so its ``libm_pow`` gets the double that
    the scalar call gets.

    One finiteness check per member decides where that redo form is needed.
    On a normal cell volume one walk takes the direct values alone. Each
    leaf value reaches the output through ``np.maximum``, ``.max`` or
    ``np.maximum.accumulate``, which all propagate NaN and +inf, and the
    output starts at +0.0. The redo form replaces only non-finite values, so
    a +inf or NaN among them shows in the output; a -inf loses to +0.0, and
    so does its redo value, which has the sign of prod_i S_i. So a finite
    output of the direct walk is the output with every redo applied, and
    only the members whose output is not finite walk again with the
    per-rect redo, together. A subnormal cell volume, which the whole batch
    shares, sends every member to the redo walk alone.
    """
    m = P.shape[0]
    shape = tuple(k - 1 for k in P.shape[2:])
    plan = sizes if isinstance(sizes, Plan) else Plan(sizes, shape)
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

    def value(diff: np.ndarray, pw, cells) -> np.ndarray:
        # the values from fresh differences diff (m, ...) of the prefix sums
        # and the volume powers pw; given the exact cell counts, the redo
        # walk's, the redo form where a value is not finite. The direct walk
        # scales diff in place; the redo walk reads the unscaled sums
        prod = np.multiply(diff, cellvol, out=None if cells is not None else diff)
        vals = np.multiply(prod[0], pw, out=prod[0])
        for i in range(1, m):
            vals *= prod[i]
        if cells is not None:
            bad = ~np.isfinite(vals) | tiny
            if bad.any():
                fix = np.broadcast_to(libm_pow(cells.astype(float), e), vals.shape)[bad]
                for x in [libm_pow(hk, e + m) for hk in h] + [diff[i][bad] for i in range(m)]:
                    fix = fix * x
                vals[bad] = fix
        return vals

    def walk(part: np.ndarray, redo: bool) -> np.ndarray:
        def leaf(leads, c: int, s: int, narrowed) -> np.ndarray:
            rowsums, pw, counts = narrowed
            diff = rowsums[:, :, c::s] - rowsums[:, :, : shape[-1] - c + 1 : s]
            return value(diff, pw[c - 1], np.prod(counts, axis=1) * c if redo else None)

        def tile(narrowed, o: int, k: int, width: int, w: int, rows: slice) -> np.ndarray:
            # the intervals [a, b] of the one row, a = o + width * node + i for
            # i in rows and b = o + width * node + w + j, j < width - w
            rowsums, pw, counts = narrowed
            p = rowsums[:, :, o : o + k * width + 1, 0]
            lo = p[:, :, :-1].reshape(p.shape[:2] + (k, width))[..., rows, None]  # P[a]
            hi = p[:, :, 1:].reshape(p.shape[:2] + (k, width))[..., None, w:]  # P[b + 1]
            # col[b - a] at each (i, j), b - a = w + j - i: a Toeplitz view
            band = lambda col: as_strided(col[w - rows.start :], (rows.stop - rows.start, width - w), (-col.strides[0], col.strides[0]))
            return value(hi - lo, band(pw[:, 0]), band(np.arange(1, width + 1)) * np.prod(counts) if redo else None)

        return fold_sizes(part.shape[1:2] + shape, plan, part, narrow, leaf, tile)

    def walks(part: np.ndarray) -> np.ndarray:
        # a subnormal cell volume takes the redo walk alone
        out = walk(part, tiny)
        bad = ~tiny & ~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
        if bad.any():
            out[bad] = walk(part[:, bad], True)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([walks(P[:, b : b + BATCH]) for b in range(0, P.shape[1], BATCH)])


def sweep_all_rects(P: np.ndarray, h: tuple[float, ...], e: float) -> np.ndarray:
    """``sweep`` over every cell-count tuple, P and the result laid out as
    there. Nothing in the package calls it: it is kept only as the name that
    perfbench's layer tracer wraps, and it goes once that tracer wraps
    ``sweep`` (the perfbench refresh of ROADMAP item 3)."""
    return sweep(P, h, e, basis_sizes(Basis(ALL_RECTS), [k - 1 for k in P.shape[2:]], h))
