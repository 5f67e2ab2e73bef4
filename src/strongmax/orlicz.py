"""Luxemburg norms over cell sets and the product/Hoelder lemmas.

The Luxemburg norm is the infimal lambda > 0 making the normalized mean of
Phi(|f|/lambda) over the set at most one. Here it is a certified double:
the least double b > 0 whose floating-point mean (one Phi call on the
cells over b, their pairwise sum, times the cell measure over the set's
measure) is <= 1, so the mean at the double below b is > 1. The mean is
monotone in lambda, so b is unique, with no tolerance.

There is one solver, ``luxemburg_blocks``, run in lockstep over the rows
of a list of blocks, one set of k cells per row, with k free to differ
between blocks. A single norm is a one-block call, and ``size_norms``
gives the callers, the Orlicz maximal operator (for every tuple of a batch)
and the Young condition of the vector-valued check, the norms of every rect
of a basis with one call per Young function. The rows are taken in chunks
of at most CELL_BLOCK cells, in order of k. Each row is first scaled by a
power of two so that its maximum lies in [0.5, 1), and its norm scaled
back. A power of two scales every lambda and mean argument without
rounding, so this changes no bit where no scaled cell or norm is
subnormal. Every row then takes one search over the bit patterns of the
doubles, which are ordered as the doubles are. It starts from a start: a
family with a closed-form solve (young.YoungFunction.luxemburg_start:
t^s, Phi_1 and Phi_2) starts each row within a few doubles of b, and any
other at the row's scaled maximum. Each step makes one Phi call on the
cells of the rows not yet settled. A row's mean is the pairwise sum of its
k values along the contiguous last axis of its run of equal k, the sum a
1-D array of those values gets, so every row gets the norm that a solve of
that row alone gets, whatever else its chunk holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, Rect, grid_axes, window
from .young import MAX_BITS, YoungFunction, complementary, iterate


TOL = 1e-9  # slack of the norm-vs-mean and Hoelder comparisons
CELL_BLOCK = 1 << 15  # cells per lockstep chunk, so its temporaries stay in cache


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class CellSet:
    """Subset of grid cells as a boolean mask plus physical measure."""

    shape: tuple[int, ...]
    cell_size: tuple[float, ...]
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape, h = grid_axes(self.shape, self.cell_size)
        if np.size(self.mask) != math.prod(shape):
            raise MeasureError(f"mask of {np.size(self.mask)} cells for a grid of shape {shape}")
        mask = np.asarray(self.mask, dtype=bool).reshape(shape)
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cell_size", h)

    @property
    def measure(self) -> float:
        return float(np.count_nonzero(self.mask)) * math.prod(self.cell_size)

    @classmethod
    def from_rect(cls, f: GridFunction, r: Rect) -> "CellSet":
        mask = np.zeros(f.shape, dtype=bool)
        mask[r.slices()] = True
        return cls(f.shape, f.cell_size, mask)

    @classmethod
    def full(cls, f: GridFunction) -> "CellSet":
        return cls(f.shape, f.cell_size, np.ones(f.shape, dtype=bool))


def _member_values(f: GridFunction, e: CellSet) -> np.ndarray:
    if (f.shape, f.cell_size) != (e.shape, e.cell_size):
        raise MeasureError("grid/cell-set mismatch")
    if not e.mask.any():
        raise MeasureError("empty cell set")
    return np.abs(f.values[e.mask])


def luxemburg_blocks(blocks, lead: int, cell_measure: float, phi: YoungFunction) -> list[np.ndarray]:
    """Luxemburg norms of the rows of every block, by one lockstep solve.

    A block is (cells, total): the first ``lead`` axes of cells index its
    rows, and the other axes hold the k cells of each row's set, in C order;
    total is the measure of each row's set (a scalar or one value per row),
    and every cell has measure cell_measure. A norm is taken of |cells|, and
    a non-finite cell is a MeasureError. Returns one array of norms per
    block, shaped cells.shape[:lead].

    The blocks are taken in order of k, and a block's cells are gathered
    only when its first row enters a chunk. A chunk holds at most CELL_BLOCK
    cells (or one row) and runs ``_solve``. A row of zeros has norm +0.0
    and is not solved.
    """
    shapes = [np.shape(cells) for cells, _ in blocks]
    counts = [math.prod(s[lead:]) for s in shapes]
    totals = [np.broadcast_to(np.asarray(t, dtype=np.float64), (math.prod(s[:lead]),))
              for (_, t), s in zip(blocks, shapes)]
    if not (0 < cell_measure < math.inf and all(np.all((0 < t) & (t < math.inf)) for t in totals)):
        raise MeasureError("Luxemburg norm needs cells and sets of finite positive measure")
    norms = [np.zeros(t.shape) for t in totals]
    buf = np.empty(max([CELL_BLOCK, *counts]))
    chunk: list[tuple[int, np.ndarray, np.ndarray]] = []  # (block, rows, row maxima) in buf order

    def flush(used: int) -> None:
        groups: list[list[int]] = []  # [k, rows] for each run of equal k
        for j, rows, _ in chunk:
            if groups and groups[-1][0] == counts[j]:
                groups[-1][1] += rows.size
            else:
                groups.append([counts[j], rows.size])
        weight = np.concatenate([cell_measure / totals[j][rows] for j, rows, _ in chunk])
        got = _solve(buf[:used], groups, np.concatenate([top for *_, top in chunk]), weight, phi)
        for j, rows, _ in chunk:
            norms[j][rows], got = got[: rows.size], got[rows.size :]
        chunk.clear()

    used = 0
    for j in sorted(range(len(blocks)), key=counts.__getitem__):
        k = counts[j]
        cells = np.abs(blocks[j][0], out=np.empty(shapes[j])).reshape(totals[j].size, k)
        top = cells.max(axis=1, initial=0.0)
        if not np.all(np.isfinite(top)):
            raise MeasureError("Luxemburg norm of a non-finite (NaN or infinite) cell value")
        live = np.flatnonzero(top)
        while live.size:
            take = min(live.size, max((CELL_BLOCK - used) // k, 0 if used else 1))
            if take == 0:
                flush(used)
                used = 0
                continue
            rows, live = live[:take], live[take:]
            np.take(cells, rows, axis=0, out=buf[used : used + take * k].reshape(take, k))
            chunk.append((j, rows, top[rows]))
            used += take * k
    if chunk:
        flush(used)
    return [v.reshape(s[:lead]) for v, s in zip(norms, shapes)]


def _runs(cells: np.ndarray, groups):
    """(span of rows, view (r, k) of their cells) of each run [k, r] in groups."""
    r0 = c0 = 0
    for k, r in groups:
        yield slice(r0, r0 + r), cells[c0 : c0 + k * r].reshape(r, k)
        r0, c0 = r0 + r, c0 + k * r


def _solve(cells: np.ndarray, groups, top: np.ndarray, weight: np.ndarray,
           phi: YoungFunction) -> np.ndarray:
    """Norms of the rows of cells, a flat array of runs of rows with equal
    cell counts ([k, rows] in groups); top holds each row's maximum, all
    > 0, and weight each row's cell measure over its set's measure. Scales
    cells in place.

    A row's norm is the least double b whose mean is <= 1. Each row starts
    from hi, a start, and lo, its bit pattern less a first step, both
    unchecked: a closed-form start (phi.luxemburg_start) lies a few doubles
    from b, with a first step of one bit pattern; any other row starts at
    its scaled max, with a first step of 2^52 bit patterns, one binade.
    Each step makes one Phi call on the cells of the rows not yet settled,
    at one lambda per row: an unchecked end, or else the middle of the bit
    patterns of lo and hi. An end that is on the wrong side moves past the
    other by the step, which doubles each time, so an end d bit patterns
    from b passes it in about log2(d) moves. A row is settled once lo fails,
    hi satisfies and they are adjacent doubles; its norm is hi. A hi that
    fails at the largest double is a MeasureError.
    """
    reps = np.repeat([k for k, _ in groups], [r for _, r in groups])
    # each row runs on its values times 2^-e, e the exponent of its max, so
    # that its max is frac, in [0.5, 1)
    frac, e = np.frexp(top)
    np.ldexp(cells, -np.repeat(e, reps), out=cells)

    def mean_phi(lam: np.ndarray) -> np.ndarray:
        # one Phi call on the flat cells; each run of rows is summed along its
        # contiguous last axis, so each row gets the pairwise sum of its k
        # values that a 1-D array of them gets
        with np.errstate(over="ignore"):
            phis = phi.eval(cells / np.repeat(lam, reps))
        return np.concatenate([np.add.reduce(v, axis=1) for _, v in _runs(phis, groups)]) * weight

    if phi.luxemburg_start is None:
        start, first = frac, 1 << 52
    else:
        start, first = np.concatenate([phi.luxemburg_start(v, weight[span]) for span, v in _runs(cells, groups)]), 1
    hi = np.clip(start.view(np.int64), 1, MAX_BITS)
    step = np.full(hi.size, first, dtype=np.int64)
    lo = hi - step
    hok, lok = np.zeros(hi.size, dtype=bool), lo == 0
    out, rows = np.empty(hi.size), np.arange(hi.size)
    while rows.size:
        probe = np.where(hok, np.where(lok, lo + ((hi - lo) >> 1), lo), hi)
        ok = mean_phi(probe.view(np.float64)) <= 1.0
        if probe.max() == MAX_BITS and np.any(~ok & (probe == MAX_BITS)):
            raise MeasureError(f"{phi.label}: Luxemburg bracket unbounded")
        down = ok & hok & ~lok  # a satisfied lo moves down, a failed hi up
        hi = np.where(ok, probe, np.where(hok, hi, probe + np.minimum(step, MAX_BITS - probe)))
        lo = np.where(ok, np.where(down, np.maximum(probe - step, 0), lo), probe)
        step = np.where(down | ~(ok | hok), 2 * step, step)
        hok |= ok
        lok |= ~ok | (lo == 0)
        keep = ~(hok & lok & (hi - lo == 1))
        if not keep.all():
            out[rows[~keep]] = hi[~keep].view(np.float64)
            parts = [v[keep[span]] for span, v in _runs(cells, groups)]
            groups = [[k, len(p)] for (k, _), p in zip(groups, parts) if len(p)]
            cells = np.concatenate(parts, axis=None)
            reps, weight, rows, hi, lo, hok, lok, step = (
                x[keep] for x in (reps, weight, rows, hi, lo, hok, lok, step))
    return np.ldexp(out, e)


def size_norms(stack: np.ndarray, sizes, cell_measure: float, totals, phis) -> list[list[np.ndarray]]:
    """norms[i][s]: the Luxemburg norms under phis[i] of slot i of a stack of
    functions over the grid (m, ..., N_1, ..., N_n), over the rects of the
    s-th (counts, step) pair in sizes (``grid.basis_sizes``), shaped by the
    axes between the slot and the grid (a batch of B members: (m, B, N_1,
    ...)) and then by their anchors; every rect of that size has measure
    totals[s]. The grid is the last n axes. Slots whose Young functions are
    one object share one ``luxemburg_blocks`` call, which takes the rows of
    every member and size of those slots."""
    views = []
    for counts, step in sizes:
        view, lead = stack, stack.ndim - len(counts)
        for axis, (c, s) in enumerate(zip(counts, step)):
            view = window(view, lead + axis, c, s)
        views.append(view)
    norms: list = [None] * len(phis)
    for i, phi in enumerate(phis):
        if norms[i] is None:
            slots = [j for j, p in enumerate(phis) if p is phi]
            got = luxemburg_blocks([(v[j], t) for j in slots for v, t in zip(views, totals)],
                                   stack.ndim - 1, cell_measure, phi)
            for a, j in enumerate(slots):
                norms[j] = got[a * len(views) : (a + 1) * len(views)]
    return norms


def luxemburg_norm_values(
    vals: np.ndarray, cell_measure: float, total_measure: float, phi: YoungFunction
) -> float:
    """Luxemburg norm of |vals|, the values of a set's member cells (uniform
    cell measure)."""
    row = np.reshape(vals, (1, -1))
    return float(luxemburg_blocks([(row, total_measure)], 1, cell_measure, phi)[0][0])


def luxemburg_norm(f: GridFunction, e: CellSet, phi: YoungFunction) -> float:
    """||f||_{Phi,E}: inf{lam > 0 : mean_E Phi(|f|/lam) <= 1}."""
    return luxemburg_norm_values(_member_values(f, e), f.cell_volume, e.measure, phi)


def mean_phi_over(f: GridFunction, e: CellSet, phi: YoungFunction) -> float:
    """(1/|E|) integral over E of Phi(|f|)."""
    return float(np.sum(phi.eval(_member_values(f, e)))) * f.cell_volume / e.measure


def norm_le_one_equivalence_check(f: GridFunction, e: CellSet, phi: YoungFunction) -> bool:
    """||f||_{Phi,E} <= 1 iff mean_E Phi(|f|) <= 1, within TOL."""
    norm = luxemburg_norm(f, e, phi)
    mean = mean_phi_over(f, e, phi)
    return (norm <= 1.0 + TOL) == (mean <= 1.0 + TOL)


@dataclass(frozen=True)
class CheckReport:
    """Lightweight pass/fail record for a single inequality instance."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    note: str = ""

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.inf


def generalized_holder_check(
    f: GridFunction, g: GridFunction, e: CellSet, phi: YoungFunction,
    phi_bar: YoungFunction | None = None,
) -> CheckReport:
    """mean_E |fg| <= 2 ||f||_{Phi,E} ||g||_{conj Phi,E}; a side past the
    double range is a MeasureError."""
    if phi_bar is None:
        phi_bar = complementary(phi)
    with np.errstate(over="ignore"):
        lhs = float(np.sum(_member_values(f, e) * _member_values(g, e))) * f.cell_volume / e.measure
    rhs = 2.0 * luxemburg_norm(f, e, phi) * luxemburg_norm(g, e, phi_bar)
    if math.inf in (lhs, rhs):
        raise MeasureError("generalized Hoelder check: a side leaves the double range")
    return CheckReport("generalized_holder", lhs, rhs, lhs <= rhs + TOL)


def product_norm_lemma_check(
    fs: list[GridFunction], e: CellSet, phi: YoungFunction
) -> CheckReport:
    """Product of Phi-norms against the product of means of the m-fold iterate.

    Requires a submultiplicative phi and product of norms > 1; otherwise the
    report is marked hypothesis-skipped. The constant C is empirical: the
    report carries lhs/rhs so a corpus can record its max.
    """
    if phi.is_submultiplicative is False:
        raise MeasureError("product norm lemma needs a submultiplicative Young function")
    m = len(fs)
    norm_prod = 1.0
    for f in fs:
        norm_prod *= luxemburg_norm(f, e, phi)
    if norm_prod <= 1.0:
        return CheckReport("product_norm_lemma", norm_prod, 0.0, True,
                           note="hypothesis-skipped (product of norms <= 1)")
    phim = iterate(phi, m)
    mean_prod = 1.0
    for f in fs:
        mean_prod *= mean_phi_over(f, e, phim)
    if math.inf in (norm_prod, mean_prod):
        raise MeasureError("product norm lemma: a product leaves the double range")
    return CheckReport("product_norm_lemma", norm_prod, mean_prod, mean_prod > 0)

