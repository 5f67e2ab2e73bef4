"""Per-rectangle oracles for the batched Luxemburg code.

They take each norm by its definition, the least double b > 0 whose
floating-point mean of Phi(|f|/b) is at most one, by a bisection of the
bit patterns of every positive double: scalar_norm one scalar step at a
time, lockstep_norms on many rows of one cell count at once, with the
same steps. The per-rectangle oracles walk enumerate_basis one Rect at a
time, with every rect's norm from lockstep_norms. It is written out
here rather than imported, so a fault in the batched solver (its starts
or its finish) cannot hide in its own oracle. bracket_norm keeps the
earlier bracketing bisection to a relative width of 1e-12, to bound how
far a norm moved.
"""

from __future__ import annotations

import math

import numpy as np

from strongmax.grid import Basis, GridFunction, enumerate_basis
from strongmax.orlicz import MeasureError
from strongmax.young import MAX_BITS


def _mean_phi(vals, weight, phi):
    """The mean of Phi(vals / lam) at lam, as the solver forms it: one Phi
    call, np.sum over the cells, times the weight."""
    def mean_phi(lam: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(phi.eval(vals / lam))) * weight
    return mean_phi


def _cells(vals, total_measure):
    if total_measure <= 0:
        raise MeasureError("Luxemburg norm needs a set of positive measure")
    return np.abs(np.asarray(vals, dtype=np.float64).ravel())


def scalar_norm(vals, cell_measure, total_measure, phi) -> float:
    """Luxemburg norm of |vals| for a 1-D array of cell values: the least
    double b > 0 whose mean is <= 1, by a bisection of the bit patterns of
    the doubles in [0, largest double], one at a time. lo = 0 fails (a
    nonzero row has positive norm) and hi = the largest double must
    satisfy; they meet as adjacent doubles, and hi is b."""
    vals = _cells(vals, total_measure)
    if not vals.any():
        return 0.0
    mean_phi = _mean_phi(vals, cell_measure / total_measure, phi)

    def ok(bits: int) -> bool:
        return mean_phi(float(np.int64(bits).view(np.float64))) <= 1.0

    lo, hi = 0, MAX_BITS
    if not ok(hi):
        raise MeasureError(f"{phi.label}: Luxemburg bracket unbounded")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


def lockstep_norms(vals, cell_measure, total_measure, phi) -> np.ndarray:
    """scalar_norm of every row of vals (R, k), in lockstep: each step is
    one Phi call on the rows not yet at adjacent doubles. Each row's mean is
    the pairwise sum of its k values along the contiguous last axis, the
    sum np.sum gives a 1-D array of them (test_rows_match_scalar_bisection
    checks that premise against scalar_norm), so each row gets the bits of
    scalar_norm."""
    vals = np.abs(np.asarray(vals, dtype=np.float64))
    totals = np.broadcast_to(np.asarray(total_measure, dtype=np.float64), vals.shape[:1])
    if np.any(totals <= 0):
        raise MeasureError("Luxemburg norm needs a set of positive measure")
    out, live = np.zeros(len(vals)), np.flatnonzero(vals.any(axis=1))
    cells, weight = vals[live], cell_measure / totals[live]

    def ok(bits: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.add.reduce(phi.eval(cells / bits.view(np.float64)[:, None]), axis=1) * weight <= 1.0

    lo, hi = np.zeros(live.size, dtype=np.int64), np.full(live.size, MAX_BITS)
    if not ok(hi).all():
        raise MeasureError(f"{phi.label}: Luxemburg bracket unbounded")
    while np.any(hi - lo > 1):
        # a row at adjacent doubles probes hi, which satisfies
        mid = np.where(hi - lo > 1, lo + ((hi - lo) >> 1), hi)
        sat = ok(mid)
        lo, hi = np.where(sat, lo, mid), np.where(sat, mid, hi)
    out[live] = hi.view(np.float64)
    return out


def bracket_norm(vals, cell_measure, total_measure, phi) -> float:
    """The norm by the bracketing bisection that stops at a relative width
    of 1e-12: hi doubles from the max while the mean exceeds one, lo halves
    while half of it satisfies, and their midpoint bisects until hi - lo is
    at most 1e-12 hi; returns hi, a double at most 1e-12 relative above the
    least double that satisfies."""
    vals = _cells(vals, total_measure)
    vmax = float(vals.max(initial=0.0))
    if vmax == 0.0:
        return 0.0
    mean_phi = _mean_phi(vals, cell_measure / total_measure, phi)
    hi = vmax
    while mean_phi(hi) > 1.0:
        hi *= 2.0
        if hi > 1e300:
            raise MeasureError(f"{phi.label}: Luxemburg bracket unbounded")
    lo = hi
    while lo > 1e-300 and mean_phi(lo * 0.5) <= 1.0:
        lo *= 0.5
    lo *= 0.5
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mean_phi(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def scalar_norms(vals, cell_measure, total_measure, phi) -> np.ndarray:
    """scalar_norm of every row of vals (R, k)."""
    vals = np.asarray(vals, dtype=np.float64)
    totals = np.broadcast_to(np.asarray(total_measure, dtype=np.float64), vals.shape[:1])
    return np.array(
        [scalar_norm(row, cell_measure, float(t), phi) for row, t in zip(vals, totals)]
    )


def scalar_blocks(blocks, lead, cell_measure, phi) -> list[np.ndarray]:
    """lockstep_norms of the rows of every block: a drop-in for
    orlicz.luxemburg_blocks."""
    out = []
    for cells, total in blocks:
        shape = np.shape(cells)
        rows = np.reshape(cells, (math.prod(shape[:lead]), math.prod(shape[lead:])))
        out.append(lockstep_norms(rows, cell_measure, total, phi).reshape(shape[:lead]))
    return out


def _rect_norms(values, sets, cellvol, phi) -> list[float]:
    """The norm of values over each (slices, measure) in sets, in order: one
    lockstep_norms call on the rects of each cell count."""
    by_count: dict[int, list] = {}
    for j, (sl, measure) in enumerate(sets):
        cells = values[sl].ravel()
        by_count.setdefault(cells.size, []).append((j, cells, measure))
    out = [0.0] * len(sets)
    for group in by_count.values():
        at, rows, measures = zip(*group)
        for j, b in zip(at, lockstep_norms(np.array(rows), cellvol, np.array(measures), phi)):
            out[j] = float(b)
    return out


def orlicz_maximal_oracle(fs: list[GridFunction], query) -> GridFunction:
    """orlicz_maximal, one Rect at a time."""
    f0 = fs[0]
    cellvol = float(np.prod(f0.cell_size))
    sets = [(r.slices(), r.volume(f0.cell_size)) for r in enumerate_basis(query.basis, f0.shape, f0.cell_size)]
    norms = [_rect_norms(f.values, sets, cellvol, psi) for f, psi in zip(fs, query.orlicz)]
    out = np.zeros(f0.shape)
    for j, (sl, vol) in enumerate(sets):
        val = vol ** (query.alpha / f0.dims)
        for slot in norms:
            val *= slot[j]
        np.maximum(out[sl], val, out=out[sl])
    return f0.with_values(out)


def young_sup_oracle(w: GridFunction, v: GridFunction, q: float, a_young, b_young,
                     basis: Basis) -> float:
    """sup over rects R of ||w^q||_{A,R}^(1/q) ||1/v||_{B,R}, rect by rect."""
    cellvol = float(np.prod(w.cell_size))
    wq, vinv = w.values**q, 1.0 / v.values
    sets = [(r.slices(), float(np.prod(r.cell_counts())) * cellvol)
            for r in enumerate_basis(basis, w.shape, w.cell_size)]
    cond = 0.0
    for a, b in zip(_rect_norms(wq, sets, cellvol, a_young), _rect_norms(vinv, sets, cellvol, b_young)):
        cond = max(cond, a ** (1.0 / q) * b)
    return cond
