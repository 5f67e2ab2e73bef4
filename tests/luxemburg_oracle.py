"""Per-rectangle scalar oracles for the batched Luxemburg code.

They walk enumerate_basis one Rect at a time and run one scalar bracketing
bisection per norm, written out here rather than imported, so a fault in
the batched kernel cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

from strongmax.grid import Basis, GridFunction, enumerate_basis
from strongmax.orlicz import MeasureError


def scalar_norm(vals, cell_measure, total_measure, phi) -> float:
    """Luxemburg norm of |vals| for a 1-D array of cell values, one bisection
    step at a time, to a relative bracket width of 1e-12."""
    if total_measure <= 0:
        raise MeasureError("Luxemburg norm needs a set of positive measure")
    vals = np.abs(np.asarray(vals, dtype=np.float64).ravel())
    vmax = float(vals.max(initial=0.0))
    if vmax == 0.0:
        return 0.0
    weight = cell_measure / total_measure

    def mean_phi(lam: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(phi.eval(vals / lam))) * weight

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
    """scalar_norms of the rows of every block: a drop-in for
    orlicz.luxemburg_blocks."""
    out = []
    for cells, total in blocks:
        shape = np.shape(cells)
        rows = np.reshape(cells, (math.prod(shape[:lead]), math.prod(shape[lead:])))
        out.append(scalar_norms(rows, cell_measure, total, phi).reshape(shape[:lead]))
    return out


def orlicz_maximal_oracle(fs: list[GridFunction], query) -> GridFunction:
    """orlicz_maximal, one Rect and one scalar bisection at a time."""
    f0 = fs[0]
    cellvol = float(np.prod(f0.cell_size))
    out = np.zeros(f0.shape)
    for r in enumerate_basis(query.basis, f0.shape, f0.cell_size):
        sl = r.slices()
        vol = r.volume(f0.cell_size)
        val = vol ** (query.alpha / f0.dims)
        for f, psi in zip(fs, query.orlicz):
            val *= scalar_norm(f.values[sl], cellvol, vol, psi)
        np.maximum(out[sl], val, out=out[sl])
    return f0.with_values(out)


def young_sup_oracle(w: GridFunction, v: GridFunction, q: float, a_young, b_young,
                     basis: Basis) -> float:
    """sup over rects R of ||w^q||_{A,R}^(1/q) ||1/v||_{B,R}, rect by rect."""
    cellvol = float(np.prod(w.cell_size))
    wq, vinv = w.values**q, 1.0 / v.values
    cond = 0.0
    for r in enumerate_basis(basis, w.shape, w.cell_size):
        sl = r.slices()
        measure = float(np.prod(r.cell_counts())) * cellvol
        cond = max(cond, scalar_norm(wq[sl], cellvol, measure, a_young) ** (1.0 / q)
                   * scalar_norm(vinv[sl], cellvol, measure, b_young))
    return cond
