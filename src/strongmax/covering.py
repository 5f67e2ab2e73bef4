"""Rectangle selection: overlap-threshold covering and scattered subsequences.

Two selection passes over an ordered rectangle family:

* cf_select - greedy covering extraction in volume-descending order, keeping
  a rectangle only when the already-kept union covers at most a theta
  fraction of it, with union-comparability and exponential-packing
  statistics;
* scattered_select - input-order selection keeping each set whose overlap
  with the union of previously kept sets is at most a lambda fraction,
  with the chain comparability constant (minimal C over all index pairs).

Both keep rects in one greedy walk (_greedy_keep), whose per-cell count of
kept rects is also their union; the chain constant reads its prefix and
window unions from one mass walk (_union_masses). Both are deterministic
given the input order and threshold.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridError, GridFunction, Rect, grid_axes


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class RectFamily:
    """Ordered rectangles on a common grid; order is selection-relevant."""

    shape: tuple[int, ...]
    cell_size: tuple[float, ...]
    rects: tuple[Rect, ...]

    def __post_init__(self):
        if not self.rects:
            raise SelectionError("empty rectangle family")
        shape, h = grid_axes(self.shape, self.cell_size)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cell_size", h)
        object.__setattr__(self, "rects", tuple(self.rects))
        for r in self.rects:
            if r.dims != len(self.shape):
                raise GridError("rect dimension mismatch")
            if not r.within(self.shape):
                raise GridError(f"rect {r} out of grid bounds {self.shape}")

    def __len__(self) -> int:
        return len(self.rects)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.cell_size)

    def union_cells(self, indices=None) -> int:
        mask = np.zeros(self.shape, dtype=bool)
        idx = range(len(self.rects)) if indices is None else indices
        for i in idx:
            mask[self.rects[i].slices()] = True
        return int(np.count_nonzero(mask))

    def union_measure(self, indices=None) -> float:
        return float(self.union_cells(indices)) * self.cell_volume


@dataclass
class SelectionResult:
    kept: list[int]
    union_before: float
    union_after: float
    overlap: GridFunction  # sum of kept indicators
    packing: dict = field(default_factory=dict)
    scattered_check: bool | None = None
    chain_constant: float | None = None  # minimal C of the comparability chain

    @property
    def c_emp(self) -> float:
        return self.union_before / self.union_after

    def __post_init__(self):
        if self.union_after > self.union_before + 1e-12:
            raise SelectionError("kept union exceeds family union")


# default packing exponents delta swept in cf_select reports
PACKING_DELTAS = tuple(round(0.1 * k, 2) for k in range(1, 21))  # 0.1 .. 2.0


def _rect_cells(r: Rect) -> int:
    return int(np.prod(r.cell_counts()))


def _greedy_keep(fam: RectFamily, order, frac: float) -> tuple[list[int], np.ndarray]:
    """Walk the rects in the given order and keep each one that the union of
    those kept before covers in at most frac of its cells; returns the kept
    indices and the per-cell count of kept rects (their union is count > 0)."""
    overlap = np.zeros(fam.shape, dtype=np.int64)
    kept: list[int] = []
    for i in order:
        sl = fam.rects[i].slices()
        if int(np.count_nonzero(overlap[sl])) <= frac * _rect_cells(fam.rects[i]):
            kept.append(i)
            overlap[sl] += 1
    return kept, overlap


def _union_masses(fam: RectFamily, idx, wv: np.ndarray) -> list[float]:
    """w(union of the first k rects of idx) for k = 0..len(idx), grown one
    rect at a time: each adds the w-mass of the cells it newly covers."""
    mask = np.zeros(fam.shape, dtype=bool)
    masses = [0.0]
    for i in idx:
        sl = fam.rects[i].slices()
        masses.append(masses[-1] + float(np.sum(wv[sl][~mask[sl]])) * fam.cell_volume)
        mask[sl] = True
    return masses


def cf_select(fam: RectFamily, theta: float = 0.5) -> SelectionResult:
    """Greedy covering extraction with overlap threshold theta.

    Processes rectangles in volume-descending order (ties broken by input
    order) and keeps R when the kept union covers at most theta*|R| of it.
    Reports the union comparability c_emp = |union family| / |union kept|
    and, per packing exponent delta, the integral of
    exp((delta * overlap)^(1/(n-1))) over the kept union against twice its
    measure (skipped for n = 1, where the exponent is undefined).
    """
    if not 0 < theta < 1:
        raise SelectionError("theta must lie in (0,1)")
    n = len(fam.shape)
    cellvol = fam.cell_volume
    order = sorted(range(len(fam)), key=lambda i: (-_rect_cells(fam.rects[i]), i))
    kept, overlap = _greedy_keep(fam, order, theta)
    # kept stays in selection (volume-descending) order: that is the order
    # in which the scattered property holds by construction
    union_after = float(np.count_nonzero(overlap)) * cellvol

    packing: dict = {}
    if n == 1:
        packing["note"] = "n=1 not applicable (exponent 1/(n-1) undefined)"
        packing["max_feasible_delta"] = None
    else:
        ex = 1.0 / (n - 1)
        ov = overlap[overlap > 0].astype(np.float64)
        rows = []
        for delta in PACKING_DELTAS:
            integral = float(np.sum(np.exp((delta * ov) ** ex))) * cellvol
            rows.append({"delta": delta, "integral": integral,
                         "bound": 2.0 * union_after, "ok": integral <= 2.0 * union_after})
        packing["deltas"] = rows
        packing["max_feasible_delta"] = max((r["delta"] for r in rows if r["ok"]), default=None)

    return SelectionResult(
        kept=kept,
        union_before=fam.union_measure(),
        union_after=union_after,
        overlap=GridFunction(fam.shape, fam.cell_size, overlap.astype(np.float64)),
        packing=packing,
        scattered_check=is_scattered(fam, kept, theta),
    )


def is_scattered(fam: RectFamily, indices: list[int], lam: float) -> bool:
    """Each indexed set meets the union of its predecessors (within the
    subsequence, in the given order) in at most a lam fraction of itself."""
    union = np.zeros(fam.shape, dtype=bool)
    for i in indices:
        sl = fam.rects[i].slices()
        if int(np.count_nonzero(union[sl])) > lam * _rect_cells(fam.rects[i]):
            return False
        union[sl] = True
    return True


def scattered_select(
    fam: RectFamily, lam: float = 0.5, w: GridFunction | None = None
) -> SelectionResult:
    """Input-order scattered subsequence extraction plus chain comparability.

    Keeps A_i iff its overlap with the union of previously kept sets is at
    most lam*|A_i|. Reports:
      * scattered_check - the kept subsequence is lam-scattered (exact);
      * chain_constant - the minimal C with
        w(U_{s<j} A_s) <= C * [w(U_{s<i} A_s) + w(U_{i<=s<j} kept A_s)]
        over all 1 <= i < j <= N+1 (w defaults to Lebesgue measure).
    """
    if not 0 < lam < 1:
        raise SelectionError("lambda must lie in (0,1)")
    if w is not None and (w.shape, w.cell_size) != (fam.shape, fam.cell_size):
        raise GridError("weight grid mismatch")
    wv = w.values if w is not None else np.ones(fam.shape)
    n_fam = len(fam)
    kept, overlap = _greedy_keep(fam, range(n_fam), lam)

    # 0-based: prefix_w[j] = w(U_{s<j} A_s); per window start i, win[k] is the mass of
    # the first k kept sets from i on, so U_{i<=s<j} kept is win[#(ks < j)]
    prefix_w = _union_masses(fam, range(n_fam), wv)
    chain_c = 0.0
    for i in range(n_fam):
        ks = kept[bisect.bisect_left(kept, i):]
        win = _union_masses(fam, ks, wv)
        for j in range(i + 1, n_fam + 1):
            lhs = prefix_w[j]
            rhs = prefix_w[i] + win[bisect.bisect_left(ks, j)]
            if lhs > 0:
                if rhs == 0:
                    chain_c = math.inf
                else:
                    chain_c = max(chain_c, lhs / rhs)

    return SelectionResult(
        kept=kept,
        union_before=fam.union_measure(),
        union_after=float(np.count_nonzero(overlap)) * fam.cell_volume,
        overlap=GridFunction(fam.shape, fam.cell_size, overlap.astype(np.float64)),
        scattered_check=is_scattered(fam, kept, lam),
        chain_constant=chain_c,
    )


def disjointification_bound_check(fam: RectFamily, kept: list[int], lam: float) -> bool:
    """|kept union| >= (1-lam) * sum of kept measures.

    Follows from the disjoint decomposition E_i = A_i \\ U_{s<i} A_s of the
    kept sequence, where the scattered property gives |A_i| <= |E_i|/(1-lam).
    Both sides are cell counts times the cell volume, so the counts are
    compared, with no slack that would outweigh the measures of small cells.
    """
    total = sum(_rect_cells(fam.rects[i]) for i in kept)
    return fam.union_cells(kept) >= (1.0 - lam) * total
