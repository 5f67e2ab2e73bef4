"""Luxemburg norms over cell sets and the product/Hoelder lemmas.

The Luxemburg norm is the infimal lambda > 0 making the normalized mean of
Phi(|f|/lambda) over the set at most one; it is the unique crossing of a
monotone function of lambda, so bracketing bisection is exact up to the
requested tolerance.

There is one bisection, ``luxemburg_norms``, batched over the rows of an
(R, k) array, one set of k cells per row; a single norm is a one-row call.
Each row runs the scalar control flow on its own bracket, and its mean is
the pairwise sum of its k values along the contiguous last axis, the sum a
1-D array of those values gets. So every row sees the same sequence of
lambdas and the same means as a bisection run on that row alone, and gives
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, Rect
from .young import YoungFunction, complementary, iterate


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class CellSet:
    """Subset of grid cells as a boolean mask plus physical measure."""

    shape: tuple[int, ...]
    cell_size: tuple[float, ...]
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool).reshape(self.shape)
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "cell_size", tuple(float(h) for h in self.cell_size))

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
    if f.shape != e.shape:
        raise MeasureError("grid/cell-set shape mismatch")
    return np.abs(f.values[e.mask])


def luxemburg_norms(
    vals: np.ndarray, cell_measure: float, total_measure, phi: YoungFunction,
    rel_tol: float = 1e-12,
) -> np.ndarray:
    """Luxemburg norms of the rows of vals (R, k), one set of k cells per row.

    Every cell has measure cell_measure; total_measure is the measure of each
    row's set (a scalar or R values). Each row runs the scalar bracketing
    bisection: double hi from the row's max while the mean exceeds one, halve
    lo while half of it still satisfies, then bisect to rel_tol. Rows that
    have finished drop out of the active index arrays.
    """
    vals = np.asarray(vals, dtype=np.float64)
    total = np.broadcast_to(np.asarray(total_measure, dtype=np.float64), vals.shape[:1])
    if np.any(total <= 0):
        raise MeasureError("Luxemburg norm needs a set of positive measure")
    weight = cell_measure / total

    def mean_phi(rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # Phi sees a 1-D array, as in a one-set call; the sum runs along the
        # contiguous last axis, so each row gets the pairwise sum of its k
        # values that a 1-D array of them gets
        with np.errstate(over="ignore"):
            phis = phi.eval((vals[rows] / lam[:, None]).ravel()).reshape(len(rows), -1)
            return np.sum(phis, axis=1) * weight[rows]

    hi = vals.max(axis=1, initial=0.0)
    hi[hi == 0.0] = 0.0  # a row of zeros, of either sign, has norm +0.0
    live = np.flatnonzero(hi)
    rows = live
    while rows.size:
        rows = rows[mean_phi(rows, hi[rows]) > 1.0]
        hi[rows] *= 2.0
        if np.any(hi[rows] > 1e300):
            raise MeasureError(f"{phi.label}: Luxemburg bracket unbounded")
    lo = hi.copy()
    rows = live[lo[live] > 1e-300]
    while rows.size:
        rows = rows[mean_phi(rows, lo[rows] * 0.5) <= 1.0]
        lo[rows] *= 0.5
        rows = rows[lo[rows] > 1e-300]
    lo *= 0.5
    # lo violates (or hit underflow floor), hi satisfies
    rows = live[hi[live] - lo[live] > rel_tol * hi[live]]
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = mean_phi(rows, mid) <= 1.0
        hi[rows[ok]] = mid[ok]
        lo[rows[~ok]] = mid[~ok]
        rows = rows[hi[rows] - lo[rows] > rel_tol * hi[rows]]
    return hi


def luxemburg_norm_values(
    vals: np.ndarray, cell_measure: float, total_measure: float,
    phi: YoungFunction, rel_tol: float = 1e-12,
) -> float:
    """Luxemburg norm of raw member-cell values (uniform cell measure)."""
    row = np.reshape(vals, (1, -1))
    return float(luxemburg_norms(row, cell_measure, total_measure, phi, rel_tol)[0])


def luxemburg_norm(
    f: GridFunction, e: CellSet, phi: YoungFunction, rel_tol: float = 1e-12
) -> float:
    """||f||_{Phi,E}: inf{lam > 0 : mean_E Phi(|f|/lam) <= 1}."""
    vals = _member_values(f, e)
    if vals.size == 0:
        raise MeasureError("empty cell set")
    return luxemburg_norm_values(vals, f.cell_volume, e.measure, phi, rel_tol)


def mean_phi_over(f: GridFunction, e: CellSet, phi: YoungFunction) -> float:
    """(1/|E|) integral over E of Phi(|f|)."""
    vals = _member_values(f, e)
    if vals.size == 0:
        raise MeasureError("empty cell set")
    return float(np.sum(phi.eval(vals))) * f.cell_volume / e.measure


def norm_le_one_equivalence_check(
    f: GridFunction, e: CellSet, phi: YoungFunction, tol: float = 1e-9
) -> bool:
    """||f||_{Phi,E} <= 1 iff mean_E Phi(|f|) <= 1, within tol."""
    norm = luxemburg_norm(f, e, phi)
    mean = mean_phi_over(f, e, phi)
    return (norm <= 1.0 + tol) == (mean <= 1.0 + tol)


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
    phi_bar: YoungFunction | None = None, tol: float = 1e-9,
) -> CheckReport:
    """mean_E |fg| <= 2 ||f||_{Phi,E} ||g||_{conj Phi,E}."""
    if phi_bar is None:
        phi_bar = complementary(phi)
    lhs = float(np.sum(np.abs(f.values[e.mask] * g.values[e.mask]))) \
        * f.cell_volume / e.measure
    nf = luxemburg_norm(f, e, phi)
    ng = luxemburg_norm(g, e, phi_bar)
    rhs = 2.0 * nf * ng
    if math.isinf(rhs):
        return CheckReport("generalized_holder", lhs, rhs, True,
                           note="vacuous (RHS infinite)")
    return CheckReport("generalized_holder", lhs, rhs, lhs <= rhs + tol)


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
    return CheckReport("product_norm_lemma", norm_prod, mean_prod,
                       math.isfinite(mean_prod) and mean_prod > 0)

