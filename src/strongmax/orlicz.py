"""Luxemburg norms over cell sets and the product/Hoelder lemmas.

The Luxemburg norm is the infimal lambda > 0 making the normalized mean of
Phi(|f|/lambda) over the set at most one; it is the unique crossing of a
monotone function of lambda, so bracketing bisection is exact up to the
relative tolerance young.REL_TOL. That tolerance is a fixed constant far
above the double spacing (2^-52), so the bracket always narrows below it
and every bisection ends.

There is one bisection, ``luxemburg_norms``, batched over the rows of an
(R, k) array, one set of k cells per row; a single norm is a one-row call.
Each row runs the scalar control flow on its own bracket, and its mean is
the pairwise sum of its k values along the contiguous last axis, the sum a
1-D array of those values gets. So every row sees the same sequence of
lambdas and the same means as a bisection run on that row alone, and gives
the same bits. Each row is first scaled by a power of two so that its
maximum lies in [0.5, 1), and its norm scaled back. A power of two scales
every lambda, mean argument and bracket without rounding, so this changes
no bit where the unscaled bisection stays within its fixed floor (1e-300)
and ceiling (1e300) and no scaled cell is subnormal; it keeps lo + hi
finite and those limits far from any row's norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, Rect, grid_axes
from .young import REL_TOL, YoungFunction, complementary, iterate


TOL = 1e-9  # slack of the norm-vs-mean and Hoelder comparisons


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


def luxemburg_norms(
    vals: np.ndarray, cell_measure: float, total_measure, phi: YoungFunction
) -> np.ndarray:
    """Luxemburg norms of the rows of vals (R, k), one set of k cells per row.

    Every cell has measure cell_measure; total_measure is the measure of each
    row's set (a scalar or R values). Each row runs the scalar bracketing
    bisection: double hi from the row's max while the mean exceeds one, halve
    lo while half of it still satisfies, then bisect to REL_TOL. Rows that
    have finished drop out of the active index arrays.
    """
    vals = np.asarray(vals, dtype=np.float64)
    total = np.broadcast_to(np.asarray(total_measure, dtype=np.float64), vals.shape[:1])
    if not (0 < cell_measure < math.inf and np.all((0 < total) & (total < math.inf))):
        raise MeasureError("Luxemburg norm needs cells and sets of finite positive measure")
    if np.isnan(vals).any():
        raise MeasureError("Luxemburg norm of a NaN cell value")
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
    # each row runs on its values times 2^-k, k the exponent of its max
    ks = np.frexp(hi)[1]
    vals, hi = np.ldexp(vals, -ks[:, None]), np.ldexp(hi, -ks)
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
    rows = live[hi[live] - lo[live] > REL_TOL * hi[live]]
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = mean_phi(rows, mid) <= 1.0
        hi[rows[ok]] = mid[ok]
        lo[rows[~ok]] = mid[~ok]
        rows = rows[hi[rows] - lo[rows] > REL_TOL * hi[rows]]
    return np.ldexp(hi, ks)


def luxemburg_norm_values(
    vals: np.ndarray, cell_measure: float, total_measure: float, phi: YoungFunction
) -> float:
    """Luxemburg norm of raw member-cell values (uniform cell measure)."""
    row = np.reshape(vals, (1, -1))
    return float(luxemburg_norms(row, cell_measure, total_measure, phi)[0])


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

