"""Strong, multilinear fractional, and Orlicz maximal operators.

All suprema are exact maxima over the enumerated basis. The all-rectangles
basis goes through the sweep kernels (numba or numpy backend, see
_kernels); dyadic and cube bases and the Orlicz-norm variant walk the
enumerated rectangles directly. A slow per-point rectangle scan is kept as
an independent second implementation for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import (
    ALL_RECTS,
    Basis,
    GridFunction,
    GridError,
    PrefixSum,
    Rect,
    build_prefix_sum,
    enumerate_basis,
    rect_cell_sum,
)
from .orlicz import CellSet, luxemburg_norm_values
from .young import YoungFunction


@dataclass(frozen=True)
class MaximalQuery:
    """Parameters of a maximal-operator evaluation."""

    basis: Basis
    alpha: float = 0.0
    m: int = 1
    orlicz: tuple[YoungFunction, ...] | None = None
    phi_scale_alpha: float | None = None  # scale function phi(t) = t^(alpha/n)

    def validate(self, n: int) -> None:
        if not 0 <= self.alpha < self.m * n:
            raise GridError(f"need 0 <= alpha < m*n, got alpha={self.alpha}, m={self.m}, n={n}")
        if self.orlicz is not None and len(self.orlicz) != self.m:
            raise GridError("orlicz list length must equal m")


def _check_common_grid(fs: list[GridFunction]) -> GridFunction:
    f0 = fs[0]
    for f in fs[1:]:
        if not f0.same_grid(f):
            raise GridError("all input functions must live on the same grid")
    return f0


def _stacked_prefix(fs: list[GridFunction]) -> np.ndarray:
    return np.stack([build_prefix_sum(f).cum for f in fs])


def multilinear_fractional_maximal(
    fs: list[GridFunction], query: MaximalQuery
) -> GridFunction:
    """sup over basis rects R containing x of prod_i |R|^(alpha/(mn)-1) int_R f_i."""
    f0 = _check_common_grid(fs)
    n = f0.dims
    m = len(fs)
    if m != query.m:
        raise GridError(f"query.m={query.m} but {m} functions given")
    query.validate(n)
    e = query.alpha / n - m  # |R|^e * prod integrals
    if query.basis.kind == ALL_RECTS and query.basis.scale_bounds is None:
        out = _kernels.sweep_all_rects(_stacked_prefix(fs), f0.cell_size, e)
        return f0.with_values(out)
    return _maximal_rect_scan(fs, query.basis, e)


def strong_maximal(f: GridFunction, basis: Basis) -> GridFunction:
    """Classical strong maximal function: sup of plain averages."""
    return multilinear_fractional_maximal([f], MaximalQuery(basis=basis))


def _rect_value(prefixes: list[PrefixSum], cell_size, r: Rect, e: float) -> float:
    # Bit-for-bit agreement with the sweep kernels rests on three things:
    # the volume is the same left-associated product of per-axis physical
    # spans, the cell sums difference the prefix sums in the same order, and
    # the scalar vol**e is one libm pow call, as is each entry of
    # _kernels.vol_pow_table (math.pow on the same double).
    vol = (r.hi[0] - r.lo[0] + 1.0) * cell_size[0]
    for k in range(1, r.dims):
        vol = vol * ((r.hi[k] - r.lo[k] + 1.0) * cell_size[k])
    cellvol = cell_size[0]
    for k in range(1, r.dims):
        cellvol = cellvol * cell_size[k]
    val = vol**e
    for p in prefixes:
        val *= rect_cell_sum(p, r) * cellvol
    return val


def _maximal_rect_scan(fs: list[GridFunction], basis: Basis, e: float) -> GridFunction:
    f0 = fs[0]
    prefixes = [build_prefix_sum(f) for f in fs]
    out = np.zeros(f0.shape)
    for r in enumerate_basis(basis, f0.shape, f0.cell_size):
        val = _rect_value(prefixes, f0.cell_size, r, e)
        sl = r.slices()
        np.maximum(out[sl], val, out=out[sl])
    return f0.with_values(out)


def maximal_reference_scan(fs: list[GridFunction], query: MaximalQuery) -> GridFunction:
    """Independent per-rect scan implementation (oracle for the kernels)."""
    f0 = _check_common_grid(fs)
    query.validate(f0.dims)
    e = query.alpha / f0.dims - len(fs)
    return _maximal_rect_scan(fs, query.basis, e)


def orlicz_maximal(fs: list[GridFunction], query: MaximalQuery) -> GridFunction:
    """sup over basis sets B of phi(|B|) * prod_i ||f_i||_{Psi_i,B}.

    phi(t) = t^(alpha/n) with alpha taken from phi_scale_alpha (falling back
    to query.alpha); Psi_i from query.orlicz.
    """
    f0 = _check_common_grid(fs)
    n = f0.dims
    query.validate(n)
    if query.orlicz is None:
        raise GridError("orlicz_maximal needs query.orlicz")
    alpha = query.alpha if query.phi_scale_alpha is None else query.phi_scale_alpha
    scale_exp = alpha / n
    cellvol = float(np.prod(f0.cell_size))
    out = np.zeros(f0.shape)
    for r in enumerate_basis(query.basis, f0.shape, f0.cell_size):
        sl = r.slices()
        vol = r.volume(f0.cell_size)
        val = vol**scale_exp
        for f, psi in zip(fs, query.orlicz):
            vals = f.values[sl].ravel()
            val *= luxemburg_norm_values(vals, cellvol, vol, psi)
        np.maximum(out[sl], val, out=out[sl])
    return f0.with_values(out)


def level_set_measure(mf: GridFunction, lam: float) -> float:
    """Physical measure of the strict super-level set {Mf > lam}."""
    return float(np.count_nonzero(mf.values > lam)) * mf.cell_volume


def lp_norm(f: GridFunction, p: float, weight: GridFunction | None = None) -> float:
    """Global L^p norm, optionally against a weight density."""
    w = weight.values if weight is not None else 1.0
    return float(np.sum(f.values**p * w) * f.cell_volume) ** (1.0 / p)
