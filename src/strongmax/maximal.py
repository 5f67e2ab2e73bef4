"""Strong, multilinear fractional, and Orlicz maximal operators.

All suprema are exact maxima over the enumerated basis. The all-rectangles
basis goes through the one numpy sweep in _kernels. Dyadic and cube bases,
scale-bounded bases and the Orlicz-norm variant are evaluated on the basis
as arrays (grid.basis_tables): one value per rectangle row, then a per-cell
maximum over the rows, folded one cell-count tuple at a time as a
sliding-window maximum. Each row value is the per-rectangle expression
evaluated elementwise, so these branches give the bits of a per-rectangle
loop. The Orlicz variant runs one batched Luxemburg bisection
(orlicz.luxemburg_norms) per cell-count tuple and slot. The multilinear
operator first scales each input by a power of two so that its maximum lies
in [0.5, 1), which keeps the prefix sums finite and, by homogeneity, changes
no bit of the result where nothing underflows. A slow per-point rectangle
scan, run on the unscaled inputs, is kept as an independent second
implementation for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .grid import (
    ALL_RECTS,
    Basis,
    GridFunction,
    GridError,
    PrefixSum,
    Rect,
    basis_tables,
    build_prefix_sum,
    enumerate_basis,
    rect_cell_sum,
    window_cells,
)
from .orlicz import luxemburg_norms
from .young import YoungFunction


@dataclass(frozen=True)
class MaximalQuery:
    """Parameters of a maximal-operator evaluation."""

    basis: Basis
    alpha: float = 0.0
    m: int = 1
    orlicz: tuple[YoungFunction, ...] | None = None

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
    # M is homogeneous in each f_i: run it on f_i * 2^-k_i, whose maximum
    # lies in [0.5, 1) so the prefix sums stay finite, and scale the result
    # by 2^sum(k_i); powers of two scale without rounding
    ks = [int(np.frexp(np.max(f.values))[1]) for f in fs]
    fs = [f.with_values(np.ldexp(f.values, -k)) for f, k in zip(fs, ks)]
    if query.basis.kind == ALL_RECTS and query.basis.scale_bounds is None:
        out = _kernels.sweep_all_rects(_stacked_prefix(fs), f0.cell_size, e)
    else:
        out = _basis_table_max(fs, query.basis, e)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(out, sum(ks))
    if np.all(np.isfinite(out)) and not np.all(np.isfinite(scaled)):
        raise GridError("maximal function value overflows the double range")
    return f0.with_values(scaled)


def strong_maximal(f: GridFunction, basis: Basis) -> GridFunction:
    """Classical strong maximal function: sup of plain averages."""
    return multilinear_fractional_maximal([f], MaximalQuery(basis=basis))


def _fold_max(out: np.ndarray, lo: np.ndarray, counts: tuple[int, ...], vals: np.ndarray) -> None:
    """out[x] = max(out[x], vals[j] over rows j whose rect holds cell x).

    Every row is a rect of the given cell counts with lowest cell lo[j], and
    no two rows share one. The values are laid out by lowest cell (-inf where
    there is no row), so the maximum over rects holding x is a box maximum
    over lowest cells x - counts + 1 .. x, taken one axis at a time.
    """
    best = np.full([nk - c + 1 for nk, c in zip(out.shape, counts)], -np.inf)
    best[tuple(lo.T)] = vals
    for axis, c in enumerate(counts):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (c - 1, c - 1)
        padded = np.pad(best, pad, constant_values=-np.inf)
        best = sliding_window_view(padded, c, axis=axis).max(axis=-1)
    np.maximum(out, best, out=out)


def _basis_table_max(fs: list[GridFunction], basis: Basis, e: float) -> np.ndarray:
    """max over basis rects R holding each cell of |R|^e prod_i integral_R f_i."""
    f0 = fs[0]
    prefixes = [build_prefix_sum(f) for f in fs]
    cellvol = f0.cell_volume
    out = np.zeros(f0.shape)
    for table in basis_tables(basis, f0.shape, f0.cell_size):
        val = _kernels.libm_pow(table.volumes(f0.cell_size), e)
        for p in prefixes:
            val = val * (table.cell_sums(p) * cellvol)
        for counts, rows in table.count_groups():
            _fold_max(out, table.lo[rows], counts, val[rows])
    return out


def _rect_value(prefixes: list[PrefixSum], cell_size, r: Rect, e: float) -> float:
    # Bit-for-bit agreement with the sweep kernels rests on three things:
    # the volume is the same left-associated product of per-axis physical
    # spans (and the cell volume the same math.prod, a left fold), the cell
    # sums difference the prefix sums in the same order, and the scalar
    # vol**e is one libm pow call, as is each entry of
    # _kernels.vol_pow_table (math.pow on the same double).
    vol = (r.hi[0] - r.lo[0] + 1.0) * cell_size[0]
    for k in range(1, r.dims):
        vol = vol * ((r.hi[k] - r.lo[k] + 1.0) * cell_size[k])
    cellvol = math.prod(cell_size)
    try:
        val = vol**e
    except (OverflowError, ZeroDivisionError):
        raise GridError(f"|R|^e leaves the double range (|R| = {vol!r}, e = {e!r})") from None
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

    phi(t) = t^(alpha/n) with alpha = query.alpha; Psi_i from query.orlicz.
    """
    f0 = _check_common_grid(fs)
    n = f0.dims
    query.validate(n)
    if query.orlicz is None:
        raise GridError("orlicz_maximal needs query.orlicz")
    scale_exp = query.alpha / n
    cellvol = f0.cell_volume
    out = np.zeros(f0.shape)
    for table in basis_tables(query.basis, f0.shape, f0.cell_size):
        vols = table.volumes(f0.cell_size)
        scales = _kernels.libm_pow(vols, scale_exp)
        for counts, rows in table.count_groups():
            lo, val = table.lo[rows], scales[rows]
            for f, psi in zip(fs, query.orlicz):
                cells = window_cells(f.values, counts, lo)
                val = val * luxemburg_norms(cells, cellvol, vols[rows], psi)
            _fold_max(out, lo, counts, val)
    return f0.with_values(out)


def level_set_measure(mf: GridFunction, lam: float) -> float:
    """Physical measure of the strict super-level set {Mf > lam}."""
    return float(np.count_nonzero(mf.values > lam)) * mf.cell_volume


def lp_norm(f: GridFunction, p: float, weight: GridFunction | None = None) -> float:
    """Global L^p norm, optionally against a weight density."""
    w = weight.values if weight is not None else 1.0
    return float(np.sum(f.values**p * w) * f.cell_volume) ** (1.0 / p)
