"""Strong, multilinear fractional, and Orlicz maximal operators.

All suprema are exact maxima over the basis, taken by one engine for every
basis (_kernels.sweep): the rects of one cell-count tuple (grid.basis_sizes)
are evaluated at once, each as the per-rectangle expression, and folded
into the output by _kernels.fold_max; a maximum rounds nothing, so the bits
are those of a per-rectangle loop. The Orlicz variant takes the same sizes
and fold, with one batched Luxemburg bisection per size and slot. The
multilinear operator first scales each input by a power of two so that its
maximum lies in [0.5, 1), which keeps the prefix sums finite and, by
homogeneity, changes no bit of the result where nothing underflows. A slow
per-point rectangle scan, run on the unscaled inputs, is kept as an
independent second implementation for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import (
    Basis,
    GridFunction,
    GridError,
    basis_sizes,
    build_prefix_sum,
    enumerate_basis,
    rect_cell_sum,
    size_cells,
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
    if not fs:
        raise GridError("need at least one function")
    f0 = fs[0]
    for f in fs[1:]:
        if not f0.same_grid(f):
            raise GridError("all input functions must live on the same grid")
    return f0


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
    P = np.stack([build_prefix_sum(f).cum for f in fs])
    out = _kernels.sweep(P, f0.cell_size, e, basis_sizes(query.basis, f0.shape, f0.cell_size))
    with np.errstate(over="ignore"):
        scaled = np.ldexp(out, sum(ks))
    if np.all(np.isfinite(out)) and not np.all(np.isfinite(scaled)):
        raise GridError("maximal function value overflows the double range")
    return f0.with_values(scaled)


def strong_maximal(f: GridFunction, basis: Basis) -> GridFunction:
    """Classical strong maximal function: sup of plain averages."""
    return multilinear_fractional_maximal([f], MaximalQuery(basis=basis))


def _maximal_rect_scan(fs: list[GridFunction], basis: Basis, e: float) -> GridFunction:
    f0 = fs[0]
    prefixes = [build_prefix_sum(f) for f in fs]
    cellvol = math.prod(f0.cell_size)
    out = np.zeros(f0.shape)
    for r in enumerate_basis(basis, f0.shape, f0.cell_size):
        # Bit-for-bit agreement with the engine rests on three things: the
        # volume is the same left-associated product of per-axis physical
        # spans (and the cell volume the same math.prod, a left fold), the
        # cell sums difference the prefix sums in the same order, and the
        # scalar vol**e is one libm pow call, as is each entry of
        # _kernels.vol_pow_table.
        vol = r.volume(f0.cell_size)
        try:
            val = vol**e
        except (OverflowError, ZeroDivisionError):
            raise GridError(f"|R|^e leaves the double range (|R| = {vol!r}, e = {e!r})") from None
        for p in prefixes:
            val *= rect_cell_sum(p, r) * cellvol
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
    cellvol = f0.cell_volume
    vols = _kernels.volume_table(f0.shape, f0.cell_size)
    scales = _kernels.vol_pow_table(f0.shape, f0.cell_size, query.alpha / n)
    out = np.zeros(f0.shape)
    for counts, step in basis_sizes(query.basis, f0.shape, f0.cell_size):
        size = tuple(c - 1 for c in counts)
        val = scales[size]
        for f, psi in zip(fs, query.orlicz):
            val = val * luxemburg_norms(size_cells(f.values, counts, step), cellvol, vols[size], psi)
        _kernels.fold_max(out, val, counts, step)
    return f0.with_values(out)


def level_set_measure(mf: GridFunction, lam: float) -> float:
    """Physical measure of the strict super-level set {Mf > lam}."""
    return float(np.count_nonzero(mf.values > lam)) * mf.cell_volume


def lp_norm(f: GridFunction, p: float, weight: GridFunction | None = None) -> float:
    """Global L^p norm, optionally against a weight density."""
    if weight is not None and not f.same_grid(weight):
        raise GridError("weight must live on the function's grid")
    w = weight.values if weight is not None else 1.0
    return float(np.sum(f.values**p * w) * f.cell_volume) ** (1.0 / p)
