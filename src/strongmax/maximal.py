"""Strong, multilinear fractional, and Orlicz maximal operators.

All suprema are exact maxima over the basis, taken by one walk for every
basis (_kernels.fold_sizes over grid.basis_sizes): the rects of one
cell-count tuple are evaluated at once, each as the per-rectangle
expression, and folded into the output; a maximum rounds nothing, so the
bits are those of a per-rectangle loop. The multilinear operator walks the
prefix sums (_kernels.sweep), many m-tuples in one walk. The Orlicz
operator first takes the Luxemburg norms of every rect of every size, one
lockstep bisection per Young function (orlicz.size_norms), forms each
rect's value from them, and then walks with a leaf that looks the values
up, one tuple per walk (a batch of one).

One body, _maximal, serves both operators. It takes a list of m-tuples on
one grid with one query and returns their maximal functions in order; the
public operators pass a list of one tuple. It checks the inputs (one grid,
m functions per tuple, 0 <= alpha < m*n, m Young functions for the Orlicz
operator and none for the multilinear one, so the query's Young functions
select the operator), scales each input by a power of two so that its
maximum lies in [0.5, 1), runs the walk, scales each member's result back
by its own power and raises a GridError where that leaves the double
range. In the walk, a member whose output is not finite takes the redo
walk with the other such members (see _kernels.sweep), and the rest keep
their one walk; each member's bits are those of its own call. Both
operators are homogeneous in each input, and a power of two scales every
integral, Luxemburg norm and product without rounding, so the scaling
changes no bit of the result where no scaled value underflows; it keeps
the prefix sums finite. A slow per-point rectangle scan, run on the
unscaled inputs after the same checks, is kept as an independent second
implementation for cross-checking.
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
)
from .orlicz import size_norms
from .young import YoungFunction


@dataclass(frozen=True)
class MaximalQuery:
    """Parameters of a maximal-operator evaluation."""

    basis: Basis
    alpha: float = 0.0
    m: int = 1
    orlicz: tuple[YoungFunction, ...] | None = None


def _check_common_grid(fs: list[GridFunction]) -> GridFunction:
    if not fs:
        raise GridError("need at least one function")
    f0 = fs[0]
    for f in fs[1:]:
        if not f0.same_grid(f):
            raise GridError("all input functions must live on the same grid")
    return f0


def _checked(fs: list[GridFunction], query: MaximalQuery, orlicz: bool = False) -> GridFunction:
    """The grid of fs, after the checks every operator makes."""
    f0 = _check_common_grid(fs)
    if len(fs) != query.m:
        raise GridError(f"query.m={query.m} but {len(fs)} functions given")
    if not 0 <= query.alpha < query.m * f0.dims:
        raise GridError(f"need 0 <= alpha < m*n, got alpha={query.alpha}, m={query.m}, n={f0.dims}")
    if orlicz and len(query.orlicz or ()) != query.m:
        raise GridError("query.orlicz must hold m Young functions")
    if not orlicz and query.orlicz is not None:
        raise GridError("query.orlicz selects the Orlicz operator: call orlicz_maximal, or set orlicz=None")
    return f0


def _maximal(batch: list[list[GridFunction]], query: MaximalQuery, orlicz: bool) -> list[GridFunction]:
    """The maximal function of each m-tuple in batch, all on one grid."""
    if not batch:
        return []
    f0 = _checked(batch[0], query, orlicz)
    if not all(_checked(fs, query, orlicz).same_grid(f0) for fs in batch[1:]):
        raise GridError("all input functions must live on the same grid")
    n = f0.dims
    ks = [[int(np.frexp(np.max(f.values))[1]) for f in fs] for fs in batch]
    batch = [[f.with_values(np.ldexp(f.values, -k)) for f, k in zip(fs, kf)] for fs, kf in zip(batch, ks)]
    sizes = list(basis_sizes(query.basis, f0.shape, f0.cell_size))
    if orlicz:
        out = np.concatenate([_orlicz_walk(fs, query, sizes) for fs in batch])
    else:
        # the stack axis first and the batch axis second: (m, B, N_1+1, ...)
        P = np.stack([np.stack([build_prefix_sum(f).cum for f in fs]) for fs in batch], axis=1)
        out = _kernels.sweep(P, f0.cell_size, query.alpha / n - query.m, sizes)
    results = []
    for vals, kf in zip(out, ks):
        with np.errstate(over="ignore"):
            scaled = np.ldexp(vals, sum(kf))
        if np.all(np.isfinite(vals)) and not np.all(np.isfinite(scaled)):
            raise GridError("maximal function value overflows the double range")
        results.append(f0.with_values(scaled))
    return results


def _orlicz_walk(fs: list[GridFunction], query: MaximalQuery, sizes) -> np.ndarray:
    """The Orlicz maximal values of one tuple, as a batch of one."""
    f0 = fs[0]
    vols = _kernels.volume_table(f0.shape, f0.cell_size)
    scales = _kernels.libm_pow(vols, query.alpha / f0.dims)
    at = [tuple(c - 1 for c in counts) for counts, _ in sizes]
    norms = size_norms(np.stack([f.values for f in fs]), sizes, f0.cell_volume,
                       [vols[i] for i in at], query.orlicz)
    # phi(|R|) * prod_i ||f_i||_{Psi_i,R}, the product in slot order
    leaves = {}
    for s, ((counts, _), i) in enumerate(zip(sizes, at)):
        val = scales[i]
        for slot in norms:
            val = val * slot[s]
        leaves[counts] = val[None]
    return _kernels.fold_sizes((1,) + f0.shape, sizes, None, lambda src, *_: src, lambda counts, _: leaves[counts])


def multilinear_fractional_maximal(
    fs: list[GridFunction], query: MaximalQuery
) -> GridFunction:
    """sup over basis rects R containing x of prod_i |R|^(alpha/(mn)-1) int_R f_i."""
    return _maximal([fs], query, orlicz=False)[0]


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
        # scalar vol**e is one C library pow call, the function that
        # _kernels.libm_pow's np.float_power calls for each entry of
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
    f0 = _checked(fs, query)
    return _maximal_rect_scan(fs, query.basis, query.alpha / f0.dims - query.m)


def orlicz_maximal(fs: list[GridFunction], query: MaximalQuery) -> GridFunction:
    """sup over basis sets B of phi(|B|) * prod_i ||f_i||_{Psi_i,B}.

    phi(t) = t^(alpha/n) with alpha = query.alpha; Psi_i from query.orlicz.
    """
    return _maximal([fs], query, orlicz=True)[0]


def level_set_measure(mf: GridFunction, lam: float) -> float:
    """Physical measure of the strict super-level set {Mf > lam}."""
    if math.isnan(lam):
        raise GridError("level must not be NaN")
    return float(np.count_nonzero(mf.values > lam)) * mf.cell_volume


def lp_norm(f: GridFunction, p: float, weight: GridFunction | None = None) -> float:
    """Global L^p norm, 0 < p < inf, optionally against a weight density."""
    if not 0 < p < math.inf:
        raise GridError(f"lp_norm needs 0 < p < inf, got {p}")
    if weight is not None and not f.same_grid(weight):
        raise GridError("weight must live on the function's grid")
    w = weight.values if weight is not None else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        # an f^p past the double range times a zero weight is NaN, which raises as +inf does
        total = float(np.sum(f.values**p * w) * f.cell_volume)
    norm = float(_kernels.libm_pow(total, 1.0 / p))
    if not norm < math.inf or (total == 0.0 and np.any((f.values > 0) & (w > 0))):
        raise GridError(f"the L^{p:g} integral or its root leaves the double range")
    return norm
