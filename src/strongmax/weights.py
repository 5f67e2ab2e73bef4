"""Muckenhoupt-type weight constants and classifications over rectangle bases.

Membership in a weight class is not decidable from a single finite grid, so
every "in class" judgment here is a threshold classification: constants are
computed exactly over the enumerated basis, and divergence is detected as
growth across scales (nested rectangles, rising resolution). Reports carry
the raw scale profiles.

A basis-wide constant is the exact maximum over the basis, taken one block
of grid.basis_blocks at a time: a product of per-axis interval lists, in
enumeration order. Every constant and every origin-anchored growth profile
forms the values of a block through one function, _row_values: a
left-to-right product of factors, each a rectangle average or an inverse
minimum raised by one libm ``pow`` per element (_kernels.libm_pow). Each
rect's value is therefore the same floating-point expression as the scalar
per-rectangle formula, so the constants and their witnesses (the first
strict maximum in enumeration order) match a per-Rect scan bit for bit. A
power that leaves the double range gives +inf, so such a constant counts
as >= CAP.

The factors carry a leading batch axis: B weight tuples on one grid, with
one set of exponents, share one walk over the basis (ap_constants,
multi_weight_constants_ap/_apq, power_bump_constants), each row formed by
the same elementwise expressions as its own call, so each gets that call's
bits and witness. A block is formed for a few rows at a time (ROW_RECTS),
so memory stays flat however many tuples a batch holds. The single-tuple
functions are the batch of one.

The A_infty classifier reads all of its nested families, the
origin-anchored boxes of 2^l cells along each axis (l = 0 .. lmax), straight
from the values: grid.anchored_box_sums keeps only those entries of the
prefix sum, bit for bit, without building the rest of it. Their masses are
those sums times the cell volume, and their volumes the outer products of
the per-axis sides, left to right as Rect.volume and _kernels.volume_table
form them. So every family point is the per-Rect ratio bit for bit. Where a
mass or volume of a ratio is not a normal double (a cell side of 1e200 or
1e-200 squared), the cell volume, which cancels, is left out: the ratio is
taken from the cell sums or the cell counts. Only the record's random pairs
read arbitrary rects, and only they build the whole prefix sum.

The A_infty classifier and the reverse doubling constant take a batch of
weights on one grid too (a_infty_classifies, reverse_doubling_constants):
the box and block sums of every member come from one array operation, and
each member's fit, overflow redo and minimum stay its own, so each gets the
bits of its own call, which is the batch of one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._kernels import BATCH, libm_pow, vol_pow_table
from .grid import (
    RECT_BLOCK,
    Basis,
    Block,
    GridError,
    GridFunction,
    PrefixSum,
    Rect,
    anchored_box_sums,
    basis_blocks,
    block_cell_mins,
    block_cell_sums,
    build_prefix_sum,
    prefix_sum_of,
    random_rect,
    rect_cell_sum,
)
from .maximal import MaximalQuery, _maximal

CAP = 1e6  # finiteness proxy for class membership on a fixed grid
SLOPE_TOL = 0.01  # largest fitted log-constant slope an A_infty family may keep
TAUBERIAN_TRIALS = 20  # random sets of each kind in the Tauberian estimate
RATIO_THRESHOLD = 0.9  # tail log-increment ratio at which a profile counts as growing


class WeightError(ValueError):
    pass


def _require_positive(w: GridFunction, name: str = "weight") -> None:
    if np.any(w.values <= 0):
        raise WeightError(f"{name} must be strictly positive cellwise")


def holder_p(ps) -> float:
    """1/p = sum 1/p_i."""
    return 1.0 / sum(1.0 / pi for pi in ps)


def conj_exponent(p: float) -> float:
    return p / (p - 1.0)


@dataclass(frozen=True)
class WeightVector:
    """m-tuple of strictly positive weights with exponents (p_i, q, alpha)."""

    weights: tuple[GridFunction, ...]
    ps: tuple[float, ...]
    q: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if not 0 < len(self.weights) == len(self.ps):
            raise WeightError("need at least one weight, and one exponent per weight")
        if not all(1 <= pi < math.inf for pi in self.ps):
            raise WeightError(f"exponents p_i must be finite and >= 1, got {self.ps}")
        if not (0 < self.q < math.inf and 0 <= self.alpha < math.inf):
            raise WeightError(f"need 0 < q < inf and 0 <= alpha < inf, got q={self.q}, alpha={self.alpha}")
        for w in self.weights:
            _require_positive(w)
        g0 = self.weights[0]
        for w in self.weights[1:]:
            if not g0.same_grid(w):
                raise WeightError("weights must share one grid")
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "ps", tuple(float(p) for p in self.ps))

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> float:
        return holder_p(self.ps)

    def nu(self) -> np.ndarray:
        """nu = prod w_i."""
        out = np.ones(self.weights[0].shape)
        with np.errstate(over="ignore"):
            for w in self.weights:
                out = out * w.values
        return out

    def nu_hat(self) -> np.ndarray:
        """nu_hat = prod w_i^(p/p_i)."""
        p = self.p
        out = np.ones(self.weights[0].shape)
        for w, pi in zip(self.weights, self.ps):
            out = out * w.values ** (p / pi)
        return out

    def powered(self, r: float) -> "WeightVector":
        """(w_1^r, ..., w_m^r) at scaled exponents (p_i/r, q/r)."""
        with np.errstate(over="ignore"):
            ws = [w.with_values(w.values**r) for w in self.weights]
        return WeightVector(tuple(ws), tuple(pi / r for pi in self.ps),
                            self.q / r, self.alpha)


# --- sup over a basis, one block at a time ------------------------------------

# Most batch rows times block rects that one pass of _sup_over_blocks forms,
# so memory stays flat however many weight tuples a batch holds.
ROW_RECTS = RECT_BLOCK * BATCH


def _prefix(g0: GridFunction, arr: np.ndarray, name: str) -> PrefixSum:
    """Prefix sums of arr, a stack (B, *g0.shape) of the cell values of the
    named power of positive weights, one per batch row. A value that
    overflowed to inf or underflowed to 0 left the double range, and no
    constant formed from it would be right."""
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise WeightError(f"{name} leaves the double range")
    return prefix_sum_of(arr, g0.shape, g0.cell_size)


def _row_values(block: Block, factors, volpow=None) -> np.ndarray:
    """One row of values per batch member, one value per rect of block, flat
    in C order: the product, left to right, of factors.

    A factor is (source, exponent). A PrefixSum source gives avg_R g, the
    cell sum over the cell count; an array of cell values w gives
    1 / min_R w. Each value takes one libm pow to the exponent. volpow, a
    _kernels.vol_pow_table, puts a leading factor |R|^e first. Sources
    stacked (B, ...) give a (B, R) array; unstacked ones, one flat row.
    """
    counts = [hi - lo + 1 for lo, hi in block]
    n = functools.reduce(np.multiply.outer, counts).astype(np.float64)
    out = None if volpow is None else volpow[np.ix_(*[c - 1 for c in counts])]
    for source, e in factors:
        if isinstance(source, PrefixSum):
            x = block_cell_sums(source, block) / n
        else:
            x = 1.0 / block_cell_mins(source, block)
        x = libm_pow(x, e)
        out = x if out is None else out * x
    return out.reshape(out.shape[: -len(block)] + (-1,))


def _rows(source, a: int, b: int):
    """Batch rows a .. b-1 of a factor's source."""
    if isinstance(source, PrefixSum):
        return PrefixSum(source.shape, source.cell_size, source.cum[a:b])
    return source[a:b]


def _sup_over_blocks(g0: GridFunction, basis: Basis, factors, volpow=None):
    """Each batch row's first strict maximum of the _row_values over the
    basis, in enumeration order: (maxima, witness Rects). NaN never wins; an
    empty or all -inf basis gives (-inf, None).

    The factors' sources are stacks of B rows on g0's grid. Each block is
    formed for at most ROW_RECTS // (its rects) rows at a time.
    """
    source = factors[0][0]
    rows = len(source.cum if isinstance(source, PrefixSum) else source)
    best, witness = np.full(rows, -math.inf), [None] * rows
    for block in basis_blocks(basis, g0.shape, g0.cell_size):
        lens = [len(lo) for lo, _ in block]
        step = max(1, ROW_RECTS // math.prod(lens))
        for a in range(0, rows, step):
            part = factors if step >= rows else [(_rows(s, a, a + step), e) for s, e in factors]
            vals = _row_values(block, part, volpow)
            top = np.fmax.reduce(vals, axis=1)  # NaN only where a row is all NaN
            for i in np.flatnonzero(top > best[a : a + step]):
                j = int(np.argmax(vals[i] == top[i]))  # the first rect to attain it
                at = np.unravel_index(j, lens)
                rect = Rect([int(lo[t]) for (lo, _), t in zip(block, at)],
                            [int(hi[t]) for (_, hi), t in zip(block, at)])
                best[a + i], witness[a + i] = vals[i, j], rect
    return best, witness


def _stack(fs, e: float | None = None) -> np.ndarray:
    """The cell values of the grid functions fs, stacked, each first taken
    to the power e (numpy's **, one function at a time, as a single call
    forms it). A batch of one is a view of its values, not a copy."""
    if e is None:
        return fs[0].values[None] if len(fs) == 1 else np.stack([f.values for f in fs])
    with np.errstate(over="ignore"):
        return np.stack([f.values**e for f in fs])


def _weights_grid(ws) -> GridFunction:
    """The one grid of a batch of weights, each positive on every cell."""
    for w in ws:
        _require_positive(w)
        if not ws[0].same_grid(w):
            raise WeightError("a batch of weights must share one grid")
    return ws[0]


def _batch_grid(wvs) -> GridFunction:
    """The one grid of a batch of weight vectors, which must also share
    their exponents."""
    g0 = wvs[0].weights[0]
    for wv in wvs[1:]:
        if not wv.weights[0].same_grid(g0):
            raise WeightError("a batch of weight vectors must share one grid")
        if (wv.ps, wv.q, wv.alpha) != (wvs[0].ps, wvs[0].q, wvs[0].alpha):
            raise WeightError("a batch of weight vectors must share its exponents")
    return g0


def _slot_factors(wvs, shift: float, outer: float, r: float = 1.0) -> list:
    """The factors (avg_R w_i^((shift - p_i') r))^(outer / (r p_i')), one per
    weight. A p_i = 1 slot uses the infimum convention (1 / min_R w_i)^outer.
    """
    g0, factors = wvs[0].weights[0], []
    for i, pi in enumerate(wvs[0].ps):
        slot = [wv.weights[i] for wv in wvs]
        if pi == 1.0:
            factors.append((_stack(slot), outer))
        else:
            ppi = conj_exponent(pi)
            e = (shift - ppi) * r
            factors.append((_prefix(g0, _stack(slot, e), f"w_{i}^{e:g}"), outer / (r * ppi)))
    return factors


def ap_constants(ws, p: float, basis: Basis):
    """ap_constant of each weight of ws, all on one grid, in one walk over
    the basis: (constants, witness Rects); an empty batch gives empty ones."""
    if not 1 < p < math.inf:
        raise WeightError(f"ap_constant needs a finite p > 1, got {p}")
    if not ws:
        return np.empty(0), []
    g0 = _weights_grid(ws)
    pp = conj_exponent(p)
    dual = _prefix(g0, _stack(ws, 1.0 - pp), f"w^{1.0 - pp:g}")
    factors = [(_prefix(g0, _stack(ws), "w"), 1.0), (dual, p / pp)]
    return _sup_over_blocks(g0, basis, factors)


def ap_constant(
    w: GridFunction, p: float, basis: Basis, return_witness: bool = False
):
    """[w]_{A_p,basis} = sup_R (avg_R w) (avg_R w^(1-p'))^(p/p')."""
    best, witness = ap_constants([w], p, basis)
    return (float(best[0]), witness[0]) if return_witness else float(best[0])


def multi_weight_constants_apq(wvs, basis: Basis):
    """multi_weight_constant_apq of each weight vector of wvs, which share
    one grid and their exponents, in one walk over the basis: (constants,
    witness Rects)."""
    if not wvs:
        return np.empty(0), []
    g0, q = _batch_grid(wvs), wvs[0].q
    nu_q = _prefix(g0, np.stack([wv.nu() ** q for wv in wvs]), f"nu^{q:g}")
    return _sup_over_blocks(g0, basis, [(nu_q, 1.0 / q), *_slot_factors(wvs, 0.0, 1.0)])


def multi_weight_constant_apq(wv: WeightVector, basis: Basis) -> float:
    """[w]_{A_(p,q)} = sup_R (avg nu^q)^(1/q) prod_i (avg w_i^(-p_i'))^(1/p_i').

    p_i = 1 slots use the infimum convention (inf_R w_i)^(-1).
    """
    return float(multi_weight_constants_apq([wv], basis)[0][0])


def multi_weight_constants_ap(wvs, basis: Basis):
    """multi_weight_constant_ap of each weight vector of wvs, which share
    one grid and their exponents, in one walk over the basis: (constants,
    witness Rects)."""
    if not wvs:
        return np.empty(0), []
    g0 = _batch_grid(wvs)
    nu_hat = _prefix(g0, np.stack([wv.nu_hat() for wv in wvs]), "nu_hat")
    return _sup_over_blocks(g0, basis, [(nu_hat, 1.0), *_slot_factors(wvs, 1.0, wvs[0].p)])


def multi_weight_constant_ap(wv: WeightVector, basis: Basis) -> float:
    """[w]_{A_p(vec)} = sup_R (avg nu_hat) prod_i (avg w_i^(1-p_i'))^(p/p_i')."""
    return float(multi_weight_constants_ap([wv], basis)[0][0])


def power_bump_constants(wvs, vs, r: float, basis: Basis):
    """The power_bump_check constant of each pair (wvs[b], vs[b]), all on
    one grid with one set of exponents, in one walk over the basis:
    (constants, witness Rects)."""
    if not 1 < r < math.inf:
        raise WeightError(f"power bump needs a finite r > 1, got {r}")
    if len(vs) != len(wvs):
        raise WeightError(f"need one v per weight vector, got {len(vs)} for {len(wvs)}")
    if not wvs:
        return np.empty(0), []
    if min(wvs[0].ps) <= 1:
        raise WeightError("power bump needs p_i > 1")
    g0, wv = _batch_grid(wvs), wvs[0]
    for v in vs:
        if not g0.same_grid(v):
            raise WeightError("v must share the weights' grid")
        _require_positive(v, "v")
    vol_exp = wv.alpha / g0.dims + 1.0 / wv.q - 1.0 / wv.p
    factors = [(_prefix(g0, _stack(vs), "v"), 1.0 / wv.q), *_slot_factors(wvs, 1.0, 1.0, r)]
    volpow = vol_pow_table(g0.shape, g0.cell_size, vol_exp)
    return _sup_over_blocks(g0, basis, factors, volpow)


def power_bump_check(
    wv: WeightVector, v: GridFunction, r: float, basis: Basis
) -> dict:
    """sup_R |R|^(a/n+1/q-1/p) (avg v)^(1/q) prod (avg w_i^((1-p_i')r))^(1/(r p_i'))."""
    best, witness = power_bump_constants([wv], [v], r, basis)
    best = float(best[0])
    return {"constant": best, "witness": witness[0], "finite_under_cap": best < CAP}


# --- A_infty growth classification ------------------------------------------

DELTA = 0.05  # comparability exponent d of the fitted constant


@dataclass
class AInftyReport:
    passes: bool
    witness_axis: int | None
    families: list = field(default_factory=list)  # per-family raw data
    slopes: dict = field(default_factory=dict)  # axis -> fitted slope at DELTA
    pairs: list = field(default_factory=list)  # random (R, E) raw samples

    @property
    def classification(self) -> str:
        return "in A_infty (no unbounded witness family)" if self.passes else "fails A_infty"


def a_infty_classify(
    w: GridFunction, rng: np.random.Generator | None = None, n_random_pairs: int = 50
) -> AInftyReport:
    """Growth-profile test of the A_infty comparability w(E)/w(R) <= C (|E|/|R|)^d.

    Sweeps nested witness families (dyadic boxes anchored at the grid origin
    with one axis thinned to a single cell). A family witnesses failure when
    the required constant at d = DELTA grows without bound along the family
    (fitted slope of log C against scale above SLOPE_TOL). One d decides:
    the thin box of side 2^l has |E|/|R| = 2^-l whatever the weight, so the
    slope of log C = log(w(E)/w(R)) - d log(|E|/|R|) is the weight's slope
    plus d ln 2, and a larger d only asks for more. If d = DELTA cannot
    control a family, no (C, d) pair with d >= DELTA can.
    """
    return a_infty_classifies([w], rng, n_random_pairs)[0]


def a_infty_classifies(
    ws, rng: np.random.Generator | None = None, n_random_pairs: int = 50
) -> list[AInftyReport]:
    """a_infty_classify of each weight of ws, all on one grid, with the
    anchored box sums of every weight from one grid.anchored_box_sums call;
    an empty batch gives no report. The random pairs of each weight are
    drawn as its own call draws them: from rng in turn, or from a fresh
    default_rng(0) when rng is None."""
    if not ws:
        return []
    g0 = _weights_grid(ws)
    if min(g0.shape) < 4:  # the tail fit needs two scales, sides 2 and 4
        raise WeightError(f"a_infty_classify needs >= 4 cells per axis, got shape {g0.shape}")
    n = g0.dims
    # every nested box is origin-anchored, 2^l_k cells along axis k (l_k =
    # 0 .. lmax); level l's box sits at (l, ..., l), and its thin box has
    # index 0 on the thinned axis
    lmax = int(math.floor(math.log2(min(g0.shape))))
    sides = 2 ** np.arange(lmax + 1)
    all_sums = anchored_box_sums(_stack(ws), n, lmax)
    counts = functools.reduce(np.multiply.outer, [sides] * n)
    with np.errstate(over="ignore"):
        all_mass = all_sums * g0.cell_volume
        vol = functools.reduce(np.multiply.outer, [sides * hk for hk in g0.cell_size])
    reports = []
    for w, sums, mass in zip(ws, all_sums, all_mass):
        report = AInftyReport(passes=True, witness_axis=None)
        for axis in range(n):
            data = []
            for ell in range(1, lmax + 1):
                big = (ell,) * n
                thin = big[:axis] + (0,) + big[axis + 1 :]
                data.append((ell, _ratio(mass.item(thin), mass.item(big), sums.item(thin), sums.item(big)),
                             _ratio(vol.item(thin), vol.item(big), counts.item(thin), counts.item(big))))
            report.families.append({"axis": axis, "points": data})
            # fit the tail only: small-scale transients would otherwise mask
            # the asymptotic growth of the required constant
            ells, rws, rls = (np.array(c, dtype=float) for c in zip(*data[-3:]))
            report.slopes[axis] = float(np.polyfit(ells, np.log(rws) - DELTA * np.log(rls), 1)[0])
            if report.slopes[axis] > SLOPE_TOL:
                report.passes = False
                if report.witness_axis is None:
                    report.witness_axis = axis
        # raw random pairs for the record: the one path that reads arbitrary
        # rects, and so the one that builds the whole prefix sum
        if n_random_pairs > 0:
            cum = build_prefix_sum(w)
            gen = rng or np.random.default_rng(0)
            for _ in range(n_random_pairs):
                big = random_rect(gen, (0,) * n, tuple(s - 1 for s in w.shape))
                sub = random_rect(gen, big.lo, big.hi)
                cs, cb = rect_cell_sum(cum, sub), rect_cell_sum(cum, big)  # rect_integral = sum * cell volume
                report.pairs.append((big, sub, _ratio(cs * cum.cell_volume, cb * cum.cell_volume, cs, cb),
                                     _ratio(sub.volume(w.cell_size), big.volume(w.cell_size),
                                            math.prod(sub.cell_counts()), math.prod(big.cell_counts()))))
        reports.append(report)
    return reports


def _ratio(part: float, whole: float, part_cells: float, whole_cells: float) -> float:
    """part / whole for two masses or two volumes; where either is not a
    normal double, the ratio of their cell sums or cell counts, from which
    the cell volume cancels."""
    if sys.float_info.min <= min(part, whole) and max(part, whole) < math.inf:
        return part / whole
    return part_cells / whole_cells


# --- dyadic reverse doubling -------------------------------------------------


def reverse_doubling_constant(w: GridFunction) -> float:
    """Largest d with d*w(I) <= w(J) over dyadic J and half-side children I.

    I is the child with half the side length of J in every axis (volume
    ratio 2^-n), following the construction the half-volume nesting uses.
    Grid sides must be powers of two.
    """
    return float(reverse_doubling_constants([w])[0])


def reverse_doubling_constants(ws) -> np.ndarray:
    """reverse_doubling_constant of each weight of ws, all on one grid, every
    block sum of every weight taken at once; an empty batch gives an empty
    array. A member's blocks are summed by the same reductions as its own
    call, so it gets that call's bits."""
    if not ws:
        return np.empty(0)
    g0 = _weights_grid(ws)
    for s in g0.shape:
        if s & (s - 1):
            raise GridError("reverse doubling needs power-of-two grid sides")
    if min(g0.shape) < 2:
        raise GridError("grid too small for reverse doubling (needs >= 2 cells/axis)")
    n = g0.dims
    values = _stack(ws)
    cells = tuple(range(1, n + 1))  # the grid axes of values

    def ratios(values: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
        # a positive parent over its largest child: rounded division is
        # monotone in the divisor, so this is the smallest ratio's double
        parent = _block_reduce(values, lengths, np.add)
        child = _block_reduce(_block_reduce(values, tuple(l // 2 for l in lengths), np.add), (2,) * n, np.maximum)
        return parent / child

    # block sums at every per-axis dyadic scale combo, built by pair-summing
    levels = [int(math.log2(s)) for s in g0.shape]
    d = np.full(len(ws), math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for combo in np.ndindex(*levels):
            # combo[k] < levels[k], so every parent block length is at least 2
            lengths = tuple(2 ** (levels[k] - combo[k]) for k in range(n))
            r = ratios(values, lengths)
            if not np.isfinite(r).all():
                # a block sum overflowed: a power-of-two scale that puts a
                # member's largest value in [0.5, 1) leaves every ratio of
                # its sums unchanged; only those members take it
                bad = ~np.isfinite(r).all(axis=cells)
                top = np.frexp(values[bad].max(axis=cells))[1]
                r[bad] = ratios(np.ldexp(values[bad], -top.reshape((-1,) + (1,) * n)), lengths)
            # fmin keeps d where a member's minimum is NaN, as min(d, nan) does
            d = np.fmin(d, r.min(axis=cells))
    return d


def _block_reduce(values: np.ndarray, lengths: tuple[int, ...], ufunc) -> np.ndarray:
    """ufunc.reduce over each block of the given per-axis lengths, one axis
    at a time (np.add gives np.sum's pairwise block sums). The blocks' axes
    are values' last ones, so leading batch axes pass through."""
    out = values
    for k, L in enumerate(lengths, start=values.ndim - len(lengths)):
        if L == 1:
            continue
        shp = out.shape
        out = ufunc.reduce(out.reshape(shp[:k] + (shp[k] // L, L) + shp[k + 1 :]), axis=k + 1)
    return out


# --- Tauberian condition ------------------------------------------------------


@dataclass
class TauberianReport:
    gamma: float
    max_ratio: float
    witness: str
    samples: int


def tauberian_constant_estimate(
    w: GridFunction, basis: Basis, gamma: float, seed: int = 0
) -> TauberianReport:
    """Lower bound for sup_E w({M 1_E > gamma}) / w(E).

    The sup over all measurable E is not computable; this sweeps structured
    families (single rectangles, unions of two rectangles) and
    TAUBERIAN_TRIALS random cell sets, and reports the best ratio found as
    a certified lower bound with its witness.
    """
    if not 0 < gamma < 1:
        raise WeightError("gamma must lie in (0,1)")
    _require_positive(w)
    rng = np.random.default_rng(seed)
    cellvol = w.cell_volume
    # a power-of-two scale that puts the largest value in [0.5, 1) changes no
    # mass ratio, and keeps the masses of huge and subnormal weights in range
    scaled = np.ldexp(w.values, -np.frexp(w.values.max())[1])

    def w_mass(mask: np.ndarray) -> float:
        return float(np.sum(scaled[mask])) * cellvol

    candidates: list[tuple[str, np.ndarray]] = []
    # centered rectangles at dyadic scales
    for k in range(1, int(math.log2(min(w.shape))) + 1):
        side = 2**k
        mask = np.zeros(w.shape, dtype=bool)
        sl = tuple(slice((s - side) // 2, (s - side) // 2 + side) for s in w.shape)
        mask[sl] = True
        candidates.append((f"centered rect side {side}", mask))
    # random rectangles and 2-rect unions
    def rand_rect_mask():
        mask = np.zeros(w.shape, dtype=bool)
        mask[random_rect(rng, (0,) * w.dims, tuple(s - 1 for s in w.shape)).slices()] = True
        return mask

    for t in range(TAUBERIAN_TRIALS):
        candidates.append((f"random rect #{t}", rand_rect_mask()))
        candidates.append((f"random 2-rect union #{t}", rand_rect_mask() | rand_rect_mask()))
        candidates.append(
            (f"random cell set #{t}", rng.random(w.shape) < rng.uniform(0.02, 0.5))
        )
    candidates.append(("whole grid", np.ones(w.shape, dtype=bool)))

    # one sweep walk for every non-empty candidate
    candidates = [(name, mask) for name, mask in candidates if mask.any()]
    m1es = _maximal([[w.with_values(mask.astype(np.float64))] for _, mask in candidates],
                    MaximalQuery(basis=basis), orlicz=False)
    best, witness = -math.inf, ""
    for (name, mask), m1e in zip(candidates, m1es):
        ratio = w_mass(m1e.values > gamma) / w_mass(mask)
        if ratio > best:
            best, witness = ratio, name
    return TauberianReport(gamma=gamma, max_ratio=best, witness=witness, samples=len(candidates))


# --- power weights ------------------------------------------------------------


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on [-1, 1], computed once,
    at first use, so that importing the package leaves numpy.polynomial
    unimported."""
    nodes, wts = np.polynomial.legendre.leggauss(16)
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def _gauss_cell_average(exponent: float, h: float, n: int) -> float:
    """Cell average of |x|^exponent over the cube [0, h]^n by 16-pt Gauss/axis."""
    nodes, wts = _gauss_rule()
    pts = 0.5 * h + 0.5 * h * nodes
    grids = np.meshgrid(*[pts] * n, indexing="ij")
    r2 = sum(g**2 for g in grids)
    vals = r2 ** (exponent / 2.0)
    wgt = cell_wts = wts * 0.5  # normalized to the cell
    for _ in range(1, n):
        wgt = np.multiply.outer(wgt, cell_wts)
    return float(np.sum(vals * wgt))


def power_weight_grid(exponent: float, n: int, cells: int) -> GridFunction:
    """|x|^exponent on [0, 1]^n, midpoint-sampled, origin cell by quadrature."""
    if cells < 1 or n < 1 or not math.isfinite(exponent):
        raise WeightError(f"power weight grid needs at least one cell per axis, n >= 1 and a finite "
                          f"exponent, got cells={cells}, n={n}, exponent={exponent}")
    h = 1.0 / cells
    axes = [(np.arange(cells) + 0.5) * h for _ in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    r2 = sum(g**2 for g in grids)
    vals = r2 ** (exponent / 2.0)
    vals[(0,) * n] = _gauss_cell_average(exponent, h, n)
    return GridFunction((cells,) * n, (h,) * n, vals)


@dataclass
class PowerWeightReport:
    in_ap: bool
    alpha: float
    p: float
    n: int
    profile: list[float]
    log_increment_ratio: float


def anchored_profile(n: int, js, terms) -> list[float]:
    """Growth profile of power weights on origin-anchored dyadic rectangles.

    Entry j (for each j in js) is the largest product, left to right, over
    the terms (exponent, outer) of (avg_R |x|^exponent)^outer, and at least
    0.0, over the rectangles prod_k [0, 2^-a_k] (a_k <= j) of the grid with
    2^j cells per axis over [0,1]^n, in np.ndindex order of (a_1, ..., a_n).
    """
    profile = []
    for j in js:
        a = np.arange(j + 1)
        factors = [(build_prefix_sum(power_weight_grid(e, n, 2**j)), outer) for e, outer in terms]
        vals = _row_values([(np.zeros_like(a), 2 ** (j - a) - 1)] * n, factors)
        profile.append(float(np.fmax.reduce(vals, initial=0.0)))
    return profile


def _increment_ratio(profile) -> float:
    """Ratio of the last two log-increments of a profile (negative ones
    count as 0), or 0 once the last one is below 1e-9."""
    incs = np.maximum(np.diff(np.log(profile)), 0.0)
    if incs[-1] < 1e-9:
        return 0.0
    return float(incs[-1] / max(incs[-2], 1e-300))


def power_weight_profile(alpha: float, p: float, n: int, depth: int) -> list[float]:
    """Ap-type constants of |x|^alpha on origin-anchored dyadic rectangles.

    Entry j is the max Ap product over all rectangles prod_k [0, 2^-a_k]
    (a_k <= j) on the grid of resolution 2^j over [0,1]^n.
    """
    if not 1 < p < math.inf:
        raise WeightError(f"p must be finite and exceed 1, got {p}")
    if not -n < alpha < math.inf:
        raise WeightError(f"alpha must be finite and exceed -n = {-n} (cellwise integrability), got {alpha}")
    pp = conj_exponent(p)
    return anchored_profile(n, range(2, depth + 1), [(alpha, 1.0), (alpha * (1.0 - pp), p / pp)])


def power_weight_classify(
    alpha: float, p: float, n: int, depth: int | None = None
) -> PowerWeightReport:
    """Classify |x|^alpha against the rectangle A_p class.

    In-class profiles converge with geometrically shrinking log-increments;
    out-of-class profiles keep growing (power-like: constant increments of
    log, boundary: increments shrinking only harmonically). The tail ratio
    of consecutive log-increments, against RATIO_THRESHOLD, separates the two.
    """
    if depth is None:
        depth = {1: 12, 2: 10}.get(n, 8)
    if depth < 4:  # the tail ratio needs two log-increments, three entries
        raise WeightError(f"power_weight_classify needs depth >= 4, got {depth}")
    if alpha <= -n:
        # not locally integrable near the origin, hence not a weight at all;
        # certain non-membership without a grid profile
        return PowerWeightReport(in_ap=False, alpha=alpha, p=p, n=n,
                                 profile=[], log_increment_ratio=math.inf)
    profile = power_weight_profile(alpha, p, n, depth)
    ratio = _increment_ratio(profile)
    in_ap = ratio < RATIO_THRESHOLD
    return PowerWeightReport(in_ap=in_ap, alpha=alpha, p=p, n=n,
                             profile=profile, log_increment_ratio=ratio)
