"""Muckenhoupt-type weight constants and classifications over rectangle bases.

Membership in a weight class is not decidable from a single finite grid, so
every "in class" judgment here is a threshold classification: constants are
computed exactly over the enumerated basis, and divergence is detected as
growth across scales (nested rectangles, rising resolution). Reports carry
the raw scale profiles.

A basis-wide constant is the exact maximum over the basis's rectangle table
(grid.basis_tables), evaluated a block of rows at a time. Every constant and
every origin-anchored growth profile forms its row values through one
function, _row_values: a left-to-right product of factors, each a rectangle
average or an inverse minimum, with one libm ``pow`` per element for each
powered factor (_kernels.libm_pow). Each row's value is therefore the same
floating-point expression as the scalar per-rectangle formula, so the
constants and their witnesses (the first strict maximum in enumeration order)
match a per-Rect scan bit for bit. A power that leaves the double range gives
+inf, so such a constant counts as >= CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import libm_pow, vol_pow_table
from .grid import (
    Basis,
    GridError,
    GridFunction,
    PrefixSum,
    Rect,
    RectTable,
    basis_tables,
    box_min_table,
    build_prefix_sum,
    rect_cell_sum,
)
from .maximal import strong_maximal

CAP = 1e6  # finiteness proxy for class membership on a fixed grid


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
        if len(self.weights) != len(self.ps):
            raise WeightError("need one exponent per weight")
        if any(pi < 1 for pi in self.ps):
            raise WeightError("exponents p_i must be >= 1")
        if self.q <= 0:
            raise WeightError("q must be positive")
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
        ws = [w.with_values(w.values**r) for w in self.weights]
        return WeightVector(tuple(ws), tuple(pi / r for pi in self.ps),
                            self.q / r, self.alpha)


# --- sup over a basis, one table block at a time -----------------------------


def _prefix(f: GridFunction, arr: np.ndarray) -> PrefixSum:
    return build_prefix_sum(f.with_values(arr))


def _row_values(table: RectTable, factors, volpow=None) -> np.ndarray:
    """One value per row of table: the product, left to right, of factors.

    A factor is (source, exponent). A PrefixSum source gives avg_R g, the
    cell sum over the cell count; a box_min_table source gives 1 / min_R w.
    An exponent of None takes that value as is; any other applies one libm
    pow. volpow, a _kernels.vol_pow_table, puts a leading factor |R|^e first.
    """
    n = table.n_cells()
    out = None if volpow is None else volpow[tuple((table.cell_counts() - 1).T)]
    for source, e in factors:
        if isinstance(source, PrefixSum):
            x = table.cell_sums(source) / n
        else:
            x = 1.0 / table.cell_mins(source)
        if e is not None:
            x = libm_pow(x, e)
        out = x if out is None else out * x
    return out


def _sup_over_tables(g0: GridFunction, basis: Basis, factors, volpow=None):
    """First strict maximum of the _row_values over the basis, in
    enumeration order. NaN never wins; an empty or all -inf basis gives
    (-inf, None).
    """
    best, witness = -math.inf, None
    for table in basis_tables(basis, g0.shape, g0.cell_size):
        vals = _row_values(table, factors, volpow)
        vals = np.where(np.isnan(vals), -np.inf, vals)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, witness = float(vals[j]), table.rect(j)
    return best, witness


def _slot_factors(wv: WeightVector, shift: float, outer: float, r: float = 1.0) -> list:
    """The factors (avg_R w_i^((shift - p_i') r))^(outer / (r p_i')), one per
    weight. A p_i = 1 slot uses the infimum convention (1 / min_R w_i)^outer;
    x^1 is x, so an outer exponent of 1 applies no pow there.
    """
    factors = []
    for w, pi in zip(wv.weights, wv.ps):
        if pi == 1.0:
            factors.append((box_min_table(w.values), None if outer == 1.0 else outer))
        else:
            ppi = conj_exponent(pi)
            factors.append((_prefix(w, w.values ** ((shift - ppi) * r)), outer / (r * ppi)))
    return factors


def ap_constant(
    w: GridFunction, p: float, basis: Basis, return_witness: bool = False
):
    """[w]_{A_p,basis} = sup_R (avg_R w) (avg_R w^(1-p'))^(p/p')."""
    if p <= 1:
        raise WeightError("ap_constant needs p > 1")
    _require_positive(w)
    pp = conj_exponent(p)
    factors = [(_prefix(w, w.values), None), (_prefix(w, w.values ** (1.0 - pp)), p / pp)]
    best, witness = _sup_over_tables(w, basis, factors)
    return (best, witness) if return_witness else best


def multi_weight_constant_apq(wv: WeightVector, basis: Basis) -> float:
    """[w]_{A_(p,q)} = sup_R (avg nu^q)^(1/q) prod_i (avg w_i^(-p_i'))^(1/p_i').

    p_i = 1 slots use the infimum convention (inf_R w_i)^(-1).
    """
    g0 = wv.weights[0]
    factors = [(_prefix(g0, wv.nu() ** wv.q), 1.0 / wv.q), *_slot_factors(wv, 0.0, 1.0)]
    return _sup_over_tables(g0, basis, factors)[0]


def multi_weight_constant_ap(wv: WeightVector, basis: Basis) -> float:
    """[w]_{A_p(vec)} = sup_R (avg nu_hat) prod_i (avg w_i^(1-p_i'))^(p/p_i')."""
    g0 = wv.weights[0]
    factors = [(_prefix(g0, wv.nu_hat()), None), *_slot_factors(wv, 1.0, wv.p)]
    return _sup_over_tables(g0, basis, factors)[0]


def power_bump_check(
    wv: WeightVector, v: GridFunction, r: float, basis: Basis
) -> dict:
    """sup_R |R|^(a/n+1/q-1/p) (avg v)^(1/q) prod (avg w_i^((1-p_i')r))^(1/(r p_i'))."""
    if r <= 1:
        raise WeightError("power bump needs r > 1")
    if min(wv.ps) <= 1:
        raise WeightError("power bump needs p_i > 1")
    _require_positive(v, "v")
    g0 = wv.weights[0]
    vol_exp = wv.alpha / g0.dims + 1.0 / wv.q - 1.0 / wv.p
    factors = [(_prefix(g0, v.values), 1.0 / wv.q), *_slot_factors(wv, 1.0, 1.0, r)]
    volpow = vol_pow_table(g0.shape, g0.cell_size, vol_exp)
    best, witness = _sup_over_tables(g0, basis, factors, volpow)
    return {"constant": best, "witness": witness, "finite_under_cap": best < CAP}


# --- A_infty growth classification ------------------------------------------

DELTAS = tuple(round(0.05 * k, 2) for k in range(1, 21))  # 0.05 .. 1.0


@dataclass
class AInftyReport:
    passes: bool
    witness_axis: int | None
    families: list = field(default_factory=list)  # per-family raw data
    slopes: dict = field(default_factory=dict)
    pairs: list = field(default_factory=list)  # random (R, E) raw samples

    @property
    def classification(self) -> str:
        return "in A_infty (no unbounded witness family)" if self.passes else "fails A_infty"


def a_infty_classify(
    w: GridFunction, slope_tol: float = 0.01,
    rng: np.random.Generator | None = None, n_random_pairs: int = 50,
) -> AInftyReport:
    """Growth-profile test of the A_infty comparability w(E)/w(R) <= C (|E|/|R|)^d.

    Sweeps nested witness families (dyadic boxes anchored at the grid origin
    with one axis thinned to a single cell). A family witnesses failure when
    for every exponent d in the sweep the required constant grows without
    bound along the family (positive fitted slope of log C against scale),
    i.e. no (C, d) pair can control the whole family.
    """
    _require_positive(w)
    n = w.dims
    cum = build_prefix_sum(w)
    cellvol = w.cell_volume

    def w_of(rect: Rect) -> float:
        return rect_cell_sum(cum, rect) * cellvol

    lmax = int(math.floor(math.log2(min(w.shape))))
    report = AInftyReport(passes=True, witness_axis=None)
    for axis in range(n):
        data = []
        for ell in range(1, lmax + 1):
            side = 2**ell
            big = Rect((0,) * n, (side - 1,) * n)
            thin_hi = tuple(0 if k == axis else side - 1 for k in range(n))
            thin = Rect((0,) * n, thin_hi)
            rw = w_of(thin) / w_of(big)
            rl = thin.volume(w.cell_size) / big.volume(w.cell_size)
            data.append((ell, rw, rl))
        report.families.append({"axis": axis, "points": data})
        # fit the tail only: small-scale transients would otherwise mask
        # the asymptotic growth of the required constant
        tail = min(len(data), 3)
        ells = np.array([d[0] for d in data[-tail:]], dtype=float)
        log_rw = np.log([d[1] for d in data[-tail:]])
        log_rl = np.log([d[2] for d in data[-tail:]])
        slopes = {}
        for delta in DELTAS:
            log_c = log_rw - delta * log_rl
            slopes[delta] = float(np.polyfit(ells, log_c, 1)[0])
        report.slopes[axis] = slopes
        if min(slopes.values()) > slope_tol:
            report.passes = False
            if report.witness_axis is None:
                report.witness_axis = axis
    # raw random pairs for the record
    rng = rng or np.random.default_rng(0)
    for _ in range(n_random_pairs):
        lo = tuple(int(rng.integers(0, s)) for s in w.shape)
        hi = tuple(int(rng.integers(l, s)) for l, s in zip(lo, w.shape))
        big = Rect(lo, hi)
        elo = tuple(int(rng.integers(l, h + 1)) for l, h in zip(lo, hi))
        ehi = tuple(int(rng.integers(e, h + 1)) for e, h in zip(elo, hi))
        sub = Rect(elo, ehi)
        report.pairs.append(
            (big, sub, w_of(sub) / w_of(big),
             sub.volume(w.cell_size) / big.volume(w.cell_size))
        )
    return report


# --- dyadic reverse doubling -------------------------------------------------


def reverse_doubling_constant(w: GridFunction) -> float:
    """Largest d with d*w(I) <= w(J) over dyadic J and half-side children I.

    I is the child with half the side length of J in every axis (volume
    ratio 2^-n), following the construction the half-volume nesting uses.
    Grid sides must be powers of two.
    """
    _require_positive(w)
    for s in w.shape:
        if s & (s - 1):
            raise GridError("reverse doubling needs power-of-two grid sides")
    n = w.dims
    # block sums at every per-axis dyadic scale combo, built by pair-summing
    levels = [int(math.log2(s)) for s in w.shape]
    d = math.inf
    for combo in np.ndindex(*[lv for lv in levels]):
        # combo[k] = log2 of parent block length along axis k, >= 1
        lengths = tuple(2 ** (levels[k] - combo[k]) for k in range(n))
        if min(lengths) < 2:
            continue
        parent = _block_sums(w.values, lengths)
        child = _block_sums(w.values, tuple(l // 2 for l in lengths))
        # child array is 2x finer per axis; group children under parents
        grouped = child
        for k in range(n):
            grouped = grouped.reshape(
                grouped.shape[:k] + (parent.shape[k], 2) + grouped.shape[k + 1 :]
            )
            grouped = np.moveaxis(grouped, k + 1, n + k)
        ratios = parent[(...,) + (None,) * n] / grouped
        d = min(d, float(np.min(ratios)))
    if not math.isfinite(d):
        raise GridError("grid too small for reverse doubling (needs >= 2 cells/axis)")
    return d


def _block_sums(values: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
    out = values
    for k, L in enumerate(lengths):
        if L == 1:
            continue
        shp = out.shape
        out = out.reshape(shp[:k] + (shp[k] // L, L) + shp[k + 1 :]).sum(axis=k + 1)
    return out


# --- Tauberian condition ------------------------------------------------------


@dataclass
class TauberianReport:
    gamma: float
    max_ratio: float
    witness: str
    samples: int


def tauberian_constant_estimate(
    w: GridFunction, basis: Basis, gamma: float, trials: int = 20,
    seed: int = 0, extra_sets: list[np.ndarray] | None = None,
) -> TauberianReport:
    """Lower bound for sup_E w({M 1_E > gamma}) / w(E).

    The sup over all measurable E is not computable; this sweeps structured
    families (single rectangles, unions of two rectangles), `trials` random
    cell sets, and any caller-provided sets, and reports the best ratio
    found as a certified lower bound with its witness.
    """
    if not 0 < gamma < 1:
        raise WeightError("gamma must lie in (0,1)")
    rng = np.random.default_rng(seed)
    cum = build_prefix_sum(w)
    cellvol = w.cell_volume

    def w_mass(mask: np.ndarray) -> float:
        return float(np.sum(w.values[mask])) * cellvol

    candidates: list[tuple[str, np.ndarray]] = []
    # centered rectangles at dyadic scales
    for k in range(1, int(math.log2(min(w.shape))) + 1):
        side = 2**k
        mask = np.zeros(w.shape, dtype=bool)
        sl = tuple(slice((s - min(side, s)) // 2, (s - min(side, s)) // 2 + min(side, s)) for s in w.shape)
        mask[sl] = True
        candidates.append((f"centered rect side {side}", mask))
    # random rectangles and 2-rect unions
    def rand_rect_mask():
        mask = np.zeros(w.shape, dtype=bool)
        lo = [int(rng.integers(0, s)) for s in w.shape]
        hi = [int(rng.integers(l, s)) for l, s in zip(lo, w.shape)]
        mask[tuple(slice(l, h + 1) for l, h in zip(lo, hi))] = True
        return mask

    for t in range(trials):
        candidates.append((f"random rect #{t}", rand_rect_mask()))
        candidates.append((f"random 2-rect union #{t}", rand_rect_mask() | rand_rect_mask()))
        candidates.append(
            (f"random cell set #{t}", rng.random(w.shape) < rng.uniform(0.02, 0.5))
        )
    candidates.append(("whole grid", np.ones(w.shape, dtype=bool)))
    for i, m in enumerate(extra_sets or []):
        candidates.append((f"user set #{i}", np.asarray(m, dtype=bool)))

    best, witness = -math.inf, ""
    count = 0
    for name, mask in candidates:
        if not mask.any():
            continue
        count += 1
        ind = w.with_values(mask.astype(np.float64))
        m1e = strong_maximal(ind, basis)
        level = m1e.values > gamma
        ratio = w_mass(level) / w_mass(mask)
        if ratio > best:
            best, witness = ratio, name
    return TauberianReport(gamma=gamma, max_ratio=best, witness=witness, samples=count)


# --- power weights ------------------------------------------------------------


def _gauss_cell_average(exponent: float, lo: np.ndarray, hi: np.ndarray, n: int) -> float:
    """Cell average of |x|^exponent over the box [lo, hi] by 16-pt Gauss/axis."""
    nodes, wts = np.polynomial.legendre.leggauss(16)
    axes_pts, axes_wts = [], []
    for k in range(n):
        mid = 0.5 * (lo[k] + hi[k])
        half = 0.5 * (hi[k] - lo[k])
        axes_pts.append(mid + half * nodes)
        axes_wts.append(wts * 0.5)  # normalized to the cell
    grids = np.meshgrid(*axes_pts, indexing="ij")
    r2 = sum(g**2 for g in grids)
    vals = r2 ** (exponent / 2.0)
    wgt = axes_wts[0]
    for k in range(1, n):
        wgt = np.multiply.outer(wgt, axes_wts[k])
    return float(np.sum(vals * wgt))


def power_weight_grid(exponent: float, n: int, cells: int, extent: float = 1.0) -> GridFunction:
    """|x|^exponent on [0, extent]^n, midpoint-sampled, origin cell by quadrature."""
    h = extent / cells
    axes = [(np.arange(cells) + 0.5) * h for _ in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    r2 = sum(g**2 for g in grids)
    vals = r2 ** (exponent / 2.0)
    vals[(0,) * n] = _gauss_cell_average(
        exponent, np.zeros(n), np.full(n, h), n
    )
    return GridFunction((cells,) * n, (h,) * n, vals)


@dataclass
class PowerWeightReport:
    in_ap: bool
    alpha: float
    p: float
    n: int
    profile: list[float]
    log_increment_ratio: float


def _anchored_max(j: int, n: int, factors) -> float:
    """Largest _row_values entry, and at least 0.0, over the origin-anchored
    dyadic rectangles prod_k [0, 2^-a_k] (a_k <= j) of the grid with 2^j
    cells per axis over [0,1]^n, rows in np.ndindex order of (a_1, ..., a_n).
    """
    hi = 2 ** (j - np.indices([j + 1] * n).reshape(n, -1).T) - 1
    vals = _row_values(RectTable(np.zeros_like(hi), hi), factors)
    return float(np.fmax.reduce(vals, initial=0.0))


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
    if p <= 1:
        raise WeightError("p must exceed 1")
    if alpha <= -n:
        raise WeightError(f"alpha must exceed -n = {-n} (cellwise integrability)")
    pp = conj_exponent(p)
    dual = alpha * (1.0 - pp)
    profile = []
    for j in range(2, depth + 1):
        factors = [(build_prefix_sum(power_weight_grid(alpha, n, 2**j)), None),
                   (build_prefix_sum(power_weight_grid(dual, n, 2**j)), p / pp)]
        profile.append(_anchored_max(j, n, factors))
    return profile


def power_weight_classify(
    alpha: float, p: float, n: int, depth: int | None = None,
    ratio_threshold: float = 0.9,
) -> PowerWeightReport:
    """Classify |x|^alpha against the rectangle A_p class.

    In-class profiles converge with geometrically shrinking log-increments;
    out-of-class profiles keep growing (power-like: constant increments of
    log, boundary: increments shrinking only harmonically). The tail ratio
    of consecutive log-increments separates the two.
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
    in_ap = ratio < ratio_threshold
    return PowerWeightReport(in_ap=in_ap, alpha=alpha, p=p, n=n,
                             profile=profile, log_increment_ratio=ratio)
