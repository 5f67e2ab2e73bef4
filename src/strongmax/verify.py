"""Numeric verification of the theorem statements, with JSON-able reports.

Each check computes concrete lhs/rhs quantities on a grid and records the
configuration, ratios, and a pass/fail (or "skipped" when a hypothesis is
violated; hypothesis violations are never silently passed). Boundedness on
a fixed grid is vacuous, since every value computed there is finite.

What each job of run_all gates on:
  * on values and growth across scales: prop3.5 (closed-form masses and
    ratios within QUAD_TOL, a reverse-doubling bound, and the A_infty
    classifier's growth verdict), prop3.6 (the power-weight classifier's
    verdicts, read from growth across depths), weight-theory (implications
    between constants under CAP, and two separation witnesses, one of them
    a bump constant's growth across depths) and covering (the selections'
    scattered checks and a finite chain constant);
  * on finiteness, with no growth or known value to meet, so a wrong
    operator whose values stay finite passes: endpoint (a finite lhs/rhs
    ratio), one-weight (finite operator ratios where the constant is under
    CAP, and the Orlicz majorant's ratio at least the plain one, which a
    fault that scales every maximal function keeps), two-weight-bump and
    vector-valued (a finite operator ratio once the hypotheses hold);
  * on a refused hypothesis: two-weight-bump-skip and vector-valued-skip
    report "skipped".

All checks are deterministic given their seed; run_all executes the
selected jobs one after another in the calling thread, in sorted-name
order, and returns the reports in that order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import make_corpus
from .covering import RectFamily, cf_select, scattered_select
from ._kernels import libm_pow
from .grid import (
    Basis,
    GridError,
    GridFunction,
    Rect,
    basis_sizes,
    grid_axes,
    random_rect,
)
from .maximal import (
    MaximalQuery,
    _check_common_grid,
    _checked,
    _maximal,
    level_set_measure,
    lp_norm,
    multilinear_fractional_maximal,
    orlicz_maximal,
)
from .orlicz import size_norms
from .weights import (
    CAP,
    RATIO_THRESHOLD,
    WeightVector,
    _increment_ratio,
    anchored_profile,
    a_infty_classify,
    ap_constant,
    multi_weight_constant_ap,
    multi_weight_constant_apq,
    power_bump_check,
    power_weight_classify,
    power_weight_grid,
    reverse_doubling_constant,
)
from .young import complementary, in_bp_star, phi_n, phi_n_iter, power

ALL = Basis("all")  # the endpoint and weight-theory checks' basis; the others' default
ORLICZ_KS = (0, 1)  # k of the Orlicz majorants Phi_(k+1) in the one-weight circle
RD_GRID = 32  # cells per axis of the reverse-doubling grid in prop35_counterexample
QUAD_TOL = 5e-3  # relative error allowed of the counterexample's masses and ratios


@dataclass
class VerificationReport:
    theorem: str
    config: dict = field(default_factory=dict)
    lhs: float | None = None
    rhs: float | None = None
    passed: bool | None = None  # None = not applicable / skipped
    skipped: str | None = None  # reason, when a hypothesis failed
    witness: str | None = None
    stats: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float | None:
        if self.lhs is None or self.rhs is None:
            return None
        if self.rhs > 0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0 else math.inf  # 0/0: vacuously holds

    def to_dict(self) -> dict:
        return {**asdict(self), "ratio": self.ratio}


def _jsonify(obj):
    if isinstance(obj, Rect):
        return {"lo": list(obj.lo), "hi": list(obj.hi)}
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


# --- endpoint weak-type estimate ---------------------------------------------


def endpoint_check(
    fs: list[GridFunction], lam: float, alpha: float = 0.0, mf: GridFunction | None = None,
) -> VerificationReport:
    """Endpoint distributional inequality for the fractional strong maximal.

    lhs = |{M_alpha(f) > lam^m}|^(m - alpha/n);
    rhs = prod_i [1 + ((alpha/(mn)) log+ prod_j I_j)^(n-1)]^m * I_i,
    I_j = integral of Phi_n^(m)(|f_j|/lam).
    The bracket factor is 1 in one dimension (the (n-1)-power log
    correction is void and the inequality reduces to its weak-(1,1)-type
    form) and for alpha = 0, also where prod_j I_j overflows.

    mf, when given, is M_alpha(f) on the all basis, computed by the caller
    (one maximal function serves every lam); it must live on fs[0]'s grid.
    """
    if not 0 < lam < math.inf:
        raise GridError(f"lambda must be positive and finite, got {lam}")
    m = len(fs)
    q = MaximalQuery(basis=ALL, alpha=alpha, m=m)
    if mf is None:
        mf = multilinear_fractional_maximal(fs, q)
    elif not mf.same_grid(_checked(fs, q)):
        raise GridError("the maximal function must live on the functions' grid")
    n = mf.dims
    lhs = level_set_measure(mf, libm_pow(lam, m)) ** (m - alpha / n)

    phim = phi_n_iter(n, m)
    integrals = [
        float(np.sum(phim.eval(np.abs(f.values) / lam))) * f.cell_volume for f in fs
    ]
    prod_i = 1.0
    for v in integrals:
        prod_i *= v
    if n == 1 or alpha == 0:
        bracket = 1.0
    else:
        logp = math.log(prod_i) if prod_i > 1.0 else 0.0
        bracket = 1.0 + ((alpha / (m * n)) * logp) ** (n - 1)
    rhs = 1.0
    for v in integrals:
        rhs *= bracket**m * v
    report = VerificationReport(
        theorem="endpoint-weak-type",
        config={"m": m, "n": n, "alpha": alpha, "lambda": lam, "basis": ALL.kind},
        lhs=lhs,
        rhs=rhs,
    )
    report.passed = math.isfinite(report.ratio)
    return report


def endpoint_corpus_max(
    shape, cell_size, seed: int, m: int, alpha: float, lam: float, count: int = 50
) -> float:
    """Max endpoint lhs/rhs ratio over m-tuples drawn from the corpus."""
    shape, cell_size = grid_axes(shape, cell_size)
    reports = _endpoint_reports(_corpus_maxima(shape, cell_size, seed, count, m, alpha), lam, alpha)
    return _max_ratio(reports.values())


@functools.lru_cache(maxsize=4)
def _corpus_maxima(shape, cell_size, seed: int, count: int, m: int, alpha: float) -> dict:
    """``_tuple_maxima`` of the corpus of (shape, cell_size, seed, count).

    The key fixes every input, since the corpus is generated from it, and
    lam is not in it, so one sweep per tuple serves every lam; the cached
    GridFunction values are read-only.
    """
    return _tuple_maxima(make_corpus(shape, cell_size, seed, count), m, alpha)


def _tuple_maxima(fns: list[GridFunction], m: int, alpha: float) -> dict:
    """Each m-tuple fns[i : i + m] with its M_alpha on the all basis, keyed
    by i; a tuple holding an all-zero function is left out."""
    keys = [i for i in range(0, len(fns) - m + 1, m) if all(f.values.max() != 0 for f in fns[i : i + m])]
    mfs = _maximal([fns[i : i + m] for i in keys], MaximalQuery(basis=ALL, alpha=alpha, m=m), orlicz=False)
    return {i: (fns[i : i + m], mf) for i, mf in zip(keys, mfs)}


def _endpoint_reports(maxima: dict, lam: float, alpha: float) -> dict:
    """endpoint_check on each tuple of ``_tuple_maxima``, keyed by i."""
    return {i: endpoint_check(fs, lam, alpha, mf) for i, (fs, mf) in maxima.items()}


def _max_ratio(reports) -> float:
    """Max lhs/rhs ratio over the reports with rhs > 0, starting at 0.0."""
    return max([0.0] + [rep.ratio for rep in reports if rep.rhs > 0])


# --- one-weight equivalence ----------------------------------------------------


def operator_ratio(
    fs_tuples: list[list[GridFunction]], wv: WeightVector, basis: Basis,
    orlicz_k: int | None = None,
) -> float:
    """sup over tuples of ||M_alpha(f) nu_w||_q / prod ||f_i w_i||_{p_i}.

    With orlicz_k set, uses the Orlicz maximal operator with Young function
    Phi_(k+1) in every slot and scale t^(alpha/n).
    """
    nu = wv.nu()
    kept, dens = [], []
    for fs in fs_tuples:
        if not all(f.same_grid(w) for f, w in zip(fs, wv.weights)):
            raise GridError("test functions must live on the weights' grid")
        den = 1.0
        for f, w, pi in zip(fs, wv.weights, wv.ps):
            den *= lp_norm(f.with_values(f.values * w.values), pi)
        if den != 0:
            kept.append(list(fs))
            dens.append(den)
    if orlicz_k is None:
        mfs = _maximal(kept, MaximalQuery(basis=basis, alpha=wv.alpha, m=wv.m), orlicz=False)
    else:
        psi = phi_n(orlicz_k + 1)  # Phi_1 = identity, Phi_2 = t(1+log+ t)
        q = MaximalQuery(basis=basis, alpha=wv.alpha, m=wv.m, orlicz=(psi,) * wv.m)
        mfs = [orlicz_maximal(fs, q) for fs in kept]
    best = 0.0
    for mf, den in zip(mfs, dens):
        best = max(best, lp_norm(mf.with_values(mf.values * nu), wv.q) / den)
    return best


def one_weight_equivalence_check(
    wv: WeightVector, fs_tuples: list[list[GridFunction]], basis: Basis = ALL,
) -> VerificationReport:
    """Equivalence circle for the one-weight fractional estimate.

    (i) the fractional multi-weight constant; (ii) min over r of the same
    constant for w^r at exponents (p/r, q/r) (the open-property statement);
    (iii) empirical operator ratio of the fractional maximal; (iv) the same
    for the Orlicz-maximal majorant with Phi_(k+1), k in ORLICZ_KS.
    Asserts: (i) finite under cap implies (iii) and (iv) finite, and
    (iv) >= (iii) (pointwise domination of the operators).
    """
    n = wv.weights[0].dims
    if abs(1.0 / wv.q - (1.0 / wv.p - wv.alpha / n)) > 1e-9:
        raise GridError("one-weight check needs 1/q = 1/p - alpha/n")
    c_i = multi_weight_constant_apq(wv, basis)
    c_ii = math.inf
    for r in (1.01, 1.05, 1.1, 1.25):
        if min(wv.ps) / r < 1.0:
            continue
        c_ii = min(c_ii, multi_weight_constant_apq(wv.powered(r), basis))
    r_iii = operator_ratio(fs_tuples, wv, basis)
    r_iv = {k: operator_ratio(fs_tuples, wv, basis, orlicz_k=k) for k in ORLICZ_KS}
    passed = True
    if c_i < CAP:
        passed = math.isfinite(r_iii) and all(math.isfinite(v) for v in r_iv.values())
    passed = passed and all(v >= r_iii - 1e-9 for v in r_iv.values())
    return VerificationReport(
        theorem="one-weight-equivalence",
        config={"ps": list(wv.ps), "q": wv.q, "alpha": wv.alpha, "basis": basis.kind},
        passed=passed,
        stats={
            "constant_apq": c_i,
            "constant_apq_powered_min": c_ii,
            "operator_ratio": r_iii,
            "orlicz_operator_ratio": {str(k): v for k, v in r_iv.items()},
        },
    )


# --- two-weight power bump -----------------------------------------------------


def two_weight_power_bump_check(
    wv: WeightVector, v: GridFunction, r: float,
    fs_tuples: list[list[GridFunction]], basis: Basis = ALL,
) -> VerificationReport:
    """Power-bump sufficiency: bump constant finite and v in A_infty imply
    the two-weight operator ratio is bounded over the corpus."""
    report = VerificationReport(
        theorem="two-weight-power-bump",
        config={"ps": list(wv.ps), "q": wv.q, "alpha": wv.alpha, "r": r,
                "basis": basis.kind},
    )
    bump = power_bump_check(wv, v, r, basis)
    report.stats["bump_constant"] = bump["constant"]
    if not bump["finite_under_cap"]:
        report.skipped = "hypothesis-skipped: power bump constant exceeds cap"
        return report
    ainf = a_infty_classify(v, n_random_pairs=0)
    if not ainf.passes:
        report.skipped = "hypothesis-skipped: v fails A_infty"
        return report
    kept, dens = [], []
    for fs in fs_tuples:
        den = 1.0
        for f, w, pi in zip(fs, wv.weights, wv.ps):
            den *= lp_norm(f, pi, weight=w)
        if den != 0:
            kept.append(list(fs))
            dens.append(den)
    best = 0.0
    for mf, den in zip(_maximal(kept, MaximalQuery(basis=basis, alpha=wv.alpha, m=wv.m), orlicz=False), dens):
        best = max(best, lp_norm(mf, wv.q, weight=v) / den)
    report.stats["max_operator_ratio"] = best
    report.passed = math.isfinite(best)
    return report


# --- vector-valued estimate ----------------------------------------------------


def vector_valued_check(
    fjs: list[GridFunction], w: GridFunction, v: GridFunction,
    p: float, q: float, a_young, b_young, r: float, basis: Basis = ALL,
) -> VerificationReport:
    """Two-weight vector-valued bound for the strong maximal operator.

    Hypotheses: 1 < q < p; conj(A) in B*_{r'}; conj(B) in B*_q; the
    two-weight Young-function condition sup_R ||w^q||_{A,R}^{1/q}
    ||v^{-1}||_{B,R} finite under cap. Conclusion tested:
    ||(sum_j (M f_j)^q)^{1/q}||_{L^p(w^p)} over the same norm of (f_j)
    against v^p is finite.
    """
    if not fjs:
        raise GridError("need at least one function")
    f0 = _check_common_grid([*fjs, w, v])
    n = f0.dims
    report = VerificationReport(
        theorem="vector-valued",
        config={"p": p, "q": q, "r": r, "count": len(fjs), "basis": basis.kind},
    )
    if not (1 < q < p < math.inf and 1 < r < math.inf):
        raise GridError(f"need 1 < q < p < inf and 1 < r < inf, got p={p}, q={q}, r={r}")
    rp = r / (r - 1.0)
    if not in_bp_star(complementary(a_young), rp, n):
        report.skipped = "hypothesis-skipped: conj(A) not in B*_{r'}"
        return report
    if not in_bp_star(complementary(b_young), q, n):
        report.skipped = "hypothesis-skipped: conj(B) not in B*_q"
        return report
    # checked as grid values
    vals = np.stack([f0.with_values(w.values**q).values, f0.with_values(1.0 / v.values).values])
    cellvol = f0.cell_volume
    # each rect's measure as CellSet.measure forms it
    sizes = list(basis_sizes(basis, f0.shape, f0.cell_size))
    na, nb = size_norms(vals, sizes, cellvol, [float(math.prod(c)) * cellvol for c, _ in sizes],
                        (a_young, b_young))
    # every rect holds a cell, so the sup is the largest rect value
    cond = max((float(np.max(libm_pow(a, 1.0 / q) * b)) for a, b in zip(na, nb)), default=0.0)
    report.stats["young_condition_sup"] = cond
    if cond >= CAP:
        report.skipped = "hypothesis-skipped: Young-function condition exceeds cap"
        return report

    def lq_stack(gs: list[GridFunction], weight: GridFunction) -> float:
        ell_q = np.sum(np.stack([g.values for g in gs]) ** q, axis=0) ** (1.0 / q)
        return lp_norm(f0.with_values(ell_q), p, weight)

    mfs = _maximal([[f] for f in fjs], MaximalQuery(basis=basis), orlicz=False)
    lhs = lq_stack(mfs, f0.with_values(w.values**p))
    rhs = lq_stack(fjs, f0.with_values(v.values**p))
    report.lhs, report.rhs = lhs, rhs
    report.passed = rhs == 0.0 or math.isfinite(lhs / rhs)
    return report


# --- explicit counterexample ----------------------------------------------------


def _decay_column(length: int) -> np.ndarray:
    """Exact cell integrals of (1+t)^-2 over unit cells [k, k+1)."""
    k = np.arange(length, dtype=np.float64)
    return 1.0 / (1.0 + k) - 1.0 / (2.0 + k)


def prop35_counterexample(lmax: int = 8) -> VerificationReport:
    """Weight with dyadic reverse doubling that fails the A_infty comparison.

    For n in {2, 3}, w(x) = (1 + |x_n|)^-2:
    (i) reverse doubling constant >= 2^(n-1) within 1%;
    (ii) w(R_l) = 2^(ln)/(1+2^l) and w(E_l)/w(R_l) = (1+2^-l)/2 within
        QUAD_TOL for l = 1..lmax, where R_l = [0, 2^l)^n and E_l is R_l
        thinned to x_n in [0, 1);
    (iii) the A_infty classifier reports failure.
    The masses factorize exactly across axes (w depends on x_n only), so
    they are computed from the last-axis column integrals times the
    cross-sectional area.
    """
    if lmax < 2:  # the A_infty grid needs 2^lmax >= 4 cells per axis
        raise GridError(f"prop35_counterexample needs lmax >= 2, got {lmax}")
    report = VerificationReport(theorem="rd-vs-a-infty-counterexample",
                                config={"lmax": lmax, "rd_grid": RD_GRID})
    col = _decay_column(2**lmax)
    cum = np.concatenate([[0.0], np.cumsum(col)])
    ok = True
    details = {}
    for n in (2, 3):
        rows = []
        for ell in range(1, lmax + 1):
            side = 2**ell
            mass = side ** (n - 1) * cum[side]
            exact_mass = 2.0 ** (ell * n) / (1.0 + 2.0**ell)
            ratio = col[0] / cum[side]
            exact_ratio = 0.5 * (1.0 + 2.0**-ell)
            ok &= abs(mass / exact_mass - 1.0) < QUAD_TOL
            ok &= abs(ratio / exact_ratio - 1.0) < QUAD_TOL
            rows.append({"l": ell, "mass": mass, "exact_mass": exact_mass,
                         "ratio": ratio, "exact_ratio": exact_ratio})
        # reverse doubling on a dyadic grid; weight constant across other axes
        colv = _decay_column(RD_GRID)
        shape = (RD_GRID,) * n
        vals = np.broadcast_to(colv, shape).copy()  # varies along the last axis
        w = GridFunction(shape, (1.0,) * n, vals)
        d = reverse_doubling_constant(w)
        ok &= d >= 2.0 ** (n - 1) * (1.0 - 1e-2)
        # A_infty on a grid reaching l = lmax along the decay axis
        nn = 2 ** min(lmax, 8 if n == 2 else 7)
        colw = _decay_column(nn)
        wbig = GridFunction((nn,) * n, (1.0,) * n,
                            np.broadcast_to(colw, (nn,) * n).copy())
        ainf = a_infty_classify(wbig, n_random_pairs=0)
        ok &= not ainf.passes
        details[f"n={n}"] = {
            "reverse_doubling": d,
            "rd_bound": 2.0 ** (n - 1),
            "a_infty_fails": not ainf.passes,
            "levels": rows,
        }
    report.stats = details
    report.passed = bool(ok)
    return report


# --- weight theory implications --------------------------------------------------


def _sample_weight_pairs(seed: int, count: int, shape, cell_size):
    """Weight tuples (m=2): constants, power weights, log-uniform noise."""
    rng = np.random.default_rng(seed)
    n = len(shape)
    out = []
    for i in range(count):
        ws = []
        for _ in range(2):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                ws.append(GridFunction(shape, cell_size,
                                       np.full(shape, float(rng.uniform(0.2, 5.0)))))
            elif kind == 1:
                a = float(rng.uniform(-0.6, 0.6))
                ws.append(power_weight_grid(a, n, shape[0]))
            else:
                ws.append(GridFunction(shape, cell_size,
                                       np.exp(rng.uniform(-1.0, 1.0, shape))))
        out.append(tuple(ws))
    return out


def weight_theory_suite(samples: int = 200, seed: int = 0, shape=(16, 16)) -> VerificationReport:
    """Implication checks over sampled weight tuples plus separation witnesses.

    Implications (cap = 1e6 as the finiteness proxy):
      * scaling monotonicity: the r1-scaled multi-weight constant under cap
        implies the r2-scaled one is too, r1 < r2;
      * factorization: the fractional multi-weight constant under cap
        implies nu_w^q lies in A_{mq} and each w_i^{-p_i'} in A_{m p_i'};
      * bump monotonicity: the r2-bump constant under cap implies the
        r1-bump constant is too, r1 < r2;
      * reverse-doubling inclusion: every tuple passing the A_infty
        classifier has reverse doubling constant > 1.
    Separation witnesses come from 1D power weights via the interval
    classifier.
    """
    if len(set(shape)) != 1:  # the power weights are |x|^a on a square grid
        raise GridError(f"weight_theory_suite needs a square grid, got shape {tuple(shape)}")
    cell_size = tuple(1.0 / s for s in shape)
    pairs = _sample_weight_pairs(seed, samples, shape, cell_size)
    ps = (2.0, 2.0)
    violations = []
    for idx, ws in enumerate(pairs):
        wv = WeightVector(ws, ps, q=1.0)
        # scaling monotonicity at r1=1 < r2=1.2
        c1 = multi_weight_constant_ap(wv, ALL)
        c2 = multi_weight_constant_ap(
            WeightVector(ws, tuple(1.2 * p for p in ps), q=1.0), ALL
        )
        if c1 < CAP and not c2 < CAP:
            violations.append((idx, "scaling-monotonicity"))
        # factorization, at q = 1
        nu = ws[0].with_values(wv.nu())
        capq = multi_weight_constant_apq(wv, ALL)
        if capq < CAP:
            m = len(ws)
            if not ap_constant(nu, m, ALL) < CAP:
                violations.append((idx, "factorization-nu"))
            for w, pi in zip(ws, ps):
                ppi = pi / (pi - 1.0)
                wi = w.with_values(w.values**-ppi)
                if not ap_constant(wi, m * ppi, ALL) < CAP:
                    violations.append((idx, "factorization-wi"))
        # bump monotonicity r1=1.1 < r2=1.5 (exact by power-mean monotonicity)
        wv_b = WeightVector(ws, ps, q=2.0, alpha=0.0)
        b2 = power_bump_check(wv_b, ws[0], 1.5, ALL)["constant"]
        b1 = power_bump_check(wv_b, ws[0], 1.1, ALL)["constant"]
        if b2 < CAP and not b1 < CAP:
            violations.append((idx, "bump-monotonicity"))
        # RD inclusion (product weight), grids are power-of-two sided
        if a_infty_classify(nu, n_random_pairs=0).passes:
            if not reverse_doubling_constant(nu) > 1.0:
                violations.append((idx, "rd-inclusion"))

    # separation witnesses via 1D power weights: a in (r1*p - 1, r2*p - 1)
    p0, r1, r2 = 2.0, 1.0, 1.5
    a_sep = 0.5 * ((r1 * p0 - 1.0) + (r2 * p0 - 1.0))
    sep_scaling = (
        not power_weight_classify(a_sep, r1 * p0, 1).in_ap
        and power_weight_classify(a_sep, r2 * p0, 1).in_ap
    )
    # bump separation: bump(r1) stable across depth, bump(r2) growing > 10x
    sep_bump = _bump_separation_witness()
    report = VerificationReport(
        theorem="weight-theory-suite",
        config={"samples": samples, "seed": seed, "shape": list(shape)},
        passed=not violations and sep_scaling and sep_bump,
        stats={
            "violations": violations,
            "scaling_separation_witness": sep_scaling,
            "bump_separation_witness": sep_bump,
        },
    )
    return report


def _bump_profile(a: float, c: float, p: float, q: float, r: float,
                  depth: int) -> list[float]:
    """Bump products of w = x^a, v = x^c over origin-anchored dyadic
    intervals [0, 2^-k] at rising 1D resolution (where any divergence of
    the singular average x^((1-p')ra) lives)."""
    pp = p / (p - 1.0)
    return anchored_profile(1, range(3, depth + 1), [(c, 1.0 / q), (a * (1.0 - pp) * r, 1.0 / (r * pp))])


def _bump_separation_witness() -> bool:
    """1D power weights separating the two bump classes: the small-r bump
    profile converges across depth (geometric log-increments) while the
    large-r profile keeps growing (increment ratio near 1)."""
    # w = x^0.5, v = x^0.6, p = q = 2 (p' = 2): the singular average
    # x^(-0.5 r) integrates iff 0.5 r < 1, so r = 1.05 converges and
    # r = 2.5 diverges; v's exponent keeps small rects harmless.
    a, c, p, q = 0.5, 0.6, 2.0, 2.0
    r_small = _increment_ratio(_bump_profile(a, c, p, q, 1.05, 12))
    r_large = _increment_ratio(_bump_profile(a, c, p, q, 2.5, 12))
    return r_small < RATIO_THRESHOLD <= r_large


# --- full run -------------------------------------------------------------------


def _job_endpoint(seed: int) -> VerificationReport:
    shape, h = (32, 32), (1.0 / 32, 1.0 / 32)
    fns = make_corpus(shape, h, seed, 8)
    # one check per corpus function; the job reports the first, a rectangle
    # indicator, which is never all zero and so never skipped
    reports = _endpoint_reports(_tuple_maxima(fns, 1, 0.0), 1.0, 0.0)
    rep = reports[0]
    rep.stats["corpus_max_ratio"] = _max_ratio(reports.values())
    return rep


def _unit_weights(seed: int, count: int):
    """The weight pair (1, 1) on the 16x16 grid at p = (2, 2), q = 1, and
    the first count corpus functions of the seed on that grid, in pairs."""
    shape, h = (16, 16), (1.0 / 16, 1.0 / 16)
    ones = GridFunction(shape, h, np.ones(shape))
    fns = make_corpus(shape, h, seed, count)
    return WeightVector((ones, ones), (2.0, 2.0), q=1.0, alpha=0.0), [fns[i : i + 2] for i in range(0, count, 2)]


def _job_one_weight(seed: int) -> VerificationReport:
    wv, tuples = _unit_weights(seed, 8)
    return one_weight_equivalence_check(wv, tuples, basis=Basis("dyadic"))


def _job_two_weight(seed: int) -> VerificationReport:
    wv, tuples = _unit_weights(seed + 1, 8)
    return two_weight_power_bump_check(wv, wv.weights[0], 1.5, tuples)


def _job_two_weight_skip(seed: int) -> VerificationReport:
    wv, tuples = _unit_weights(seed + 1, 4)
    # v huge on a thin strip: the bump constant blows past the cap
    vvals = np.ones((16, 16))
    vvals[:, 0] = 1e12
    return two_weight_power_bump_check(wv, wv.weights[0].with_values(vvals), 1.5, tuples)


def _job_vector_valued(seed: int, cells: int, count: int, a_young) -> VerificationReport:
    """The vector-valued check of count corpus functions of seed + 2 on the
    cells x cells grid, with w = v = 1, p = 3, q = 2, B = t^3 and r = 1.5."""
    shape, h = (cells, cells), (1.0 / cells, 1.0 / cells)
    ones = GridFunction(shape, h, np.ones(shape))
    return vector_valued_check(make_corpus(shape, h, seed + 2, count), ones, ones, p=3.0, q=2.0,
                               a_young=a_young, b_young=power(3.0), r=1.5, basis=Basis("dyadic"))


def _job_covering(seed: int) -> VerificationReport:
    rng = np.random.default_rng(seed + 3)
    rects = tuple(random_rect(rng, (0, 0), (31, 31)) for _ in range(60))
    fam = RectFamily((32, 32), (1.0 / 32, 1.0 / 32), rects)
    sel = cf_select(fam)
    sc = scattered_select(fam, 0.5)
    return VerificationReport(
        theorem="covering-selection",
        config={"families": 1, "rects": 60, "seed": seed + 3},
        passed=bool(sel.scattered_check and sc.scattered_check
                    and math.isfinite(sc.chain_constant)),
        stats={
            "c_emp": sel.c_emp,
            "max_feasible_delta": sel.packing.get("max_feasible_delta"),
            "chain_constant": sc.chain_constant,
        },
    )


JOBS = {
    "endpoint": _job_endpoint,
    "one-weight": _job_one_weight,
    "two-weight-bump": _job_two_weight,
    "two-weight-bump-skip": _job_two_weight_skip,
    # conj(t^2.5) grows like t^(5/3) < r' = 3; conj(t^3) like t^1.5 < q = 2
    "vector-valued": lambda seed: _job_vector_valued(seed, 16, 4, power(2.5)),
    # conj(t^1.3) grows like t^(13/3) > r' = 3: hypothesis must be refused
    "vector-valued-skip": lambda seed: _job_vector_valued(seed, 8, 2, power(1.3)),
    "prop3.5": lambda seed: prop35_counterexample(),
    "prop3.6": lambda seed: VerificationReport(
        theorem="power-weight-interval",
        config={"p": 2.0, "n": 1},
        passed=(
            power_weight_classify(0.5, 2.0, 1).in_ap
            and not power_weight_classify(1.5, 2.0, 1).in_ap
            and not power_weight_classify(-1.0, 2.0, 1).in_ap
        ),
    ),
    "weight-theory": lambda seed: weight_theory_suite(samples=40, seed=seed, shape=(8, 8)),
    "covering": _job_covering,
}


def thread_count() -> int:
    # run_all uses only the calling thread; perfbench's fingerprint reads this
    return 1


def run_all(seed: int = 0, theorems: list[str] | None = None) -> dict[str, VerificationReport]:
    """Run the selected checks in sorted-name order; deterministic output.

    The first job that raises ends the run with its exception.
    """
    names = list(JOBS) if theorems is None else theorems
    for name in names:
        if name not in JOBS:
            raise GridError(f"unknown theorem selector: {name!r} "
                            f"(available: {', '.join(JOBS)})")
    return {name: JOBS[name](seed) for name in sorted(names)}


def reports_to_json(reports: dict[str, VerificationReport]) -> str:
    payload = {name: rep.to_dict() for name, rep in sorted(reports.items())}
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonify)
