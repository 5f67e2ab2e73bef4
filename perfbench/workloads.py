"""The benchmark's three workloads.

Each workload makes its inputs from the seed in `setup`, and `round` runs one
fixed list of operations, checks every output and returns the round's timed
wall seconds. Rounds repeat the same operations on the same inputs. The
first round checks outputs against the oracles in oracles.py; later rounds
must reproduce the first round's outputs exactly.

Program functions are always called through their module (`maximal.f`, not
a bound `f`), so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from strongmax import corpus, grid, maximal, verify, weights

import oracles

# Relative tolerances of the oracle comparisons; README.md, "Checks", says why.
TOL_SUM = 1e-9  # anything the program forms from prefix-sum differences
TOL_EXACT = 1e-12  # the same few roundings on both sides


class Recorder:
    """Counts operations, keeps the times of those that succeed, and collects
    failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []
        self.problems: list[str] = []

    def record(self, seconds: float, failed: bool) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
        else:
            self.op_s.append(seconds)

    def op(self, label: str, fn, *args, fault: bool = False, **kwargs):
        """Run one timed operation; returns (output or None if it raised, seconds)."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, the run goes on
            dt = time.perf_counter() - t0
            self.record(dt, failed=True)
            if not fault:
                print(f"{label}: unexpected failure", file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)
            return None, dt
        dt = time.perf_counter() - t0
        self.record(dt, failed=False)
        return out, dt

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def close(self, got, want, tol: float, what: str) -> None:
        err = oracles.relative_error(got, want)
        self.check(err <= tol, f"{what}: relative error {err:.3g} > {tol:g}")


# --- maximal-sweep ---------------------------------------------------------------

SWEEP_GRIDS = ((4096,), (64, 64), (12, 12, 12))
LAMBDAS = (0.25, 1.0, 4.0)  # the ladder of acceptance criterion 3
CORPUS_COUNT = 8
# make_corpus cycles four kinds, so corpus index i has kind i % 4
KIND_INDICES = {"indicator": (0, 4), "bump": (1, 5), "spike": (2, 6), "lognormal": (3, 7)}
# (m, alpha, kinds each slot may draw from). Indicators and spikes are
# separable, so those tuples also get the closed-form check.
SWEEP_CONFIGS = (
    (1, 0.0, (("bump", "lognormal"),)),
    (1, 0.5, (("indicator", "spike"),)),
    (2, 0.0, (("indicator",), ("spike",))),
    (2, 0.5, (("bump",), ("lognormal",))),
)
SEPARABLE = {"indicator", "spike"}


@dataclass
class SweepCase:
    label: str
    h: tuple[float, ...]
    alpha: float
    fs: list
    separable: bool
    cells: list[tuple[int, ...]]
    first: np.ndarray | None = None


def _tiny_cells_input():
    """Ones on 16 cells of width 1e-160, m = 2: every M value is 1.0."""
    f = grid.GridFunction((16,), (1e-160,), np.ones(16))
    return [f, f]


def _overflow_input():
    """f1 = 1e306, f2 = 1e-306 on 16 x 16: every M value is 1.0, but the
    prefix sums of f1 overflow."""
    h = (1.0 / 16, 1.0 / 16)
    return [grid.GridFunction((16, 16), h, np.full((16, 16), 1e306)),
            grid.GridFunction((16, 16), h, np.full((16, 16), 1e-306))]


class MaximalSweep:
    """All-rectangles maximal functions of seeded corpus tuples, each followed
    by endpoint checks at three lambdas; plus two known edge faults."""

    def __init__(self, seed: int, **_):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.cases = []
        for shape in SWEEP_GRIDS:
            h = tuple(1.0 / s for s in shape)
            fns = corpus.make_corpus(shape, h, self.seed, CORPUS_COUNT)
            for m, alpha, slots in SWEEP_CONFIGS:
                picks = [int(rng.choice([i for kind in kinds for i in KIND_INDICES[kind]]))
                         for kinds in slots]
                cells = [(0,) * len(shape), tuple(s - 1 for s in shape),
                         tuple(int(rng.integers(s)) for s in shape)]
                self.cases.append(SweepCase(
                    label=f"{'x'.join(map(str, shape))} m={m} alpha={alpha} corpus{picks}",
                    h=h, alpha=alpha, fs=[fns[i] for i in picks],
                    separable=all(set(kinds) <= SEPARABLE for kinds in slots),
                    cells=cells,
                ))
        # config-major order: each grid's operations are spread over the
        # round, so the median operation samples the whole run, not the few
        # seconds one grid would take
        self.cases = [c for i in range(len(SWEEP_CONFIGS)) for c in self.cases[i::len(SWEEP_CONFIGS)]]
        self.faults = [("1-D h=1e-160 m=2", _tiny_cells_input()),
                       ("16x16 1e306*1e-306", _overflow_input())]
        # warm-up: first calls of each sweep dimension and of endpoint_check
        for shape in ((4,), (4, 4), (3, 3, 3)):
            f = grid.GridFunction(shape, 1.0, np.arange(1.0, 1.0 + math.prod(shape)))
            for m in (1, 2):
                maximal.multilinear_fractional_maximal(
                    [f] * m, maximal.MaximalQuery(grid.Basis("all"), m=m))
            verify.endpoint_check([f], 1.0)

    def round(self, rec: Recorder) -> float:
        wall = 0.0
        for case in self.cases:
            m = len(case.fs)
            q = maximal.MaximalQuery(grid.Basis("all"), alpha=case.alpha, m=m)
            mf, dt = rec.op(case.label, maximal.multilinear_fractional_maximal, case.fs, q)
            wall += dt
            if mf is not None:
                self._check_output(rec, case, mf.values)
            for lam in LAMBDAS:
                rep, dt = rec.op(f"{case.label} lambda={lam}", verify.endpoint_check,
                                 case.fs, lam, case.alpha)
                wall += dt
                if rep is not None and mf is not None:
                    self._check_endpoint(rec, case, mf.values, lam, rep)
        for label, fs in self.faults:
            q = maximal.MaximalQuery(grid.Basis("all"), m=len(fs))
            with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the fault
                mf, dt = rec.op(label, maximal.multilinear_fractional_maximal, fs, q, fault=True)
            wall += dt
            if mf is not None:
                rec.close(mf.values, 1.0, TOL_SUM, f"{label}: M value")
        return wall

    def _check_output(self, rec: Recorder, case: SweepCase, out: np.ndarray) -> None:
        if case.first is not None:
            rec.check(np.array_equal(out, case.first), f"{case.label}: output changed between rounds")
            return
        case.first = out.copy()
        rec.check(out.shape == case.fs[0].shape and bool(np.all(np.isfinite(out))),
                  f"{case.label}: output shape or finiteness")
        raw = [f.values for f in case.fs]
        for x in case.cells:
            rec.close(out[x], oracles.maximal_at(raw, case.h, case.alpha, x), TOL_SUM,
                      f"{case.label}: cell {x} against the enumerated maximum")
        if case.separable:
            parts = [oracles.separable_parts(v) for v in raw]
            if any(p is None for p in parts):
                rec.check(False, f"{case.label}: input is not an indicator or spike")
                return
            rec.close(out, oracles.separable_maximal(parts, case.h, case.alpha), TOL_SUM,
                      f"{case.label}: closed form of a separable tuple")

    @staticmethod
    def _check_endpoint(rec, case, out, lam, rep) -> None:
        m, n = len(case.fs), out.ndim
        level = float(np.count_nonzero(out > lam**m)) * float(np.prod(case.h))
        rec.close(rep.lhs, level ** (m - case.alpha / n), TOL_EXACT,
                  f"{case.label} lambda={lam}: endpoint lhs")
        rec.check(rep.passed is True and math.isfinite(rep.ratio),
                  f"{case.label} lambda={lam}: endpoint ratio not finite")


# --- weight-constants -----------------------------------------------------------

BASIS_CELLS = {"all": 16, "dyadic": 32, "cubes": 32}
WEIGHT_PS = (2.0, 3.0)
WEIGHT_Q = 2.0
BUMP_R = 1.5
# (kinds, bases). The tuples on all three bases also get a_infty and reverse
# doubling on their product weight.
WEIGHT_TUPLES = (
    (("constant", "constant"), ("all", "dyadic", "cubes")),
    (("power", "noise"), ("all", "dyadic", "cubes")),
    (("noise", "power"), ("dyadic",)),
    (("power", "power"), ("dyadic",)),
)
RD_GRID = 32
# power_weight_classify exponents p; per p, 2 draws of a well inside
# (-1, p - 1), 1 well above it and 1 well below. A round has 8 constants on
# each of all and cubes, 16 on dyadic and 16 light operations (these 12,
# 2 a_infty, 2 reverse doubling), so the median of its 48 operations falls
# in the middle of the 16 dyadic constants, the largest group of like
# operations.
CLASSIFY_PS = (1.5, 2.0, 3.0)
CLASSIFY_MARGIN = 0.3


def _weight_values(kind: str, param: float, noise: np.random.Generator, cells: int) -> np.ndarray:
    if kind == "constant":
        return np.full((cells, cells), param)
    if kind == "power":  # |x|^a at cell centres of [0, 1]^2
        x = (np.arange(cells) + 0.5) / cells
        return (x[:, None] ** 2 + x[None, :] ** 2) ** (param / 2.0)
    return np.exp(noise.uniform(-1.0, 1.0, (cells, cells)))


@dataclass
class WeightCase:
    label: str
    kind: str
    ws: tuple
    constant: bool
    first: dict = field(default_factory=dict)


class WeightConstants:
    """Basis-wide weight constants of seeded m = 2 weight tuples, plus the
    A_infty, reverse-doubling and power-weight classifiers."""

    def __init__(self, seed: int, **_):
        self.seed = seed
        self._boxes: dict[int, oracles.Boxes2D] = {}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.cases = []
        self.products = []
        for t, (kinds, bases) in enumerate(WEIGHT_TUPLES):
            params = [float(rng.uniform(0.2, 5.0)) if k == "constant"
                      else float(rng.uniform(-0.6, 0.6)) for k in kinds]
            by_cells = {}
            for cells in sorted({BASIS_CELLS[b] for b in bases} | {RD_GRID}):
                h = (1.0 / cells, 1.0 / cells)
                noise = np.random.default_rng([self.seed, 2, t, cells])
                by_cells[cells] = tuple(
                    grid.GridFunction((cells, cells), h, _weight_values(k, a, noise, cells))
                    for k, a in zip(kinds, params))
            constant = kinds == ("constant", "constant")
            for basis in bases:
                cells = BASIS_CELLS[basis]
                self.cases.append(WeightCase(
                    label=f"{'+'.join(kinds)}{[round(a, 4) for a in params]} {basis} {cells}^2",
                    kind=basis, ws=by_cells[cells], constant=constant))
            if len(bases) == len(BASIS_CELLS):
                w0, w1 = by_cells[RD_GRID]
                self.products.append((f"{'*'.join(kinds)} {RD_GRID}^2",
                                      w0.with_values(w0.values * w1.values), constant))
        # interleave the bases (all, dyadic, cubes, dyadic, ...) so the dyadic
        # constants, where the median operation falls, are spread over the round
        by_basis = {b: [c for c in self.cases if c.kind == b] for b in BASIS_CELLS}
        self.cases = [c for i in range(len(by_basis["all"]))
                      for c in (by_basis["all"][i], by_basis["dyadic"][2 * i],
                                by_basis["cubes"][i], by_basis["dyadic"][2 * i + 1])]
        self.classify = []
        for p in CLASSIFY_PS:
            lo, hi = -1.0, p - 1.0
            draws = [(rng.uniform(lo + CLASSIFY_MARGIN, hi - CLASSIFY_MARGIN), True) for _ in range(2)]
            draws += [(rng.uniform(hi + CLASSIFY_MARGIN, hi + 1.0), False),
                      (rng.uniform(lo - 1.0, lo - CLASSIFY_MARGIN), False)]
            self.classify += [(float(a), p, inside) for a, inside in draws]
        # warm-up: each constant on each basis, the classifiers, on 4 x 4
        w = grid.GridFunction((4, 4), 0.25, np.arange(1.0, 17.0))
        wv = weights.WeightVector((w, w), WEIGHT_PS, q=WEIGHT_Q)
        for basis in ("all", "dyadic", "cubes"):
            b = grid.Basis(basis)
            weights.ap_constant(w, WEIGHT_PS[0], b)
            weights.multi_weight_constant_ap(wv, b)
            weights.multi_weight_constant_apq(wv, b)
            weights.power_bump_check(wv, w, BUMP_R, b)
        weights.a_infty_classify(w, n_random_pairs=0)
        weights.reverse_doubling_constant(w)
        weights.power_weight_classify(0.5, 2.0, 1, depth=4)

    def round(self, rec: Recorder) -> float:
        wall = 0.0
        for case in self.cases:
            b = grid.Basis(case.kind)
            wv = weights.WeightVector(case.ws, WEIGHT_PS, q=WEIGHT_Q)
            got = {}
            for name, fn, args in (
                ("ap", weights.ap_constant, (case.ws[0], WEIGHT_PS[0], b)),
                ("apvec", weights.multi_weight_constant_ap, (wv, b)),
                ("apq", weights.multi_weight_constant_apq, (wv, b)),
                ("bump", weights.power_bump_check, (wv, case.ws[0], BUMP_R, b)),
            ):
                out, dt = rec.op(f"{case.label} {name}", fn, *args)
                wall += dt
                if out is not None:
                    got[name] = out["constant"] if name == "bump" else out
            self._check_constants(rec, case, got)
        for label, nu, constant in self.products:
            rep, dt = rec.op(f"{label} a_infty", weights.a_infty_classify, nu, n_random_pairs=0)
            wall += dt
            if rep is not None and constant:
                rec.check(rep.passes, f"{label}: constant weight not in A_infty")
            rd, dt = rec.op(f"{label} reverse doubling", weights.reverse_doubling_constant, nu)
            wall += dt
            if rd is not None:
                rec.check(rd >= 1.0, f"{label}: reverse doubling constant {rd} < 1")
                if constant:
                    rec.close(rd, 2.0**nu.dims, TOL_EXACT, f"{label}: reverse doubling of a constant")
        for a, p, inside in self.classify:
            rep, dt = rec.op(f"|x|^{a} p={p}", weights.power_weight_classify, a, p, 1)
            wall += dt
            if rep is not None:
                rec.check(rep.in_ap == inside,
                          f"|x|^{a:.4f} in A_{p}: classified {rep.in_ap}, interval says {inside}")
        return wall

    def _check_constants(self, rec: Recorder, case: WeightCase, got: dict) -> None:
        if case.first:
            rec.check(got == {k: v for k, v in case.first.items() if k in got},
                      f"{case.label}: constants changed between rounds")
            return
        case.first = dict(got)
        cells = case.ws[0].shape[0]
        if cells not in self._boxes:
            self._boxes[cells] = oracles.Boxes2D(case.ws[0].shape, case.ws[0].cell_size)
        want = oracles.weight_constants(
            self._boxes[cells], case.kind, tuple(w.values for w in case.ws),
            WEIGHT_PS, WEIGHT_Q, BUMP_R, case.ws[0].values)
        for name, value in got.items():
            rec.close(value, want[name], TOL_SUM, f"{case.label} {name} against the enumerated supremum")
            if case.constant and name != "bump":
                rec.close(value, 1.0, TOL_SUM, f"{case.label} {name} of constant weights")

# --- verify-seed -----------------------------------------------------------------

WARMUP_JOBS = ["prop3.6", "covering"]


class VerifySeed:
    """`verify.run_all(seed)` with the default pool, as `strongmax verify
    --seed S` runs it. One operation is one `run_all` call: its ten jobs
    share the pool, so a job's own wall time depends on which jobs overlap
    it."""

    def __init__(self, seed: int, digest_file: str, source_id: str):
        self.seed = seed
        self.digest_file = digest_file
        self.source_id = source_id
        self.digests: set[str] = set()

    def setup(self) -> None:
        verify.run_all(self.seed, theorems=WARMUP_JOBS)

    def round(self, rec: Recorder) -> float:
        reports, wall = rec.op(f"run_all({self.seed})", verify.run_all, self.seed)
        if reports is not None:
            self._check_reports(rec, reports)
        return wall

    def _check_reports(self, rec: Recorder, reports: dict) -> None:
        rec.check(sorted(reports) == sorted(verify.JOBS), f"report keys {sorted(reports)}")
        for name, rep in reports.items():
            if name.endswith("-skip"):
                rec.check(rep.passed is None and (rep.skipped or "").startswith("hypothesis-skipped"),
                          f"{name}: expected a hypothesis skip, got passed={rep.passed} skipped={rep.skipped!r}")
            else:
                rec.check(rep.passed is True, f"{name}: passed={rep.passed} skipped={rep.skipped!r}")
        if "one-weight" in reports:
            rec.close(reports["one-weight"].stats["constant_apq"], 1.0, TOL_SUM,
                      "one-weight: constant_apq of unit weights")
        if "two-weight-bump" in reports:
            rec.close(reports["two-weight-bump"].stats["bump_constant"], 1.0, TOL_SUM,
                      "two-weight-bump: bump_constant of unit weights")
        digest = hashlib.sha256(verify.reports_to_json(reports).encode()).hexdigest()
        self.digests.add(digest)
        rec.check(len(self.digests) == 1, "report bytes differ between rounds")
        self._check_stored_digest(rec, digest)

    def _check_stored_digest(self, rec: Recorder, digest: str) -> None:
        """Compare with the digest an earlier run of the same sources and seed stored."""
        key = f"{self.source_id} seed={self.seed}"
        try:
            with open(self.digest_file) as fh:
                stored = json.load(fh)
        except FileNotFoundError:
            stored = {}
        if key in stored:
            rec.check(stored[key] == digest, "report bytes differ from an earlier run")
            return
        stored[key] = digest
        os.makedirs(os.path.dirname(self.digest_file), exist_ok=True)
        tmp = f"{self.digest_file}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.digest_file)


WORKLOADS = {
    "verify-seed": VerifySeed,
    "maximal-sweep": MaximalSweep,
    "weight-constants": WeightConstants,
}
