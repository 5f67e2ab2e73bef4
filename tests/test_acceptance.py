"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from strongmax.corpus import make_corpus
from strongmax.grid import Basis, GridFunction, Rect, build_prefix_sum
from strongmax.covering import RectFamily, cf_select, is_scattered, scattered_select
from strongmax.maximal import (
    MaximalQuery,
    maximal_reference_scan,
    multilinear_fractional_maximal,
    orlicz_maximal,
    strong_maximal,
)
from strongmax.orlicz import (
    CellSet,
    generalized_holder_check,
    luxemburg_norm,
    product_norm_lemma_check,
)
from strongmax.verify import (
    endpoint_check,
    endpoint_corpus_max,
    operator_ratio,
    prop35_counterexample,
    weight_theory_suite,
)
from strongmax.weights import WeightVector, power_weight_classify, power_weight_grid
from strongmax.young import (
    BORDERLINE,
    CONVERGENT,
    DIVERGENT,
    bp_star_classify,
    complementary,
    identity,
    l_log_l,
    phi_n,
    power,
)

ALL = Basis("all")


def _announce(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {label}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {num} failed: {label} {detail}"


def gf(values, h=None):
    values = np.asarray(values, dtype=np.float64)
    h = h or (1.0,) * values.ndim
    return GridFunction(values.shape, h, values)


def test_criterion_1_counterexample_reproduction():
    t0 = time.time()
    rep = prop35_counterexample(lmax=8)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 10.0
    for n in (2, 3):
        det = rep.stats[f"n={n}"]
        ok &= det["reverse_doubling"] >= 2.0 ** (n - 1) * (1.0 - 1e-2)
        ok &= det["a_infty_fails"]
        for row in det["levels"]:
            ok &= abs(row["mass"] / row["exact_mass"] - 1.0) < 5e-3
            ok &= abs(row["ratio"] / row["exact_ratio"] - 1.0) < 5e-3
    _announce(1, "counterexample reproduction (RD holds, A_infty fails)", bool(ok),
              f"{elapsed:.2f}s")


def test_criterion_2_power_weight_classification():
    t0 = time.time()
    failures = []
    for n in (1, 2):
        for p in (1.5, 2.0, 3.0):
            # 9 alphas straddling the class interval (-1, p-1); the interior
            # in-class points keep >= 0.4 distance from both boundaries
            alphas_in = [-0.6, 0.0, p - 1 - 0.4]
            alphas_out = [-2.0, -1.5, -1.0, p - 1, p - 1 + 0.5, p - 1 + 1.5]
            for a in alphas_in:
                if not power_weight_classify(a, p, n).in_ap:
                    failures.append((n, p, a, "expected in-class"))
            for a in alphas_out:
                if power_weight_classify(a, p, n).in_ap:
                    failures.append((n, p, a, "expected out-of-class"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    _announce(2, "power-weight class interval (boundaries out)", ok,
              f"{elapsed:.2f}s, failures={failures}")


def test_criterion_3_endpoint_stability():
    problems = []
    for m in (1, 2):
        for alpha in (0.0, 1.0):
            for lam in (0.25, 1.0, 4.0):
                r32 = endpoint_corpus_max((32, 32), (1 / 32, 1 / 32), 0, m, alpha, lam, 50)
                r64 = endpoint_corpus_max((64, 64), (1 / 64, 1 / 64), 0, m, alpha, lam, 50)
                if not (math.isfinite(r32) and math.isfinite(r64)):
                    problems.append((m, alpha, lam, "non-finite ratio"))
                # < 25% growth per doubling, with an absolute floor of 0.05
                # for near-zero ratios where one-cell level-set quantization
                # dominates the relative change
                elif r64 > max(1.25 * r32, r32 + 0.05):
                    problems.append((m, alpha, lam, f"{r32:.4g} -> {r64:.4g}"))
    # unit indicator, m = 1, alpha = 0, n = 1: ratio -> 3/2 at lam = 1/2
    n_cells = 512
    h = 4.0 / n_cells
    vals = np.zeros(n_cells)
    vals[int(1.5 / h) : int(1.5 / h) + int(1.0 / h)] = 1.0
    rep = endpoint_check([gf(vals, h=(h,))], 0.5)
    unit_ok = abs(rep.ratio - 1.5) <= 0.15
    ok = not problems and unit_ok
    _announce(3, "endpoint ratios finite + stable under refinement", ok,
              f"unit-indicator ratio={rep.ratio:.4f}, problems={problems}")


def test_criterion_4_reduction_and_dual_oracles():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        ndim = int(rng.integers(1, 3))
        shape = tuple(int(rng.integers(4, 13)) for _ in range(ndim))
        f = gf(rng.uniform(0, 3, shape))
        sm = strong_maximal(f, ALL)
        frac = multilinear_fractional_maximal([f], MaximalQuery(basis=ALL, m=1))
        orl = orlicz_maximal([f], MaximalQuery(basis=ALL, m=1, orlicz=(identity(),)))
        scale = np.maximum(sm.values, 1e-300)
        worst = max(worst,
                    float(np.max(np.abs(frac.values - sm.values) / scale)),
                    float(np.max(np.abs(orl.values - sm.values) / scale)))
    reduction_ok = worst <= 1e-8

    dual_ok = True
    for shape in [(16,), (16, 16), (5, 7), (4, 5, 6), (8, 8, 8)]:
        for m, alpha in [(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0)]:
            r = np.random.default_rng(hash((shape, m)) % 2**31)
            h = tuple(r.uniform(0.3, 1.5, len(shape)))
            fs = [gf(r.uniform(0, 3, shape), h=h) for _ in range(m)]
            q = MaximalQuery(basis=ALL, alpha=alpha, m=m)
            fast = multilinear_fractional_maximal(fs, q)
            slow = maximal_reference_scan(fs, q)
            dual_ok &= np.array_equal(fast.values, slow.values)
    ok = reduction_ok and dual_ok
    _announce(4, "operator reduction chain + dual implementation agreement", ok,
              f"max relative deviation {worst:.2e}, dual exact={dual_ok}")


def test_criterion_5_orlicz_suite():
    rng = np.random.default_rng(7)
    # generalized Hoelder with factor 2: 100 pairs x 3 Young functions
    phis = [power(2.0), phi_n(2), l_log_l(1)]
    conjs = [complementary(phi) for phi in phis]
    holder_ok = True
    for _ in range(100):
        f = gf(rng.uniform(0, 3, (8, 8)))
        g = gf(rng.uniform(0, 3, (8, 8)))
        for phi, phi_bar in zip(phis, conjs):
            holder_ok &= generalized_holder_check(f, g, CellSet.full(f), phi, phi_bar).passed

    # Luxemburg bisection vs closed-form L^s norms
    lux_worst = 0.0
    for _ in range(25):
        s = float(rng.uniform(1.0, 4.0))
        f = gf(rng.uniform(0.01, 5.0, (9,)), h=(0.3,))
        closed = float(np.mean(f.values**s)) ** (1.0 / s)
        got = luxemburg_norm(f, CellSet.full(f), power(s))
        lux_worst = max(lux_worst, abs(got - closed) / closed)
    lux_ok = lux_worst <= 1e-8

    # product norm bound with a reported finite constant over a corpus;
    # scale the functions up so the product of norms exceeds 1 and the
    # nontrivial branch of the lemma is exercised
    fns = make_corpus((8, 8), (0.125, 0.125), 3, 12)
    lemma_ok = True
    worst_c = 0.0
    applied = 0
    for i in range(0, 12, 2):
        pair = [f.with_values(20.0 * f.values) for f in (fns[i], fns[i + 1])]
        rep = product_norm_lemma_check(pair, CellSet.full(pair[0]), phi_n(2))
        lemma_ok &= rep.passed
        if rep.ratio is not None and math.isfinite(rep.ratio) and rep.rhs > 0:
            worst_c = max(worst_c, rep.ratio)
            applied += 1
    lemma_ok &= applied > 0 and 0.0 < worst_c < math.inf

    # B*_p classifier against analytic tail exponents (borderline gated
    # divergent by policy)
    cases = [
        (identity(), 2.0, 1, CONVERGENT),
        (power(2.0), 2.0, 1, DIVERGENT),
        (power(1.5), 3.0, 2, CONVERGENT),
        (power(3.0), 2.0, 1, DIVERGENT),
        (l_log_l(1), 2.5, 1, CONVERGENT),
        (power(2.5), 2.0, 2, DIVERGENT),
    ]
    bp_ok = True
    for phi, p, n, expected in cases:
        label, _ = bp_star_classify(phi, p, n)
        bp_ok &= (DIVERGENT if label == BORDERLINE else label) == expected
    ok = holder_ok and lux_ok and lemma_ok and bp_ok
    _announce(5, "Orlicz calculus suite", ok,
              f"holder={holder_ok}, lux_err={lux_worst:.1e}, "
              f"lemma_C={worst_c:.3f}, bp={bp_ok}")


def test_criterion_6_covering_suite():
    rng = np.random.default_rng(100)
    fam_ok = True
    for k in range(100):
        count = int(rng.integers(5, 201))
        rects = []
        for _ in range(count):
            lo = [int(rng.integers(0, 64)) for _ in range(2)]
            hi = [int(rng.integers(l, 64)) for l in lo]
            rects.append(Rect(tuple(lo), tuple(hi)))
        fam = RectFamily((64, 64), (1.0, 1.0), tuple(rects))
        sel = cf_select(fam)
        fam_ok &= math.isfinite(sel.c_emp) and sel.c_emp >= 1.0 - 1e-12
        fam_ok &= sel.packing["max_feasible_delta"] is not None
        for row in sel.packing["deltas"]:
            if row["ok"]:
                fam_ok &= row["integral"] <= row["bound"] + 1e-9
        sc = scattered_select(fam, 0.5)
        fam_ok &= is_scattered(fam, sc.kept, 0.5)
        fam_ok &= math.isfinite(sc.chain_constant)

    # disjoint family: overlap = 1 on the union, so the packing boundary is
    # exactly exp(delta) = 2, i.e. delta = ln 2
    rects = [Rect((0, 4 * k), (7, 4 * k + 3)) for k in range(4)]
    sel = cf_select(RectFamily((8, 16), (1.0, 1.0), tuple(rects)))
    union = sel.union_after
    analytic_ok = True
    ln2 = math.log(2.0)
    for row in sel.packing["deltas"]:
        expect = math.exp(row["delta"]) * union
        analytic_ok &= abs(row["integral"] - expect) <= 1e-9 * expect
        analytic_ok &= row["ok"] is (row["delta"] <= ln2)
    ok = fam_ok and analytic_ok
    _announce(6, "covering selection suite", ok,
              f"100 random families ok={fam_ok}, ln2 boundary exact={analytic_ok}")


def test_criterion_7_weight_theory_and_one_weight():
    rep = weight_theory_suite(samples=200, seed=0, shape=(8, 8))
    suite_ok = rep.passed and rep.stats["violations"] == []
    sep_ok = (rep.stats["scaling_separation_witness"]
              and rep.stats["bump_separation_witness"])

    def probes(N):
        h = 1.0 / N
        out = []
        for lo, hi in [(0.5, 1.0), (0.25, 0.5), (0.0, 0.25)]:
            v = np.zeros(N)
            v[int(lo * N) : int(hi * N)] = 1.0
            out.append([GridFunction((N,), (h,), v)])
        x = (np.arange(N) + 0.5) * h
        out.append([GridFunction((N,), (h,), np.ones(N))])
        out.append([GridFunction((N,), (h,), x)])
        return out

    def growth(a):
        rs = []
        for N in (128, 256):
            w = power_weight_grid(a, 1, N)
            wv = WeightVector((w,), (2.0,), q=2.0, alpha=0.0)
            rs.append(operator_ratio(probes(N), wv, ALL))
        return rs[1] / rs[0] - 1.0

    # multiplier-form condition at m = 1, p = q = 2 is w^2 in A_2,
    # i.e. |a| < 1/2 for w = x^a
    in_class = list(np.linspace(-0.45, 0.45, 20))
    out_class = [-1.75, -2.0, -2.5, -3.0, -3.5]
    in_bad = [round(a, 3) for a in in_class if growth(a) >= 0.25]
    out_bad = [a for a in out_class if growth(a) <= 1.0]
    ok = suite_ok and sep_ok and not in_bad and not out_bad
    _announce(7, "weight theory implications + one-weight stability", ok,
              f"violations={rep.stats['violations']}, sep={sep_ok}, "
              f"in_bad={in_bad}, out_bad={out_bad}")


def test_criterion_8_determinism(tmp_path):
    def run(hash_seed: int, tag: str) -> bytes:
        out = tmp_path / f"report-{tag}.json"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        res = subprocess.run(
            [sys.executable, "-m", "strongmax.cli", "verify", "--seed", "0",
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    a = run(0, "h0")
    b = run(1, "h1")
    c = run(12345, "h12345")
    ok = a == b == c and json.loads(a)  # valid JSON too
    _announce(8, "byte-identical verify reports across runs and hash seeds",
              bool(ok))
