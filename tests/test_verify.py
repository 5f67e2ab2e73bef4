import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from luxemburg_oracle import orlicz_maximal_oracle, scalar_blocks
from strongmax import grid, orlicz, verify, weights
from strongmax.corpus import make_corpus
from strongmax.grid import Basis, GridError, GridFunction
from strongmax.verify import (
    JOBS,
    VerificationReport,
    _decay_column,
    endpoint_check,
    endpoint_corpus_max,
    one_weight_equivalence_check,
    prop35_counterexample,
    reports_to_json,
    run_all,
    two_weight_power_bump_check,
    vector_valued_check,
    weight_theory_suite,
)
from strongmax.weights import WeightVector
from strongmax.young import power


def gf(values, h=None):
    values = np.asarray(values, dtype=np.float64)
    h = h or (1.0,) * values.ndim
    return GridFunction(values.shape, h, values)


class TestEndpoint:
    def test_zero_function(self):
        f = gf(np.zeros(16))
        rep = endpoint_check([f], 1.0)
        assert rep.lhs == 0.0
        assert rep.passed

    def test_unit_indicator_ratio(self):
        # indicator of [0,1] in [-2,2], lam = 1/2: level set is where the
        # maximal average exceeds 1/2, length -> 3/2 / Phi-integral 2 = 0.75;
        # at m = 1, n = 1 the continuum ratio tends to 1.5 when lam = 1/2
        n_cells = 512
        h = 4.0 / n_cells
        vals = np.zeros(n_cells)
        lo = int(1.5 / h)
        vals[lo : lo + int(1.0 / h)] = 1.0
        f = gf(vals, h=(h,))
        rep = endpoint_check([f], 0.5)
        assert rep.passed
        assert rep.ratio == pytest.approx(1.5, rel=0.10)

    def test_lambda_monotone_ratio_bounded(self):
        # the max corpus ratio stays comparable across nearby lambdas
        shape, h = (16, 16), (1.0 / 16, 1.0 / 16)
        r1 = endpoint_corpus_max(shape, h, seed=2, m=1, alpha=0.0, lam=1.0, count=10)
        r2 = endpoint_corpus_max(shape, h, seed=2, m=1, alpha=0.0, lam=1.05, count=10)
        assert r1 > 0 and r2 > 0
        assert abs(math.log(r2 / r1)) < math.log(1.5)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(GridError):
            endpoint_check([gf(np.ones(4))], 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(GridError, match="lambda must be positive and finite"):
            endpoint_check([gf(np.ones(4))], lam)

    def test_no_functions_is_error(self):
        with pytest.raises(GridError, match="need at least one function"):
            endpoint_check([], 1.0)

    def test_bilinear_with_alpha_passes(self):
        shape, h = (8, 8), (0.125, 0.125)
        fns = make_corpus(shape, h, seed=5, count=4)
        rep = endpoint_check(fns[:2], 1.0, alpha=1.0)
        assert rep.passed
        assert rep.config["m"] == 2

    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    def test_precomputed_maximal_function_keeps_the_report(self, lam):
        fns = make_corpus((8, 8), (0.125, 0.125), seed=5, count=4)
        mf = verify.multilinear_fractional_maximal(fns[:2], verify.MaximalQuery(basis=Basis("all"), alpha=1.0, m=2))
        assert endpoint_check(fns[:2], lam, 1.0, mf).to_dict() == endpoint_check(fns[:2], lam, 1.0).to_dict()

    @pytest.mark.parametrize("shape,h", [((8,), (1.0,)), ((4, 4), (0.5, 1.0))])
    def test_maximal_function_on_another_grid_is_error(self, shape, h):
        with pytest.raises(GridError, match="the functions' grid"):
            endpoint_check([gf(np.ones((4, 4)))], 1.0, mf=gf(np.ones(shape), h=h))

    def test_corpus_max_sweeps_each_tuple_once_across_lambdas(self, monkeypatch):
        calls = []
        sweep = verify._maximal
        monkeypatch.setattr(verify, "_maximal", lambda batch, q, orlicz: calls.append(
            [[f.values.tobytes() for f in fs] for fs in batch]) or sweep(batch, q, orlicz))
        verify._corpus_maxima.cache_clear()
        shape, h, m, alpha, lams = (8, 8), (0.125, 0.125), 2, 1.0, (0.25, 1.0, 4.0)
        # lists hash once normalised, and name the same corpus as tuples
        got = [endpoint_corpus_max(list(shape), [0.125, 0.125], 3, m, alpha, lam, count=10) for lam in lams]
        got += [endpoint_corpus_max(shape, h, 3, m, alpha, lam, count=10) for lam in lams]
        fns = make_corpus(shape, h, 3, 10)
        tuples = [fns[i : i + m] for i in range(0, 10, m) if all(f.values.max() != 0 for f in fns[i : i + m])]
        # one batched call for the corpus, holding each tuple once
        assert calls == [[[f.values.tobytes() for f in fs] for fs in tuples]]
        for lam, ratio in zip(lams * 2, got):
            reps = [endpoint_check(fs, lam, alpha) for fs in tuples]
            assert ratio == max([0.0] + [r.ratio for r in reps if r.rhs > 0])


class TestOneWeight:
    def test_exponent_relation_enforced(self):
        ones = gf(np.ones((8, 8)), h=(0.125, 0.125))
        wv = WeightVector((ones,), (2.0,), q=3.0, alpha=0.0)  # violates 1/q = 1/p
        with pytest.raises(GridError):
            one_weight_equivalence_check(wv, [])

    def test_unweighted_passes(self):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        wv = WeightVector((ones, ones), (2.0, 2.0), q=1.0, alpha=0.0)
        fns = make_corpus(shape, h, seed=0, count=4)
        tuples = [fns[:2], fns[2:4]]
        rep = one_weight_equivalence_check(wv, tuples, basis=Basis("dyadic"))
        assert rep.passed
        # Orlicz majorant dominates the plain operator ratio
        for v in rep.stats["orlicz_operator_ratio"].values():
            assert v >= rep.stats["operator_ratio"] - 1e-9


    def test_test_functions_on_another_grid_is_error(self):
        # a 4x1 weight would broadcast against a 4x4 test function
        wv = WeightVector((gf(np.ones((4, 1))),), (2.0,), q=2.0, alpha=0.0)
        f = gf(np.random.default_rng(3).uniform(0, 1, (4, 4)))
        with pytest.raises(GridError, match="weights' grid"):
            one_weight_equivalence_check(wv, [[f]])


class TestTwoWeight:
    def test_skip_on_cap(self):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        wv = WeightVector((ones, ones), (2.0, 2.0), q=1.0, alpha=0.0)
        v = np.ones(shape)
        v[:, 0] = 1e12  # strip mass blows the bump constant past the cap
        rep = two_weight_power_bump_check(wv, gf(v, h=h), 1.5, [], Basis("dyadic"))
        assert rep.skipped is not None
        assert rep.passed is None  # never silently passed

    def test_unweighted_passes(self):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        wv = WeightVector((ones, ones), (2.0, 2.0), q=1.0, alpha=0.0)
        fns = make_corpus(shape, h, seed=1, count=4)
        rep = two_weight_power_bump_check(wv, ones, 1.5, [fns[:2]], Basis("dyadic"))
        assert rep.passed
        assert rep.skipped is None

    def test_skip_when_v_fails_a_infty(self):
        # v decays 16-fold per column: nearly all of a box's mass sits in
        # its first column, so the bump constant is small but v is not A_infty
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        wv = WeightVector((ones, ones), (2.0, 2.0), q=1.0, alpha=0.0)
        v = gf(np.broadcast_to(16.0 ** -np.arange(8), shape).copy(), h=h)
        rep = two_weight_power_bump_check(wv, v, 1.5, [], Basis("dyadic"))
        assert rep.stats["bump_constant"] < 1e6
        assert rep.skipped == "hypothesis-skipped: v fails A_infty"
        assert rep.passed is None


class TestVectorValued:
    def test_hypothesis_violation_skips(self):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        fns = make_corpus(shape, h, seed=2, count=3)
        # conj of t^1.3 grows ~ t^4.3, far outside B*_{r'}: must skip
        rep = vector_valued_check(fns, ones, ones, p=3.0, q=2.0,
                                  a_young=power(1.3), b_young=power(3.0),
                                  r=1.5, basis=Basis("dyadic"))
        assert rep.skipped is not None
        assert "hypothesis-skipped" in rep.skipped
        assert rep.passed is None

    def test_conj_b_outside_b_star_q_skips(self):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        fns = make_corpus(shape, h, seed=3, count=2)
        # conj of t^1.3 grows ~ t^4.3, outside B*_q for q = 2
        rep = vector_valued_check(fns, ones, ones, p=3.0, q=2.0,
                                  a_young=power(2.5), b_young=power(1.3),
                                  r=1.5, basis=Basis("dyadic"))
        assert rep.skipped == "hypothesis-skipped: conj(B) not in B*_q"
        assert rep.passed is None

    def test_young_condition_past_cap_skips(self):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        fns = make_corpus(shape, h, seed=3, count=2)
        v = np.ones(shape)
        v[0, 0] = 1e-8  # ||1/v|| on that one cell is 1e8
        rep = vector_valued_check(fns, ones, gf(v, h=h), p=3.0, q=2.0,
                                  a_young=power(2.5), b_young=power(3.0),
                                  r=1.5, basis=Basis("dyadic"))
        assert rep.stats["young_condition_sup"] >= 1e6
        assert rep.skipped == "hypothesis-skipped: Young-function condition exceeds cap"
        assert rep.passed is None

    def test_admissible_config_passes(self):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        fns = make_corpus(shape, h, seed=3, count=3)
        rep = vector_valued_check(fns, ones, ones, p=3.0, q=2.0,
                                  a_young=power(2.5), b_young=power(3.0),
                                  r=1.5, basis=Basis("dyadic"))
        assert rep.skipped is None
        assert rep.passed

    @pytest.mark.parametrize("which", ["w", "v", "f"])
    def test_grids_must_match(self, which):
        shape, h = (8, 8), (0.125, 0.125)
        ones = gf(np.ones(shape), h=h)
        other = gf(np.arange(1.0, 65.0).reshape(4, 16), h=h)
        fns = make_corpus(shape, h, seed=3, count=3)
        w, v = (other if which == "w" else ones), (other if which == "v" else ones)
        if which == "f":
            fns = [*fns[:2], other]
        with pytest.raises(GridError, match="must live on the same grid"):
            vector_valued_check(fns, w, v, p=3.0, q=2.0, a_young=power(2.5),
                                b_young=power(3.0), r=1.5, basis=Basis("dyadic"))

    def test_q_range_enforced(self):
        ones = gf(np.ones((4, 4)))
        with pytest.raises(GridError):
            vector_valued_check([ones], ones, ones, p=2.0, q=3.0,
                                a_young=power(2.5), b_young=power(3.0), r=1.5)


class TestCounterexample:
    def test_decay_column_exact(self):
        col = _decay_column(4)
        assert col[0] == pytest.approx(0.5)
        assert np.sum(col) == pytest.approx(1.0 - 1.0 / 5.0)

    def test_prop35_passes(self):
        rep = prop35_counterexample()
        assert rep.passed
        for n in (2, 3):
            det = rep.stats[f"n={n}"]
            assert det["reverse_doubling"] >= 2.0 ** (n - 1) * 0.99
            assert det["a_infty_fails"]

    def test_prop35_known_level_values(self):
        rep = prop35_counterexample()
        levels = {row["l"]: row for row in rep.stats["n=2"]["levels"]}
        # w(R_l) = 2^(2l)/(1+2^l): l = 3 -> 64/9; ratio (1+2^-l)/2
        assert levels[3]["exact_mass"] == pytest.approx(64.0 / 9.0)
        assert levels[3]["mass"] == pytest.approx(64.0 / 9.0, rel=5e-3)
        assert levels[1]["exact_ratio"] == pytest.approx(0.75)
        assert levels[1]["ratio"] == pytest.approx(0.75, rel=5e-3)


class TestWeightTheory:
    def test_small_suite_no_violations(self):
        rep = weight_theory_suite(samples=10, seed=0, shape=(8, 8))
        assert rep.passed
        assert rep.stats["violations"] == []


class TestHarness:
    def test_run_all_selected(self):
        reports = run_all(seed=0, theorems=["prop3.5", "covering"])
        assert set(reports) == {"prop3.5", "covering"}
        for rep in reports.values():
            assert rep.passed or rep.skipped

    def test_unknown_theorem_rejected(self):
        with pytest.raises(GridError):
            run_all(seed=0, theorems=["no-such-check"])

    def test_report_json_deterministic(self):
        reports = run_all(seed=0, theorems=["prop3.5"])
        j1 = reports_to_json(reports)
        j2 = reports_to_json(run_all(seed=0, theorems=["prop3.5"]))
        assert j1 == j2
        payload = json.loads(j1)
        assert payload["prop3.5"]["passed"] is True

    def test_batched_luxemburg_keeps_report_bytes(self, monkeypatch):
        # the Orlicz jobs' reports must not change by one bit when every
        # Luxemburg norm comes from one scalar bisection per rectangle
        theorems = ["one-weight", "vector-valued"]
        batched = reports_to_json(run_all(seed=0, theorems=theorems))
        calls, tuples = [], []
        maximal = verify._maximal

        def counted(*args):
            calls.append(args)
            return scalar_blocks(*args)

        def oracle(batch, query, orlicz):
            # the batched Orlicz operator, one oracle call per tuple
            if not orlicz:
                return maximal(batch, query, orlicz)
            tuples.extend(batch)
            return [orlicz_maximal_oracle(fs, query) for fs in batch]

        monkeypatch.setattr(verify, "_maximal", oracle)
        monkeypatch.setattr(orlicz, "luxemburg_blocks", counted)
        assert reports_to_json(run_all(seed=0, theorems=theorems)) == batched
        # the Young condition's two bisections went through the oracle, and
        # so did every tuple of the Orlicz operator
        assert len(calls) == 2
        assert tuples

    def test_jobs_cover_documented_names(self):
        assert {"endpoint", "one-weight", "two-weight-bump", "prop3.5",
                "weight-theory", "covering", "vector-valued"} <= set(JOBS)


def test_report_ratio_semantics():
    rep = VerificationReport(theorem="x", lhs=1.0, rhs=0.0)
    assert rep.ratio == math.inf
    rep = VerificationReport(theorem="x", lhs=1.0, rhs=2.0)
    assert rep.ratio == 0.5


def test_run_all_makes_no_rect_cell_sum_call(monkeypatch):
    # every sum over a basis or a nested family reads blocks of prefix sums;
    # grid.rect_cell_sum serves only the reference scan and rect_integral
    calls = []
    original = grid.rect_cell_sum

    def counted(p, r):
        calls.append(r)
        return original(p, r)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("strongmax") and getattr(mod, "rect_cell_sum", None) is original:
            monkeypatch.setattr(mod, "rect_cell_sum", counted)
    run_all(0)
    assert len(calls) == 0


def test_run_all_makes_few_luxemburg_phi_passes(monkeypatch):
    # each Luxemburg norm starts from a closed form (t^s, Phi_1 and Phi_2
    # here) within a few doubles of its value, and the finish steps only the
    # rows not yet settled; a bracket bisected to a relative width of 1e-12
    # made 290 Phi calls on 3.75 M cells
    calls = []
    original = orlicz.luxemburg_blocks

    def counted(blocks, lead, cell_measure, phi):
        def ev(t):
            calls.append(np.size(t))
            return phi.eval(t)
        return original(blocks, lead, cell_measure, dataclasses.replace(phi, eval=ev))

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("strongmax") and getattr(mod, "luxemburg_blocks", None) is original:
            monkeypatch.setattr(mod, "luxemburg_blocks", counted)
    run_all(0)
    assert 0 < len(calls) <= 48
    assert sum(calls) <= 3_750_000 // 6


def test_weight_theory_takes_each_constant_in_one_walk(monkeypatch):
    # c1, c2, capq, the two bump constants and the three factorization
    # constants: one basis walk each for all 40 pairs (320 walks one pair at
    # a time)
    calls = []
    original = weights._sup_over_blocks

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(weights, "_sup_over_blocks", counted)
    weight_theory_suite(samples=40, seed=0, shape=(8, 8))
    assert len(calls) <= 8


def test_run_all_takes_each_batch_in_one_call(monkeypatch):
    # each Orlicz query takes all of its tuples in one call (8 calls one
    # tuple at a time), weight_theory_suite its 40 A_infty verdicts and its
    # reverse doubling constants in one call each (40 and 40 one pair at a
    # time), and A_infty reads its nested boxes from the values, with no
    # prefix sum
    orlicz_calls, batches, inside, prefix_in_ainf = [], {}, [], []
    maximal, build, ainf = verify._maximal, weights.build_prefix_sum, weights.a_infty_classifies

    def counted_maximal(batch, query, orlicz):
        if orlicz:
            orlicz_calls.append(len(batch))
        return maximal(batch, query, orlicz)

    def counted_batch(name, original):
        def call(ws, *args, **kwargs):
            batches.setdefault(name, []).append(len(ws))
            return original(ws, *args, **kwargs)
        return call

    def within_ainf(*args, **kwargs):
        inside.append(True)
        try:
            return ainf(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(verify, "_maximal", counted_maximal)
    monkeypatch.setattr(weights, "a_infty_classifies", within_ainf)  # a_infty_classify's core too
    monkeypatch.setattr(verify, "a_infty_classifies", counted_batch("ainf", within_ainf))
    monkeypatch.setattr(verify, "reverse_doubling_constants",
                        counted_batch("rd", verify.reverse_doubling_constants))
    monkeypatch.setattr(weights, "build_prefix_sum", lambda f: prefix_in_ainf.append(bool(inside)) or build(f))
    run_all(0)
    assert len(orlicz_calls) == len(verify.ORLICZ_KS) and min(orlicz_calls) > 1
    assert batches["ainf"] == [40] and len(batches["rd"]) == 1 and batches["rd"][0] > 1
    assert prefix_in_ainf and not any(prefix_in_ainf)


def test_weight_theory_memory_stays_per_chunk():
    # the batch is walked a few rows at a time: forming every block of the
    # 16x16 all basis for all 200 pairs at once peaked at 106 MB
    tracemalloc.start()
    try:
        weight_theory_suite(200, 0, (16, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
