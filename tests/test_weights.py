import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmax import weights
from strongmax._kernels import libm_pow
from strongmax.grid import Basis, GridError, GridFunction, Rect, build_prefix_sum, enumerate_basis, rect_cell_sum
from strongmax.maximal import strong_maximal
from strongmax.verify import _decay_column, _sample_weight_pairs
from strongmax.weights import (
    SLOPE_TOL,
    WeightError,
    WeightVector,
    a_infty_classifies,
    a_infty_classify,
    ap_constant,
    ap_constants,
    conj_exponent,
    holder_p,
    multi_weight_constant_ap,
    multi_weight_constant_apq,
    multi_weight_constants_ap,
    multi_weight_constants_apq,
    power_bump_check,
    power_bump_constants,
    power_weight_classify,
    power_weight_grid,
    power_weight_profile,
    reverse_doubling_constant,
    reverse_doubling_constants,
    tauberian_constant_estimate,
)

ALL = Basis("all")


def gf(values, h=None):
    values = np.asarray(values, dtype=np.float64)
    h = h or (1.0,) * values.ndim
    return GridFunction(values.shape, h, values)


def brute_ap(w, p):
    best = 0.0
    dual = w.values ** (1.0 - conj_exponent(p))
    for r in enumerate_basis(ALL, w.shape, w.cell_size):
        sl = tuple(slice(lo, hi + 1) for lo, hi in zip(r.lo, r.hi))
        aw = float(np.mean(w.values[sl]))
        ad = float(np.mean(dual[sl]))
        best = max(best, aw * ad ** (p - 1.0))
    return best


class TestApConstant:
    def test_two_cell_example(self):
        # w = (1, 4), p = 2: best rect is the pair,
        # (avg w)(avg 1/w) = 2.5 * 0.625 = 25/16
        w = gf([1.0, 4.0])
        assert ap_constant(w, 2.0, ALL) == pytest.approx(25.0 / 16.0, rel=1e-12)

    def test_constant_weight_is_one(self):
        w = gf(np.full((4, 4), 3.7))
        assert ap_constant(w, 2.0, ALL) == pytest.approx(1.0, rel=1e-12)
        assert ap_constant(w, 1.5, ALL) == pytest.approx(1.0, rel=1e-12)

    def test_witness_returned(self):
        w = gf([1.0, 4.0, 1.0])
        c, witness = ap_constant(w, 2.0, ALL, return_witness=True)
        assert witness is not None
        assert c >= 25.0 / 16.0

    def test_rejects_nonpositive(self):
        with pytest.raises(WeightError):
            ap_constant(gf([1.0, 0.0]), 2.0, ALL)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_p_must_be_finite(self, p):
        with pytest.raises(WeightError, match="finite p > 1"):
            ap_constant(gf(np.ones(4)), p, ALL)

    def test_power_past_the_double_range_is_named(self):
        # [w]_{A_p} = 1 for a constant w, but w^(1-p') = 1e400 is no double
        w = gf(np.full((2, 2), 1e-200))
        with pytest.raises(WeightError, match=r"w\^-2 leaves the double range"):
            ap_constant(w, 1.5, ALL)
        with pytest.raises(WeightError, match=r"w_0\^-3 leaves the double range"):
            multi_weight_constant_apq(WeightVector((w,), (1.5,)), ALL)
        assert ap_constant(gf(np.full((2, 2), 1e-100)), 1.5, ALL) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.floats(1.2, 3.0))
    def test_matches_brute_force(self, seed, p):
        rng = np.random.default_rng(seed)
        w = gf(rng.uniform(0.2, 3.0, (4, 3)), h=(0.5, 1.0))
        assert ap_constant(w, p, ALL) == pytest.approx(brute_ap(w, p), rel=1e-10)


class TestMultiWeight:
    def test_m1_apq_reduces_to_fractional_formula(self):
        rng = np.random.default_rng(1)
        w = gf(rng.uniform(0.5, 2.0, (5,)))
        p, q = 2.0, 3.0
        wv = WeightVector((w,), (p,), q=q, alpha=0.0)
        got = multi_weight_constant_apq(wv, ALL)
        pp = conj_exponent(p)
        best = 0.0
        for r in enumerate_basis(ALL, w.shape, w.cell_size):
            sl = tuple(slice(lo, hi + 1) for lo, hi in zip(r.lo, r.hi))
            a1 = float(np.mean(w.values[sl] ** q)) ** (1 / q)
            a2 = float(np.mean(w.values[sl] ** (-pp))) ** (1 / pp)
            best = max(best, a1 * a2)
        assert got == pytest.approx(best, rel=1e-10)

    def test_m1_apvec_reduces_to_ap(self):
        rng = np.random.default_rng(2)
        w = gf(rng.uniform(0.5, 2.0, (6,)))
        # vector class at m=1: nu_hat = w and the formula is exactly [w]_{A_p}
        wv = WeightVector((w,), (2.0,), q=2.0, alpha=0.0)
        got = multi_weight_constant_ap(wv, ALL)
        assert got == pytest.approx(brute_ap(w, 2.0), rel=1e-10)

    def test_constants_exact_value(self):
        # w1 = w2 = 2, p_i = q = 2: (avg 16)^(1/2) * [(avg 1/4)^(1/2)]^2 = 4/4 = 1
        w = gf(np.full((4, 4), 2.0))
        wv = WeightVector((w, w), (2.0, 2.0), q=2.0, alpha=0.0)
        assert multi_weight_constant_apq(wv, ALL) == pytest.approx(1.0, rel=1e-10)
        assert holder_p((2.0, 2.0)) == pytest.approx(1.0)

    def test_p_equal_one_inf_convention(self):
        rng = np.random.default_rng(3)
        w1 = gf(rng.uniform(0.5, 2.0, (5,)))
        w2 = gf(rng.uniform(0.5, 2.0, (5,)))
        wv = WeightVector((w1, w2), (1.0, 2.0), q=2.0, alpha=0.0)
        got = multi_weight_constant_apq(wv, ALL)
        nu_q = (w1.values * w2.values) ** 2.0
        best = 0.0
        for r in enumerate_basis(ALL, (5,), (1.0,)):
            sl = slice(r.lo[0], r.hi[0] + 1)
            a = float(np.mean(nu_q[sl])) ** 0.5
            inf1 = float(np.min(w1.values[sl])) ** -1.0
            a2 = float(np.mean(w2.values[sl] ** -2.0)) ** 0.5  # p_2' = 2
            best = max(best, a * inf1 * a2)
        assert got == pytest.approx(best, rel=1e-10)

    def test_apvec_p_equal_one_convention(self):
        rng = np.random.default_rng(4)
        w1 = gf(rng.uniform(0.5, 2.0, (4,)))
        w2 = gf(rng.uniform(0.5, 2.0, (4,)))
        ps = (1.0, 2.0)
        p = holder_p(ps)  # 2/3
        wv = WeightVector((w1, w2), ps, q=1.0, alpha=0.0)
        got = multi_weight_constant_ap(wv, ALL)
        nu_hat = w1.values ** p * w2.values ** (p / 2.0)  # prod w_i^(p/p_i)
        best = 0.0
        for r in enumerate_basis(ALL, (4,), (1.0,)):
            sl = slice(r.lo[0], r.hi[0] + 1)
            a = float(np.mean(nu_hat[sl]))
            t1 = float(np.min(w1.values[sl])) ** (-p)
            t2 = float(np.mean(w2.values[sl] ** -1.0)) ** (p / 2.0)
            best = max(best, a * t1 * t2)
        assert got == pytest.approx(best, rel=1e-10)


class TestPowerBump:
    def test_normalized_constants(self):
        # constants sized so every factor is 1 on the full unit square
        w = gf(np.ones((4, 4)), h=(0.25, 0.25))
        v = gf(np.ones((4, 4)), h=(0.25, 0.25))
        wv = WeightVector((w,), (2.0,), q=2.0, alpha=0.0)
        rep = power_bump_check(wv, v, r=1.5, basis=ALL)
        assert rep["constant"] == pytest.approx(1.0, rel=1e-10)
        assert rep["finite_under_cap"]

    def test_monotone_in_r(self):
        # the bumped factor is an L^r norm of w^(1-p') raised to 1/p',
        # hence nondecreasing in r by Jensen
        rng = np.random.default_rng(5)
        w = gf(rng.uniform(0.5, 2.0, (4, 4)))
        v = gf(rng.uniform(0.5, 2.0, (4, 4)))
        wv = WeightVector((w,), (2.0,), q=2.0, alpha=0.0)
        c1 = power_bump_check(wv, v, 1.2, ALL)["constant"]
        c2 = power_bump_check(wv, v, 1.5, ALL)["constant"]
        assert c2 >= c1 - 1e-12

    def test_requires_r_above_one(self):
        w = gf(np.ones(4))
        wv = WeightVector((w,), (2.0,), q=2.0, alpha=0.0)
        with pytest.raises(WeightError):
            power_bump_check(wv, w, 1.0, ALL)

    def test_requires_every_p_above_one(self):
        # p_i = 1 has no conjugate exponent for the bumped average
        w = gf(np.ones(4))
        wv = WeightVector((w, w), (1.0, 2.0), q=2.0, alpha=0.0)
        with pytest.raises(WeightError, match="power bump needs p_i > 1"):
            power_bump_check(wv, w, 1.5, ALL)

    @pytest.mark.parametrize("v_shape", [(4, 4), (3, 3), (2, 8, 1)])
    def test_v_on_another_grid_is_error(self, v_shape):
        # the same 16 cells on 4x4 would be read in the weights' 2x8 order
        wv = WeightVector((gf(np.ones((2, 8))),), (2.0,), q=2.0, alpha=0.0)
        v = gf(np.arange(1.0, 1.0 + math.prod(v_shape)).reshape(v_shape))
        with pytest.raises(WeightError, match="v must share the weights' grid"):
            power_bump_check(wv, v, 1.5, ALL)

    def test_v_with_other_cell_size_is_error(self):
        wv = WeightVector((gf(np.ones((4, 4))),), (2.0,), q=2.0, alpha=0.0)
        with pytest.raises(WeightError, match="v must share the weights' grid"):
            power_bump_check(wv, gf(np.ones((4, 4)), h=(0.5, 0.5)), 1.5, ALL)


class TestReverseDoubling:
    def test_constant_1d(self):
        assert reverse_doubling_constant(gf(np.ones(8))) == pytest.approx(2.0, rel=1e-12)

    def test_constant_2d(self):
        assert reverse_doubling_constant(gf(np.ones((8, 8)))) == pytest.approx(4.0, rel=1e-12)

    def test_concentrated_weight_near_one(self):
        # nearly all mass in one corner cell: halving barely loses mass
        v = np.full(16, 1e-9)
        v[0] = 1.0
        d = reverse_doubling_constant(gf(v))
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_requires_power_of_two(self):
        with pytest.raises(GridError):
            reverse_doubling_constant(gf(np.ones(6)))

    def test_monotone_weight_between_bounds(self):
        w = gf(np.arange(1.0, 9.0))
        d = reverse_doubling_constant(w)
        assert 1.0 < d <= 2.0


def column_weight(col, n):
    """col along the last axis of an n-D grid of unit cells."""
    return gf(np.broadcast_to(col, (len(col),) * n).copy())


def lognormal(shape, seed):
    return gf(np.exp(np.random.default_rng(seed).normal(0.0, 3.0, shape)))


# (label, weight, verdict): the decay columns and two of the log-normal
# weights fail A_infty
AINFTY_CASES = [
    ("constant 1-D", gf(np.full(64, 2.5)), True),
    ("constant 3-D", gf(np.ones((8, 8, 8))), True),
    ("log-normal 1-D", lognormal(256, 1), True),
    ("log-normal 2-D", lognormal((32, 32), 2), False),
    ("log-normal 3-D", lognormal((8, 8, 8), 3), False),
    ("|x|^-0.5 2-D", power_weight_grid(-0.5, 2, 32), True),
    ("|x|^2 1-D", power_weight_grid(2.0, 1, 128), True),
    ("|x|^3 3-D", power_weight_grid(3.0, 3, 8), True),
    ("decay column 2-D", column_weight(_decay_column(256), 2), False),
    ("decay column 3-D", column_weight(_decay_column(64), 3), False),
]


class TestAInfty:
    @pytest.mark.parametrize("w,verdict", [c[1:] for c in AINFTY_CASES], ids=[c[0] for c in AINFTY_CASES])
    def test_one_fit_is_the_minimum_of_the_exponent_sweep(self, w, verdict):
        # the constant C of w(E)/w(R) <= C (|E|/|R|)^d needs the least
        # growth at the smallest d, so the one fit at d = 0.05 is the
        # minimum of the sweep over d = 0.05, 0.10, ..., 1.0, bit for bit
        rep = a_infty_classify(w, n_random_pairs=0)
        for fam in rep.families:
            ells, rw, rl = (np.array(c, dtype=float) for c in zip(*fam["points"][-3:]))
            sweep = [float(np.polyfit(ells, np.log(rw) - round(0.05 * k, 2) * np.log(rl), 1)[0])
                     for k in range(1, 21)]
            assert rep.slopes[fam["axis"]].hex() == min(sweep).hex()
        failing = [axis for axis, slope in rep.slopes.items() if slope > SLOPE_TOL]
        assert rep.passes is (not failing)
        assert rep.passes is verdict
        assert rep.witness_axis == (failing[0] if failing else None)

    def test_constant_passes(self):
        rep = a_infty_classify(gf(np.ones((64, 64))), rng=np.random.default_rng(0))
        assert rep.passes
        assert rep.classification.startswith("in A_infty")

    def test_moderate_power_passes(self):
        w = power_weight_grid(0.5, 1, 128)
        rep = a_infty_classify(w, rng=np.random.default_rng(0))
        assert rep.passes

    def test_classification_strings(self):
        rep = a_infty_classify(gf(np.ones(32)), rng=np.random.default_rng(0))
        assert "A_infty" in rep.classification

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (8, 2), (1, 1)])
    def test_grid_below_four_cells_per_axis_is_error(self, shape):
        # the tail fit needs the dyadic scales 2 and 4 on every axis
        with pytest.raises(WeightError, match="needs >= 4 cells per axis"):
            a_infty_classify(gf(np.ones(shape)), rng=np.random.default_rng(0))

    def test_four_cells_per_axis_fit(self):
        rep = a_infty_classify(gf(np.ones((4, 4))), n_random_pairs=0)
        assert rep.passes
        assert [len(fam["points"]) for fam in rep.families] == [2, 2]

    @pytest.mark.parametrize("values", ["lognormal", "1e-200", "1e300/N"])
    @pytest.mark.parametrize("sides", ["unit", "uniform", "unequal"])
    @pytest.mark.parametrize("shape", [(4,), (37,), (64,), (4, 4), (8, 8), (16, 5), (6, 11), (4, 4, 4), (8, 4, 6)])
    def test_families_are_the_rect_ratios_bit_for_bit(self, shape, sides, values):
        # the oracle: every family point and random pair as w(E)/w(R) and
        # |E|/|R|, one Rect at a time, w(R) = rect_cell_sum * cell volume
        h = {"unit": (1.0,) * len(shape), "uniform": tuple(1.0 / s for s in shape),
             "unequal": tuple(0.3 + 0.17 * k for k in range(len(shape)))}[sides]
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        v = {"lognormal": lambda: np.exp(rng.normal(0.0, 2.0, shape)),
             "1e-200": lambda: 1e-200 * rng.uniform(0.5, 2.0, shape),
             "1e300/N": lambda: 1e300 / math.prod(shape) * rng.uniform(0.5, 1.0, shape)}[values]()
        w = GridFunction(shape, h, v)
        cum = build_prefix_sum(w)

        def ratios(sub, big):
            mass = [rect_cell_sum(cum, r) * w.cell_volume for r in (sub, big)]
            return mass[0] / mass[1], sub.volume(h) / big.volume(h)

        rep = a_infty_classify(w, rng=np.random.default_rng(1), n_random_pairs=3)
        n, lmax = len(shape), int(math.log2(min(shape)))
        for axis, fam in enumerate(rep.families):
            want = []
            for ell in range(1, lmax + 1):
                big = Rect((0,) * n, (2**ell - 1,) * n)
                thin = Rect((0,) * n, tuple(0 if k == axis else 2**ell - 1 for k in range(n)))
                want.append((ell, *ratios(thin, big)))
            assert fam["axis"] == axis
            assert [(l, a.hex(), b.hex()) for l, a, b in fam["points"]] == [(l, a.hex(), b.hex()) for l, a, b in want]
            ells, rw, rl = (np.array(c, dtype=float) for c in zip(*want[-3:]))
            slope = float(np.polyfit(ells, np.log(rw) - 0.05 * np.log(rl), 1)[0])
            assert rep.slopes[axis].hex() == slope.hex()
        for big, sub, rw, rl in rep.pairs:
            assert (rw.hex(), rl.hex()) == tuple(x.hex() for x in ratios(sub, big))


class TestTauberian:
    def test_whole_grid_ratio_one(self):
        w = gf(np.ones((8, 8)))
        rep = tauberian_constant_estimate(w, ALL, gamma=0.5, seed=0)
        assert rep.max_ratio >= 1.0 - 1e-12

    def test_unit_weight_interval_ratio_three(self):
        # E = left half of a set R at gamma = 1/2 forces w(R) = 2 w(E); the
        # adversarial E found by the search pushes the ratio toward 1/gamma + 1
        w = gf(np.ones(512), h=(1.0 / 512,))
        rep = tauberian_constant_estimate(w, ALL, gamma=0.5, seed=0)
        assert rep.max_ratio == pytest.approx(3.0, rel=0.05)

    def test_gamma_near_one_ratio_near_one(self):
        w = gf(np.ones(64))
        rep = tauberian_constant_estimate(w, ALL, gamma=0.99, seed=0)
        assert rep.max_ratio <= 1.2

    def test_is_lower_bound_for_supremum(self):
        rng = np.random.default_rng(7)
        w = gf(rng.uniform(0.5, 2.0, (16,)))
        rep = tauberian_constant_estimate(w, ALL, gamma=0.5, seed=0)
        # every reported ratio is realized by an explicit (R, E) pair
        assert rep.max_ratio >= 1.0

    @pytest.mark.parametrize("kind,gamma,ratio,witness", [
        ("all", 0.5, "0x1.6a9eb97e14340p+2", "random 2-rect union #6"),
        ("dyadic", 0.7, "0x1.0fb11acbdfe71p+1", "random 2-rect union #14"),
    ])
    def test_pinned_result(self, kind, gamma, ratio, witness):
        # pins the random candidate sets, so a change in the order of the
        # draws shows here
        w = gf(np.arange(1.0, 65.0).reshape(8, 8) ** 2, h=(0.125, 0.125))
        rep = tauberian_constant_estimate(w, Basis(kind), gamma, seed=0)
        assert (rep.max_ratio.hex(), rep.witness, rep.samples) == (ratio, witness, 64)

    @pytest.mark.parametrize("kind,gamma,seed", [("all", 0.5, 0), ("dyadic", 0.7, 1), ("cubes", 0.3, 2)])
    def test_one_sweep_walk_is_the_per_candidate_form(self, monkeypatch, kind, gamma, seed):
        # the candidates' maximal functions in one _maximal call against one
        # strong_maximal call per candidate, on three weights
        rng = np.random.default_rng(seed)
        w = gf(rng.lognormal(0.0, 1.0, (16, 16)), h=(1 / 16, 1 / 16))
        rep = tauberian_constant_estimate(w, Basis(kind), gamma, seed=seed)
        monkeypatch.setattr(weights, "_maximal",
                            lambda batch, query: [strong_maximal(fs[0], query.basis) for fs in batch])
        single = tauberian_constant_estimate(w, Basis(kind), gamma, seed=seed)
        assert (rep.max_ratio.hex(), rep.witness, rep.samples) == (single.max_ratio.hex(), single.witness, single.samples)


def _bits(xs) -> bytes:
    return np.asarray(xs, dtype=np.float64).tobytes()


def _assert_batch_is_single_calls(pairs, ps, basis, p=2.5, r=1.3):
    """Each batched constant and witness equals its own call bit for bit."""
    wvs = [WeightVector(ws, ps, q=1.5, alpha=0.5) for ws in pairs]
    for batched, single in ((multi_weight_constants_ap, multi_weight_constant_ap),
                            (multi_weight_constants_apq, multi_weight_constant_apq)):
        consts, wits = batched(wvs, basis)
        assert consts.tobytes() == _bits([single(wv, basis) for wv in wvs])
        assert wits == [batched([wv], basis)[1][0] for wv in wvs]
    ws0 = [ws[0] for ws in pairs]
    consts, wits = ap_constants(ws0, p, basis)
    singles = [ap_constant(w, p, basis, return_witness=True) for w in ws0]
    assert (consts.tobytes(), wits) == (_bits([c for c, _ in singles]), [r for _, r in singles])
    if min(ps) > 1:
        consts, wits = power_bump_constants(wvs, ws0, r, basis)
        singles = [power_bump_check(wv, v, r, basis) for wv, v in zip(wvs, ws0)]
        assert (consts.tobytes(), wits) == (_bits([d["constant"] for d in singles]), [d["witness"] for d in singles])


BATCH_BASES = [Basis("all"), Basis("dyadic"), Basis("cubes")]


def _mixed_weights(shape):
    """Weights on one grid of the given shape with unequal cell sides:
    log-normal (sigma = 2), a constant, the decay weight of
    prop35_counterexample along the last axis, one that holds nearly all of
    its mass at the first cell of the last axis (it fails A_infty), values
    near 1e-200 and near 1e300 / cells."""
    rng = np.random.default_rng(math.prod(shape))
    h = tuple(0.3 + 0.17 * k for k in range(len(shape)))
    cells = math.prod(shape)
    return [GridFunction(shape, h, v) for v in (
        np.exp(rng.normal(0.0, 2.0, shape)),
        np.full(shape, 3.0),
        np.broadcast_to(_decay_column(shape[-1]), shape),
        np.where(np.arange(shape[-1]) == 0, 1.0, 1e-6) * np.ones(shape),
        1e-200 * rng.uniform(0.5, 2.0, shape),
        1e300 / cells * rng.uniform(0.5, 1.0, shape),
    )]


def _a_infty_bits(rep):
    """An A_infty report as bytes and plain values: families, slopes, pairs,
    verdict and witness axis."""
    points = [p for fam in rep.families for p in fam["points"]]
    return ([fam["axis"] for fam in rep.families], [ell for ell, *_ in points],
            _bits([x for _, *xs in points for x in xs]), list(rep.slopes), _bits(list(rep.slopes.values())),
            [(big, sub) for big, sub, *_ in rep.pairs], _bits([x for _, _, *xs in rep.pairs for x in xs]),
            rep.passes, rep.witness_axis)


class TestBatch:
    """One walk over the basis for many weight tuples: each member of a batch
    gets the bits and the witness of its own call."""

    @pytest.mark.parametrize("basis", BATCH_BASES, ids=lambda b: b.kind)
    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_pairs(self, seed, basis):
        pairs = _sample_weight_pairs(seed, 40, (8, 8), (0.125, 0.125))
        _assert_batch_is_single_calls(pairs, (2.0, 3.0), basis)

    @pytest.mark.parametrize("basis", BATCH_BASES, ids=lambda b: b.kind)
    def test_p_equal_one_slot(self, basis):
        # the infimum convention: block_cell_mins over a stack of weights
        pairs = _sample_weight_pairs(5, 12, (8, 8), (0.125, 0.125))
        _assert_batch_is_single_calls(pairs, (1.0, 2.0), basis)

    @pytest.mark.parametrize("basis", BATCH_BASES, ids=lambda b: b.kind)
    def test_a_row_whose_power_overflows(self, basis):
        # p = 50: (avg w^(-1/49))^49 leaves the double range where w is
        # about 1e-318, so that row's constant is +inf and the others stay
        # finite (subnormal cell sums are exact, so no average is 0)
        rng = np.random.default_rng(11)
        ws = [gf(rng.lognormal(0.0, 1.0, (8, 8))) for _ in range(4)]
        ws[2] = ws[2].with_values(ws[2].values * 1e-318)
        consts, wits = ap_constants(ws, 50.0, basis)
        assert consts[2] == math.inf and np.all(np.isfinite(np.delete(consts, 2)))
        singles = [ap_constant(w, 50.0, basis, return_witness=True) for w in ws]
        assert (consts.tobytes(), wits) == (_bits([c for c, _ in singles]), [r for _, r in singles])

    @pytest.mark.parametrize("basis", BATCH_BASES, ids=lambda b: b.kind)
    def test_a_batch_of_one(self, basis):
        _assert_batch_is_single_calls(_sample_weight_pairs(7, 1, (8, 8), (0.125, 0.125)), (2.0, 2.0), basis)

    @pytest.mark.parametrize("basis", BATCH_BASES, ids=lambda b: b.kind)
    def test_a_batch_spanning_several_chunks(self, basis, monkeypatch):
        pairs = _sample_weight_pairs(8, 6, (8, 8), (0.125, 0.125))
        monkeypatch.setattr(weights, "ROW_RECTS", 1)  # one row per pass
        _assert_batch_is_single_calls(pairs, (2.0, 3.0), basis)

    def test_chunks_on_a_16x16_grid(self):
        # a block of the all basis holds 16,320 rects here, so a pass takes
        # ROW_RECTS // 16,320 = 8 rows and this batch two passes per block
        pairs = _sample_weight_pairs(9, 10, (16, 16), (1 / 16, 1 / 16))
        _assert_batch_is_single_calls(pairs, (2.0, 3.0), ALL)

    def test_empty_batch(self):
        for consts, wits in (ap_constants([], 2.0, ALL), multi_weight_constants_ap([], ALL),
                             multi_weight_constants_apq([], ALL), power_bump_constants([], [], 1.5, ALL)):
            assert consts.shape == (0,) and wits == []

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (16, 32), (8, 8, 8), (64,), (37,), (6, 11), (8, 4, 6)])
    def test_a_infty_batch_equals_single_calls(self, shape):
        ws = _mixed_weights(shape)
        got = a_infty_classifies(ws, n_random_pairs=0)
        assert [_a_infty_bits(rep) for rep in got] == [_a_infty_bits(a_infty_classify(w, n_random_pairs=0)) for w in ws]
        assert {rep.passes for rep in got} == {True, False}

    def test_a_infty_batch_draws_the_pairs_of_single_calls(self):
        ws = _mixed_weights((8, 8))
        # successive single calls on one generator, and each on its own
        # default_rng(0) when no generator is given
        one = np.random.default_rng(5)
        want = [_a_infty_bits(a_infty_classify(w, rng=one, n_random_pairs=3)) for w in ws]
        assert [_a_infty_bits(rep) for rep in a_infty_classifies(ws, np.random.default_rng(5), 3)] == want
        want = [_a_infty_bits(a_infty_classify(w, n_random_pairs=3)) for w in ws]
        assert [_a_infty_bits(rep) for rep in a_infty_classifies(ws, n_random_pairs=3)] == want

    def test_a_infty_pairs_of_sampled_product_weights(self):
        # the nu weights of weight_theory_suite
        pairs = _sample_weight_pairs(0, 40, (16, 16), (1 / 16, 1 / 16))
        nus = [ws[0].with_values(WeightVector(ws, (2.0, 2.0), q=1.0).nu()) for ws in pairs]
        got = a_infty_classifies(nus, n_random_pairs=0)
        assert [_a_infty_bits(rep) for rep in got] == [_a_infty_bits(a_infty_classify(w, n_random_pairs=0)) for w in nus]
        rd = reverse_doubling_constants(nus)
        assert rd.tobytes() == _bits([reverse_doubling_constant(w) for w in nus])

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (16, 32), (8, 8, 8), (64,), (2, 2), (4, 2, 8)])
    def test_reverse_doubling_batch_equals_single_calls(self, shape):
        # 1e308 weights overflow their block sums and take the redo at a
        # power-of-two scale, alone; the others keep their one pass
        ws = _mixed_weights(shape)
        ws += [ws[0].with_values(np.full(shape, 1e308))]
        ws.insert(1, ws[0].with_values(np.random.default_rng(2).uniform(0.5, 1.0, shape) * 1e308))
        got = reverse_doubling_constants(ws)
        assert got.tobytes() == _bits([reverse_doubling_constant(w) for w in ws])
        assert got[-1] == pytest.approx(2.0 ** len(shape), rel=1e-12)
        assert np.all(np.isfinite(got))

    def test_empty_a_infty_and_reverse_doubling_batches(self):
        assert a_infty_classifies([]) == []
        assert reverse_doubling_constants([]).shape == (0,)

    def test_a_infty_and_reverse_doubling_batches_share_their_grid(self):
        w, w8 = gf(np.ones((4, 4))), gf(np.ones((8, 8)))
        for batched in (a_infty_classifies, reverse_doubling_constants):
            with pytest.raises(WeightError, match="one grid"):
                batched([w, w8])

    def test_a_batch_shares_its_grid_and_exponents(self):
        w, w8 = gf(np.ones((4, 4))), gf(np.ones((8, 8)))
        with pytest.raises(WeightError, match="one grid"):
            ap_constants([w, w8], 2.0, ALL)
        with pytest.raises(WeightError, match="one grid"):
            multi_weight_constants_ap([WeightVector((w, w), (2.0, 2.0)), WeightVector((w8, w8), (2.0, 2.0))], ALL)
        with pytest.raises(WeightError, match="exponents"):
            multi_weight_constants_apq([WeightVector((w, w), (2.0, 2.0)), WeightVector((w, w), (2.0, 3.0))], ALL)
        with pytest.raises(WeightError, match="one v per weight vector"):
            power_bump_constants([WeightVector((w, w), (2.0, 2.0))], [], 1.5, ALL)


class TestPowerWeights:
    def test_grid_positive_and_monotone_radial(self):
        w = power_weight_grid(-0.5, 2, 16)
        assert np.all(w.values > 0)
        assert w.values[0, 0] == np.max(w.values)

    @pytest.mark.parametrize("cells", [0, -1])
    def test_grid_needs_a_cell(self, cells):
        with pytest.raises(WeightError, match="at least one cell"):
            power_weight_grid(0.5, 1, cells)

    @pytest.mark.parametrize("n", [0, -1])
    def test_grid_needs_a_dimension(self, n):
        with pytest.raises(WeightError, match="n >= 1"):
            power_weight_grid(0.5, n, 4)

    def test_grid_is_on_the_unit_cube(self):
        assert power_weight_grid(0.5, 2, 4).cell_size == (0.25, 0.25)
        with pytest.raises(TypeError):
            power_weight_grid(0.5, 1, 4, extent=2.0)

    def test_alpha_zero_in_class_flat_profile(self):
        rep = power_weight_classify(0.0, 2.0, 1)
        assert rep.in_ap
        assert rep.profile[-1] == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("alpha,p,n,expected", [
        (0.5, 2.0, 1, True),
        (-0.5, 2.0, 1, True),
        (1.5, 2.0, 1, False),
        (-1.0, 2.0, 1, False),   # boundary alpha = -n
        (-2.0, 2.0, 1, False),   # below integrability
        (0.5, 2.0, 2, True),
        (1.0, 2.0, 2, False),  # boundary alpha = p-1 (range is n-independent)
        (2.5, 2.0, 2, False),
    ])
    def test_classify_cases(self, alpha, p, n, expected):
        rep = power_weight_classify(alpha, p, n)
        assert rep.in_ap is expected, (alpha, p, n, rep.log_increment_ratio)

    def test_profile_raises_outside_weight_range(self):
        with pytest.raises(WeightError):
            power_weight_profile(-1.0, 2.0, 1, depth=6)
        with pytest.raises(WeightError):
            power_weight_profile(0.5, 1.0, 1, depth=6)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_classify_needs_two_log_increments(self, depth):
        with pytest.raises(WeightError, match="depth >= 4"):
            power_weight_classify(0.5, 2.0, 1, depth=depth)

    def test_classify_at_smallest_depth(self):
        rep = power_weight_classify(0.5, 2.0, 1, depth=4)
        assert len(rep.profile) == 3
        assert math.isfinite(rep.log_increment_ratio)

    def test_in_class_profile_bounded(self):
        rep = power_weight_classify(0.5, 2.0, 1)
        assert rep.in_ap
        incs = np.diff(np.log(rep.profile))
        assert incs[-1] < incs[1]  # increments shrink: bounded profile


def test_holder_p():
    assert holder_p((2.0, 2.0)) == pytest.approx(1.0)
    assert holder_p((3.0,)) == pytest.approx(3.0)


def test_weight_vector_validation():
    w = gf(np.ones(4))
    with pytest.raises(WeightError):
        WeightVector((w,), (0.5,), q=2.0, alpha=0.0)
    with pytest.raises(WeightError):
        WeightVector((w, gf(np.ones(5))), (2.0, 2.0), q=2.0, alpha=0.0)


def test_libm_pow_to_the_first_is_the_identity():
    # _row_values powers every factor, those with exponent 1.0 too; a plain
    # average keeps its bits only because libm pow(x, 1.0) is x
    rng = np.random.default_rng(12)
    x = np.abs(rng.standard_normal(20_000) * 10.0 ** rng.integers(-300, 300, 20_000))
    bits = np.frombuffer(rng.bytes(8 * 20_000), dtype=np.float64)
    x = np.concatenate([x, np.abs(bits[np.isfinite(bits)]),
                        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf]])
    assert np.array_equal(libm_pow(x, 1.0), x)


# 1.0 and the 20 exponents that verify.run_all(0) hands to libm_pow
RUN_ALL_EXPONENTS = [1.0, 0.5, 1 / 3, 0.7, 3.0, 5 / 11, -1.0, -0.5, 0.0, -2.0, 0.495,
                     0.4749999999999999, 0.44999999999999996, 0.375, 1.01, 1.05, 1.1,
                     1.25, 2.0, 10 / 21, 0.2]


def _math_pow(v: float, e: float) -> float:
    try:
        return math.pow(v, e)
    except (OverflowError, ValueError):
        # past the double range, or 0 to a negative power: C pow gives +inf
        return math.inf


@pytest.mark.parametrize("e", RUN_ALL_EXPONENTS)
def test_libm_pow_is_math_pow_bit_for_bit(e):
    # the weight constants and the engine's volume powers are bit-equal to
    # their scalar oracles only while libm_pow is the C library pow; a numpy
    # whose float_power went to a SIMD pow would fail here
    rng = np.random.default_rng(13)
    x = np.exp(rng.uniform(-50.0, 50.0, 20_000))
    x = np.concatenate([x, [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                            1.7976931348623157e308, math.inf, math.nan]])
    want = np.array([_math_pow(v, e) for v in x.tolist()])
    got = libm_pow(x, e)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
