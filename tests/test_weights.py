import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmax._kernels import libm_pow
from strongmax.grid import Basis, GridError, GridFunction, enumerate_basis
from strongmax.verify import _decay_column
from strongmax.weights import (
    SLOPE_TOL,
    WeightError,
    WeightVector,
    a_infty_classify,
    ap_constant,
    conj_exponent,
    holder_p,
    multi_weight_constant_ap,
    multi_weight_constant_apq,
    power_bump_check,
    power_weight_classify,
    power_weight_grid,
    power_weight_profile,
    reverse_doubling_constant,
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
