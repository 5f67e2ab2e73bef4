import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongmax.young import (
    ONEIL_SAMPLES,
    BORDERLINE,
    CONVERGENT,
    DIVERGENT,
    YoungFunction,
    YoungFunctionError,
    bp_star_classify,
    complementary,
    complementary_value,
    identity,
    in_bp_star,
    inverse,
    l_log_l,
    oneil_triple_check,
    phi_n,
    phi_n_iter,
    power,
    psi_n,
)
from strongmax.young import _logp

CANONICAL = [
    power(1.0),
    power(2.0),
    power(3.5),
    phi_n(1),
    phi_n(2),
    phi_n(3),
    phi_n_iter(2, 2),
    phi_n_iter(3, 2),
    l_log_l(1),
    l_log_l(2),
    psi_n(2),
    psi_n(3),
]


class TestFamilies:
    def test_phi_1_is_identity(self):
        # convention: the (log+)^0 correction is void for n=1
        ts = np.array([0.0, 0.5, 1.0, 7.0, 1e6])
        assert np.allclose(phi_n(1).eval(ts), ts)

    def test_log_plus_matches_the_masked_log(self):
        # log+ t was np.where(t > 1, log(max(t, 1e-300)), 0); log(max(t, 1))
        # has the same bits everywhere but at NaN
        tiny = np.nextafter(0.0, 1.0)
        special = np.array([0.0, -0.0, tiny, -tiny, -1.0, -1e308, 1.0, np.nextafter(1.0, 2.0),
                            1e308, np.inf, -np.inf])
        ts = np.concatenate([special, np.exp(np.random.default_rng(0).uniform(-700, 709, 10**5))])
        with np.errstate(divide="ignore", invalid="ignore"):
            old = np.where(ts > 1.0, np.log(np.maximum(ts, 1e-300)), 0.0)
        assert _logp(ts).tobytes() == old.tobytes()
        assert np.isnan(phi_n(2).eval(np.nan))

    def test_phi_n_values(self):
        assert phi_n(2).eval(np.e) == pytest.approx(2 * np.e)
        assert phi_n(2).eval(0.5) == pytest.approx(0.5)  # log+ = 0 below 1

    def test_phi_n_iter_one_is_phi_n(self):
        ts = np.logspace(-3, 6, 40)
        assert np.allclose(phi_n_iter(2, 1).eval(ts), phi_n(2).eval(ts))

    @pytest.mark.parametrize("s", [math.nan, math.inf, 0.5])
    def test_power_needs_a_finite_exponent_of_at_least_one(self, s):
        with pytest.raises(YoungFunctionError, match="finite and >= 1"):
            power(s)

    @pytest.mark.parametrize("n", [1, 0])
    def test_psi_n_needs_n_of_at_least_two(self, n):
        with pytest.raises(YoungFunctionError, match="n >= 2"):
            psi_n(n)

    def test_psi_n(self):
        assert psi_n(2).eval(1.0) == pytest.approx(math.e - 1)
        assert psi_n(3).eval(4.0) == pytest.approx(math.exp(2.0) - 1)

    @pytest.mark.parametrize("phi", CANONICAL, ids=lambda p: p.label)
    def test_young_axioms(self, phi):
        assert float(phi.eval(np.float64(0.0))) == 0.0
        ts = np.logspace(-4, 6, 80)
        with np.errstate(over="ignore"):
            vals = phi.eval(ts)
        finite = vals[np.isfinite(vals)]  # exp-class tails overflow to inf
        assert np.all(np.diff(finite) >= -1e-12)  # nondecreasing
        with np.errstate(over="ignore"):
            assert float(phi.eval(np.float64(1e8))) > 1e6  # escapes to infinity

    # the exp-class family exp(t^(1/(n-1))) - 1 follows the paper's formula
    # literally and is convex only from t = 1 on (checked separately below)
    @pytest.mark.parametrize(
        "phi", [p for p in CANONICAL if not p.label.startswith("Psi")],
        ids=lambda p: p.label,
    )
    def test_convexity_random_triples(self, phi):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = np.sort(rng.uniform(0, 50, 2))
            if b - a < 1e-9:
                continue
            lam = rng.uniform()
            m = lam * a + (1 - lam) * b
            fa, fb, fm = (float(phi.eval(np.float64(t))) for t in (a, b, m))
            assert fm <= lam * fa + (1 - lam) * fb + 1e-9 + 1e-12 * (fa + fb)

    @pytest.mark.parametrize("n", [2, 3])
    def test_psi_convex_from_one(self, n):
        phi = psi_n(n)
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b = np.sort(rng.uniform(1.0, 40.0, 2))
            if b - a < 1e-9:
                continue
            lam = rng.uniform()
            m = lam * a + (1 - lam) * b
            fa, fb, fm = (float(phi.eval(np.float64(t))) for t in (a, b, m))
            assert fm <= lam * fa + (1 - lam) * fb + 1e-9 + 1e-12 * (fa + fb)

    def test_phi_n_submultiplicative_with_constant(self):
        # Phi_n(st) <= C Phi_n(s) Phi_n(t); report-style check of finite C
        phi = phi_n(3)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(500):
            s, t = rng.uniform(0.01, 1e4, 2)
            num = float(phi.eval(np.float64(s * t)))
            den = float(phi.eval(np.float64(s))) * float(phi.eval(np.float64(t)))
            worst = max(worst, num / den)
        assert worst < 10.0  # finite reported constant

    def test_composition_bound(self):
        # Phi_n^(m)(t) <= C t [1 + (log+ t)^(n-1)]^m on [0, 1e9]
        n, m = 2, 3
        phim = phi_n_iter(n, m)
        ts = np.logspace(-6, 9, 200)
        lhs = phim.eval(ts)
        logp = np.maximum(np.log(ts), 0.0)
        rhs = ts * (1.0 + logp ** (n - 1)) ** m
        c = np.max(lhs / rhs)
        assert math.isfinite(c)
        assert np.all(lhs <= (c + 1e-9) * rhs)


def _assert_dense_max(conj, phi, s, top):
    """conj(s) is finite, at least the maximum of s t - phi(t) over a dense
    geometric grid of [1, top] and within 1e-9 relative of it."""
    t = np.geomspace(1.0, top, 2_000_001)
    dense = float(np.max(s * t - phi(t)))
    assert dense <= float(conj(s)) <= dense * (1.0 + 1e-9)


class TestComplementary:
    def test_quadratic_conjugate(self):
        # Phi(t) = t^2/2 has conjugate s^2/2
        f = YoungFunction(lambda t: np.asarray(t, dtype=np.float64) ** 2 / 2, label="t^2/2")
        assert complementary_value(f, 3.0) == pytest.approx(4.5, rel=1e-6)

    def test_linear_conjugate_indicator(self):
        lin = identity()
        assert complementary_value(lin, 0.5) == pytest.approx(0.0, abs=1e-9)
        assert complementary_value(lin, 2.0) == math.inf

    def test_s_zero(self):
        for phi in (power(2.0), phi_n(2)):
            assert complementary_value(phi, 0.0) == 0.0

    def test_power_closed_form_matches_numeric(self):
        # conj of t^s/s-normalization: for Phi = t^s, conj(y) known closed form
        phi = power(2.0)
        num = complementary(phi)
        ys = np.logspace(-2, 3, 20)
        closed = phi.closed_complementary
        assert closed is not None
        for y in ys:
            assert float(num.eval(np.float64(y))) == pytest.approx(
                closed(y), rel=1e-6, abs=1e-9
            )

    @pytest.mark.parametrize("phi", [phi_n(3), phi_n_iter(2, 2), psi_n(2), power(2.5)],
                             ids=lambda p: p.label)
    @pytest.mark.parametrize("shape", [(2, 3), (40, 9)])
    def test_eval_keeps_shape(self, phi, shape):
        # numeric and closed conjugates alike map arrays of any shape
        s = np.random.default_rng(3).uniform(0, 6, shape)
        conj = complementary(phi)
        got = conj.eval(s)
        assert got.shape == shape
        assert np.array_equal(got, conj.eval(s.ravel()).reshape(shape))

    def test_power_conjugate_overflow_is_inf(self):
        assert complementary(power(1.3))(1e100) == math.inf
        got = complementary(power(1.3))(np.array([1e100, 2.0]))
        assert got[0] == math.inf and math.isfinite(got[1])

    @pytest.mark.parametrize("phi", CANONICAL, ids=lambda p: p.label)
    def test_value_is_one_element_call(self, phi):
        conj = complementary(phi)
        for s in (0.0, 0.3, 1.0, 1.5, 2.0, 7.5, 30.0):
            assert complementary_value(phi, s) == float(conj(s))
        with pytest.raises(YoungFunctionError):
            complementary_value(phi, -1.0)

    @pytest.mark.parametrize("s", [1.5, 2.5, 3.0])
    def test_power_conjugate_is_zero_at_negative_points(self, s):
        # sup over t >= 0 of y t - t^s is 0 (at t = 0) for y <= 0, as the
        # numeric kernel and the Phi_2 closed form give
        phi = power(s)
        ys = np.array([-1.0, -1e-3, -0.0])
        assert complementary(phi)(ys).tolist() == [0.0, 0.0, 0.0]
        numeric = complementary(YoungFunction(phi.eval, label="numeric"))
        assert numeric(ys).tolist() == [0.0, 0.0, 0.0]
        assert complementary(phi_n(2))(ys).tolist() == [0.0, 0.0, 0.0]

    def test_numeric_maximizer_in_last_grid_cell_is_finite(self):
        # Phi_3'(1e9) = 471.9: at s = 470 the maximizer lies below 1e9 and at
        # s = 500 above it, where a grid capped at 1e9 gave +inf
        phi = phi_n(3)
        conj = complementary(phi)
        t = np.geomspace(1.0, 1e9, 2_000_001)
        dense = float(np.max(470.0 * t - phi(t)))
        assert float(conj(470.0)) == pytest.approx(dense, rel=1e-6)
        _assert_dense_max(conj, phi, 500.0, 1e12)

    def test_llogl2_conjugate_past_1e9_is_finite(self):
        # the maximizer at s = 1000 is about 7.4e12
        phi = l_log_l(2)
        _assert_dense_max(complementary(phi), phi, 1000.0, 1e15)

    def test_phi2_closed_form_matches_numeric(self):
        # the same Phi_2 with its closed conjugate hidden takes the numeric kernel
        phi = phi_n(2)
        assert l_log_l(1).closed_complementary is phi.closed_complementary
        closed = complementary(phi)
        numeric = complementary(YoungFunction(phi.eval, label="Phi_2, numeric"))
        low = np.linspace(0.0, 2.0, 201)
        assert np.allclose(closed(low), numeric(low), rtol=0.0, atol=1e-15)
        high = np.linspace(2.0, 22.0, 401)
        assert np.all(np.isfinite(numeric(high)))
        assert np.allclose(closed(high), numeric(high), rtol=1e-12, atol=0.0)
        # at 25 the maximizer is e^23, about 9.7e9
        assert closed(25.0) == pytest.approx(math.exp(23.0), rel=1e-15)
        _assert_dense_max(numeric, phi, 25.0, 1e12)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CANONICAL), st.floats(0.0, 60.0), st.floats(0.0, 1e6))
def test_fenchel_young(phi, s, t):
    # s t <= Phi(t) + conj Phi(s) wherever the conjugate is finite
    conj = complementary_value(phi, s)
    if math.isinf(conj):
        return
    with np.errstate(over="ignore"):
        rhs = float(phi(t)) + conj
    assert s * t <= rhs + 1e-12 * max(s * t, rhs)


class TestInverse:
    def test_examples(self):
        assert inverse(power(2.0), 9.0) == pytest.approx(3.0, rel=1e-9)
        assert inverse(phi_n(2), 0.0) == 0.0
        assert inverse(identity(), 7.0) == pytest.approx(7.0, rel=1e-9)

    @pytest.mark.parametrize("phi", [power(2.0), phi_n(2), phi_n_iter(2, 2), l_log_l(1)],
                             ids=lambda p: p.label)
    def test_inverse_of_eval_identity(self, phi):
        for t in np.logspace(-3, 5, 25):
            y = float(phi.eval(np.float64(t)))
            assert inverse(phi, y) == pytest.approx(t, rel=1e-9)


@pytest.mark.parametrize("phi", CANONICAL, ids=lambda p: p.label)
@settings(max_examples=50, deadline=None)
@given(y=st.floats(0.0, np.finfo(np.float64).max, exclude_min=True))
@example(y=1e306)
@example(y=float(np.finfo(np.float64).max))
def test_inverse_is_certified(phi, y):
    # the least double b with phi(b) >= y: the double below it falls short
    # near the largest double phi(b) may round up to +inf
    b = inverse(phi, y)
    with np.errstate(over="ignore"):
        assert phi(b) >= y
    assert phi(np.nextafter(b, 0.0)) < y


@pytest.mark.parametrize("phi", CANONICAL, ids=lambda p: p.label)
@settings(max_examples=20, deadline=None)
@given(ys=st.lists(st.floats(0.0, np.finfo(np.float64).max), min_size=1, max_size=8))
@example(ys=[0.0, 1e-320, 1.0, 1e306, float(np.finfo(np.float64).max)])
def test_inverse_is_certified_on_arrays(phi, ys):
    # every point of an array y gets its own least double b
    y = np.array(ys).reshape(-1, 1)
    b = inverse(phi, y)
    assert b.shape == y.shape
    with np.errstate(over="ignore"):
        assert np.all(phi(b) >= y)
    below = np.nextafter(b, 0.0)
    assert np.all((phi(below) < y) | (y == 0.0))


# the canonical families and the forms whose 0-d eval once took the C pow
# (``**`` on a numpy scalar) where an array took numpy's SIMD one
INVERTED = CANONICAL + [phi_n(4), l_log_l(3), l_log_l(1, outer=4.0 / 3.0), l_log_l(0, outer=3.0),
                        complementary(power(3.0)), complementary(phi_n(2))]


@pytest.mark.parametrize("phi", INVERTED, ids=lambda p: p.label)
def test_array_inverse_is_the_scalar_calls(phi):
    ts = np.array(ONEIL_SAMPLES)
    scalar = np.array([inverse(phi, float(t)) for t in ts])
    assert inverse(phi, ts).tobytes() == scalar.tobytes()


@pytest.mark.parametrize("phi", INVERTED, ids=lambda p: p.label)
def test_zero_d_eval_is_the_array_eval(phi):
    ts = np.random.default_rng(5).lognormal(0.0, 4.0, 400)
    with np.errstate(over="ignore"):
        one = np.array([phi.eval(np.float64(t)) for t in ts])
        assert phi.eval(ts).tobytes() == one.tobytes()


def test_inverse_raises_where_any_point_is_out_of_reach():
    capped = YoungFunction(lambda t: np.minimum(t, 1.0), "min(t, 1)")
    assert inverse(capped, np.array([0.5, 1.0])).tolist() == [0.5, 1.0]
    with pytest.raises(YoungFunctionError, match="unbounded at y=2"):
        inverse(capped, np.array([0.5, 2.0]))
    with pytest.raises(YoungFunctionError, match=">= 0"):
        inverse(capped, np.array([0.5, math.nan]))


class TestOneil:
    def test_square_square_identity_holds(self):
        ok, margin = oneil_triple_check(power(2.0), identity(), power(2.0))
        assert ok
        assert margin >= 1.0 - 1e-9

    def test_identity_triple_fails(self):
        ok, margin = oneil_triple_check(identity(), identity(), identity())
        assert not ok
        assert margin < 1.0

    def test_paper_triple_margin_reported(self):
        # A = t^(r p'), C = conj-type power-log, B = Phi_2: holds up to a constant
        a = power(4.0)  # r = 2, p' = 2
        c = l_log_l(1, outer=4.0 / 3.0)  # (r p')' = 4/3 with a log factor
        b = phi_n(2)
        ok, margin = oneil_triple_check(a, c, b)
        assert math.isfinite(margin) and margin > 0.0


class TestBpStar:
    def test_six_power_log_cases(self):
        # (phi, p, n) -> expected classification from the analytic tail exponent
        cases = [
            (identity(), 2.0, 1, CONVERGENT),  # t/t^3 = t^-2
            (power(2.0), 2.0, 1, DIVERGENT),  # t^2/t^3 = t^-1 borderline gate
            (power(1.5), 3.0, 2, CONVERGENT),  # t^{1.5-4} log t
            (power(3.0), 2.0, 1, DIVERGENT),  # t^0 tail
            (l_log_l(1), 2.5, 1, CONVERGENT),  # t^{1-3.5} log
            (power(2.5), 2.0, 2, DIVERGENT),  # t^{-0.5} log tail
        ]
        for phi, p, n, expected in cases:
            label, slope = bp_star_classify(phi, p, n)
            gated = DIVERGENT if label == BORDERLINE else label
            assert gated == expected, (phi.label, p, n, label, slope)

    def test_in_bp_star_gate(self):
        assert in_bp_star(identity(), 2.0, 1)
        assert not in_bp_star(power(2.0), 2.0, 1)

    def test_requires_p_above_one(self):
        with pytest.raises(YoungFunctionError):
            bp_star_classify(identity(), 1.0, 1)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 4.0), st.floats(0.01, 1e4))
def test_power_inverse_roundtrip(s, t):
    phi = power(s)
    y = float(phi.eval(np.float64(t)))
    assert inverse(phi, y) == pytest.approx(t, rel=1e-9)
