import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmax.grid import Basis, GridError, GridFunction
from strongmax.maximal import (
    MaximalQuery,
    level_set_measure,
    maximal_reference_scan,
    multilinear_fractional_maximal,
    orlicz_maximal,
    strong_maximal,
)
from strongmax.young import identity, phi_n


def gf(values, h=None):
    values = np.asarray(values, dtype=np.float64)
    h = h or (1.0,) * values.ndim
    return GridFunction(values.shape, h, values)


ALL = Basis("all")


class TestStrongMaximal:
    def test_constant(self):
        f = gf(np.full((4, 4), 2.5))
        out = strong_maximal(f, ALL)
        assert np.allclose(out.values, 2.5)

    def test_demo_interval(self):
        f = gf([1.0, 0.0, 0.0, 0.0])
        out = strong_maximal(f, ALL)
        assert np.allclose(out.values, [1.0, 0.5, 1.0 / 3.0, 0.25])

    def test_dominates_input(self):
        rng = np.random.default_rng(0)
        f = gf(rng.uniform(0, 3, (6, 5)))
        out = strong_maximal(f, ALL)
        assert np.all(out.values >= f.values - 1e-15)

    def test_sublinearity(self):
        rng = np.random.default_rng(1)
        f = gf(rng.uniform(0, 2, (8,)))
        g = gf(rng.uniform(0, 2, (8,)))
        ms = strong_maximal(gf(f.values + g.values), ALL)
        assert np.all(
            ms.values <= strong_maximal(f, ALL).values + strong_maximal(g, ALL).values + 1e-12
        )

    def test_dyadic_below_all_rects(self):
        rng = np.random.default_rng(2)
        f = gf(rng.uniform(0, 3, (8, 16)))
        dy = strong_maximal(f, Basis("dyadic"))
        al = strong_maximal(f, ALL)
        assert np.all(dy.values <= al.values + 0.0)  # exact inequality


class TestFractional:
    def test_1d_alpha_half(self):
        f = gf([1.0, 0.0, 0.0, 0.0])
        q = MaximalQuery(basis=ALL, alpha=0.5, m=1)
        out = multilinear_fractional_maximal([f], q)
        expect = [1.0, 1 / math.sqrt(2), 1 / math.sqrt(3), 0.5]
        assert np.allclose(out.values, expect)

    def test_bilinear_product(self):
        f1 = gf([1.0, 0.0, 0.0, 0.0])
        f2 = gf([1.0, 1.0, 1.0, 1.0])
        q = MaximalQuery(basis=ALL, alpha=0.0, m=2)
        out = multilinear_fractional_maximal([f1, f2], q)
        assert np.allclose(out.values, [1.0, 0.5, 1 / 3, 0.25])

    def test_bilinear_constants(self):
        f = gf(np.ones((3, 3)))
        q = MaximalQuery(basis=ALL, alpha=0.0, m=2)
        out = multilinear_fractional_maximal([f, f], q)
        assert np.allclose(out.values, 1.0)

    def test_alpha_range_validated(self):
        f = gf(np.ones(4))
        with pytest.raises(GridError):
            multilinear_fractional_maximal([f], MaximalQuery(basis=ALL, alpha=1.0, m=1))

    def test_bilinear_huge_times_tiny(self):
        # the prefix sums of 1e306 overflow unless the inputs are rescaled
        h = (1.0 / 16, 1.0 / 16)
        f1 = gf(np.full((16, 16), 1e306), h=h)
        f2 = gf(np.full((16, 16), 1e-306), h=h)
        out = multilinear_fractional_maximal([f1, f2], MaximalQuery(basis=ALL, m=2))
        assert np.allclose(out.values, 1.0, rtol=0.0, atol=1e-9)

    def test_overflowing_answer_raises(self):
        f = gf(np.full(4, 1e200))
        with pytest.raises(GridError, match="overflows"):
            multilinear_fractional_maximal([f, f], MaximalQuery(basis=ALL, m=2))

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            multilinear_fractional_maximal(
                [gf(np.ones(4)), gf(np.ones(5))], MaximalQuery(basis=ALL, m=2)
            )


class TestDualImplementations:
    @pytest.mark.parametrize(
        "shape", [(16,), (16, 16), (5, 7), (4, 5, 6), (6, 6, 6), (1,), (1, 6), (3, 1, 4)]
    )
    @pytest.mark.parametrize("m,alpha", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0)])
    def test_exact_agreement_small_grids(self, shape, m, alpha):
        rng = np.random.default_rng(hash((shape, m)) % 2**31)
        h = tuple(rng.uniform(0.3, 1.5, len(shape)))
        fs = [gf(rng.uniform(0, 3, shape), h=h) for _ in range(m)]
        q = MaximalQuery(basis=ALL, alpha=alpha, m=m)
        fast = multilinear_fractional_maximal(fs, q)
        slow = maximal_reference_scan(fs, q)
        assert np.array_equal(fast.values, slow.values)  # bit-identical


    @pytest.mark.parametrize("shape", [(16,), (8, 8), (4, 8), (2, 4, 4), (1, 8), (4, 1, 2)])
    @pytest.mark.parametrize(
        "basis",
        [Basis("dyadic"), Basis("cubes"), Basis("all", (0.5, 1.0)),
         Basis("dyadic", (0.5, 1.3)), Basis("cubes", (0.5, 1.0))],
        ids=lambda b: f"{b.kind}-{b.scale_bounds}",
    )
    @pytest.mark.parametrize("m,alpha", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0)])
    def test_exact_agreement_table_bases(self, shape, basis, m, alpha):
        # the non-sweep branch evaluates the basis as arrays
        rng = np.random.default_rng(len(shape) * 100 + shape[-1] + m)
        # equal sides, so the cubes basis has cubes past one cell; not a power
        # of two, so the volumes and their powers carry rounding
        h = (0.3,) * len(shape)
        fs = [gf(rng.uniform(0, 3, shape), h=h) for _ in range(m)]
        q = MaximalQuery(basis=basis, alpha=alpha, m=m)
        fast = multilinear_fractional_maximal(fs, q)
        slow = maximal_reference_scan(fs, q)
        assert np.array_equal(fast.values, slow.values)  # bit-identical

    @pytest.mark.parametrize(
        "shape,h,m",
        [((8,), (1e-160,), 2),  # |R|^-2 overflows
         ((4, 4), (1e-200, 1e-200), 1)],  # |R| underflows to 0
    )
    def test_reference_scan_power_out_of_range(self, shape, h, m):
        fs = [gf(np.ones(shape), h=h) for _ in range(m)]
        with pytest.raises(GridError, match="double range"):
            maximal_reference_scan(fs, MaximalQuery(basis=ALL, m=m))


class TestEngine:
    @pytest.mark.parametrize("kind", ["all", "dyadic", "cubes"])
    @pytest.mark.parametrize(
        "shape,h,m,alpha,expected",
        [((16,), (1e-160,), 2, 0.0, 1.0),  # |R|^-2 overflows
         ((4, 4), (1e-200, 1e-200), 1, 0.0, 1.0),  # |R| underflows to 0
         # the cell volume rounds to 0 and |R| of 3 or more cells is
         # subnormal, so |R|^-0.5 * (S * 0.0) is a finite 0
         ((4, 4), (1e-162, 1e-162), 1, 1.0, 4e-162),
         # a subnormal cell volume (1e-320) keeps about 11 bits
         ((4, 4), (1e-160, 1e-160), 1, 1.0, 4e-160)],
    )
    def test_tiny_cells_give_the_finite_answer(self, kind, shape, h, m, alpha, expected):
        fs = [gf(np.ones(shape), h=h) for _ in range(m)]
        out = multilinear_fractional_maximal(fs, MaximalQuery(basis=Basis(kind), alpha=alpha, m=m))
        assert np.allclose(out.values, expected, rtol=1e-12, atol=0.0)

    def test_one_dimensional_sweep_memory_is_linear(self):
        # an engine that holds all N^2 intervals of 2048 cells at once needs
        # 2048^2 doubles = 32 MB per array
        f = gf(np.random.default_rng(7).uniform(0, 1, 2048), h=(1.0 / 2048,))
        tracemalloc.start()
        try:
            strong_maximal(f, ALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_cubes_are_all_intervals_in_one_dimension(self):
        f = gf(np.random.default_rng(8).uniform(0, 3, 512), h=(0.3,))
        cubes = strong_maximal(f, Basis("cubes")).values
        assert np.array_equal(cubes, strong_maximal(f, ALL).values)  # bit-identical


class TestOrlicz:
    def test_identity_psi_matches_fractional(self):
        rng = np.random.default_rng(4)
        f = gf(rng.uniform(0, 3, (6, 6)))
        q_frac = MaximalQuery(basis=ALL, alpha=0.5, m=1)
        q_orl = MaximalQuery(basis=ALL, alpha=0.5, m=1, orlicz=(identity(),))
        a = multilinear_fractional_maximal([f], q_frac)
        b = orlicz_maximal([f], q_orl)
        assert np.allclose(a.values, b.values, rtol=1e-8)

    def test_constant_quadratic_norm(self):
        f = gf(np.full((4,), 2.0))
        from strongmax.young import power

        q = MaximalQuery(basis=ALL, alpha=0.0, m=1, orlicz=(power(2.0),))
        out = orlicz_maximal([f], q)
        assert np.allclose(out.values, 2.0, rtol=1e-9)

    def test_phi2_dominates_fractional(self):
        rng = np.random.default_rng(6)
        f = gf(rng.uniform(0, 2, (8,)))
        g = gf(rng.uniform(0, 2, (8,)))
        q_frac = MaximalQuery(basis=ALL, alpha=0.0, m=2)
        q_orl = MaximalQuery(basis=ALL, alpha=0.0, m=2, orlicz=(phi_n(2), phi_n(2)))
        a = multilinear_fractional_maximal([f, g], q_frac)
        b = orlicz_maximal([f, g], q_orl)
        assert np.all(b.values >= a.values - 1e-9)


class TestLevelSet:
    def test_empty(self):
        assert level_set_measure(gf(np.ones(5)), 2.0) == 0.0

    def test_counting(self):
        mf = gf([1.0, 0.5, 1 / 3, 0.25])
        assert level_set_measure(mf, 0.4) == 2.0

    def test_lambda_zero_full(self):
        mf = gf(np.full((3, 3), 0.1), h=(0.5, 0.5))
        assert level_set_measure(mf, 0.0) == pytest.approx(9 * 0.25)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_reduction_chain_random(seed):
    rng = np.random.default_rng(seed)
    f = gf(rng.uniform(0, 3, (5, 6)))
    sm = strong_maximal(f, ALL)
    frac = multilinear_fractional_maximal([f], MaximalQuery(basis=ALL, alpha=0.0, m=1))
    orl = orlicz_maximal([f], MaximalQuery(basis=ALL, alpha=0.0, m=1, orlicz=(identity(),)))
    assert np.allclose(sm.values, frac.values, rtol=1e-12)
    assert np.allclose(sm.values, orl.values, rtol=1e-8)


# --- the operator contract of PAPER.md, as properties -----------------------

SHAPES = [(8,), (2,), (4, 4), (1, 8), (2, 2, 4), (4, 1, 2)]  # dyadic needs powers of two


def _random_tuple(seed, shape, m):
    rng = np.random.default_rng(seed)
    h = tuple(rng.uniform(0.3, 1.5, len(shape)))
    return rng, [gf(rng.uniform(0, 3, shape), h=h) for _ in range(m)]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**31),
    st.sampled_from(SHAPES),
    st.sampled_from(["all", "dyadic", "cubes"]),
    st.sampled_from([(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0)]),
    st.integers(-40, 40),
    st.integers(0, 1),
)
def test_homogeneous_under_powers_of_two(seed, shape, kind, m_alpha, j, slot):
    m, alpha = m_alpha
    slot = min(slot, m - 1)
    _, fs = _random_tuple(seed, shape, m)
    q = MaximalQuery(basis=Basis(kind), alpha=alpha, m=m)
    base = multilinear_fractional_maximal(fs, q).values
    fs[slot] = fs[slot].with_values(np.ldexp(fs[slot].values, j))
    scaled = multilinear_fractional_maximal(fs, q).values
    assert np.array_equal(scaled, np.ldexp(base, j))  # bit-equal


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**31),
    st.sampled_from(SHAPES),
    st.sampled_from(["all", "dyadic", "cubes"]),
    st.sampled_from([(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0)]),
)
def test_monotone_in_the_inputs(seed, shape, kind, m_alpha):
    m, alpha = m_alpha
    rng, fs = _random_tuple(seed, shape, m)
    # raise each input on a random subset of cells
    bigger = [
        f.with_values(f.values + rng.uniform(0, 1, shape) * (rng.uniform(size=shape) < 0.5))
        for f in fs
    ]
    q = MaximalQuery(basis=Basis(kind), alpha=alpha, m=m)
    lo = multilinear_fractional_maximal(fs, q).values
    hi = multilinear_fractional_maximal(bigger, q).values
    # cell sums are differences of prefix sums, exact only to a few ulp
    assert np.all(lo <= hi * (1 + 1e-12))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SHAPES), st.sampled_from([(1, 0.0), (2, 1.0)]))
def test_basis_inclusions_order_the_maxima(seed, shape, m_alpha):
    # dyadic and cube rects are all rects, and the sweep and the scans agree
    # bit for bit on a shared rect, so the inequalities are exact; from 2-D
    # on a dyadic rect need not be a cube, so dyadic <= cubes holds in 1-D only
    m, alpha = m_alpha
    _, fs = _random_tuple(seed, shape, m)
    dy, cu, al = (
        multilinear_fractional_maximal(fs, MaximalQuery(basis=Basis(k), alpha=alpha, m=m)).values
        for k in ("dyadic", "cubes", "all")
    )
    assert np.all(dy <= al) and np.all(cu <= al)
    if len(shape) == 1:
        assert np.all(dy <= cu)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SHAPES), st.sampled_from(["all", "dyadic", "cubes"]))
def test_strong_maximal_dominates_input(seed, shape, kind):
    _, (f,) = _random_tuple(seed, shape, 1)
    out = strong_maximal(f, Basis(kind)).values
    # a one-cell sum is a difference of prefix sums, exact only to a few ulp
    assert np.all(out >= f.values - 1e-12 * np.sum(f.values))
