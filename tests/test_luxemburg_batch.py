"""The batched Luxemburg solve against one scalar bisection per row.

Every comparison is np.array_equal (or ==): a norm is the least double
whose floating-point mean is <= 1, and the mean is monotone, so the batch
(a start and a search of bit patterns, in lockstep) and the
oracle (a bisection of every positive double, one row at a time) reach
the same double on the same sums by different paths.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxemburg_oracle import (bracket_norm, orlicz_maximal_oracle, scalar_norm, scalar_norms,
                              young_sup_oracle)
from strongmax import orlicz
from strongmax.grid import Basis, GridFunction
from strongmax.maximal import MaximalQuery, orlicz_maximal
from strongmax.orlicz import MeasureError, luxemburg_blocks, luxemburg_norm_values
from strongmax.verify import vector_valued_check
from strongmax.young import YoungFunction, complementary, l_log_l, phi_n, phi_n_iter, power, psi_n

PHIS = [power(1.0), power(1.5), power(2.0), power(3.0), phi_n(2), phi_n(3), l_log_l(1, outer=1.5)]


def norms(vals, cell_measure, total, phi):
    """The norms of the rows of vals (R, k): one luxemburg_blocks block."""
    return luxemburg_blocks([(vals, total)], 1, cell_measure, phi)[0]


def _rows(rng, count, k, scale):
    vals = rng.uniform(0, 1, (count, k)) * scale
    vals[rng.uniform(size=(count, k)) < 0.3] = 0.0  # sparse rows, some all zero
    return vals


@pytest.mark.parametrize("phi", PHIS, ids=lambda p: p.label)
@pytest.mark.parametrize("scale", [1e-6, 1.0, 3.0, 1e6])
@pytest.mark.parametrize("k", [1, 4, 9, 64])
def test_rows_match_scalar_bisection(phi, scale, k):
    rng = np.random.default_rng(k * 7 + int(np.log10(scale)) + 20)
    vals = _rows(rng, 40, k, scale)
    vals[3] = 0.0
    total = rng.uniform(0.5, 2.0, 40) * k
    got = norms(vals, 1.0, total, phi)
    assert got[3] == 0.0
    assert np.array_equal(got, scalar_norms(vals, 1.0, total, phi))


@pytest.mark.parametrize("phi", PHIS, ids=lambda p: p.label)
def test_scalar_total_measure_and_tolerance(phi):
    rng = np.random.default_rng(5)
    vals = _rows(rng, 25, 16, 2.0)
    got = norms(vals, 0.25, 4.0, phi)
    assert np.array_equal(got, scalar_norms(vals, 0.25, 4.0, phi))


def test_norms_far_from_the_row_max():
    # a small set puts the norm above the row max, a large one below it; the
    # last two families have no closed-form start, so their search starts
    # at the row max
    vals = np.array([[1e6, 2e6, 3e6, 0.0], [1e-6, 2e-6, 0.0, 5e-7], [1.0, 1.0, 1.0, 1.0]])
    for phi in (power(2.0), phi_n(2), power(3.0), phi_n(3), l_log_l(2)):
        for cell, total in ((1.0, 0.5), (1.0, 4.0), (1.0, 400.0)):
            got = norms(vals, cell, total, phi)
            want = [scalar_norm(row, cell, total, phi) for row in vals]
            assert np.array_equal(got, want)
            assert all(g > 0 for g in got)


def test_numeric_conjugate():
    # Phi_2's conjugate is a closed form, Phi_3's the numeric kernel
    vals = np.array([[0.5, 0.25, 0.0], [0.0, 0.0, 0.0], [0.9, 0.1, 0.3]])
    for phi in (complementary(phi_n(2)), complementary(phi_n(3))):
        assert np.array_equal(norms(vals, 1.0, 3.0, phi), scalar_norms(vals, 1.0, 3.0, phi))


def test_zero_rows_and_empty_rows():
    assert np.array_equal(norms(np.zeros((3, 5)), 1.0, 5.0, phi_n(2)), np.zeros(3))
    assert np.array_equal(norms(np.zeros((2, 0)), 1.0, 1.0, phi_n(2)), np.zeros(2))
    signed = norms(np.array([[-0.0, -0.0], [-0.0, 1.0]]), 1.0, 2.0, phi_n(2))
    assert signed[0] == 0.0 and not np.signbit(signed[0])
    assert signed[1] == scalar_norm([-0.0, 1.0], 1.0, 2.0, phi_n(2))


def test_unbounded_bracket_raises():
    jump = YoungFunction(lambda t: np.where(np.asarray(t) > 0, np.inf, 0.0), label="jump")
    vals = np.array([[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(MeasureError, match="unbounded"):
        scalar_norm(vals[1], 1.0, 2.0, jump)
    with pytest.raises(MeasureError, match="unbounded"):
        norms(vals, 1.0, 2.0, jump)
    # a row of zeros never enters the search
    assert norms(vals[:1], 1.0, 2.0, jump)[0] == 0.0


def _ragged_blocks():
    # blocks of k = 0, 1, 4, 9 and 64 cells, two of k = 1 and of k = 4, each
    # with a row of zeros, a row of -0.0 and rows of 1e6, 1e-6, 1 and 3 with
    # some zero cells; each row has its own total measure
    rng = np.random.default_rng(19)
    blocks = []
    for k in (4, 64, 0, 1, 9, 4, 1):
        vals = _rows(rng, 6, k, 1.0) * np.array([0.0, 1.0, 1e6, 1e-6, 1.0, 3.0])[:, None]
        vals[1] = -0.0
        blocks.append((vals, rng.choice([0.5, 4.0, 400.0], 6) * max(k, 1)))
    return blocks


@pytest.mark.parametrize("cell_block", [7, 64, orlicz.CELL_BLOCK])
@pytest.mark.parametrize("phi", [power(2.0), phi_n(2)], ids=lambda p: p.label)
def test_ragged_blocks_match_scalar_bisection(monkeypatch, phi, cell_block):
    # 7 and 64 cells split blocks over chunks and make chunks span blocks
    monkeypatch.setattr(orlicz, "CELL_BLOCK", cell_block)
    blocks = _ragged_blocks()
    got = luxemburg_blocks(blocks, 1, 1.0, phi)
    doubled = halved = 0
    for (vals, total), norms in zip(blocks, got):
        want = [scalar_norm(row, 1.0, t, phi) for row, t in zip(vals, total)]
        assert np.array_equal(norms, want)
        assert not np.any(np.signbit(norms))
        top = vals.max(axis=1, initial=0.0)
        doubled += np.count_nonzero(norms > top)
        halved += np.count_nonzero(norms < 0.5 * top)
    assert doubled and halved  # some norms lie above the row max, some below half of it


def test_blocks_keep_their_row_shape():
    # with lead = 2, a block (a, b, c, d) holds a x b rows of c x d cells
    rng = np.random.default_rng(3)
    cells = rng.uniform(0, 2, (3, 4, 2, 5))
    got, = luxemburg_blocks([(cells, 7.5)], 2, 0.75, phi_n(2))
    assert got.shape == (3, 4)
    assert np.array_equal(got.ravel(), scalar_norms(cells.reshape(12, 10), 0.75, 7.5, phi_n(2)))


def test_one_unbounded_row_in_a_ragged_batch_raises():
    jump = YoungFunction(lambda t: np.where(np.asarray(t) > 0, np.inf, 0.0), label="jump")
    blocks = [(np.zeros((3, k)), 1.0) for k in (1, 4, 9)]
    blocks[1][0][2, 3] = 0.5
    with pytest.raises(MeasureError, match="unbounded"):
        luxemburg_blocks(blocks, 1, 1.0, jump)


def test_norm_is_of_the_absolute_values():
    assert np.array_equal(norms([[-3.0, 1.0]], 1.0, 2.0, phi_n(2)),
                          norms([[3.0, 1.0]], 1.0, 2.0, phi_n(2)))


@pytest.mark.parametrize("cell", [-math.inf, math.inf])
def test_infinite_cell_raises(cell):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeasureError, match="non-finite"):
            norms([[cell, 1.0]], 1.0, 2.0, phi_n(2))


MEASURES = {
    "zero total": (1.0, np.array([3.0, 0.0])),
    "NaN total": (1.0, np.array([3.0, math.nan])),
    "inf total": (1.0, math.inf),
    "NaN cell": (math.nan, 3.0),
    "zero cell": (0.0, 3.0),
    "negative cell": (-1.0, 3.0),
    "inf cell": (math.inf, 3.0),
}


@pytest.mark.parametrize("cell_measure,total", MEASURES.values(), ids=MEASURES)
def test_nonpositive_measure_raises(cell_measure, total):
    # each measure must be positive and finite
    with pytest.raises(MeasureError, match="positive measure"):
        norms(np.ones((2, 3)), cell_measure, total, phi_n(2))


@pytest.mark.parametrize("phi", PHIS, ids=lambda p: p.label)
def test_one_row_call_is_the_scalar_bisection(phi):
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1.0, 1e6):
        vals = rng.uniform(0, scale, 7)
        assert luxemburg_norm_values(vals, 0.5, 3.5, phi) == scalar_norm(vals, 0.5, 3.5, phi)


def test_small_values_beside_a_large_one():
    # each row is scaled by a power of two so that its maximum lies in
    # [0.5, 1): the norm 2.5e-303 of the row of 1e-299 and that of the row
    # of 1e10 in the same call each keep their own scale
    vals = np.array([[1e10, 0.0, 0.0, 0.0], [1e-299, 0.0, 0.0, 0.0]])
    got = norms(vals, 1.0, 4000.0, power(1.0))
    assert np.allclose(got, [2.5e6, 2.5e-303], rtol=1e-11, atol=0.0)


def test_norm_far_below_the_row_max_takes_few_phi_calls():
    # under Phi(t) = 1e-305 t each norm lies about 1013 binades below its
    # row's max, where the search starts: lo steps down one binade, then 2,
    # 4, ..., so it passes the norm in about ten steps, and the bisection of
    # the last step's bit patterns takes at most 63 more
    calls = []
    tiny = YoungFunction(lambda t: calls.append(1) or 1e-305 * np.asarray(t), label="1e-305 t")
    vals = np.random.default_rng(31).uniform(0.5, 1.0, (50, 8))
    got = norms(vals, 1.0, 8.0, tiny)
    assert len(calls) <= 2 * 64
    assert np.array_equal(got, scalar_norms(vals, 1.0, 8.0, tiny))
    assert np.allclose(got, 1e-305 * vals.mean(axis=1), rtol=1e-12, atol=0.0)


# --- the certificate ---------------------------------------------------------

CERTIFIED = PHIS + [psi_n(2), phi_n_iter(2, 2), l_log_l(2)]


def _mean(vals, weight, phi, lam):
    """The solver's mean at lam: one Phi call, the pairwise sum, the weight."""
    with np.errstate(over="ignore"):
        return float(np.sum(phi.eval(vals / lam))) * weight


@pytest.mark.parametrize("phi", CERTIFIED, ids=lambda p: p.label)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 300), exponent=st.integers(-300, 300))
def test_every_norm_is_certified(phi, seed, k, exponent):
    # mean(b) <= 1 < mean(the double below b), on rows of k cells at scales
    # from 1e-300 to 1e300, each row with its own set measure
    rng = np.random.default_rng(seed)
    vals = _rows(rng, 3, k, 10.0**exponent)
    vals[0, 0] = 10.0**exponent  # a nonzero row
    totals = k * 10.0 ** rng.uniform(-1, 1, 3)
    got = norms(vals, 1.0, totals, phi)
    for row, total, b in zip(vals, totals, got):
        if not row.any():
            assert b == 0.0
            continue
        assert _mean(row, 1.0 / total, phi, b) <= 1.0 < _mean(row, 1.0 / total, phi, np.nextafter(b, 0.0))


@pytest.mark.parametrize("phi", PHIS, ids=lambda p: p.label)
def test_norm_lies_below_the_bracket_within_its_width(phi):
    # the bracket stopped at a relative width of 1e-12 above the least
    # double that satisfies, so every norm moved down by at most that
    rng = np.random.default_rng(29)
    for scale in (1e-6, 1.0, 1e6):
        vals = _rows(rng, 30, 12, scale)
        vals[:, 0] = scale
        for row, b in zip(vals, norms(vals, 1.0, 12.0, phi)):
            was = bracket_norm(row, 1.0, 12.0, phi)
            assert was / (1.0 + 1e-12) <= b <= was


def _exact_norm(vals, total, s):
    """The least double c with (1/total) sum (v/c)^s <= 1 in exact
    rationals: c^s >= sum v^s / total."""
    target = sum(Fraction(v) ** s for v in vals.tolist()) / Fraction(total)
    c = float(target) ** (1.0 / s)
    while Fraction(c) ** s < target:
        c = float(np.nextafter(c, math.inf))
    while Fraction(float(np.nextafter(c, 0.0))) ** s >= target:
        c = float(np.nextafter(c, 0.0))
    return c


# The solver's mean differs from the exact one by the roundings of the
# quotient (s half-ulps through the power), of the power (about one ulp),
# of the pairwise sum (at most ceil(log2 k) per term, most often far
# fewer), of the weight and of the product. A relative error e of the mean
# moves the crossing by e/s, and b is the first double past the crossing,
# so for k <= 64 the distance is at most 1 + (s/2 + 9)/s ulps, 6.5 for
# s = 2, in the worst case. Measured on 3,000 rows of 1 to 300 cells it
# was at most 3 ulps for t^2 and 2 for t^3.
EXACT_ULPS = 4


@pytest.mark.parametrize("s", [2, 3])
def test_norm_is_within_a_few_ulps_of_the_exact_norm(s):
    rng = np.random.default_rng(17 + s)
    worst = 0
    for _ in range(150):
        k = int(rng.integers(1, 65))
        vals = rng.lognormal(0.0, 1.0 + 2.0 * rng.uniform(), (1, k)) * 10.0 ** rng.integers(-20, 20)
        vals[0, 0] += 1.0
        total = k * rng.uniform(0.3, 3.0)
        b = norms(vals, 1.0, total, power(float(s)))[0]
        c = _exact_norm(vals[0], total, s)
        worst = max(worst, abs(int(np.float64(b).view(np.int64)) - int(np.float64(c).view(np.int64))))
    assert worst <= EXACT_ULPS


# --- the callers: orlicz_maximal and the Young condition ---------------------

GRIDS = [
    ((8,), (0.125,)), ((4, 4), (0.25, 0.25)), ((2, 2, 4), (0.5, 0.5, 0.25)),
    # unequal cells, so the cubes keep some counts per axis and skip others
    ((4, 4), (1.0, 0.6)), ((2, 4, 4), (0.5, 0.3, 0.2)),
]
BASES = [Basis("all"), Basis("dyadic"), Basis("cubes")]


@pytest.mark.parametrize("shape,h", GRIDS, ids=lambda g: str(g))
@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_orlicz_maximal_matches_per_rect_oracle(shape, h, basis, m, alpha):
    rng = np.random.default_rng(len(shape) * 10 + m)
    fs = [GridFunction(shape, h, _rows(rng, 1, int(np.prod(shape)), 3.0)) for _ in range(m)]
    psis = (phi_n(2), l_log_l(1, outer=1.5))[:m]
    q = MaximalQuery(basis=basis, alpha=alpha, m=m, orlicz=psis)
    got = orlicz_maximal(fs, q)
    assert np.array_equal(got.values, orlicz_maximal_oracle(fs, q).values)


# cell sizes that are not powers of two, so measures carry rounding
@pytest.mark.parametrize(
    "shape,h", [((8,), (0.3,)), ((4, 4), (0.3, 0.7)), ((2, 2, 4), (0.6, 0.7, 0.3))],
    ids=lambda g: str(g),
)
@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_young_condition_sup_matches_per_rect_oracle(shape, h, basis):
    rng = np.random.default_rng(len(shape))
    w = GridFunction(shape, h, rng.uniform(0.2, 3.0, shape))
    v = GridFunction(shape, h, rng.uniform(0.2, 3.0, shape))
    fjs = [GridFunction(shape, h, rng.uniform(0, 1, shape)) for _ in range(2)]
    a, b = power(2.5), power(3.0)
    rep = vector_valued_check(fjs, w, v, p=3.0, q=2.0, a_young=a, b_young=b, r=1.5, basis=basis)
    assert rep.skipped is None
    assert rep.stats["young_condition_sup"] == young_sup_oracle(w, v, 2.0, a, b, basis)


@pytest.mark.parametrize("shape,h", GRIDS, ids=lambda g: str(g))
@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_shared_young_function_in_three_slots(monkeypatch, shape, h, basis):
    # Phi_2 is one object in slots 1 and 3, so its two slots share one
    # bisection, and the product still runs in slot order
    calls = []

    def counted(blocks, *args):
        calls.append(len(blocks))
        return luxemburg_blocks(blocks, *args)

    monkeypatch.setattr(orlicz, "luxemburg_blocks", counted)
    rng = np.random.default_rng(len(shape) + 30)
    fs = [GridFunction(shape, h, _rows(rng, 1, int(np.prod(shape)), 3.0)) for _ in range(3)]
    phi2 = phi_n(2)
    q = MaximalQuery(basis=basis, alpha=0.5, m=3, orlicz=(phi2, power(2.5), phi2))
    got = orlicz_maximal(fs, q)
    assert len(calls) == 2 and calls[0] == 2 * calls[1]
    assert np.array_equal(got.values, orlicz_maximal_oracle(fs, q).values)
