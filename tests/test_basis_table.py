"""Basis tables against per-rectangle scalar oracles, compared with ==.

The oracles walk enumerate_basis one Rect at a time with rect_cell_sum and
Python's scalar ``**``; the table code must give the same bits, including
the witness rectangle (the first strict maximum in enumeration order).
"""

import math

import numpy as np
import pytest

from strongmax._kernels import volume_table
from strongmax.grid import (
    RECT_BLOCK,
    Basis,
    GridFunction,
    Rect,
    basis_tables,
    box_min_table,
    build_prefix_sum,
    enumerate_basis,
    rect_cell_sum,
)
from strongmax.verify import _bump_profile
from strongmax.weights import (
    WeightVector,
    ap_constant,
    conj_exponent,
    multi_weight_constant_ap,
    multi_weight_constant_apq,
    power_bump_check,
    power_weight_grid,
    power_weight_profile,
)

# (shape, cell_size); cubes need equal physical sides, so cell sizes are equal
GRIDS = [
    ((7,), (1 / 7,)),
    ((8,), (0.125,)),
    ((4, 4), (0.25, 0.25)),
    ((3, 5), (0.25, 0.25)),
    ((4, 2), (0.5, 0.25)),
    ((2, 4, 4), (0.25, 0.25, 0.25)),
    ((3, 2, 2), (0.5, 0.5, 0.5)),
]
BASES = [
    Basis(kind, bounds)
    for kind in ("all", "dyadic", "cubes")
    for bounds in (None, (0.3, 0.75))
]
CASES = [
    (shape, h, b)
    for shape, h in GRIDS
    for b in BASES
    if b.kind != "dyadic" or not any(s & (s - 1) for s in shape)
]


def _ids(case):
    shape, _, b = case
    return f"{'x'.join(map(str, shape))}-{b.kind}-{'bounded' if b.scale_bounds else 'free'}"


def _weights(shape, h, seed):
    rng = np.random.default_rng(seed)
    w1 = GridFunction(shape, h, np.exp(rng.uniform(-2.0, 2.0, shape)))
    w2 = GridFunction(shape, h, rng.uniform(0.1, 5.0, shape) ** 3)
    v = GridFunction(shape, h, np.exp(rng.uniform(-1.0, 1.0, shape)))
    return w1, w2, v


# --- scalar oracles ------------------------------------------------------------


def _avg(f: GridFunction, values: np.ndarray):
    p = build_prefix_sum(f.with_values(values))
    return lambda r: rect_cell_sum(p, r) / float(np.prod(r.cell_counts()))


def _first_max(f: GridFunction, basis: Basis, value):
    best, witness = -math.inf, None
    for r in enumerate_basis(basis, f.shape, f.cell_size):
        v = value(r)
        if v > best:
            best, witness = v, r
    return best, witness


def oracle_ap(w, p, basis):
    pp = conj_exponent(p)
    avg_w, avg_s = _avg(w, w.values), _avg(w, w.values ** (1.0 - pp))
    return _first_max(w, basis, lambda r: avg_w(r) * avg_s(r) ** (p / pp))


def oracle_apq(wv, basis):
    g0 = wv.weights[0]
    avg_nu_q = _avg(g0, wv.nu() ** wv.q)

    def val(r):
        out = avg_nu_q(r) ** (1.0 / wv.q)
        for w, pi in zip(wv.weights, wv.ps):
            if pi == 1.0:
                out *= 1.0 / float(np.min(w.values[r.slices()]))
            else:
                ppi = conj_exponent(pi)
                out *= _avg(w, w.values ** (-ppi))(r) ** (1.0 / ppi)
        return out

    return _first_max(g0, basis, val)


def oracle_apvec(wv, basis):
    g0 = wv.weights[0]
    p = wv.p
    avg_nu_hat = _avg(g0, wv.nu_hat())

    def val(r):
        out = avg_nu_hat(r)
        for w, pi in zip(wv.weights, wv.ps):
            if pi == 1.0:
                out *= (1.0 / float(np.min(w.values[r.slices()]))) ** p
            else:
                ppi = conj_exponent(pi)
                out *= _avg(w, w.values ** (1.0 - ppi))(r) ** (p / ppi)
        return out

    return _first_max(g0, basis, val)


def oracle_bump(wv, v, r_bump, basis):
    g0 = wv.weights[0]
    vol_exp = wv.alpha / g0.dims + 1.0 / wv.q - 1.0 / wv.p
    avg_v = _avg(g0, v.values)
    terms = []
    for w, pi in zip(wv.weights, wv.ps):
        ppi = conj_exponent(pi)
        terms.append((1.0 / (r_bump * ppi), _avg(w, w.values ** ((1.0 - ppi) * r_bump))))

    def val(rect):
        out = rect.volume(g0.cell_size) ** vol_exp * avg_v(rect) ** (1.0 / wv.q)
        for e, avg in terms:
            out *= avg(rect) ** e
        return out

    return _first_max(g0, basis, val)


# --- the table itself ------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_table_rows_follow_enumeration_order(case):
    shape, h, basis = case
    rows = [t.rect(j) for t in basis_tables(basis, shape, h) for j in range(len(t))]
    assert rows == list(enumerate_basis(basis, shape, h))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_table_quantities_match_rect_methods(case):
    shape, h, basis = case
    w1, _, _ = _weights(shape, h, 5)
    pre = build_prefix_sum(w1)
    mins = box_min_table(w1.values)
    for t in basis_tables(basis, shape, h):
        rects = [t.rect(j) for j in range(len(t))]
        assert t.cell_sums(pre).tolist() == [rect_cell_sum(pre, r) for r in rects]
        volumes = volume_table(shape, h)[tuple((t.cell_counts() - 1).T)]
        assert volumes.tolist() == [r.volume(h) for r in rects]
        assert t.n_cells().tolist() == [float(np.prod(r.cell_counts())) for r in rects]
        assert t.cell_mins(mins).tolist() == [float(np.min(w1.values[r.slices()])) for r in rects]


def test_large_basis_comes_in_blocks():
    shape = (300,)  # 45150 intervals
    tables = list(basis_tables(Basis("all"), shape))
    assert len(tables) > 1
    assert all(len(t) <= RECT_BLOCK for t in tables)
    lo = np.concatenate([t.lo for t in tables])[:, 0]
    hi = np.concatenate([t.hi for t in tables])[:, 0]
    want = [(r.lo[0], r.hi[0]) for r in enumerate_basis(Basis("all"), shape)]
    assert list(zip(lo.tolist(), hi.tolist())) == want


# --- constants ---------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_ap_constant_bit_equal_to_oracle(case):
    shape, h, basis = case
    w1, w2, _ = _weights(shape, h, 1)
    for w, p in ((w1, 1.7), (w2, 3.1)):
        assert ap_constant(w, p, basis, return_witness=True) == oracle_ap(w, p, basis)
    # every rect ties at exactly 1.0: the witness is the first one enumerated
    ones = w1.with_values(np.ones(shape))
    first = next(enumerate_basis(basis, shape, h), None)
    assert ap_constant(ones, 2.0, basis, return_witness=True) == oracle_ap(ones, 2.0, basis)
    assert ap_constant(ones, 2.0, basis, return_witness=True)[1] == first


@pytest.mark.parametrize("ps", [(2.0, 3.0), (1.0, 2.5), (1.5, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_multi_weight_constants_bit_equal_to_oracle(case, ps):
    shape, h, basis = case
    w1, w2, _ = _weights(shape, h, 2)
    wv = WeightVector((w1, w2), ps, q=1.7, alpha=0.3)
    assert multi_weight_constant_apq(wv, basis) == oracle_apq(wv, basis)[0]
    assert multi_weight_constant_ap(wv, basis) == oracle_apvec(wv, basis)[0]


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_power_bump_bit_equal_to_oracle(case):
    shape, h, basis = case
    w1, w2, v = _weights(shape, h, 3)
    wv = WeightVector((w1, w2), (2.0, 3.0), q=1.7, alpha=0.3)
    rep = power_bump_check(wv, v, 1.5, basis)
    assert (rep["constant"], rep["witness"]) == oracle_bump(wv, v, 1.5, basis)


def test_empty_basis_gives_minus_inf_and_no_witness():
    w = GridFunction((4,), (0.25,), np.arange(1.0, 5.0))
    assert ap_constant(w, 2.0, Basis("all", (2.0, 3.0)), return_witness=True) == (-math.inf, None)


def test_overflowing_power_gives_inf():
    # avg(w^(1-p')) = 1e-310**-0.5 ~ 3e154, and its square leaves the double
    # range: the constant is +inf (>= CAP) where a scalar ** would raise
    w = GridFunction((2,), (1.0,), np.array([1e-310, 1.0]))
    with pytest.raises(OverflowError):
        oracle_ap(w, 3.0, Basis("all"))
    assert ap_constant(w, 3.0, Basis("all")) == math.inf


# --- origin-anchored profiles ---------------------------------------------------


def oracle_power_weight_profile(alpha, p, n, depth):
    pp = conj_exponent(p)
    profile = []
    for j in range(2, depth + 1):
        ca = build_prefix_sum(power_weight_grid(alpha, n, 2**j))
        cb = build_prefix_sum(power_weight_grid(alpha * (1.0 - pp), n, 2**j))
        best = 0.0
        for a_vec in np.ndindex(*([j + 1] * n)):
            r = Rect((0,) * n, tuple(2 ** (j - a) - 1 for a in a_vec))
            ncells = float(np.prod(r.cell_counts()))
            best = max(best, rect_cell_sum(ca, r) / ncells * (rect_cell_sum(cb, r) / ncells) ** (p / pp))
        profile.append(best)
    return profile


def oracle_bump_profile(a, c, p, q, r, depth):
    pp = p / (p - 1.0)
    prof = []
    for j in range(3, depth + 1):
        cw = build_prefix_sum(power_weight_grid(a * (1.0 - pp) * r, 1, 2**j))
        cv = build_prefix_sum(power_weight_grid(c, 1, 2**j))
        best = 0.0
        for k in range(j + 1):
            rect = Rect((0,), (2 ** (j - k) - 1,))
            ncells = float(rect.cell_counts()[0])
            val = (rect_cell_sum(cv, rect) / ncells) ** (1.0 / q) * (
                rect_cell_sum(cw, rect) / ncells
            ) ** (1.0 / (r * pp))
            best = max(best, val)
        prof.append(best)
    return prof


@pytest.mark.parametrize(
    "alpha,p,n,depth",
    [(0.5, 2.0, 1, 10), (-0.7, 1.5, 1, 9), (1.3, 3.0, 2, 6), (-0.5, 2.0, 2, 6), (0.4, 2.5, 3, 4)],
)
def test_power_weight_profile_bit_equal_to_oracle(alpha, p, n, depth):
    assert power_weight_profile(alpha, p, n, depth) == oracle_power_weight_profile(alpha, p, n, depth)


@pytest.mark.parametrize("r", [1.05, 1.5, 2.5])
def test_bump_profile_bit_equal_to_oracle(r):
    assert _bump_profile(0.5, 0.6, 2.0, 2.0, r, 12) == oracle_bump_profile(0.5, 0.6, 2.0, 2.0, r, 12)
