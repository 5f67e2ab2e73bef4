import math

import numpy as np
import pytest

from strongmax.grid import GridError, GridFunction, Rect, random_rect
from strongmax.covering import (
    PACKING_DELTAS,
    RectFamily,
    SelectionError,
    cf_select,
    disjointification_bound_check,
    is_scattered,
    scattered_select,
)


def fam_of(shape, rects, h=None):
    h = h or (1.0,) * len(shape)
    return RectFamily(shape, h, tuple(rects))


class TestRectFamily:
    def test_empty_rejected(self):
        with pytest.raises(SelectionError):
            fam_of((4,), [])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(GridError):
            fam_of((4,), [Rect((0,), (4,))])

    def test_has_no_payload_field(self):
        with pytest.raises(TypeError):
            RectFamily((4,), (1.0,), (Rect((0,), (1,)),), payload=("a",))

    def test_union_measure(self):
        f = fam_of((8,), [Rect((0,), (3,)), Rect((2,), (5,))], h=(0.5,))
        assert f.union_measure() == pytest.approx(6 * 0.5)
        assert f.union_measure([0]) == pytest.approx(4 * 0.5)


class TestCfSelect:
    def test_identical_rects_keep_one(self):
        r = Rect((1, 1), (3, 3))
        sel = cf_select(fam_of((6, 6), [r, r, r]))
        assert len(sel.kept) == 1
        assert sel.c_emp == pytest.approx(1.0)
        assert sel.scattered_check

    def test_disjoint_all_kept(self):
        rects = [Rect((0, 4 * k), (7, 4 * k + 3)) for k in range(4)]
        sel = cf_select(fam_of((8, 16), rects))
        assert sorted(sel.kept) == [0, 1, 2, 3]
        assert sel.c_emp == pytest.approx(1.0)
        assert np.max(sel.overlap.values) == 1.0

    def test_disjoint_packing_boundary_exact(self):
        # overlap = 1 everywhere on the union: the packing integral is
        # e^delta * |union| and feasibility is exactly e^delta <= 2,
        # i.e. delta <= ln 2 = 0.693...
        rects = [Rect((0, 4 * k), (7, 4 * k + 3)) for k in range(4)]
        sel = cf_select(fam_of((8, 16), rects))
        union = sel.union_after
        for row in sel.packing["deltas"]:
            expect = math.exp(row["delta"]) * union
            assert row["integral"] == pytest.approx(expect, rel=1e-12)
            assert row["ok"] is (math.exp(row["delta"]) <= 2.0 + 1e-9)
        assert sel.packing["max_feasible_delta"] == pytest.approx(0.6)

    def test_nested_keeps_largest_only(self):
        rects = [Rect((0,), (7,)), Rect((1,), (4,)), Rect((2,), (3,))]
        sel = cf_select(fam_of((8,), rects), theta=0.5)
        assert sel.kept == [0]

    def test_kept_in_volume_descending_order(self):
        rects = [Rect((6,), (7,)), Rect((0,), (3,))]
        sel = cf_select(fam_of((8,), rects))
        assert sel.kept == [1, 0]  # larger rect first

    def test_n1_packing_skipped(self):
        sel = cf_select(fam_of((8,), [Rect((0,), (3,))]))
        assert sel.packing["max_feasible_delta"] is None
        assert "note" in sel.packing

    def test_theta_range(self):
        f = fam_of((4,), [Rect((0,), (1,))])
        for theta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(SelectionError):
                cf_select(f, theta)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        rects = []
        for _ in range(80):
            lo = [int(rng.integers(0, 16)) for _ in range(2)]
            hi = [int(rng.integers(l, 16)) for l in lo]
            rects.append(Rect(tuple(lo), tuple(hi)))
        f = fam_of((16, 16), rects)
        a, b = cf_select(f), cf_select(f)
        assert a.kept == b.kept
        assert a.packing == b.packing


class TestScattered:
    def test_definition_exact(self):
        # second interval overlaps the first in exactly half of itself
        rects = [Rect((0,), (3,)), Rect((2,), (5,))]
        f = fam_of((8,), rects)
        assert is_scattered(f, [0, 1], 0.5)
        assert not is_scattered(f, [0, 1], 0.49)

    def test_select_input_order(self):
        # processed in input order: the small first rect is kept and the
        # big second one rejected because 3/4 of it is already covered
        rects = [Rect((0,), (5,)), Rect((0,), (7,))]
        sel = scattered_select(fam_of((8,), rects), lam=0.5)
        assert sel.kept == [0]

    def test_disjoint_chain_constant_one_or_less_inputs(self):
        rects = [Rect((0,), (1,)), Rect((4,), (5,))]
        sel = scattered_select(fam_of((8,), rects), lam=0.5)
        assert sel.kept == [0, 1]
        assert sel.scattered_check
        assert math.isfinite(sel.chain_constant)
        assert sel.chain_constant >= 0.0

    def test_chain_constant_weighted_vs_unweighted(self):
        rng = np.random.default_rng(3)
        rects = []
        for _ in range(30):
            lo = [int(rng.integers(0, 12)) for _ in range(2)]
            hi = [int(rng.integers(l, 12)) for l in lo]
            rects.append(Rect(tuple(lo), tuple(hi)))
        f = fam_of((12, 12), rects)
        w = GridFunction((12, 12), (1.0, 1.0), rng.uniform(0.5, 2.0, (12, 12)))
        s1 = scattered_select(f, 0.5)
        s2 = scattered_select(f, 0.5, w)
        assert s1.kept == s2.kept  # selection ignores w; only masses use it
        assert math.isfinite(s1.chain_constant)
        assert math.isfinite(s2.chain_constant)

    def test_disjointification_bound(self):
        rng = np.random.default_rng(5)
        rects = []
        for _ in range(50):
            lo = [int(rng.integers(0, 20)) for _ in range(2)]
            hi = [int(rng.integers(l, min(l + 6, 20))) for l in lo]
            rects.append(Rect(tuple(lo), tuple(hi)))
        f = fam_of((20, 20), rects)
        for lam in (0.3, 0.5, 0.7):
            sel = scattered_select(f, lam)
            assert is_scattered(f, sel.kept, lam)
            assert disjointification_bound_check(f, sel.kept, lam)

    @pytest.mark.parametrize("side", [1e-10, 1.0, 1e10])
    def test_disjointification_bound_on_any_cell_size(self, side):
        # two identical 2x2 rects: the union is 4 cells against 0.9 * 8 =
        # 7.2 for lam = 0.1, and 4 against 0.5 * 8 for lam = 0.5; the
        # cell volume cancels, so no absolute slack may decide
        f = fam_of((4, 4), [Rect((0, 0), (1, 1))] * 2, h=(side, side))
        assert not disjointification_bound_check(f, [0, 1], 0.1)
        assert disjointification_bound_check(f, [0, 1], 0.5)

    def test_c_emp_at_least_one(self):
        rng = np.random.default_rng(9)
        rects = []
        for _ in range(40):
            lo = [int(rng.integers(0, 10))]
            hi = [int(rng.integers(lo[0], 10))]
            rects.append(Rect(tuple(lo), tuple(hi)))
        f = fam_of((10,), rects)
        assert cf_select(f).c_emp >= 1.0 - 1e-12
        assert scattered_select(f).c_emp >= 1.0 - 1e-12


def random_family(seed, shape, h, count):
    """count random rects on the grid and a weight in [0.5, 2) on it."""
    rng = np.random.default_rng(seed)
    rects = [random_rect(rng, (0,) * len(shape), tuple(s - 1 for s in shape)) for _ in range(count)]
    w = GridFunction(shape, h, rng.uniform(0.5, 2.0, shape))
    return fam_of(shape, rects, h=(h,) * len(shape)), w


def chain_constant_oracle(fam, kept, w):
    """The minimal C of the chain over every pair, each union from fresh masks."""
    wv = np.ones(fam.shape) if w is None else w.values

    def mass(indices):
        mask = np.zeros(fam.shape, dtype=bool)
        for s in indices:
            mask[fam.rects[s].slices()] = True
        return float(np.sum(wv[mask])) * fam.cell_volume

    c = 0.0
    for i in range(len(fam)):
        for j in range(i + 1, len(fam) + 1):
            lhs = mass(range(j))
            rhs = mass(range(i)) + mass([s for s in kept if i <= s < j])
            if lhs > 0:
                c = math.inf if rhs == 0 else max(c, lhs / rhs)
    return c


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("weighted", [False, True])
def test_chain_constant_matches_oracle(seed, weighted):
    shape = ((9,), (6, 5), (3, 4, 3))[seed % 3]
    fam, w = random_family(seed, shape, (0.3, 0.25, 1.0, 0.7)[seed % 4], 4 + seed)
    w = w if weighted else None
    for lam in (0.3, 0.5, 0.7):
        sel = scattered_select(fam, lam, w)
        want = chain_constant_oracle(fam, sel.kept, w)
        assert sel.chain_constant == pytest.approx(want, rel=1e-12)


# float.hex of the chain constant and of both unions, pinned so that a
# change in the order the masses are summed in shows
PINNED_CHAINS = [
    ((6, (12,), 0.3, 15), False, [0, 2, 8, 12],
     "0x1.ccccccccccccdp+0", "0x1.8000000000000p+1", "0x1.0cccccccccccdp+1"),
    ((6, (12,), 0.3, 15), True, [0, 2, 8, 12],
     "0x1.d23c3caceb18cp+0", "0x1.8000000000000p+1", "0x1.0cccccccccccdp+1"),
    ((2, (8, 8), 0.25, 20), False, [0, 1, 2, 3, 4, 5, 6, 7, 10, 15],
     "0x1.0b60b60b60b61p+0", "0x1.8800000000000p+1", "0x1.7800000000000p+1"),
    ((2, (8, 8), 0.25, 20), True, [0, 1, 2, 3, 4, 5, 6, 7, 10, 15],
     "0x1.0a28b6a9d7ce7p+0", "0x1.8800000000000p+1", "0x1.7800000000000p+1"),
    ((3, (4, 5, 6), 0.7, 12), False, [0, 1, 2, 3, 4, 5, 8, 9],
     "0x1.1111111111111p+0", "0x1.909fbe76c8b42p+4", "0x1.8b22d0e560417p+4"),
    ((3, (4, 5, 6), 0.7, 12), True, [0, 1, 2, 3, 4, 5, 8, 9],
     "0x1.110e3944abab8p+0", "0x1.909fbe76c8b42p+4", "0x1.8b22d0e560417p+4"),
]


@pytest.mark.parametrize("args,weighted,kept,chain,before,after", PINNED_CHAINS)
def test_chain_constant_bits_are_pinned(args, weighted, kept, chain, before, after):
    fam, w = random_family(*args)
    sel = scattered_select(fam, 0.5, w if weighted else None)
    assert sel.kept == kept
    assert [sel.chain_constant.hex(), sel.union_before.hex(), sel.union_after.hex()] == [chain, before, after]


def test_packing_deltas_constant():
    assert PACKING_DELTAS[0] == pytest.approx(0.1)
    assert PACKING_DELTAS[-1] == pytest.approx(2.0)
    assert len(PACKING_DELTAS) == 20
