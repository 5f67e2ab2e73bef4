import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongmax.grid import (
    Basis,
    GridError,
    GridFunction,
    Rect,
    anchored_box_sums,
    build_prefix_sum,
    enumerate_basis,
    prefix_sum_of,
    random_rect,
    read_grid,
    rect_average,
    rect_cell_sum,
    rect_integral,
    rect_integral_direct,
    write_grid,
)


def gf(values, h=None):
    values = np.asarray(values, dtype=np.float64)
    h = h or (1.0,) * values.ndim
    return GridFunction(values.shape, h, values)


class TestGridFunction:
    def test_rejects_negative_values(self):
        with pytest.raises(GridError):
            gf([[1.0, -1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(GridError):
            gf([np.inf, 1.0])

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_a_cell_size_that_is_not_positive_and_finite(self, h):
        with pytest.raises(GridError, match="cell_size entries must be positive and finite"):
            GridFunction((2, 2), (1.0, h), np.ones((2, 2)))

    def test_rejects_dims_above_three(self):
        with pytest.raises(GridError):
            GridFunction((2, 2, 2, 2), (1, 1, 1, 1), np.ones((2, 2, 2, 2)))

    def test_total_integral(self):
        f = gf([[1.0, 2.0], [3.0, 4.0]], h=(0.5, 0.5))
        assert f.total_integral() == pytest.approx(10 * 0.25)


class TestEnumeration:
    def test_all_rects_1d_count(self):
        # N=4: 4+3+2+1 = 10 intervals
        rects = list(enumerate_basis(Basis("all"), (4,), (1.0,)))
        assert len(rects) == 10

    def test_all_rects_no_duplicates(self):
        rects = list(enumerate_basis(Basis("all"), (3, 4), (1.0, 1.0)))
        assert len(rects) == len(set(rects))
        assert len(rects) == 6 * 10

    def test_dyadic_1d_count(self):
        # N=4: four singletons + [0,1],[2,3] + [0,3] = 7
        rects = list(enumerate_basis(Basis("dyadic"), (4,), (1.0,)))
        assert len(rects) == 7

    def test_dyadic_requires_power_of_two(self):
        with pytest.raises(GridError):
            list(enumerate_basis(Basis("dyadic"), (6,), (1.0,)))

    def test_dyadic_subset_of_all(self):
        allr = set(enumerate_basis(Basis("all"), (4, 8), (1.0, 1.0)))
        dy = set(enumerate_basis(Basis("dyadic"), (4, 8), (1.0, 1.0)))
        assert dy <= allr

    def test_cubes_on_square_grid(self):
        # 2x2 uniform grid: four 1x1 cubes and one 2x2 cube
        rects = list(enumerate_basis(Basis("cubes"), (2, 2), (1.0, 1.0)))
        assert len(rects) == 5

    def test_cubes_respect_physical_size(self):
        # anisotropic cells h=(1, 2): only 2x1-cell rects are cubes (plus none 1x1)
        rects = list(enumerate_basis(Basis("cubes"), (4, 2), (2.0, 1.0)))
        for r in rects:
            spans = [(hi - lo + 1) * h for lo, hi, h in zip(r.lo, r.hi, (2.0, 1.0))]
            assert max(spans) - min(spans) < max(2.0, 1.0)

    def test_all_rects_within_bounds(self):
        for r in enumerate_basis(Basis("all"), (3, 5), (1.0, 1.0)):
            assert r.within((3, 5))


class TestPrefixSums:
    def test_matches_direct_on_known_grid(self):
        f = gf([[1, 2], [3, 4]])
        p = build_prefix_sum(f)
        r = Rect((0, 0), (1, 1))
        assert rect_cell_sum(p, r) == 10.0
        assert rect_integral(p, r) == pytest.approx(rect_integral_direct(f, r))
        assert rect_average(p, Rect((0, 0), (0, 1))) == pytest.approx(1.5)

    def test_cell_sum_leaves_no_reference_cycle(self):
        # a cycle through the prefix sums would keep them alive until the
        # cyclic collector runs, and a large grid's sums raise peak memory
        p = build_prefix_sum(gf(np.ones((4, 4, 4))))
        gc.disable()
        try:
            assert rect_cell_sum(p, Rect((0, 1, 2), (3, 2, 2))) == 8.0
            ref = weakref.ref(p.cum)
            del p
            assert ref() is None
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_prefix_vs_direct_random(self, data):
        ndim = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, 6)) for _ in range(ndim))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        f = gf(rng.uniform(0, 5, shape), h=tuple(rng.uniform(0.1, 2.0, ndim)))
        p = build_prefix_sum(f)
        lo = tuple(int(rng.integers(0, s)) for s in shape)
        hi = tuple(int(rng.integers(l, s)) for l, s in zip(lo, shape))
        r = Rect(lo, hi)
        direct = rect_integral_direct(f, r)
        assert rect_integral(p, r) == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestAnchoredBoxSums:
    @pytest.mark.parametrize("shape,n", [((16, 16), 2), ((32, 32), 2), ((256, 256), 2), ((8, 8, 8), 3),
                                         ((128, 128, 128), 3), ((64,), 1), ((37, 53), 2), ((3, 16, 16), 2),
                                         ((4, 9, 5, 6), 3)])
    def test_the_prefix_sum_entries_bit_for_bit(self, shape, n):
        # leading axes are batch members
        values = np.random.default_rng(len(shape) + shape[-1]).lognormal(0.0, 2.0, shape)
        lmax = int(math.log2(min(shape[-n:])))
        cum = prefix_sum_of(values, shape[-n:], (1.0,) * n).cum
        want = cum[(...,) + np.ix_(*[2 ** np.arange(lmax + 1)] * n)]
        assert anchored_box_sums(values, n, lmax).tobytes() == want.tobytes()

    def test_a_largest_box_past_the_double_range_raises(self):
        with pytest.raises(GridError, match="leave the double range"):
            anchored_box_sums(np.full((4, 4), 1e308), 2, 2)
        # cells outside the largest box are not read
        values = np.ones((5, 5))
        values[4, :] = values[:, 4] = 1e308
        assert anchored_box_sums(values, 2, 2)[-1, -1] == 16.0


class TestIO:
    @pytest.mark.parametrize("binary", [False, True])
    def test_roundtrip(self, tmp_path, binary):
        rng = np.random.default_rng(3)
        f = GridFunction((3, 4), (0.5, 0.25), rng.uniform(0, 2, (3, 4)), origin=(1.0, -2.0))
        path = str(tmp_path / "g.grid")
        write_grid(f, path, binary=binary)
        g = read_grid(path)
        assert g.shape == f.shape
        assert g.cell_size == f.cell_size
        assert g.origin == f.origin
        assert np.array_equal(g.values, f.values)  # repr/binary both exact

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("nonsense\n")
        with pytest.raises(GridError):
            read_grid(str(path))

    def test_truncated_binary_body_names_data(self, tmp_path):
        f = GridFunction((3, 4), (0.5, 0.25), np.arange(12.0))
        path = tmp_path / "g.grid"
        write_grid(f, str(path), binary=True)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(GridError, match=r"data holds 91 bytes, shape \(3, 4\) needs 96"):
            read_grid(str(path))

    @pytest.mark.parametrize("key", ["dims", "shape", "cell_size"])
    def test_missing_header_line_names_field(self, tmp_path, key):
        f = GridFunction((3, 4), (0.5, 0.25), np.arange(12.0))
        path = tmp_path / "g.grid"
        write_grid(f, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith(key + " ")))
        with pytest.raises(GridError, match=f"no '{key}' line"):
            read_grid(str(path))

    def test_bad_header_entry_names_field(self, tmp_path):
        f = GridFunction((3,), (0.5,), np.arange(3.0))
        path = tmp_path / "g.grid"
        write_grid(f, str(path))
        path.write_text(path.read_text().replace("shape 3", "shape three"))
        with pytest.raises(GridError, match="bad 'shape' entry 'three'"):
            read_grid(str(path))

    def test_short_csv_body_is_rejected(self, tmp_path):
        f = GridFunction((3, 4), (0.5, 0.25), np.arange(12.0))
        path = tmp_path / "g.grid"
        write_grid(f, str(path))
        path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
        with pytest.raises(GridError, match="data holds 8 values"):
            read_grid(str(path))


class TestRect:
    def test_volume_and_counts(self):
        r = Rect((1, 0), (2, 3))
        assert r.cell_counts() == (2, 4)
        assert r.volume((0.5, 2.0)) == pytest.approx(1.0 * 8.0)

    def test_invalid_bounds(self):
        with pytest.raises(GridError):
            Rect((2,), (1,))

    @pytest.mark.parametrize("lo,hi", [((0,), (0,)), ((2, 3), (5, 3)), ((1, 0, 4), (6, 2, 7))])
    def test_random_rect_stays_in_its_box(self, lo, hi):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = random_rect(rng, lo, hi)
            assert all(a <= l <= h <= b for a, l, h, b in zip(lo, r.lo, r.hi, hi))

    def test_random_rect_draw_order(self):
        # every lowest cell first, then every highest cell, axis by axis
        r = random_rect(np.random.default_rng(9), (1, 2), (6, 9))
        rng = np.random.default_rng(9)
        lo = (int(rng.integers(1, 7)), int(rng.integers(2, 10)))
        assert r == Rect(lo, (int(rng.integers(lo[0], 7)), int(rng.integers(lo[1], 10))))
