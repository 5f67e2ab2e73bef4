import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strongmax import _kernels
from strongmax import grid as grid_module
from strongmax import orlicz as orlicz_module
from strongmax.corpus import make_corpus
from strongmax.grid import Basis, GridError, GridFunction, Rect, basis_sizes, build_prefix_sum, rect_cell_sum
from strongmax.maximal import (
    MaximalQuery,
    _maximal,
    level_set_measure,
    lp_norm,
    maximal_reference_scan,
    multilinear_fractional_maximal,
    orlicz_maximal,
    strong_maximal,
)
from strongmax.young import identity, l_log_l, phi_n, power


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

    def test_no_functions_is_error(self):
        with pytest.raises(GridError, match="need at least one function"):
            multilinear_fractional_maximal([], MaximalQuery(basis=ALL, m=1))

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
        assert np.array_equal(fast.values, slow.values)  # bit-identical up to the sign of zero


    @pytest.mark.parametrize("shape", [(16,), (8, 8), (4, 8), (2, 4, 4), (1, 8), (4, 1, 2)])
    @pytest.mark.parametrize(
        "basis,hs",
        [pytest.param(Basis(kind), (0.3,), id=kind) for kind in ["dyadic", "cubes"]]
        # unequal cells: the cubes' counts per axis skip values, so the fold
        # windows span more than one count; with the longer cell first, the
        # other axes keep their longer counts
        + [pytest.param(Basis("cubes"), (0.3, 0.7), id="cubes-unequal-cells"),
           pytest.param(Basis("cubes"), (0.7, 0.3), id="cubes-unequal-cells-longer-first"),
           pytest.param(Basis("dyadic"), (0.3, 0.7), id="dyadic-unequal-cells"),
           pytest.param(Basis("all"), (0.3, 0.7), id="all-unequal-cells")],
    )
    @pytest.mark.parametrize("m,alpha", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0)])
    def test_exact_agreement_table_bases(self, shape, basis, hs, m, alpha):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1] + m)
        # with equal sides the cubes basis has cubes past one cell; 0.3 and
        # 0.7 are not powers of two, so the volumes and their powers carry
        # rounding
        h = tuple(hs[k % len(hs)] for k in range(len(shape)))
        fs = [gf(rng.uniform(0, 3, shape), h=h) for _ in range(m)]
        q = MaximalQuery(basis=basis, alpha=alpha, m=m)
        fast = multilinear_fractional_maximal(fs, q)
        slow = maximal_reference_scan(fs, q)
        assert np.array_equal(fast.values, slow.values)  # bit-identical up to the sign of zero

    @pytest.mark.parametrize("count,m", [(2, 1), (1, 2)])
    def test_reference_scan_needs_m_functions(self, count, m):
        with pytest.raises(GridError, match="functions given"):
            maximal_reference_scan([gf(np.ones(4))] * count, MaximalQuery(basis=ALL, m=m))

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
    @pytest.mark.parametrize("kind,seed", [("all", 9), ("dyadic", 0)])
    def test_zero_maxima_are_positive_zero(self, kind, seed):
        # a zero cell sum of the second slot times one of the first that
        # rounding left negative is -0.0; the engine returns +0.0 wherever
        # the maximum is zero, the scan keeps the sign its rect order gives
        rng = np.random.default_rng(seed)
        fs = [gf((rng.uniform(size=(8, 8)) < 0.2) * rng.uniform(0, 5, (8, 8))), gf(np.zeros((8, 8)))]
        q = MaximalQuery(basis=Basis(kind), m=2)
        fast = multilinear_fractional_maximal(fs, q).values
        slow = maximal_reference_scan(fs, q).values
        assert np.signbit(slow).any()
        assert np.array_equal(fast, slow)
        assert not np.signbit(fast).any()

    @pytest.mark.parametrize("kind", ["all", "dyadic", "cubes"])
    @pytest.mark.parametrize("seed", range(50))
    def test_zero_maxima_match_the_scan(self, kind, seed):
        # sparse first slots beside a zero second slot: wherever the scan
        # gives -0.0 (57 of these 150 cases), the engine gives +0.0
        rng = np.random.default_rng(seed)
        fs = [gf((rng.uniform(size=(8, 8)) < 0.2) * rng.uniform(0, 5, (8, 8))), gf(np.zeros((8, 8)))]
        q = MaximalQuery(basis=Basis(kind), m=2)
        fast = multilinear_fractional_maximal(fs, q).values
        assert np.array_equal(fast, maximal_reference_scan(fs, q).values)
        assert not np.signbit(fast).any()

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

    @pytest.mark.parametrize("count", [1, _kernels.BATCH])
    def test_one_dimensional_sweep_memory_is_linear(self, count):
        # an engine that holds all N^2 intervals of 2048 cells at once needs
        # 2048^2 doubles = 32 MB per array; a full batch walks count of them
        rng = np.random.default_rng(7)
        batch = [[gf(rng.uniform(0, 1, 2048), h=(1.0 / 2048,))] for _ in range(count)]
        tracemalloc.start()
        try:
            _maximal(batch, MaximalQuery(basis=ALL), orlicz=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_orlicz_memory_stays_per_chunk(self):
        # the Luxemburg bisection gathers cells a chunk at a time; holding the
        # cells of every size of the all basis on 16x16 at once peaked at 6 MB
        f = gf(np.random.default_rng(9).lognormal(0, 1, (16, 16)), h=(1.0 / 16, 1.0 / 16))
        tracemalloc.start()
        try:
            orlicz_maximal([f], MaximalQuery(basis=ALL, orlicz=(phi_n(2),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_cubes_are_all_intervals_in_one_dimension(self):
        f = gf(np.random.default_rng(8).uniform(0, 3, 512), h=(0.3,))
        cubes = strong_maximal(f, Basis("cubes")).values
        assert np.array_equal(cubes, strong_maximal(f, ALL).values)  # bit-identical


def _brute_force_sweep(fs, e, sizes):
    """Per-rect maximum over the (counts, step) sizes, by the reference
    scan's expressions; where |R|^e overflows or that value is not finite,
    by L^e * prod_k h_k^(e+m) * prod_i S_i (L the cell count, S_i the cell
    sums), the same value formed without the tiny |R|."""
    f0 = fs[0]
    prefixes = [build_prefix_sum(f) for f in fs]
    cellvol = math.prod(f0.cell_size)
    out = np.zeros(f0.shape)
    for counts, step in sizes:
        anchors = [range(0, nk - c + 1, st) for nk, c, st in zip(f0.shape, counts, step)]
        for lo in itertools.product(*anchors):
            r = Rect(lo, tuple(l + c - 1 for l, c in zip(lo, counts)))
            try:
                val = r.volume(f0.cell_size) ** e
            except OverflowError:
                val = math.inf
            for p in prefixes:
                val *= rect_cell_sum(p, r) * cellvol
            if not math.isfinite(val):
                val = float(math.prod(counts)) ** e
                for hk in f0.cell_size:
                    val *= hk ** (e + len(fs))
                for p in prefixes:
                    val *= rect_cell_sum(p, r)
            out[r.slices()] = np.maximum(out[r.slices()], val)
    return out


class TestFold:
    # hand-built size lists, in lexicographic order, whose counts skip
    # values: a step-1 axis then folds windows of more than one count
    @pytest.mark.parametrize(
        "shape,sizes",
        [((8,), [((1,), (1,)), ((3,), (1,)), ((6,), (1,))]),
         ((8,), [((3,), (1,)), ((8,), (1,))]),
         ((6, 7), [((1, 2), (1, 1)), ((1, 5), (1, 1)), ((3, 1), (1, 1)),
                   ((3, 4), (1, 1)), ((3, 7), (1, 1)), ((6, 2), (1, 1))]),
         ((4, 5, 3), [((1, 1, 3), (1, 1, 1)), ((2, 3, 1), (1, 1, 1)),
                      ((2, 3, 2), (1, 1, 1)), ((4, 1, 1), (1, 1, 1))]),
         # steps above 1 on an axis: no running maximum there
         ((8,), [((1,), (1,)), ((2,), (2,)), ((4,), (4,))]),
         ((4, 8), [((1, 2), (1, 2)), ((1, 4), (1, 4)), ((2, 2), (1, 2)), ((4, 1), (1, 1))]),
         # every axis dyadic: the rects of each count tile their axis
         ((4, 8, 2), list(basis_sizes(Basis("dyadic"), (4, 8, 2))))],
        ids=["1d-1-3-6", "1d-3-8", "2d-gaps", "3d-gaps", "1d-steps", "2d-mixed-steps", "3d-dyadic"],
    )
    @pytest.mark.parametrize("m,alpha", [(1, 0.0), (1, 0.5), (2, 1.0)])
    def test_sweep_matches_brute_force(self, shape, sizes, m, alpha):
        rng = np.random.default_rng(len(sizes) * 10 + m)
        h = tuple(rng.uniform(0.3, 1.5, len(shape)))
        # zeros on some cells, so some maxima are zero
        fs = [gf(rng.uniform(0, 3, shape) * (rng.uniform(size=shape) < 0.7), h=h) for _ in range(m)]
        e = alpha / len(shape) - m
        P = np.stack([build_prefix_sum(f).cum for f in fs])[:, None]
        (out,) = _kernels.sweep(P, h, e, sizes)
        assert np.array_equal(out, _brute_force_sweep(fs, e, sizes))  # bit-identical up to the sign of zero
        # a zero maximum is +0.0, whichever count reached it first
        assert not np.signbit(out).any()

    def test_redo_mends_only_the_overflowing_sizes(self):
        # 64 cells of 1e-155, m = 2: |R|^-2 overflows for rects of 1-7 cells
        # only, so the redo form must stand there and the direct value beside
        rng = np.random.default_rng(64)
        h = (1e-155,)
        fs = [gf(rng.uniform(0, 3, 64), h=h) for _ in range(2)]
        sizes = list(basis_sizes(ALL, (64,), h))
        P = np.stack([build_prefix_sum(f).cum for f in fs])[:, None]
        walks = []
        with np.errstate(over="ignore"):
            assert np.array_equal(np.isinf(np.float_power(np.arange(1, 65) * h[0], -2.0)), np.arange(1, 65) <= 7)
        assert np.array_equal(_counted_sweep(P, h, -2.0, sizes, walks)[0], _brute_force_sweep(fs, -2.0, sizes))
        assert len(walks) == 2

    @pytest.mark.parametrize(
        "shape,h,m,walks",
        [((16, 16), (1 / 16, 1 / 16), 1, 1),  # ordinary input: the direct walk alone
         ((16, 16), (1 / 16, 1 / 16), 2, 1),
         ((16,), (1e-160,), 2, 2),  # |R|^-2 overflows: the direct walk, then the redo
         ((4, 4), (1e-160, 1e-160), 1, 1)],  # subnormal cell volume: the redo walk alone
    )
    def test_one_walk_unless_a_value_leaves_the_double_range(self, shape, h, m, walks):
        fs = [gf(np.random.default_rng(m).uniform(0, 3, shape), h=h) for _ in range(m)]
        P = np.stack([build_prefix_sum(f).cum for f in fs])[:, None]
        got = []
        _counted_sweep(P, h, -m, list(basis_sizes(ALL, shape, h)), got)
        assert len(got) == walks


def _chunk_cases():
    # unequal cell sides, and one-cell axes in the last and leading positions
    for shape in [(5, 7), (8, 4), (4, 3, 1), (5, 1), (1, 1, 6), (4, 4, 2), (3, 4, 5)]:
        for kind in ("all", "dyadic", "cubes"):
            if kind == "dyadic" and any(k & (k - 1) for k in shape):
                continue  # the dyadic basis needs power-of-two sides
            for m in (1, 2):
                for alpha in (0.0, 0.5):
                    yield pytest.param(shape, kind, m, alpha, id=f"{shape}-{kind}-m{m}-a{alpha:g}")


class TestChunks:
    """The walk takes the leading-axis rects as rows, a chunk of leading
    count tuples at a time; where the chunks end moves no bit."""

    # 0 gives each leading count tuple a chunk of its own; 64 cells hold a
    # few tuples of these grids, so chunks end inside a run of equal
    # last-axis pairs
    @pytest.mark.parametrize("cap", [0, 64])
    @pytest.mark.parametrize("shape,kind,m,alpha", list(_chunk_cases()))
    def test_chunk_boundaries_match_the_scan(self, monkeypatch, cap, shape, kind, m, alpha):
        monkeypatch.setattr(_kernels, "CHUNK_CELLS", cap)
        rng = np.random.default_rng(len(shape) * 100 + shape[-1] * 10 + m)
        h = tuple(rng.uniform(0.3, 1.5, len(shape)))
        fs = [gf(rng.uniform(0, 3, shape) * (rng.uniform(size=shape) < 0.8), h=h) for _ in range(m)]
        q = MaximalQuery(basis=Basis(kind), alpha=alpha, m=m)
        fast = multilinear_fractional_maximal(fs, q).values
        assert np.array_equal(fast, maximal_reference_scan(fs, q).values)  # bit-identical up to the sign of zero

    @pytest.mark.parametrize("cap", [0, 64, _kernels.CHUNK_CELLS])
    @pytest.mark.parametrize("kind", ["all", "dyadic", "cubes"])
    def test_redo_and_direct_values_in_one_chunk(self, monkeypatch, cap, kind):
        # cells of 1e-78 by 1e-77, m = 2: |R|^-2 overflows for rects of 1-7
        # cells only, so the redo walk takes the redo form there and the
        # direct value beside it; at the default cap the 36 rows of 8x8 are
        # one chunk
        monkeypatch.setattr(_kernels, "CHUNK_CELLS", cap)
        rng = np.random.default_rng(78)
        h = (1e-78, 1e-77)
        fs = [gf(rng.uniform(0, 3, (8, 8)), h=h) for _ in range(2)]
        sizes = list(basis_sizes(Basis(kind), (8, 8), h))
        P = np.stack([build_prefix_sum(f).cum for f in fs])[:, None]
        walks = []
        out = _counted_sweep(P, h, -2.0, sizes, walks)
        assert len(walks) == 2
        assert np.array_equal(out[0], _brute_force_sweep(fs, -2.0, sizes))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("shape,kind,steps", [((64, 64), "all", 5 * 64), ((64, 64), "dyadic", 7),
                                                  ((64, 64), "cubes", 64), ((4096,), "all", 400)])
    def test_last_axis_steps_per_sweep(self, monkeypatch, shape, kind, steps):
        # one leaf call per chunk and last-axis count, and one tile call per
        # tile. On 64^2 with m = 1 a row of the leading axis holds 65 cells,
        # so the 2080 rows of the all basis take 5 chunks of 64 counts, where
        # a walk per count tuple took 4,096 steps; the dyadic basis is one
        # chunk of 7 counts; on the cubes basis of square cells each leading
        # count c offers the one last count c, so each is a chunk of its own.
        # 1-D 4096 is one row: 64 counts (_kernels.BLOCK) and 252 tiles of
        # 1 << 15 cells over the halving levels 64 .. 2048, where a walk by
        # count took 4,096 steps. Every cap gives the same bits.
        f = make_corpus(shape, tuple(1 / k for k in shape), 0, 1)[0]
        fold = _kernels.fold_sizes

        def counted(step):
            return step and (lambda *args: calls.append(args[1]) or step(*args))

        for cap in (_kernels.CHUNK_CELLS, 0):
            calls = []
            monkeypatch.setattr(_kernels, "CHUNK_CELLS", cap)
            monkeypatch.setattr(_kernels, "fold_sizes", lambda shape, sizes, src, narrow, leaf, tile=None: fold(
                shape, sizes, src, narrow, counted(leaf), counted(tile)))
            got = strong_maximal(f, Basis(kind)).values
            if cap:
                assert len(calls) <= steps
                want = got
            assert got.tobytes() == want.tobytes()

    def test_sweep_memory_stays_per_chunk(self):
        # 64^2, m = 2, a full batch: a row of the leading axis holds
        # m * B * 65 cells, and one leading count tuple up to 64 rows; an
        # unchunked gather holds 2 * 8 * 2080 * 65 doubles (17 MB) for the
        # differences alone
        shape, h, B = (64, 64), (1 / 64, 1 / 64), _kernels.BATCH
        fns = make_corpus(shape, h, 0, 2 * B)
        P = np.stack([np.stack([build_prefix_sum(fns[2 * b + i]).cum for b in range(B)]) for i in range(2)])
        sizes = list(basis_sizes(ALL, shape, h))
        # a chunk holds 1 << 15 cells (CHUNK_CELLS), or one leading tuple's
        # rows where they hold more
        chunk = max(1 << 15, 64 * 2 * B * 65)
        tracemalloc.start()
        try:
            _kernels.sweep(P, h, -2.0, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # eight arrays of a chunk's cells (the corners and their difference,
        # a leaf's difference and values, the chunk's folded values), the
        # prefix sums with the last axis first, and the output twice
        assert peak < 8 * (8 * chunk + P.size + 2 * B * 64 * 64)


S = _kernels.BLOCK
HALVES_SIDES = [1, 2, S - 1, S, S + 1, 100, 2 * S - 1, 2 * S + 1, 1000, 4097]


def _halves_cases():
    # every 1-D side around the block and halving boundaries, and one-row
    # grids with leading axes of one cell; the cubes basis offers every
    # interval in 1-D, and on (1, 300) the cubes of the one-cell first side
    for shape in [(n,) for n in HALVES_SIDES] + [(1, 300), (1, 1, 300)]:
        for kind in ("all", "cubes"):
            for m in (1, 2, 3):
                for alpha in (0.0, 0.5):
                    yield pytest.param(shape, kind, m, alpha, id=f"{shape}-{kind}-m{m}-a{alpha:g}")


def _halves_batch(shape, m, count, seed):
    rng = np.random.default_rng(seed)
    h = tuple(rng.uniform(0.3, 1.5, len(shape)))
    batch = [[gf(rng.uniform(0, 3, shape) * (rng.uniform(size=shape) < 0.8), h=h) for _ in range(m)]
             for _ in range(count)]
    batch[0][0] = gf(np.zeros(shape), h=h)  # a zero slot: a zero cell sum beside a rounded one
    return batch


class TestHalves:
    """A chunk of one row whose last axis offers every count folds the
    intervals of more than BLOCK cells by halving, in tiles; the tiles move
    no bit."""

    @pytest.mark.parametrize("shape,kind,m,alpha", list(_halves_cases()))
    def test_tiles_equal_the_fold_by_count(self, monkeypatch, shape, kind, m, alpha):
        # a batch of BATCH + 1 members takes two walks; BLOCK at the side or
        # past it (a multiple of 16, as numpy's buffer size must be) folds
        # every interval by count, as a walk without tiles does
        count = _kernels.BATCH + 1 if shape[-1] <= 1000 else 1
        batch = _halves_batch(shape, m, count, shape[-1] * 10 + m)
        q = MaximalQuery(basis=Basis(kind), alpha=alpha, m=m)
        got = _maximal(batch, q, orlicz=False)
        monkeypatch.setattr(_kernels, "BLOCK", -(-max(shape) // 16) * 16)
        want = _maximal(batch, q, orlicz=False)
        for g, w in zip(got, want):
            assert g.values.tobytes() == w.values.tobytes()
        assert not any(np.signbit(g.values).any() for g in got)

    @pytest.mark.parametrize("n", [S + 1, 2 * S - 1, 2 * S + 1, 3 * S - 2])
    @pytest.mark.parametrize("kind", ["all", "cubes"])
    @pytest.mark.parametrize("m,alpha", [(1, 0.0), (2, 0.5), (3, 0.0)])
    def test_tiles_match_the_scan(self, n, kind, m, alpha):
        (fs,) = _halves_batch((n,), m, 1, n + m)
        q = MaximalQuery(basis=Basis(kind), alpha=alpha, m=m)
        fast = multilinear_fractional_maximal(fs, q).values
        assert np.array_equal(fast, maximal_reference_scan(fs, q).values)  # bit-identical up to the sign of zero

    def test_redo_form_inside_tiles(self):
        # 300 cells of 1e-160, m = 2: |R|^-2 overflows for every interval,
        # so the redo walk forms each value, the tiles' too, from the cell
        # count and the cell sums
        rng = np.random.default_rng(160)
        h = (1e-160,)
        fs = [gf(rng.uniform(0, 3, 300), h=h) for _ in range(2)]
        sizes = list(basis_sizes(ALL, (300,), h))
        P = np.stack([build_prefix_sum(f).cum for f in fs])[:, None]
        walks = []
        out = _counted_sweep(P, h, -2.0, sizes, walks)
        assert len(walks) == 2
        assert np.all(np.isfinite(out))
        assert np.array_equal(out[0], _brute_force_sweep(fs, -2.0, sizes))

    def test_huge_times_tiny_in_one_dimension(self):
        # prefix sums of 1e306 values overflow unless the inputs are scaled by
        # their powers of two, which scale the result back without rounding
        rng = np.random.default_rng(306)
        h = (1.0 / 300,)
        fs = [gf(rng.uniform(1, 3, 300) * 1e306, h=h), gf(rng.uniform(1, 3, 300) * 1e-306, h=h)]
        got = multilinear_fractional_maximal(fs, MaximalQuery(basis=ALL, m=2)).values
        ks = [int(np.frexp(np.max(f.values))[1]) for f in fs]
        scaled = [f.with_values(np.ldexp(f.values, -k)) for f, k in zip(fs, ks)]
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, np.ldexp(_brute_force_sweep(scaled, -2.0, basis_sizes(ALL, (300,), h)), sum(ks)))


def test_a_second_sweep_reuses_the_walk_plan(monkeypatch):
    # the basis's count tuples and the walk's plan of them are kept per
    # grid and basis
    tuples, calls = grid_module._count_tuples, []
    monkeypatch.setattr(grid_module, "_count_tuples", lambda *args: calls.append(args) or tuples(*args))
    _kernels.basis_plan.cache_clear()
    f = gf(np.random.default_rng(4).uniform(0, 3, (6, 5)), h=(0.7, 0.4))
    first = strong_maximal(f, ALL).values
    assert calls
    calls.clear()
    assert strong_maximal(f, ALL).values.tobytes() == first.tobytes()
    assert calls == []


def _counted_sweep(P, h, e, sizes, walks):
    """_kernels.sweep, with the source P of each fold_sizes walk appended to
    walks."""
    fold = _kernels.fold_sizes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "fold_sizes", lambda *args: walks.append(args[2]) or fold(*args))
        return _kernels.sweep(P, h, e, sizes)


def _assert_batch_is_single_calls(batch, q):
    got = _maximal(batch, q, orlicz=False)
    assert len(got) == len(batch)
    for fs, mf in zip(batch, got):
        assert mf.values.tobytes() == multilinear_fractional_maximal(fs, q).values.tobytes()


# the grids of the test_exact_agreement_* tables
AGREEMENT_GRIDS = [(16,), (16, 16), (5, 7), (4, 5, 6), (6, 6, 6), (1,), (1, 6), (3, 1, 4),
                   (8, 8), (4, 8), (2, 4, 4), (1, 8), (4, 1, 2)]


def _batch_cases(grids):
    for shape in grids:
        for kind in ("all", "dyadic", "cubes"):
            if kind == "dyadic" and any(k & (k - 1) for k in shape):
                continue  # the dyadic basis needs power-of-two sides
            for m in (1, 2, 3):
                for alpha in (0.0, 1.0):
                    if alpha < m * len(shape):
                        yield pytest.param(shape, kind, m, alpha, id=f"{shape}-{kind}-m{m}-a{alpha:g}")


def _orlicz_cases():
    for shape in [(16,), (12,), (8, 8), (5, 7), (4, 4, 4), (3, 4, 5)]:
        for kind in ("all", "dyadic", "cubes"):
            if kind == "dyadic" and any(k & (k - 1) for k in shape):
                continue  # the dyadic basis needs power-of-two sides
            for m in (1, 2):
                for alpha in (0.0, 0.5):
                    yield pytest.param(shape, kind, m, alpha, id=f"{shape}-{kind}-m{m}-a{alpha:g}")


def _assert_orlicz_batch_is_single_calls(batch, q):
    got = _maximal(batch, q, orlicz=True)
    assert len(got) == len(batch)
    for fs, mf in zip(batch, got):
        assert mf.values.tobytes() == orlicz_maximal(fs, q).values.tobytes()


class TestBatch:
    """One walk for many tuples, by the sweep or by the Orlicz operator: each
    member of a batch gets the bits of its own call."""

    @pytest.mark.parametrize("shape,kind,m,alpha", list(_batch_cases(AGREEMENT_GRIDS)))
    def test_batch_equals_single_calls(self, shape, kind, m, alpha):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1] * 10 + m)
        h = tuple(rng.uniform(0.3, 1.5, len(shape)))
        # zeros on some cells, and one all-zero function
        batch = [[gf(rng.uniform(0, 3, shape) * (rng.uniform(size=shape) < 0.8), h=h) for _ in range(m)]
                 for _ in range(3)]
        batch[1][0] = gf(np.zeros(shape), h=h)
        _assert_batch_is_single_calls(batch, MaximalQuery(basis=Basis(kind), alpha=alpha, m=m))

    @pytest.mark.parametrize("count", [1, _kernels.BATCH, 2 * _kernels.BATCH + 1])
    def test_batches_of_any_length(self, count):
        rng = np.random.default_rng(count)
        batch = [[gf(rng.uniform(0, 3, (6, 5)), h=(0.7, 0.4)) for _ in range(2)] for _ in range(count)]
        _assert_batch_is_single_calls(batch, MaximalQuery(basis=ALL, alpha=1.0, m=2))

    @pytest.mark.parametrize("side", [32, 64])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["all", "dyadic", "cubes"])
    def test_batch_equals_single_calls_on_the_criterion_3_corpora(self, side, m, alpha, kind):
        # the corpora that criterion 3 sweeps, at seed 0
        fns = make_corpus((side, side), (1 / side, 1 / side), 0, 50)
        count = _kernels.BATCH + 1 if side == 32 else 2
        batch = [fns[i : i + m] for i in range(0, count * m, m)]
        _assert_batch_is_single_calls(batch, MaximalQuery(basis=Basis(kind), alpha=alpha, m=m))

    def test_redo_walks_only_the_overflowing_member(self):
        # 64 cells of 1e-150, m = 2: |R|^-2 stays finite, but member 2's
        # 1e160 cell sums times it overflow before its 1e-160 cell sums bring
        # the value back to about 1; the others keep their one walk
        rng = np.random.default_rng(150)
        h = (1e-150,)
        batch = [[gf(rng.uniform(0, 3, 64), h=h) for _ in range(2)] for _ in range(4)]
        batch[2] = [gf(rng.uniform(1, 3, 64) * 1e160, h=h), gf(rng.uniform(1, 3, 64) * 1e-160, h=h)]
        sizes = list(basis_sizes(ALL, (64,), h))
        assert np.all(np.isfinite(_kernels.vol_pow_table((64,), h, -2.0)))
        P = np.stack([np.stack([build_prefix_sum(f).cum for f in fs]) for fs in batch], axis=1)
        walks = []
        out = _counted_sweep(P, h, -2.0, sizes, walks)
        assert [w.shape[1] for w in walks] == [4, 1]
        assert walks[1].tobytes() == P[:, 2:3].tobytes()
        for fs, got in zip(batch, out):
            assert np.array_equal(got, _brute_force_sweep(fs, -2.0, sizes))
        assert np.all(np.isfinite(out))

    def test_redo_in_a_batch_mends_only_the_overflowing_sizes(self):
        # the input of test_redo_mends_only_the_overflowing_sizes beside other
        # members on its grid: |R|^-2 overflows for every member there, so
        # they all take the redo walk, together
        rng = np.random.default_rng(64)
        h = (1e-155,)
        batch = [[gf(rng.uniform(0, 3, 64), h=h) for _ in range(2)] for _ in range(3)]
        sizes = list(basis_sizes(ALL, (64,), h))
        P = np.stack([np.stack([build_prefix_sum(f).cum for f in fs]) for fs in batch], axis=1)
        walks = []
        out = _counted_sweep(P, h, -2.0, sizes, walks)
        assert [w.shape[1] for w in walks] == [3, 3]
        for fs, got in zip(batch, out):
            assert np.array_equal(got, _brute_force_sweep(fs, -2.0, sizes))

    @pytest.mark.parametrize("kind", ["all", "dyadic", "cubes"])
    def test_subnormal_cell_volume_batch(self, kind):
        # a subnormal cell volume (1e-320) sends the whole batch to the redo
        # walk alone
        rng = np.random.default_rng(320)
        h = (1e-160, 1e-160)
        batch = [[gf(rng.uniform(0, 3, (4, 4)), h=h)] for _ in range(5)]
        q = MaximalQuery(basis=Basis(kind), alpha=1.0, m=1)
        walks = []
        fold = _kernels.fold_sizes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "fold_sizes", lambda *args: walks.append(args[2]) or fold(*args))
            got = _maximal(batch, q, orlicz=False)
        assert [w.shape[1] for w in walks] == [5]
        for (f,), mf in zip(batch, got):
            assert mf.values.tobytes() == multilinear_fractional_maximal([f], q).values.tobytes()
            assert np.all(np.isfinite(mf.values)) and np.all(mf.values > 0)

    def test_members_on_other_grids_are_refused(self):
        q = MaximalQuery(basis=ALL, m=1)
        with pytest.raises(GridError, match="same grid"):
            _maximal([[gf(np.ones(4))], [gf(np.ones(4), h=(0.5,))]], q, orlicz=False)
        assert _maximal([], q, orlicz=False) == []

    def test_overflowing_member_raises(self):
        q = MaximalQuery(basis=ALL, m=2)
        ok, big = [gf(np.ones(4))] * 2, [gf(np.full(4, 1e200))] * 2
        with pytest.raises(GridError, match="overflows"):
            _maximal([ok, big], q, orlicz=False)

    def test_sweep_all_rects_is_sweep_over_every_size(self):
        fs = [gf(np.random.default_rng(3).uniform(0, 3, (5, 4)), h=(0.3, 0.7))]
        P = np.stack([build_prefix_sum(f).cum for f in fs])[:, None]
        sizes = list(basis_sizes(ALL, (5, 4), (0.3, 0.7)))
        assert _kernels.sweep_all_rects(P, (0.3, 0.7), -1.0).tobytes() == _kernels.sweep(P, (0.3, 0.7), -1.0, sizes).tobytes()

    @pytest.mark.parametrize("shape,kind,m,alpha", list(_orlicz_cases()))
    def test_orlicz_batch_equals_single_calls(self, shape, kind, m, alpha):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1] * 10 + m)
        h = tuple(rng.uniform(0.3, 1.5, len(shape)))
        # zeros on some cells, log-normal cells, and one all-zero function
        batch = [[gf(rng.lognormal(0, 1.5, shape) * (rng.uniform(size=shape) < 0.8), h=h) for _ in range(m)]
                 for _ in range(3)]
        batch[1][0] = gf(np.zeros(shape), h=h)
        for psis in [(phi_n(2),) * m, (power(2.5), l_log_l(2))[:m]]:
            _assert_orlicz_batch_is_single_calls(batch, MaximalQuery(basis=Basis(kind), alpha=alpha, m=m, orlicz=psis))

    def test_orlicz_batches_past_one_walk(self):
        # _kernels.BATCH + 1 tuples take two walks
        rng = np.random.default_rng(17)
        batch = [[gf(rng.uniform(0, 3, (6, 5)), h=(0.7, 0.4)) for _ in range(2)] for _ in range(_kernels.BATCH + 1)]
        _assert_orlicz_batch_is_single_calls(batch, MaximalQuery(basis=ALL, alpha=1.0, m=2, orlicz=(phi_n(2),) * 2))

    def test_orlicz_members_of_unlike_scale(self):
        # each member is scaled by its own power of two
        rng = np.random.default_rng(18)
        batch = [[gf(rng.uniform(0, 3, (8, 8)) * scale)] for scale in (1e-300, 1.0, 1e300)]
        _assert_orlicz_batch_is_single_calls(batch, MaximalQuery(basis=ALL, orlicz=(phi_n(2),)))

    def test_orlicz_batch_takes_one_luxemburg_call_per_young_function(self, monkeypatch):
        calls = []
        blocks = orlicz_module.luxemburg_blocks
        monkeypatch.setattr(orlicz_module, "luxemburg_blocks", lambda *args: calls.append(args) or blocks(*args))
        rng = np.random.default_rng(19)
        batch = [[gf(rng.uniform(0, 3, (8, 8)))] for _ in range(4)]
        _maximal(batch, MaximalQuery(basis=ALL, orlicz=(phi_n(2),)), orlicz=True)
        assert len(calls) == 1


class TestOrlicz:
    def test_no_functions_is_error(self):
        with pytest.raises(GridError, match="need at least one function"):
            orlicz_maximal([], MaximalQuery(basis=ALL, m=1, orlicz=(identity(),)))

    @pytest.mark.parametrize("count,m", [(3, 1), (1, 2)])
    def test_needs_m_functions(self, count, m):
        q = MaximalQuery(basis=ALL, m=m, orlicz=(identity(),) * m)
        with pytest.raises(GridError, match="functions given"):
            orlicz_maximal([gf(np.ones(4))] * count, q)

    def test_needs_m_young_functions(self):
        for orlicz in (None, (identity(),) * 2):
            with pytest.raises(GridError, match="m Young functions"):
                orlicz_maximal([gf(np.ones(4))], MaximalQuery(basis=ALL, m=1, orlicz=orlicz))

    @pytest.mark.parametrize(
        "kind,values",
        [("all", [1.0, 1e308, 1e308]), ("cubes", [1.0, 1e308, 1e308]),
         ("dyadic", [1.0, 1e308, 1e308, 1.0])],
    )
    def test_values_near_the_double_limit(self, kind, values):
        # unscaled, the bisection's lo + hi overflows; the one-cell rect of
        # 1e308 has Phi_2-norm 1e308 (Phi_2(1) = 1) and no rect a larger one
        q = MaximalQuery(basis=Basis(kind), m=1, orlicz=(phi_n(2),))
        out = orlicz_maximal([gf(values)], q).values
        assert np.all(np.isfinite(out))
        assert np.allclose(out[1:3], 1e308, rtol=1e-11, atol=0.0)

    def test_overflowing_answer_raises(self):
        f = gf(np.full(4, 1e200))
        q = MaximalQuery(basis=ALL, m=2, orlicz=(phi_n(2),) * 2)
        with pytest.raises(GridError, match="overflows"):
            orlicz_maximal([f, f], q)

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


class TestLpNorm:
    def test_weighted(self):
        f = gf(np.full((4, 4), 2.0), h=(0.25, 0.25))
        w = gf(np.full((4, 4), 4.0), h=(0.25, 0.25))
        assert lp_norm(f, 2.0, weight=w) == pytest.approx(4.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_p_outside_zero_to_inf_is_error(self, p):
        with pytest.raises(GridError, match="0 < p < inf"):
            lp_norm(gf(np.ones(4)), p)

    @pytest.mark.parametrize("value", [1e306, 1e-306])
    def test_integral_past_the_double_range_is_error(self, value):
        # the norm is the value itself, but its square is no double
        with pytest.raises(GridError, match="leaves the double range"):
            lp_norm(gf(np.full(4, value)), 2.0)

    @pytest.mark.parametrize("shape,h", [((4, 1), (1.0, 1.0)), ((4, 4), (0.5, 1.0))])
    def test_weight_on_another_grid_is_error(self, shape, h):
        # a (4, 1) weight would broadcast against the (4, 4) function
        with pytest.raises(GridError, match="weight must live on the function's grid"):
            lp_norm(gf(np.ones((4, 4))), 2.0, weight=gf(np.ones(shape), h=h))


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


PSIS = [phi_n(2), power(2.5), l_log_l(1, outer=1.5), identity()]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**31),
    st.sampled_from(SHAPES),
    st.sampled_from(["all", "dyadic", "cubes"]),
    st.sampled_from([(1, 0.0), (1, 0.5), (2, 0.0), (2, 1.0)]),
    st.integers(-900, 1022),
    st.integers(0, 1),
    st.sampled_from(PSIS),
)
# near 2^1022 the largest values leave no room for the bisection's lo + hi
@example(seed=0, shape=(8,), kind="all", m_alpha=(1, 0.0), j=1022, slot=0, psi=PSIS[0])
def test_orlicz_homogeneous_under_powers_of_two(seed, shape, kind, m_alpha, j, slot, psi):
    m, alpha = m_alpha
    slot = min(slot, m - 1)
    _, fs = _random_tuple(seed, shape, m)
    q = MaximalQuery(basis=Basis(kind), alpha=alpha, m=m, orlicz=(psi, PSIS[3])[:m])
    base = orlicz_maximal(fs, q).values
    with np.errstate(over="ignore"):
        expected = np.ldexp(base, j)
    assume(np.all(np.isfinite(expected)))
    fs[slot] = fs[slot].with_values(np.ldexp(fs[slot].values, j))
    assert np.array_equal(orlicz_maximal(fs, q).values, expected)  # bit-equal


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
