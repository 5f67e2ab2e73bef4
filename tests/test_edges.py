"""Edge inputs for every public entry point of strongmax.

Each row of TABLE names a public function or class, an edge input and what
the call must do: raise one of the package's typed errors, or return a
result that a predicate accepts. The inputs are empty lists, one-cell grids,
dyadic grids whose sides are not powers of two, NaN and infinite parameters,
values near 1e+-306 and grids that do not match, wherever the entry point
takes such an input. test_every_public_entry_point_has_rows keeps the table
complete as the package grows.
"""

import inspect
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

import strongmax as sm
from strongmax import Basis, GridError, GridFunction, Rect, WeightVector
from strongmax.grid import rect_integral_direct
from strongmax.covering import SelectionError
from strongmax.orlicz import MeasureError
from strongmax.weights import WeightError
from strongmax.young import YoungFunctionError

NAN, INF = math.nan, math.inf
ALL, DYADIC, CUBES = Basis("all"), Basis("dyadic"), Basis("cubes")


def gf(values, h=None):
    values = np.asarray(values, dtype=np.float64)
    return GridFunction(values.shape, h or tuple(1.0 / s for s in values.shape), values)


ONE = gf([[2.0]])  # one cell of side 1
ONES = gf(np.ones((4, 4)))
ODD = gf(np.ones((3, 5)))  # sides that are not powers of two
BIG = gf(np.full((4, 4), 1e306))
TINY = gf(np.full((4, 4), 1e-306))
OTHER = gf(np.ones((4, 8)))  # matches no other grid here
OUTER_BIG = gf(np.pad(np.ones((4, 4)), ((0, 1), (0, 1)), constant_values=1e308))  # 1e308 off [0, 4)^2
PHI2 = sm.phi_n(2)
FAMILY = sm.RectFamily((4, 4), (1.0, 1.0), (Rect((0, 0), (1, 1)), Rect((0, 0), (3, 3))))


def close(want, rel=1e-12):
    return lambda got: got == pytest.approx(want, rel=rel)


def all_equal(want):
    return lambda got: np.array_equal(np.asarray(got.values), want)


def max_close(want):
    return lambda got: float(np.max(got.values)) == pytest.approx(want, rel=1e-12)


def holds(rep):
    return rep.passed is True


def roundtrip(f):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.grid")
        sm.write_grid(f, path)
        return sm.read_grid(path)


def read_file(text):
    """read_grid of a file that holds the bytes text."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.grid")
        with open(path, "wb") as fh:
            fh.write(text)
        return sm.read_grid(path)


HEAD = b"# strongmax grid v1\ndims 1\nshape 3\ncell_size 1.0\n"  # no origin or format line
CSV3 = b"data\n1.0,2.0,3.0\n"


def as_bin(*values):
    return b"format bin\ndata\n" + np.array(values, dtype="<f8").tobytes()


def same_families_as_unit_sides(values, side):
    """a_infty_classify of values on cells of the given side, and on unit
    cells: the families and slopes by repr (which tells every two doubles
    apart) and the verdict, for a predicate to compare."""
    def run():
        reps = [sm.a_infty_classify(gf(values, h=(h,) * values.ndim), n_random_pairs=0) for h in (side, 1.0)]
        return [(repr(r.families), repr(r.slopes), r.passes) for r in reps]
    return run


def strict(call):
    """call, run with every warning raised as an error: an edge must end in
    its typed error or its value, not in a stray numpy warning."""
    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call()
    return run


def q(m=1, alpha=0.0, orlicz=None):
    return sm.MaximalQuery(ALL, alpha, m, orlicz)


def vector_valued(fjs, w=ONES, p=3.0, r=1.5):
    return sm.vector_valued_check(fjs, w, w, p, 2.0, sm.power(2.5), sm.power(3.0), r)


UNIT = WeightVector((ONES,), (2.0,), q=2.0)


# (entry point, input, call, a typed error class or a predicate of the result)
TABLE = [
    # --- grids, rects, bases
    ("GridFunction", "no axes", lambda: GridFunction((), (), np.zeros(())), GridError),
    ("GridFunction", "NaN value", lambda: gf([NAN]), GridError),
    ("GridFunction", "inf value", lambda: gf([INF]), GridError),
    ("GridFunction", "NaN cell side", lambda: gf([1.0], h=(NAN,)), GridError),
    ("GridFunction", "NaN origin", lambda: GridFunction((1,), (1.0,), [1.0], (NAN,)), GridError),
    ("GridFunction", "inf origin", lambda: GridFunction((1, 1), (1.0, 1.0), [[1.0]], (0.0, -INF)), GridError),
    ("GridFunction", "1e306 values", lambda: BIG.values, lambda v: np.all(v == 1e306)),
    ("Rect", "lo above hi", lambda: Rect((2,), (1,)), GridError),
    ("Rect", "lo and hi of different lengths", lambda: Rect((0, 0), (1,)), GridError),
    ("Basis", "unknown kind", lambda: Basis("rings"), GridError),
    ("enumerate_basis", "no axes", lambda: list(sm.enumerate_basis(ALL, (), ())), GridError),
    ("enumerate_basis", "grids that do not match",
     lambda: list(sm.enumerate_basis(ALL, (4,), (1.0, 1.0))), GridError),
    ("enumerate_basis", "dyadic, odd sides",
     lambda: list(sm.enumerate_basis(DYADIC, (3, 5), (1.0, 1.0))), GridError),
    ("enumerate_basis", "one cell",
     lambda: list(sm.enumerate_basis(CUBES, (1, 1))), lambda r: r == [Rect((0, 0), (0, 0))]),
    ("build_prefix_sum", "sums past the double range",
     lambda: sm.build_prefix_sum(gf(np.full(4, 1e308))), GridError),
    ("build_prefix_sum", "sums past the double range, warnings as errors",
     strict(lambda: sm.build_prefix_sum(gf(np.full(4, 1e308)))), GridError),
    ("build_prefix_sum", "one cell", lambda: sm.build_prefix_sum(ONE).cum, lambda c: c[1, 1] == 2.0),
    ("rect_cell_sum", "1e306 values",
     lambda: sm.rect_cell_sum(sm.build_prefix_sum(BIG), Rect((0, 0), (3, 3))), close(1.6e307)),
    ("rect_cell_sum", "rect of another dimension",
     lambda: sm.rect_cell_sum(sm.build_prefix_sum(ONES), Rect((0,), (1,))), GridError),
    ("rect_integral", "rect off the grid",
     lambda: sm.rect_integral(sm.build_prefix_sum(ONES), Rect((0, 0), (4, 4))), GridError),
    ("rect_integral", "1e-306 values",
     lambda: sm.rect_integral(sm.build_prefix_sum(TINY), Rect((0, 0), (3, 3))), close(1e-306)),
    ("rect_integral_direct", "rect off the grid", lambda: rect_integral_direct(ONES, Rect((0, 0), (4, 4))), GridError),
    ("rect_average", "one cell",
     lambda: sm.rect_average(sm.build_prefix_sum(ONE), Rect((0, 0), (0, 0))), close(2.0)),
    ("write_grid", "1e306 values",
     lambda: roundtrip(BIG), lambda g: g.same_grid(BIG) and np.array_equal(g.values, BIG.values)),
    ("read_grid", "no such file",
     lambda: sm.read_grid(os.path.join(tempfile.gettempdir(), "no-such-dir", "f.grid")),
     FileNotFoundError),
    ("read_grid", "one cell", lambda: roundtrip(ONE), all_equal([[2.0]])),
    ("read_grid", "wrong magic line", lambda: read_file(HEAD.replace(b"strongmax", b"other") + CSV3), GridError),
    ("read_grid", "dims 2, shape of one entry", lambda: read_file(HEAD.replace(b"dims 1", b"dims 2") + CSV3),
     GridError),
    ("read_grid", "non-numeric CSV cell", lambda: read_file(HEAD + b"data\n1.0,x,3.0\n"), GridError),
    ("read_grid", "unknown format", lambda: read_file(HEAD + b"format xml\n" + CSV3), GridError),
    ("read_grid", "format with a second token", lambda: read_file(HEAD + b"format csv bin\n" + CSV3), GridError),
    ("read_grid", "format line with no value", lambda: read_file(HEAD + b"format\n" + CSV3), GridError),
    ("read_grid", "no origin line",
     lambda: read_file(HEAD + CSV3), lambda g: g.origin == (0.0,) and np.array_equal(g.values, [1.0, 2.0, 3.0])),
    ("read_grid", "origin nan", lambda: read_file(HEAD + b"origin nan\n" + CSV3), GridError),
    ("read_grid", "origin inf", lambda: read_file(HEAD + b"origin inf\n" + CSV3), GridError),
    ("read_grid", "bin, 3 doubles for shape 3",
     lambda: read_file(HEAD + as_bin(1.0, 2.0, 3.0)), all_equal([1.0, 2.0, 3.0])),
    ("read_grid", "bin, 4 doubles for shape 3", lambda: read_file(HEAD + as_bin(1.0, 2.0, 3.0, 4.0)), GridError),
    ("read_grid", "bin, 2 doubles for shape 3", lambda: read_file(HEAD + as_bin(1.0, 2.0)), GridError),
    ("read_grid", "bin, 3 doubles and 1 byte for shape 3",
     lambda: read_file(HEAD + as_bin(1.0, 2.0, 3.0) + b"\n"), GridError),
    ("make_corpus", "no cells", lambda: sm.make_corpus((0,), (1.0,), 0, 2), GridError),
    ("make_corpus", "NaN cell side", lambda: sm.make_corpus((4,), (NAN,), 0, 1), GridError),
    ("make_corpus", "empty corpus", lambda: sm.make_corpus((4,), (0.25,), 0, 0), lambda c: c == []),
    ("make_corpus", "one cell",
     lambda: sm.make_corpus((1,), (1.0,), 0, 2), lambda c: [f.shape for f in c] == [(1,), (1,)]),
    # --- maximal operators
    ("strong_maximal", "one cell", lambda: sm.strong_maximal(ONE, ALL), all_equal([[2.0]])),
    ("strong_maximal", "dyadic, odd sides", lambda: sm.strong_maximal(ODD, DYADIC), GridError),
    ("strong_maximal", "odd sides, all", lambda: sm.strong_maximal(ODD, ALL), all_equal(np.ones((3, 5)))),
    ("strong_maximal", "1e306 values", lambda: sm.strong_maximal(BIG, ALL), max_close(1e306)),
    ("strong_maximal", "1e-306 values", lambda: sm.strong_maximal(TINY, CUBES), max_close(1e-306)),
    ("multilinear_fractional_maximal", "empty list",
     lambda: sm.multilinear_fractional_maximal([], q()), GridError),
    ("multilinear_fractional_maximal", "grids that do not match",
     lambda: sm.multilinear_fractional_maximal([ONES, OTHER], q(2)), GridError),
    ("multilinear_fractional_maximal", "NaN alpha",
     lambda: sm.multilinear_fractional_maximal([ONES], q(1, NAN)), GridError),
    ("multilinear_fractional_maximal", "inf alpha",
     lambda: sm.multilinear_fractional_maximal([ONES], q(1, INF)), GridError),
    ("multilinear_fractional_maximal", "1e306 times 1e-306",
     lambda: sm.multilinear_fractional_maximal([BIG, TINY], q(2)), max_close(1.0)),
    ("multilinear_fractional_maximal", "Young functions in the query",
     lambda: sm.multilinear_fractional_maximal([ONES], q(1, 0.0, (PHI2,))), GridError),
    ("maximal_reference_scan", "empty list", lambda: sm.maximal_reference_scan([], q()), GridError),
    ("maximal_reference_scan", "Young functions in the query",
     lambda: sm.maximal_reference_scan([ONES], q(1, 0.0, (PHI2,))), GridError),
    ("maximal_reference_scan", "one cell", lambda: sm.maximal_reference_scan([ONE], q()), all_equal([[2.0]])),
    ("orlicz_maximal", "empty list", lambda: sm.orlicz_maximal([], q(1, 0.0, (PHI2,))), GridError),
    ("orlicz_maximal", "no Young function", lambda: sm.orlicz_maximal([ONES], q()), GridError),
    ("orlicz_maximal", "one cell", lambda: sm.orlicz_maximal([ONE], q(1, 0.0, (PHI2,))), all_equal([[2.0]])),
    ("orlicz_maximal", "1e306 values",
     lambda: sm.orlicz_maximal([BIG], q(1, 0.0, (PHI2,))), max_close(1e306)),
    ("level_set_measure", "NaN level", lambda: sm.level_set_measure(ONES, NAN), GridError),
    ("level_set_measure", "inf level", lambda: sm.level_set_measure(ONES, INF), lambda m: m == 0.0),
    ("level_set_measure", "-inf level", lambda: sm.level_set_measure(ONES, -INF), close(1.0)),
    ("lp_norm", "p = 0", lambda: sm.lp_norm(ONES, 0.0), GridError),
    ("lp_norm", "NaN p", lambda: sm.lp_norm(ONES, NAN), GridError),
    ("lp_norm", "inf p", lambda: sm.lp_norm(ONES, INF), GridError),
    ("lp_norm", "1e306 values", lambda: sm.lp_norm(BIG, 2.0), GridError),
    ("lp_norm", "1e306 values, warnings as errors", strict(lambda: sm.lp_norm(BIG, 2.0)), GridError),
    # f^2 is +inf and the weight 0 on one cell: inf * 0 is NaN, not a norm
    ("lp_norm", "1e306 values, a zero weight cell",
     strict(lambda: sm.lp_norm(BIG, 2.0, weight=gf(np.arange(16.0).reshape(4, 4)))), GridError),
    ("lp_norm", "1e-306 values", lambda: sm.lp_norm(TINY, 2.0), GridError),
    ("lp_norm", "grids that do not match", lambda: sm.lp_norm(ONES, 2.0, weight=OTHER), GridError),
    ("lp_norm", "one cell", lambda: sm.lp_norm(ONE, 2.0), close(2.0)),
    # the integral is 16 on unit cells, and the norm 16^1000 is past the largest double
    ("lp_norm", "p = 0.001, unit cells", lambda: sm.lp_norm(gf(np.ones((4, 4)), h=(1.0, 1.0)), 0.001), GridError),
    # --- Luxemburg norms and the Orlicz lemmas
    ("CellSet", "mask of another size", lambda: sm.CellSet((4, 4), (1.0, 1.0), np.ones(3)), MeasureError),
    ("CellSet", "NaN cell side", lambda: sm.CellSet((4,), (NAN,), np.ones(4)), GridError),
    ("luxemburg_norm", "one cell", lambda: sm.luxemburg_norm(ONE, sm.CellSet.full(ONE), PHI2), close(2.0)),
    ("luxemburg_norm", "1e306 values",
     lambda: sm.luxemburg_norm(BIG, sm.CellSet.full(BIG), PHI2), close(1e306)),
    ("luxemburg_norm", "1e-306 values",
     lambda: sm.luxemburg_norm(TINY, sm.CellSet.full(TINY), PHI2), close(1e-306)),
    ("luxemburg_norm", "empty set",
     lambda: sm.luxemburg_norm(ONES, sm.CellSet((4, 4), (0.25, 0.25), np.zeros(16)), PHI2),
     MeasureError),
    ("luxemburg_norm", "grids that do not match",
     lambda: sm.luxemburg_norm(ONES, sm.CellSet.full(OTHER), PHI2), MeasureError),
    ("mean_phi_over", "one cell",
     lambda: sm.mean_phi_over(ONE, sm.CellSet.full(ONE), PHI2), close(2.0 * (1.0 + math.log(2.0)))),
    # the true mean, 1e306 (1 + log 1e306), is past the largest double
    ("mean_phi_over", "1e306 values",
     lambda: sm.mean_phi_over(BIG, sm.CellSet.full(BIG), PHI2), lambda m: m == INF),
    ("mean_phi_over", "1e306 values, warnings as errors",
     strict(lambda: sm.mean_phi_over(BIG, sm.CellSet.full(BIG), PHI2)), lambda m: m == INF),
    # t^2 of 1e306 is past the largest double too: +inf, with no overflow warning
    ("mean_phi_over", "1e306 values under t^2",
     lambda: sm.mean_phi_over(BIG, sm.CellSet.full(BIG), sm.power(2.0)), lambda m: m == INF),
    ("mean_phi_over", "1e306 values under t^2, warnings as errors",
     strict(lambda: sm.mean_phi_over(BIG, sm.CellSet.full(BIG), sm.power(2.0))), lambda m: m == INF),
    ("luxemburg_norm", "1e306 values under t^2",
     lambda: sm.luxemburg_norm(BIG, sm.CellSet.full(BIG), sm.power(2.0)), close(1e306)),
    ("luxemburg_norm", "1e306 values under t^2, warnings as errors",
     strict(lambda: sm.luxemburg_norm(BIG, sm.CellSet.full(BIG), sm.power(2.0))), close(1e306)),
    ("generalized_holder_check", "grids that do not match",
     lambda: sm.generalized_holder_check(ONES, OTHER, sm.CellSet.full(ONES), PHI2), MeasureError),
    ("generalized_holder_check", "empty set",
     lambda: sm.generalized_holder_check(ONES, ONES, sm.CellSet((4, 4), (0.25, 0.25), np.zeros(16)), PHI2),
     MeasureError),
    ("generalized_holder_check", "one cell",
     lambda: sm.generalized_holder_check(ONE, ONE, sm.CellSet.full(ONE), PHI2), holds),
    # mean |fg| = 1e612 and both norms near 1e306: neither side is a double
    ("generalized_holder_check", "1e306 values",
     lambda: sm.generalized_holder_check(BIG, BIG, sm.CellSet.full(BIG), PHI2), MeasureError),
    # the empty product of norms is 1, so the lemma's hypothesis (> 1) fails
    ("product_norm_lemma_check", "empty list",
     lambda: sm.product_norm_lemma_check([], sm.CellSet.full(ONES), PHI2),
     lambda r: r.note.startswith("hypothesis-skipped")),
    ("product_norm_lemma_check", "1e306 values",
     lambda: sm.product_norm_lemma_check([BIG, BIG], sm.CellSet.full(BIG), PHI2),
     MeasureError),
    ("product_norm_lemma_check", "Young function that is not submultiplicative",
     lambda: sm.product_norm_lemma_check([ONES], sm.CellSet.full(ONES), sm.YoungFunction(PHI2.eval, "Phi_2", False)),
     MeasureError),
    ("product_norm_lemma_check", "one cell",
     lambda: sm.product_norm_lemma_check([ONE], sm.CellSet.full(ONE), PHI2), holds),
    # --- Young functions
    ("power", "NaN exponent", lambda: sm.power(NAN), YoungFunctionError),
    ("power", "inf exponent", lambda: sm.power(INF), YoungFunctionError),
    ("l_log_l", "NaN outer exponent", lambda: sm.l_log_l(1, NAN), YoungFunctionError),
    ("l_log_l", "inf outer exponent", lambda: sm.l_log_l(1, INF), YoungFunctionError),
    ("l_log_l", "at 1e306, warnings as errors",
     strict(lambda: float(sm.l_log_l(2, 1.5)(1e306))), lambda v: v == INF),
    ("phi_n", "n = 0", lambda: sm.phi_n(0), YoungFunctionError),
    ("phi_n", "at 1e306, warnings as errors", strict(lambda: float(sm.phi_n(3)(1e306))), lambda v: v == INF),
    ("phi_n_iter", "m = 0", lambda: sm.phi_n_iter(2, 0), YoungFunctionError),
    ("phi_n_iter", "m = 1.5", lambda: sm.phi_n_iter(2, 1.5), YoungFunctionError),
    ("psi_n", "n = 1", lambda: sm.psi_n(1), YoungFunctionError),
    ("identity", "at 1e306", lambda: float(sm.identity()(1e306)), lambda v: v == 1e306),
    ("complementary", "t^1 at 0.5 and 2", lambda: sm.complementary(sm.identity())(np.array([0.5, 2.0])),
     lambda v: np.array_equal(v, [0.0, INF])),
    ("inverse", "NaN", lambda: sm.inverse(PHI2, NAN), YoungFunctionError),
    ("inverse", "inf under t^2", lambda: sm.inverse(sm.power(2.0), INF), lambda v: v == INF),
    ("inverse", "inf under Phi_2", lambda: sm.inverse(PHI2, INF), lambda v: v == INF),
    # the root of t (1 + log t) = 1e306, about 1.43e303
    ("inverse", "1e306 under Phi_2", lambda: float(PHI2(sm.inverse(PHI2, 1e306))), close(1e306, rel=1e-11)),
    # Psi_2 reaches 1e306 at log1p(1e306) ~ 704.6, near the end of the double range of exp (~709.78)
    ("inverse", "1e306 under Psi_2", lambda: sm.inverse(sm.psi_n(2), 1e306), close(math.log1p(1e306), rel=1e-15)),
    ("inverse", "1e-306 under Phi_3", lambda: sm.inverse(sm.phi_n(3), 1e-306), close(1e-306, rel=1e-11)),
    # Phi_2(t) = t below 1, so the least double that reaches y is y
    ("inverse", "1e-320 under Phi_2", lambda: sm.inverse(PHI2, 1e-320), lambda v: v == 1e-320),
    ("inverse", "5e-324 under Phi_2", lambda: sm.inverse(PHI2, 5e-324), lambda v: v == 5e-324),
    ("inverse", "y above every value of phi",
     lambda: sm.inverse(sm.YoungFunction(lambda t: np.minimum(t, 1.0), "min(t, 1)"), 2.0), YoungFunctionError),
    ("oneil_triple_check", "t^2, t, t^2",
     lambda: sm.oneil_triple_check(sm.power(2.0), sm.identity(), sm.power(2.0)),
     lambda r: r[0] is True),
    ("bp_star_classify", "NaN p", lambda: sm.bp_star_classify(PHI2, NAN, 2), YoungFunctionError),
    ("bp_star_classify", "inf p", lambda: sm.bp_star_classify(PHI2, INF, 2), YoungFunctionError),
    ("in_bp_star", "NaN p", lambda: sm.in_bp_star(PHI2, NAN, 2), YoungFunctionError),
    # --- weights
    ("WeightVector", "empty list", lambda: WeightVector((), ()), WeightError),
    ("WeightVector", "NaN p_i", lambda: WeightVector((ONES,), (NAN,)), WeightError),
    ("WeightVector", "inf p_i", lambda: WeightVector((ONES,), (INF,)), WeightError),
    ("WeightVector", "NaN q", lambda: WeightVector((ONES,), (2.0,), q=NAN), WeightError),
    ("WeightVector", "inf q", lambda: WeightVector((ONES,), (2.0,), q=INF), WeightError),
    ("WeightVector", "NaN alpha", lambda: WeightVector((ONES,), (2.0,), alpha=NAN), WeightError),
    ("WeightVector", "grids that do not match", lambda: WeightVector((ONES, OTHER), (2.0, 2.0)), WeightError),
    ("WeightVector", "1e306 values powered past the range, warnings as errors",
     strict(lambda: WeightVector((BIG,), (2.0,)).powered(2.0)), GridError),
    ("ap_constant", "NaN p", lambda: sm.ap_constant(ONES, NAN, ALL), WeightError),
    ("ap_constant", "inf p", lambda: sm.ap_constant(ONES, INF, ALL), WeightError),
    ("ap_constant", "one cell", lambda: sm.ap_constant(ONE, 2.0, ALL), close(1.0)),
    ("ap_constant", "odd sides, all", lambda: sm.ap_constant(ODD, 2.0, ALL), close(1.0)),
    ("ap_constant", "dyadic, odd sides", lambda: sm.ap_constant(ODD, 2.0, DYADIC), GridError),
    ("ap_constant", "1e306 values", lambda: sm.ap_constant(BIG, 2.0, ALL), close(1.0)),
    ("ap_constant", "1e-306 values", lambda: sm.ap_constant(TINY, 2.0, CUBES), close(1.0)),
    ("ap_constant", "1e306 values, w^-2 past the range", lambda: sm.ap_constant(BIG, 1.5, ALL), WeightError),
    ("ap_constant", "1e-200 values, w^-2 past the range, warnings as errors",
     strict(lambda: sm.ap_constant(gf(np.full((4, 4), 1e-200)), 1.5, ALL)), WeightError),
    ("multi_weight_constant_apq", "1e-306 values, w^-3 past the range",
     lambda: sm.multi_weight_constant_apq(WeightVector((TINY,), (1.5,)), ALL), WeightError),
    ("multi_weight_constant_apq", "1e306 squared",
     lambda: sm.multi_weight_constant_apq(WeightVector((BIG, BIG), (2.0, 2.0)), ALL),
     WeightError),
    ("multi_weight_constant_apq", "1e-306 values, w^-3 past the range, warnings as errors",
     strict(lambda: sm.multi_weight_constant_apq(WeightVector((TINY,), (1.5,)), ALL)), WeightError),
    ("multi_weight_constant_apq", "1e306 squared, warnings as errors",
     strict(lambda: sm.multi_weight_constant_apq(WeightVector((BIG, BIG), (2.0, 2.0)), ALL)), WeightError),
    ("multi_weight_constant_apq", "one cell",
     lambda: sm.multi_weight_constant_apq(WeightVector((ONE, ONE), (2.0, 2.0)), ALL),
     close(1.0)),
    ("multi_weight_constant_ap", "1e306 times 1e-306",
     lambda: sm.multi_weight_constant_ap(WeightVector((BIG, TINY), (2.0, 2.0)), ALL), close(1.0)),
    ("multi_weight_constant_ap", "dyadic, odd sides",
     lambda: sm.multi_weight_constant_ap(WeightVector((ODD, ODD), (2.0, 3.0)), DYADIC), GridError),
    ("power_bump_check", "NaN r",
     lambda: sm.power_bump_check(WeightVector((ONES,), (2.0,)), ONES, NAN, ALL), WeightError),
    ("power_bump_check", "inf r",
     lambda: sm.power_bump_check(WeightVector((ONES,), (2.0,)), ONES, INF, ALL), WeightError),
    ("power_bump_check", "grids that do not match",
     lambda: sm.power_bump_check(WeightVector((ONES,), (2.0,)), OTHER, 1.5, ALL),
     WeightError),
    # |R|^(1 - 1/2) (avg v) (avg w^-1.5)^(1/3) on the one cell: 2 * 2^-0.5
    ("power_bump_check", "one cell",
     lambda: sm.power_bump_check(WeightVector((ONE,), (2.0,)), ONE, 1.5, ALL)["constant"],
     close(math.sqrt(2.0))),
    ("a_infty_classify", "one cell", lambda: sm.a_infty_classify(ONE), WeightError),
    ("a_infty_classify", "odd sides", lambda: sm.a_infty_classify(ODD), WeightError),
    ("a_infty_classify", "1e306 values",
     lambda: sm.a_infty_classify(BIG, n_random_pairs=0).passes, lambda p: p is True),
    ("a_infty_classify", "1e308 values, 4x4",
     lambda: sm.a_infty_classify(gf(np.full((4, 4), 1e308)), n_random_pairs=0), GridError),
    # the nested boxes read only [0, 4)^2, which holds ones; the 1e308 cells
    # outside them put the total past the largest double, and only the
    # random pairs read the total
    ("a_infty_classify", "5x5, total past the largest double, nested boxes finite",
     lambda: sm.a_infty_classify(OUTER_BIG, n_random_pairs=0).passes, lambda p: p is True),
    ("a_infty_classify", "5x5, total past the largest double, random pairs",
     lambda: sm.a_infty_classify(OUTER_BIG, n_random_pairs=1), GridError),
    # the cell volume, 1e400, 1e-340 or 1e-400, is not a normal double, and
    # the box volumes of the 64^3 grid with sides 1e102 pass the largest
    # double; it cancels from every ratio of a family
    ("a_infty_classify", "ones, 8x8, cell sides 1e200",
     same_families_as_unit_sides(np.ones((8, 8)), 1e200), lambda r: r[0] == r[1]),
    ("a_infty_classify", "1e-300 values, 64^3, cell sides 1e102",
     same_families_as_unit_sides(np.full((64, 64, 64), 1e-300), 1e102), lambda r: r[0] == r[1]),
    ("a_infty_classify", "ones, 8x8, cell sides 1e-170",
     same_families_as_unit_sides(np.ones((8, 8)), 1e-170), lambda r: r[0] == r[1]),
    ("a_infty_classify", "ones, 8x8, cell sides 1e-200",
     same_families_as_unit_sides(np.ones((8, 8)), 1e-200), lambda r: r[0] == r[1]),
    ("reverse_doubling_constant", "one cell", lambda: sm.reverse_doubling_constant(ONE), GridError),
    ("reverse_doubling_constant", "odd sides", lambda: sm.reverse_doubling_constant(ODD), GridError),
    ("reverse_doubling_constant", "1e306 values", lambda: sm.reverse_doubling_constant(BIG), close(4.0)),
    # every block sum of two or more cells is past the largest double
    ("reverse_doubling_constant", "1e308 values, 2x2",
     lambda: sm.reverse_doubling_constant(gf(np.full((2, 2), 1e308))), close(4.0)),
    ("reverse_doubling_constant", "1e308 values, 4x4",
     lambda: sm.reverse_doubling_constant(gf(np.full((4, 4), 1e308))), close(4.0)),
    ("tauberian_constant_estimate", "NaN gamma",
     lambda: sm.tauberian_constant_estimate(ONES, ALL, NAN), WeightError),
    ("tauberian_constant_estimate", "zero weight",
     lambda: sm.tauberian_constant_estimate(gf(np.zeros((8, 8))), ALL, 0.5), WeightError),
    ("tauberian_constant_estimate", "half the cells zero",
     lambda: sm.tauberian_constant_estimate(gf(np.repeat([0.0, 1.0], 32).reshape(8, 8)), ALL, 0.5),
     WeightError),
    # the mass of every set is past the largest double, or a sum of
    # subnormals; neither changes a ratio
    ("tauberian_constant_estimate", "1e307 values, 8x8, warnings as errors",
     strict(lambda: sm.tauberian_constant_estimate(gf(np.full((8, 8), 1e307)), ALL, 0.5).max_ratio),
     lambda r: r == 3.75),
    ("tauberian_constant_estimate", "1e-320 values, 8x8",
     lambda: sm.tauberian_constant_estimate(gf(np.full((8, 8), 1e-320)), ALL, 0.5).max_ratio,
     lambda r: r == 3.75),
    ("tauberian_constant_estimate", "one cell",
     lambda: sm.tauberian_constant_estimate(ONE, ALL, 0.5).max_ratio, close(1.0)),
    ("power_weight_classify", "NaN alpha",
     lambda: sm.power_weight_classify(NAN, 2.0, 1, depth=4), WeightError),
    ("power_weight_classify", "inf alpha",
     lambda: sm.power_weight_classify(INF, 2.0, 1, depth=4), WeightError),
    ("power_weight_classify", "-inf alpha",
     lambda: sm.power_weight_classify(-INF, 2.0, 1).in_ap, lambda a: a is False),
    ("power_weight_classify", "NaN p", lambda: sm.power_weight_classify(0.5, NAN, 1, depth=4), WeightError),
    ("power_weight_classify", "inf p", lambda: sm.power_weight_classify(0.5, INF, 1, depth=4), WeightError),
    ("power_weight_classify", "n = 0", lambda: sm.power_weight_classify(0.5, 2.0, 0, depth=4), WeightError),
    ("power_weight_grid", "n = 0", lambda: sm.power_weight_grid(0.5, 0, 4), WeightError),
    ("power_weight_grid", "NaN exponent", lambda: sm.power_weight_grid(NAN, 1, 4), WeightError),
    ("power_weight_grid", "inf exponent", lambda: sm.power_weight_grid(INF, 1, 4), WeightError),
    ("power_weight_grid", "one cell", lambda: sm.power_weight_grid(0.0, 2, 1).values[0, 0], close(1.0)),
    # --- covering
    ("RectFamily", "empty list", lambda: sm.RectFamily((4,), (1.0,), ()), SelectionError),
    ("RectFamily", "NaN cell side", lambda: sm.RectFamily((4,), (NAN,), (Rect((0,), (1,)),)), GridError),
    ("RectFamily", "rect of another dimension",
     lambda: sm.RectFamily((4,), (1.0,), (Rect((0, 0), (1, 1)),)), GridError),
    ("RectFamily", "rect off the grid", lambda: sm.RectFamily((4,), (1.0,), (Rect((0,), (4,)),)), GridError),
    ("cf_select", "NaN theta", lambda: sm.cf_select(FAMILY, NAN), SelectionError),
    ("cf_select", "one cell",
     lambda: sm.cf_select(sm.RectFamily((1,), (1.0,), (Rect((0,), (0,)),))).kept, lambda k: k == [0]),
    ("scattered_select", "NaN lambda", lambda: sm.scattered_select(FAMILY, NAN), SelectionError),
    ("scattered_select", "grids that do not match",
     lambda: sm.scattered_select(FAMILY, 0.5, w=OTHER), GridError),
    ("scattered_select", "weight on another grid", lambda: sm.scattered_select(FAMILY, 0.5, w=BIG), GridError),
    ("scattered_select", "1e306 weight",
     lambda: sm.scattered_select(FAMILY, 0.5, w=gf(np.full((4, 4), 1e306), h=(1.0, 1.0))).chain_constant,
     close(1.0)),
    # --- verification checks
    ("endpoint_check", "empty list", lambda: sm.endpoint_check([], 1.0), GridError),
    ("endpoint_check", "NaN lambda", lambda: sm.endpoint_check([ONES], NAN), GridError),
    ("endpoint_check", "inf lambda", lambda: sm.endpoint_check([ONES], INF), GridError),
    ("endpoint_check", "grids that do not match", lambda: sm.endpoint_check([ONES, OTHER], 1.0), GridError),
    ("endpoint_check", "one cell", lambda: sm.endpoint_check([ONE], 1.0), holds),
    # the right side, about 1e306 * 705, is past the largest double: ratio 0
    ("endpoint_check", "1e306 values",
     lambda: sm.endpoint_check([BIG], 1.0), lambda r: r.passed and r.ratio == 0.0),
    ("endpoint_check", "1e306 values, warnings as errors",
     strict(lambda: sm.endpoint_check([BIG], 1.0)), lambda r: r.passed and r.ratio == 0.0),
    ("endpoint_check", "1e-306 lambda",
     lambda: sm.endpoint_check([ONES], 1e-306), lambda r: r.passed and r.ratio == 0.0),
    # lambda^2 is past the largest double, so {M > lambda^2} is empty
    ("endpoint_check", "1e200 lambda, m = 2",
     lambda: sm.endpoint_check([ONES, ONES], 1e200), lambda r: r.passed and r.lhs == 0.0),
    ("one_weight_equivalence_check", "grids that do not match",
     lambda: sm.one_weight_equivalence_check(UNIT, [[OTHER]]), GridError),
    # a supremum over no test functions is 0
    ("one_weight_equivalence_check", "empty list",
     lambda: sm.one_weight_equivalence_check(UNIT, []), lambda r: r.stats["operator_ratio"] == 0.0),
    ("one_weight_equivalence_check", "one cell",
     lambda: sm.one_weight_equivalence_check(WeightVector((ONE,), (2.0,), q=2.0), [[ONE]]), holds),
    ("two_weight_power_bump_check", "NaN r",
     lambda: sm.two_weight_power_bump_check(UNIT, ONES, NAN, [[ONES]]), WeightError),
    ("two_weight_power_bump_check", "grids that do not match",
     lambda: sm.two_weight_power_bump_check(UNIT, ONES, 1.5, [[OTHER]]), GridError),
    ("vector_valued_check", "empty list",
     lambda: vector_valued([]), GridError),
    ("vector_valued_check", "r = 1",
     lambda: vector_valued([ONES], r=1.0), GridError),
    ("vector_valued_check", "NaN r",
     lambda: vector_valued([ONES], r=NAN), GridError),
    ("vector_valued_check", "inf p",
     lambda: vector_valued([ONES], p=INF), GridError),
    ("vector_valued_check", "grids that do not match",
     lambda: vector_valued([OTHER]), GridError),
    ("vector_valued_check", "one cell",
     lambda: vector_valued([ONE], w=ONE), holds),
    ("vector_valued_check", "1e150 values: the L^p integral overflows",
     lambda: vector_valued([gf(np.full((8, 8), 1e150))], w=gf(np.ones((8, 8)))), GridError),
    ("vector_valued_check", "1e-150 values: the L^p integral underflows",
     lambda: vector_valued([gf(np.full((8, 8), 1e-150))], w=gf(np.ones((8, 8)))), GridError),
    ("prop35_counterexample", "lmax = 1", lambda: sm.prop35_counterexample(1), GridError),
    ("weight_theory_suite", "no samples", lambda: sm.weight_theory_suite(0, shape=(4, 4)), holds),
    ("weight_theory_suite", "grid that is not square", lambda: sm.weight_theory_suite(2, shape=(4, 8)), GridError),
    ("run_all", "empty list", lambda: sm.run_all(0, []), lambda r: r == {}),
    ("run_all", "unknown job", lambda: sm.run_all(0, ["rings"]), GridError),
]

# records of results, and the query that the operators check when they run
RECORDS = {"CheckReport", "MaximalQuery", "PrefixSum", "SelectionResult", "VerificationReport",
           "YoungFunction"}


def test_every_public_entry_point_has_rows():
    public = {name for name, obj in vars(sm).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and not (inspect.isclass(obj) and issubclass(obj, Exception))}
    assert public - RECORDS - {entry for entry, *_ in TABLE} == set()


@pytest.mark.parametrize("entry,label,call,expect", TABLE, ids=[f"{e}: {lab}" for e, lab, *_ in TABLE])
def test_edge_input(entry, label, call, expect):
    if inspect.isclass(expect) and issubclass(expect, Exception):
        with pytest.raises(expect):
            call()
    else:
        assert expect(call())
