"""The engine against the true maximal function at alpha = 0.

``exact_oracle.exact_maximal`` gives the true supremum in rationals. The
engine's value at a cell is the largest of its computed rect values, and a
maximum rounds nothing, so its error is the error of one rect's value:
a cell sum differenced from prefix sums, which carries the roundings of
the additions inside the rect's prefix boxes (up to about one per cell of
the grid, relative to the largest sum differenced), then the volume, one
libm pow and m + 1 products, a few ulps. On values in [0, 3), as the
suite's other tests draw them, a rect that wins a supremum holds enough
mass that the differencing keeps its digits: the worst seen was 168 ulps
over 4,000 random grids of up to 6 x 6 cells (a 6 x 1 cubes grid, m = 2)
and 117 ulps over 80 1-D grids of 128 cells (m = 2), so BOUND leaves a
factor of three. It is pinned, not derived: inputs whose values span many
orders of magnitude cancel more (17,676 ulps on a 5 x 2 cubes grid of
log-normal cells, sigma = 3, m = 1, whose small cubes difference prefix
sums far larger than their own), and compensated prefix sums are the
remedy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import exact_maximal, ulps_off
from strongmax.grid import Basis, GridFunction
from strongmax.maximal import MaximalQuery, multilinear_fractional_maximal

BOUND = 512  # ulps of the exact value


def _ulps(seed, shape, kind, m):
    rng = np.random.default_rng(seed)
    h = tuple(rng.uniform(0.3, 1.5, len(shape)))
    fs = [GridFunction(shape, h, rng.uniform(0, 3, shape)) for _ in range(m)]
    got = multilinear_fractional_maximal(fs, MaximalQuery(basis=Basis(kind), m=m)).values
    return ulps_off(got, exact_maximal(fs, Basis(kind)))


@st.composite
def small_grids(draw):
    kind = draw(st.sampled_from(["all", "dyadic", "cubes"]))
    sides = st.sampled_from([1, 2, 4]) if kind == "dyadic" else st.integers(1, 6)
    shape = tuple(draw(st.lists(sides, min_size=1, max_size=2)))
    return shape, kind


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**31), small_grids(), st.integers(1, 2))
def test_small_grids_are_within_the_bound(seed, grid, m):
    shape, kind = grid
    assert _ulps(seed, shape, kind, m) <= BOUND


@pytest.mark.parametrize("kind", ["all", "dyadic", "cubes"])
@pytest.mark.parametrize("m", [1, 2])
def test_one_dimensional_128_is_within_the_bound(kind, m):
    assert _ulps(128 + m, (128,), kind, m) <= BOUND
