"""Discrete grids, rectangles, bases and fast rectangle sums.

Functions are piecewise constant on a uniform n-dimensional grid (n <= 3).
A rectangle is a union of whole cells, given by inclusive per-axis cell
index ranges, so every integral over a rectangle is a finite sum and every
supremum over a basis is a finite maximum.

A basis is written once, as the cell counts it offers each axis
(_axis_lengths), and read three ways: one Rect at a time (enumerate_basis,
the reference); by cell-count tuple (basis_sizes, walked by
_kernels.fold_sizes for the maximal operators; window narrows cell values
for the Luxemburg norms of orlicz.size_norms); or in enumeration order as
blocks of per-axis interval lists whose product is the block's rects
(basis_blocks, for the weight constants), which block_cell_sums and
block_cell_mins reduce one axis at a time.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_DIMS = 3


class GridError(ValueError):
    """Invalid grid, rectangle or basis parameters."""


def _as_tuple(x, n: int, name: str) -> tuple:
    t = tuple(x) if isinstance(x, (tuple, list, np.ndarray)) else (x,) * n
    if len(t) != n:
        raise GridError(f"{name} must have {n} entries, got {len(t)}")
    return t


def grid_axes(shape, cell_size=None) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """shape and cell_size (a scalar, or 1.0 when None) as int and float
    tuples, checked: 1..MAX_DIMS axes of at least one cell each, and
    positive finite cell sides."""
    shape = tuple(int(s) for s in shape)
    if not 1 <= len(shape) <= MAX_DIMS:
        raise GridError(f"dims must be in 1..{MAX_DIMS}, got {len(shape)}")
    if min(shape) < 1:
        raise GridError("shape entries must be >= 1")
    h = _as_tuple(1.0 if cell_size is None else cell_size, len(shape), "cell_size")
    h = tuple(float(hk) for hk in h)
    if not all(0 < hk < math.inf for hk in h):
        raise GridError("cell_size entries must be positive and finite")
    return shape, h


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative piecewise-constant function on a uniform grid.

    values is stored with shape ``shape``; cell (i1,..,in) occupies the
    physical box ``origin_k + [i_k*h_k, (i_k+1)*h_k)`` per axis.
    """

    shape: tuple[int, ...]
    cell_size: tuple[float, ...]
    values: np.ndarray
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        shape, h = grid_axes(self.shape, self.cell_size)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cell_size", h)
        org = self.origin if self.origin else (0.0,) * len(shape)
        object.__setattr__(self, "origin", tuple(float(o) for o in _as_tuple(org, len(shape), "origin")))
        vals = np.asarray(self.values, dtype=np.float64).reshape(self.shape)
        if not np.all(np.isfinite(vals)):
            raise GridError("values must be finite")
        if np.any(vals < 0):
            raise GridError("values must be nonnegative")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dims(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.cell_size)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.shape == other.shape
            and self.cell_size == other.cell_size
            and self.origin == other.origin
        )

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.shape, self.cell_size, values, self.origin)

    def total_integral(self) -> float:
        # pairwise summation (np.sum) keeps results reproducible
        return float(np.sum(self.values)) * self.cell_volume


@dataclass(frozen=True)
class Rect:
    """Axis-parallel rectangle as inclusive per-axis cell index ranges."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(int(v) for v in self.lo)
        hi = tuple(int(v) for v in self.hi)
        if len(lo) != len(hi):
            raise GridError("lo/hi length mismatch")
        if any(l > h for l, h in zip(lo, hi)) or any(l < 0 for l in lo):
            raise GridError(f"invalid rect lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dims(self) -> int:
        return len(self.lo)

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def volume(self, cell_size: Sequence[float]) -> float:
        v = 1.0
        for c, h in zip(self.cell_counts(), cell_size):
            v *= c * h
        return v

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h + 1) for l, h in zip(self.lo, self.hi))

    def within(self, shape: Sequence[int]) -> bool:
        return all(h < nk for h, nk in zip(self.hi, shape))


def random_rect(rng: np.random.Generator, lo: Sequence[int], hi: Sequence[int]) -> Rect:
    """A random rect inside the box of cells lo .. hi (inclusive): its lowest
    cell uniform in the box, one axis after another, then its highest cell
    uniform between that and the box top, one axis after another."""
    low = [int(rng.integers(a, b + 1)) for a, b in zip(lo, hi)]
    return Rect(tuple(low), tuple(int(rng.integers(a, b + 1)) for a, b in zip(low, hi)))


ALL_RECTS = "all"
DYADIC_RECTS = "dyadic"
CUBES = "cubes"
_BASIS_KINDS = (ALL_RECTS, DYADIC_RECTS, CUBES)


@dataclass(frozen=True)
class Basis:
    """Enumerable family of rectangles over a grid shape.

    kind: "all" (every index range), "dyadic" (per-axis dyadic intervals,
    grid sides must be powers of two), or "cubes" (equal physical side
    lengths, within one cell).
    scale_bounds: optional (min_side, max_side); a rect of the basis has
    every physical side within them.
    """

    kind: str = ALL_RECTS
    scale_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise GridError(f"unknown basis kind {self.kind!r}")
        b = self.scale_bounds
        if b is not None and not (len(b) == 2 and 0 <= b[0] <= b[1]):
            raise GridError(f"scale_bounds must be (min_side, max_side) with 0 <= min_side <= max_side, got {b}")


def _axis_lengths(basis: Basis, nk: int, hk: float) -> list[int]:
    """The cell counts, ascending, of the basis's intervals on an axis of nk
    cells of side hk: every count for all and cubes, the powers of two for
    dyadic. Scale bounds keep the counts whose physical side lies within
    them, so a rect of the basis has every side within them."""
    if basis.kind == DYADIC_RECTS:
        if nk & (nk - 1):
            raise GridError(f"dyadic basis needs power-of-two sides, got {nk}")
        lengths = [1 << j for j in range(nk.bit_length())]
    else:
        lengths = range(1, nk + 1)
    lo_s, hi_s = basis.scale_bounds or (0.0, math.inf)
    return [c for c in lengths if lo_s <= c * hk <= hi_s]


def _count_tuples(basis: Basis, shape: tuple[int, ...], h: tuple[float, ...]) -> Iterator[tuple[int, ...]]:
    """The cell-count tuples of the basis, in lexicographic order: the
    product of the per-axis lengths. A cube keeps its other sides strictly
    closer than one cell width to its first, so uniform grids give exact
    cubes only."""
    first, *rest = [_axis_lengths(basis, nk, hk) for nk, hk in zip(shape, h)]
    if basis.kind != CUBES:
        yield from itertools.product(first, *rest)
        return
    tol = max(h) * (1 - 1e-12)
    for c0 in first:
        side0 = c0 * h[0]
        others = [[c for c in lengths if abs(c * hk - side0) < tol] for lengths, hk in zip(rest, h[1:])]
        yield from itertools.product([c0], *others)


def _axis_intervals(basis: Basis, nk: int, hk: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), the inclusive cell-index ranges of the basis's intervals on
    one axis (all or dyadic), in enumeration order: all by lowest cell, then
    by length; dyadic from the longest length down, each length tiling the
    axis."""
    lengths = _axis_lengths(basis, nk, hk)
    if basis.kind == DYADIC_RECTS:
        pairs = [(s, s + c - 1) for c in reversed(lengths) for s in range(0, nk, c)]
        return tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)
    lo, hi = np.triu_indices(nk)
    # the kept lengths are one run, so two comparisons select them
    first, last = (lengths[0], lengths[-1]) if lengths else (1, 0)
    span = hi - lo + 1
    keep = (span >= first) & (span <= last)
    return lo[keep], hi[keep]


def enumerate_basis(basis: Basis, shape: Sequence[int], cell_size: Sequence[float] | None = None) -> Iterator[Rect]:
    """Yield every rectangle of the basis exactly once."""
    shape, h = grid_axes(shape, cell_size)
    if basis.kind == CUBES:
        for counts in _count_tuples(basis, shape, h):
            for lo in itertools.product(*[range(nk - c + 1) for nk, c in zip(shape, counts)]):
                yield Rect(lo, tuple(l + c - 1 for l, c in zip(lo, counts)))
        return
    per_axis = [_axis_intervals(basis, nk, hk) for nk, hk in zip(shape, h)]
    for combo in itertools.product(*[zip(lo.tolist(), hi.tolist()) for lo, hi in per_axis]):
        yield Rect(tuple(a for a, _ in combo), tuple(b for _, b in combo))


@dataclass(frozen=True)
class PrefixSum:
    """n-dimensional inclusion-exclusion partial sums of cell values.

    cum has shape (N_1+1, ..., N_n+1); cum[i] = sum of values over the
    index box [0,i). Rectangle integrals follow by inclusion-exclusion and
    carry the physical cell volume.
    """

    shape: tuple[int, ...]
    cell_size: tuple[float, ...]
    cum: np.ndarray = field(repr=False)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.cell_size)


def build_prefix_sum(f: GridFunction) -> PrefixSum:
    cum = f.values.astype(np.float64)
    with np.errstate(over="ignore"):
        for ax in range(f.dims):
            cum = np.cumsum(cum, axis=ax)
    if cum.flat[-1] == math.inf:  # the total, the largest entry
        raise GridError("prefix sums leave the double range")
    cum = np.pad(cum, [(1, 0)] * f.dims)
    cum.setflags(write=False)
    return PrefixSum(f.shape, f.cell_size, cum)


def rect_cell_sum(p: PrefixSum, r: Rect) -> float:
    """Sum of cell values over r via inclusion-exclusion (no cell volume).

    Differences are nested with axis 0 innermost so the result is
    bit-identical to the sweep kernels, which difference axis by axis.
    """
    if not r.within(p.shape) or r.dims != len(p.shape):
        raise GridError(f"rect {r} out of bounds for shape {p.shape}")
    # the 2**n corner values in C order; each pass differences the leading
    # remaining axis, whose two halves are the list's two halves
    v = [p.cum.item(c) for c in itertools.product(*[(l, h + 1) for l, h in zip(r.lo, r.hi)])]
    while len(v) > 1:
        v = [b - a for a, b in zip(v[: len(v) // 2], v[len(v) // 2 :])]
    return v[0]


def rect_integral(p: PrefixSum, r: Rect) -> float:
    """Physical integral of the underlying function over r."""
    return rect_cell_sum(p, r) * p.cell_volume


def rect_average(p: PrefixSum, r: Rect) -> float:
    return rect_integral(p, r) / r.volume(p.cell_size)


def rect_integral_direct(f: GridFunction, r: Rect) -> float:
    """Direct per-cell summation; oracle for the prefix-sum path."""
    if not r.within(f.shape):
        raise GridError(f"rect {r} out of bounds for shape {f.shape}")
    return float(np.sum(f.values[r.slices()])) * f.cell_volume


# ---------------------------------------------------------------------------
# A basis as arrays: by cell-count tuple, or as blocks of per-axis interval
# lists whose product is the block's rects, so a supremum over the basis is a
# few numpy operations per size or per block rather than Python work per
# rectangle.

# Most rects per block. Bases are built and reduced one block at a time, so
# memory stays flat however many rectangles a basis has.
RECT_BLOCK = 1 << 14


def basis_sizes(
    basis: Basis, shape: Sequence[int], cell_size: Sequence[float] | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(counts, step) for each cell-count tuple of the basis: its rects of
    that size have their lowest cells on the anchors 0, step, 2*step, ...
    along each axis. step is the counts for the dyadic basis and 1
    otherwise; scale bounds filter the per-axis lengths, as in basis_blocks.
    Each count tuple comes once, in lexicographic order.
    """
    shape, h = grid_axes(shape, cell_size)
    ones = (1,) * len(shape)
    for counts in _count_tuples(basis, shape, h):
        yield counts, counts if basis.kind == DYADIC_RECTS else ones


def window(stack: np.ndarray, axis: int, c: int, s: int) -> np.ndarray:
    """A view of a stack of functions (m, N_1, ..., N_n) narrowed to the
    rects of count c along grid axis ``axis`` whose lowest cells are the
    anchors 0, s, 2*s, ...: that axis then holds the anchors, and a new last
    axis the c cells of each rect. Narrowed on every axis, the trailing axes
    hold a rect's cells in the C order of values[r.slices()]."""
    return sliding_window_view(stack, c, axis=axis + 1)[(slice(None),) * (axis + 1) + (slice(None, None, s),)]


# One (lo, hi) pair of int arrays per axis: the inclusive cell-index ranges of
# that axis. The block's rects are their product, last axis fastest.
Block = list[tuple[np.ndarray, np.ndarray]]


def basis_blocks(
    basis: Basis, shape: Sequence[int], cell_size: Sequence[float] | None = None
) -> Iterator[Block]:
    """The rects of enumerate_basis, in its order, as blocks.

    A cubes block holds one cell-count tuple with every anchor. The all and
    dyadic bases split the leading axis into runs, so that a block holds at
    most RECT_BLOCK rects (or one leading interval, when the other axes hold
    more).
    """
    shape, h = grid_axes(shape, cell_size)
    if basis.kind == CUBES:
        for counts in _count_tuples(basis, shape, h):
            starts = [np.arange(nk - c + 1) for nk, c in zip(shape, counts)]
            yield [(a, a + (c - 1)) for a, c in zip(starts, counts)]
        return
    (a, b), *rest = [_axis_intervals(basis, nk, hk) for nk, hk in zip(shape, h)]
    inner = math.prod(len(lo) for lo, _ in rest)
    if inner:  # else some axis keeps no interval and the basis is empty
        run = max(1, RECT_BLOCK // inner)
        for s in range(0, len(a), run):
            yield [(a[s : s + run], b[s : s + run]), *rest]


def block_cell_sums(p: PrefixSum, block: Block) -> np.ndarray:
    """rect_cell_sum of every rect of the block, shaped by its per-axis
    lengths: the same prefix-sum differences, nested with axis 0 innermost."""
    s = p.cum
    for k, (lo, hi) in enumerate(block):
        s = np.take(s, hi + 1, axis=k) - np.take(s, lo, axis=k)
    return s


def block_cell_mins(values: np.ndarray, block: Block) -> np.ndarray:
    """np.min over the cells of every rect of the block, shaped by its
    per-axis lengths.

    Each axis takes np.minimum.reduceat over the segments [lo, hi + 1), on
    the axis padded with +inf so that hi + 1 may equal its length, and keeps
    every other result; a minimum rounds nothing, so this equals np.min over
    the rect's cells.
    """
    m = np.asarray(values, dtype=np.float64)
    for k, (lo, hi) in enumerate(block):
        pad = [(0, 0)] * m.ndim
        pad[k] = (0, 1)
        edges = np.stack([lo, hi + 1], axis=1).ravel()
        m = np.minimum.reduceat(np.pad(m, pad, constant_values=np.inf), edges, axis=k)
        m = m[(slice(None),) * k + (slice(None, None, 2),)]
    return m


# ---------------------------------------------------------------------------
# Grid file format: text header, then row-major values as CSV (default) or
# IEEE-754 little-endian float64 binary after a "data" line.

_MAGIC = "# strongmax grid v1"


def write_grid(f: GridFunction, path: str, binary: bool = False) -> None:
    header = io.StringIO()
    header.write(_MAGIC + "\n")
    header.write(f"dims {f.dims}\n")
    header.write("shape " + " ".join(map(str, f.shape)) + "\n")
    header.write("cell_size " + " ".join(repr(h) for h in f.cell_size) + "\n")
    header.write("origin " + " ".join(repr(o) for o in f.origin) + "\n")
    header.write(f"format {'bin' if binary else 'csv'}\n")
    header.write("data\n")
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.getvalue().encode("ascii"))
            fh.write(f.values.astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(header.getvalue())
            flat = f.values.reshape(f.shape[0], -1)
            for row in flat:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_grid(path: str) -> GridFunction:
    with open(path, "rb") as fh:
        raw = fh.read()
    marker = raw.find(b"data\n")
    if marker < 0:
        raise GridError(f"{path}: not a strongmax grid file (no data section)")
    head_end = marker + len(b"data\n")
    lines = raw[:head_end].decode("ascii").splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise GridError(f"{path}: not a strongmax grid file")
    fields = {}
    for line in lines[1:]:
        if line.strip() == "data":
            break
        key, _, rest = line.partition(" ")
        fields[key] = rest.split()
    dims = _header_field(path, fields, "dims", int)[0]
    shape = tuple(_header_field(path, fields, "shape", int))
    cell_size = tuple(_header_field(path, fields, "cell_size", float))
    if "origin" in fields:
        origin = tuple(_header_field(path, fields, "origin", float))
    else:
        origin = (0.0,) * dims
    if len(shape) != dims:
        raise GridError(f"{path}: shape has {len(shape)} entries but dims is {dims}")
    fmt = fields.get("format", ["csv"])[0]
    body = raw[head_end:]
    count = int(np.prod(shape))
    if fmt == "bin":
        if len(body) < 8 * count:
            raise GridError(
                f"{path}: data holds {len(body)} bytes, shape {shape} needs {8 * count}"
            )
        values = np.frombuffer(body, dtype="<f8", count=count)
    elif fmt == "csv":
        try:
            values = np.loadtxt(io.StringIO(body.decode("ascii")), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise GridError(f"{path}: unreadable data: {exc}") from None
        if values.size != count:
            raise GridError(f"{path}: data holds {values.size} values, shape {shape} needs {count}")
    else:
        raise GridError(f"{path}: unknown format {fmt!r}")
    return GridFunction(shape, cell_size, np.asarray(values).reshape(shape), origin)


def _header_field(path: str, fields: dict, key: str, conv) -> list:
    if not fields.get(key):
        raise GridError(f"{path}: header has no {key!r} line")
    try:
        return [conv(v) for v in fields[key]]
    except ValueError:
        raise GridError(f"{path}: bad {key!r} entry {' '.join(fields[key])!r}") from None
