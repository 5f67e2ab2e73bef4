"""Discrete grids, rectangles, bases and fast rectangle sums.

Functions are piecewise constant on a uniform n-dimensional grid (n <= 3).
A rectangle is a union of whole cells, given by inclusive per-axis cell
index ranges, so every integral over a rectangle is a finite sum and every
supremum over a basis is a finite maximum.

A basis is enumerated one Rect at a time (enumerate_basis, the reference),
by cell-count tuple (basis_sizes, for the maximal operators), or as tables
of rects in enumeration order (basis_tables, for the weight constants).
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
        n = len(self.shape)
        if not 1 <= n <= MAX_DIMS:
            raise GridError(f"dims must be in 1..{MAX_DIMS}, got {n}")
        if any(int(s) < 1 for s in self.shape):
            raise GridError("shape entries must be >= 1")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        h = _as_tuple(self.cell_size, n, "cell_size")
        if any(not (hk > 0) for hk in h):
            raise GridError("cell_size entries must be positive")
        object.__setattr__(self, "cell_size", tuple(float(hk) for hk in h))
        org = self.origin if self.origin else (0.0,) * n
        object.__setattr__(self, "origin", tuple(float(o) for o in _as_tuple(org, n, "origin")))
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
    scale_bounds: optional (min_side, max_side) filter on physical side
    lengths.
    """

    kind: str = ALL_RECTS
    scale_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise GridError(f"unknown basis kind {self.kind!r}")


def _axis_ranges_all(n_cells: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n_cells) for b in range(a, n_cells)]


def _axis_ranges_dyadic(n_cells: int) -> list[tuple[int, int]]:
    if n_cells & (n_cells - 1):
        raise GridError(f"dyadic basis needs power-of-two sides, got {n_cells}")
    out = []
    length = n_cells
    while length >= 1:
        for start in range(0, n_cells, length):
            out.append((start, start + length - 1))
        length //= 2
    return out


def enumerate_basis(basis: Basis, shape: Sequence[int], cell_size: Sequence[float] | None = None) -> Iterator[Rect]:
    """Yield every rectangle of the basis exactly once."""
    shape = tuple(int(s) for s in shape)
    n = len(shape)
    h = tuple(float(x) for x in cell_size) if cell_size is not None else (1.0,) * n

    if basis.kind == ALL_RECTS:
        per_axis = [_axis_ranges_all(nk) for nk in shape]
    elif basis.kind == DYADIC_RECTS:
        per_axis = [_axis_ranges_dyadic(nk) for nk in shape]
    else:  # cubes: equal physical sides within one cell width
        yield from _enumerate_cubes(shape, h, basis.scale_bounds)
        return

    lo_s, hi_s = basis.scale_bounds if basis.scale_bounds else (0.0, np.inf)
    for combo in itertools.product(*per_axis):
        sides = [(b - a + 1) * hk for (a, b), hk in zip(combo, h)]
        if min(sides) < lo_s or max(sides) > hi_s:
            continue
        yield Rect(tuple(a for a, _ in combo), tuple(b for _, b in combo))


def _cube_counts(shape, h, scale_bounds) -> Iterator[tuple[int, ...]]:
    """Per-axis cell counts of the cubes basis, in enumeration order."""
    tol = max(h)
    lo_s, hi_s = scale_bounds if scale_bounds else (0.0, np.inf)
    for c0 in range(1, shape[0] + 1):
        side0 = c0 * h[0]
        if not (lo_s <= side0 <= hi_s):
            continue
        counts_per_axis = []
        for k in range(1, len(shape)):
            # equal physical sides "within one cell": strictly closer than
            # one cell width, so uniform grids yield exact cubes only
            opts = [c for c in range(1, shape[k] + 1) if abs(c * h[k] - side0) < tol * (1 - 1e-12)]
            counts_per_axis.append(opts)
        for rest in itertools.product(*counts_per_axis):
            yield (c0,) + rest


def _enumerate_cubes(shape, h, scale_bounds):
    n = len(shape)
    for counts in _cube_counts(shape, h, scale_bounds):
        anchors = [range(shape[k] - counts[k] + 1) for k in range(n)]
        for lo in itertools.product(*anchors):
            yield Rect(lo, tuple(l + c - 1 for l, c in zip(lo, counts)))


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
    for ax in range(f.dims):
        cum = np.cumsum(cum, axis=ax)
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
    cum = p.cum
    lo, hi = r.lo, r.hi

    def rec(axis: int, tail: tuple) -> float:
        if axis < 0:
            return float(cum[tail])
        return rec(axis - 1, (hi[axis] + 1, *tail)) - rec(axis - 1, (lo[axis], *tail))

    return rec(r.dims - 1, ())


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
# A basis as arrays: by cell-count tuple, or as rows of index arrays, so a
# supremum over the basis is a few numpy operations per size or per block of
# rows rather than Python work per rectangle.

# Rows per block of a basis table. Bases are built and reduced one block at
# a time, so memory stays flat however many rectangles a basis has.
RECT_BLOCK = 1 << 14


@dataclass(frozen=True)
class RectTable:
    """Rectangles as rows: row j is the rect with inclusive cell index ranges
    lo[j, k]..hi[j, k] per axis k; lo and hi are int arrays of shape (R, n).

    Every per-row quantity is the same floating-point expression, in the same
    order, as its per-Rect counterpart, so the two agree bit for bit.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return self.lo.shape[0]

    def rect(self, j: int) -> Rect:
        return Rect(tuple(self.lo[j].tolist()), tuple(self.hi[j].tolist()))

    def cell_counts(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def n_cells(self) -> np.ndarray:
        """Cells per rect as floats, float(prod(r.cell_counts()))."""
        return np.prod(self.cell_counts(), axis=1).astype(np.float64)

    def cell_sums(self, p: PrefixSum) -> np.ndarray:
        """rect_cell_sum of every row: the same prefix-sum differences,
        nested with axis 0 innermost."""
        cum, lo, hi = p.cum, self.lo, self.hi

        def rec(axis: int, tail: tuple) -> np.ndarray:
            if axis < 0:
                return cum[tail]
            return rec(axis - 1, (hi[:, axis] + 1, *tail)) - rec(axis - 1, (lo[:, axis], *tail))

        return rec(lo.shape[1] - 1, ())

    def cell_mins(self, mins: np.ndarray) -> np.ndarray:
        """Minimum cell value of every row, from a box_min_table.

        Each rect is covered by 2**n boxes of 2**k_j cells along axis j, with
        k_j = floor(log2(count_j)); a minimum rounds nothing, so this equals
        np.min over the rect's cells.
        """
        lev = np.frexp(self.cell_counts())[1] - 1
        far = self.hi + 1 - (1 << lev)
        n = lev.shape[1]
        corners = itertools.product(*[(self.lo[:, k], far[:, k]) for k in range(n)])
        levels = tuple(lev[:, k] for k in range(n))
        return np.minimum.reduce([mins[idx + levels] for idx in corners])


def box_min_table(values: np.ndarray) -> np.ndarray:
    """Sparse table of box minima for RectTable.cell_mins.

    T[i_1, ..., i_n, k_1, ..., k_n] is the minimum of values over the box of
    2**k_j cells along axis j starting at cell i (+inf where it leaves the
    grid).
    """
    table = np.asarray(values, dtype=np.float64)
    for axis, n_cells in enumerate(np.shape(values)):
        levels = [np.moveaxis(table, axis, 0)]
        while 2 ** len(levels) <= n_cells:
            prev, span = levels[-1], 2 ** (len(levels) - 1)
            nxt = np.full_like(prev, np.inf)
            nxt[: n_cells - span] = np.minimum(prev[: n_cells - span], prev[span:])
            levels.append(nxt)
        table = np.moveaxis(np.stack(levels, axis=-1), 0, axis)
    return table


def basis_sizes(
    basis: Basis, shape: Sequence[int], cell_size: Sequence[float] | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(counts, step) for each cell-count tuple of the basis: its rects of
    that size have their lowest cells on the anchors 0, step, 2*step, ...
    along each axis. step is the counts for the dyadic basis and 1
    otherwise; scale bounds filter the per-axis lengths, as in basis_tables.
    Each count tuple comes once, in lexicographic order.
    """
    shape = tuple(int(s) for s in shape)
    n = len(shape)
    h = tuple(float(x) for x in cell_size) if cell_size is not None else (1.0,) * n
    if basis.kind == CUBES:
        for counts in _cube_counts(shape, h, basis.scale_bounds):
            yield counts, (1,) * n
        return
    lo_s, hi_s = basis.scale_bounds if basis.scale_bounds else (0.0, np.inf)
    per_axis = []
    for nk, hk in zip(shape, h):
        if basis.kind == ALL_RECTS:
            lengths = range(1, nk + 1)
        else:
            lengths = sorted({b - a + 1 for a, b in _axis_ranges_dyadic(nk)})
        per_axis.append([c for c in lengths if lo_s <= c * hk <= hi_s])
    for counts in itertools.product(*per_axis):
        yield counts, counts if basis.kind == DYADIC_RECTS else (1,) * n


def size_cells(values: np.ndarray, counts: tuple[int, ...], step: tuple[int, ...]) -> np.ndarray:
    """Row j holds the cells of the j-th rect of the given cell counts whose
    lowest cell is on the anchors 0, step, 2*step, ... (anchors in C order),
    in the C order of values[r.slices()].ravel()."""
    win = sliding_window_view(values, counts)[tuple(slice(None, None, s) for s in step)]
    return win.reshape(-1, math.prod(counts))


def basis_tables(
    basis: Basis, shape: Sequence[int], cell_size: Sequence[float] | None = None
) -> Iterator[RectTable]:
    """The rects of enumerate_basis, in its order, as tables of at most
    RECT_BLOCK rows each."""
    shape = tuple(int(s) for s in shape)
    h = tuple(float(x) for x in cell_size) if cell_size is not None else (1.0,) * len(shape)
    if basis.kind == CUBES:
        for counts in _cube_counts(shape, h, basis.scale_bounds):
            starts = [np.arange(nk - c + 1) for nk, c in zip(shape, counts)]
            yield from _product_tables([(a, a + (c - 1)) for a, c in zip(starts, counts)])
        return
    lo_s, hi_s = basis.scale_bounds if basis.scale_bounds else (0.0, np.inf)
    per_axis = []
    for nk, hk in zip(shape, h):
        if basis.kind == ALL_RECTS:
            a, b = np.triu_indices(nk)
        else:
            a, b = np.array(_axis_ranges_dyadic(nk)).T
        # a rect is skipped when any side leaves the bounds, so filtering
        # each axis first keeps the product's order
        side = (b - a + 1) * hk
        keep = (side >= lo_s) & (side <= hi_s)
        per_axis.append((a[keep], b[keep]))
    yield from _product_tables(per_axis)


def _product_tables(per_axis: list[tuple[np.ndarray, np.ndarray]]) -> Iterator[RectTable]:
    """Rows of itertools.product over per-axis (lo, hi) ranges, last axis
    fastest, in blocks of RECT_BLOCK."""
    sizes = tuple(len(a) for a, _ in per_axis)
    total = int(np.prod(sizes))
    for start in range(0, total, RECT_BLOCK):
        idx = np.unravel_index(np.arange(start, min(total, start + RECT_BLOCK)), sizes)
        lo = np.stack([a[i] for (a, _), i in zip(per_axis, idx)], axis=1)
        hi = np.stack([b[i] for (_, b), i in zip(per_axis, idx)], axis=1)
        yield RectTable(lo, hi)


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
