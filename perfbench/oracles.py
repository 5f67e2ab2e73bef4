"""Independent oracles for the benchmark's output checks.

Nothing here imports strongmax. Each oracle recomputes its answer from raw
cell values with its own rectangle enumeration and its own cell sums. Every
cell sum adds nonnegative terms only (cumulative sums anchored at a cell, or
products with 0/1 interval matrices), so no sum loses digits to
cancellation. The program differences whole-grid prefix sums instead, so
the two agree to a relative tolerance, not bit for bit (see README.md,
"Checks").
"""

from __future__ import annotations

import itertools

import numpy as np


# --- all-rectangles maximal operator -------------------------------------------


def _anchored_sums(values: np.ndarray, x: tuple[int, ...]) -> np.ndarray:
    """Cell sums of every box that contains cell x.

    The result has 2n axes (i_1, j_1, ..., i_n, j_n); entry [i, j] is the sum
    over the box prod_k [x_k - i_k, x_k + j_k]. It is the sum of 2^n orthant
    sums: per axis, the low part [x_k - i_k, x_k] and the high part
    (x_k, x_k + j_k], each a cumulative sum running away from x.
    """
    n = values.ndim
    total = np.zeros(
        tuple(d for k in range(n) for d in (x[k] + 1, values.shape[k] - x[k]))
    )
    for high in itertools.product((False, True), repeat=n):
        block = values
        layout = []
        for k in range(n):
            if high[k]:
                part = np.take(block, np.arange(x[k] + 1, values.shape[k]), axis=k)
                pad = [(0, 0)] * n
                pad[k] = (1, 0)  # j_k = 0: the empty high part
                block = np.pad(part, pad)
                layout += [1, block.shape[k]]
            else:
                block = np.take(block, np.arange(x[k], -1, -1), axis=k)
                layout += [block.shape[k], 1]
        for k in range(n):
            block = np.cumsum(block, axis=k)
        total = total + block.reshape(layout)
    return total


def maximal_at(
    fs: list[np.ndarray], h: tuple[float, ...], alpha: float, x: tuple[int, ...]
) -> float:
    """max over boxes R containing cell x of |R|^(alpha/n - m) prod_i integral_R f_i."""
    n = fs[0].ndim
    e = alpha / n - len(fs)
    vol = 1.0
    for k in range(n):
        i = np.arange(x[k] + 1)[:, None]
        j = np.arange(fs[0].shape[k] - x[k])[None, :]
        side = ((i + j + 1) * h[k]).reshape(
            [1] * (2 * k) + list(np.broadcast_shapes(i.shape, j.shape)) + [1] * (2 * (n - k - 1))
        )
        vol = vol * side
    cellvol = float(np.prod(h))
    val = vol**e
    for f in fs:
        val = val * (_anchored_sums(f, x) * cellvol)
    return float(val.max())


def separable_parts(values: np.ndarray) -> tuple[float, list[np.ndarray]] | None:
    """(c, [mask_1, ..., mask_n]) when values = c * outer product of interval masks.

    Rectangle indicators and single-cell spikes have this form; anything else
    gives None.
    """
    support = values > 0
    if not support.any():
        return None
    c = float(values[support].max())
    if not np.all(values[support] == c):
        return None
    n = values.ndim
    masks = [
        support.any(axis=tuple(j for j in range(n) if j != k)) for k in range(n)
    ]
    outer = masks[0]
    for mk in masks[1:]:
        outer = np.multiply.outer(outer, mk)
    if not np.array_equal(outer, support):
        return None
    for mk in masks:
        idx = np.flatnonzero(mk)
        if idx[-1] - idx[0] + 1 != idx.size:
            return None
    return c, masks


def _axis_best(masks: list[np.ndarray], hk: float, e: float, chunk: int = 256) -> np.ndarray:
    """best[x] = max over intervals [a, b] containing x of
    (L hk)^e * prod_i (|[a, b] cap J_i| hk), with L = b - a + 1 and J_i = masks[i]."""
    nk = masks[0].size
    counts = [np.concatenate([[0], np.cumsum(mk.astype(np.int64))]) for mk in masks]
    b = np.arange(nk)
    best = np.full(nk, -np.inf)
    for a0 in range(0, nk, chunk):
        a = np.arange(a0, min(a0 + chunk, nk))[:, None]
        with np.errstate(divide="ignore"):
            val = (np.maximum(b - a + 1, 1) * hk) ** e
        for cnt in counts:
            val = val * ((cnt[b + 1][None, :] - cnt[a]) * hk)
        val = np.where(b >= a, val, -np.inf)
        # suffix max over b >= x, then keep rows whose interval starts at or before x
        suffix = np.maximum.accumulate(val[:, ::-1], axis=1)[:, ::-1]
        suffix = np.where(b >= a, suffix, -np.inf)
        best = np.maximum(best, suffix.max(axis=0))
    return best


def separable_maximal(
    parts: list[tuple[float, list[np.ndarray]]], h: tuple[float, ...], alpha: float
) -> np.ndarray:
    """Whole-grid maximal function of a tuple of separable functions.

    |R|^e prod_i c_i |R cap Q_i| factorises over the axes of R, so the
    supremum over boxes containing x is prod_i c_i times the product of
    per-axis interval maxima at x_k.
    """
    n = len(h)
    e = alpha / n - len(parts)
    out = np.ones(())
    for k in range(n):
        out = np.multiply.outer(out, _axis_best([p[1][k] for p in parts], h[k], e))
    for c, _ in parts:
        out = out * c
    return out


# --- weight constants over 2-D bases ---------------------------------------------


def _interval_matrix(n: int) -> np.ndarray:
    """M[lo * n + hi, c] = 1 where lo <= c <= hi: row lo * n + hi sums an interval."""
    lo, hi = np.divmod(np.arange(n * n), n)
    c = np.arange(n)
    return ((lo[:, None] <= c) & (c <= hi[:, None])).astype(np.float64)


class Boxes2D:
    """Every box of an n0 x n1 grid, with the benchmark's own basis masks.

    Box sums are M0 @ values @ M1.T with interval matrices of zeros and
    ones, so each sum adds nonnegative terms only.
    """

    def __init__(self, shape: tuple[int, int], h: tuple[float, float]):
        self.h = h
        self.shape = shape
        self.m0 = _interval_matrix(shape[0])
        self.m1 = _interval_matrix(shape[1])
        lo0, hi0, lo1, hi1 = np.meshgrid(
            np.arange(shape[0]), np.arange(shape[0]),
            np.arange(shape[1]), np.arange(shape[1]), indexing="ij",
        )
        self.valid = (hi0 >= lo0) & (hi1 >= lo1)
        self.len0 = np.where(self.valid, hi0 - lo0 + 1, 1)
        self.len1 = np.where(self.valid, hi1 - lo1 + 1, 1)
        self.ncells = (self.len0 * self.len1).astype(np.float64)
        self.volume = (self.len0 * h[0]) * (self.len1 * h[1])
        self.lo0, self.lo1 = lo0, lo1

    def mask(self, kind: str) -> np.ndarray:
        if kind == "all":
            return self.valid
        if kind == "cubes":
            if self.h[0] != self.h[1]:
                raise ValueError("cube oracle needs equal cell sides")
            return self.valid & (self.len0 == self.len1)
        if kind == "dyadic":
            def dyadic(length, lo):
                return ((length & (length - 1)) == 0) & (lo % length == 0)

            return self.valid & dyadic(self.len0, self.lo0) & dyadic(self.len1, self.lo1)
        raise ValueError(f"unknown basis {kind!r}")

    def avg(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Averages (cell sum over cell count) of the boxes in mask."""
        n0, n1 = self.shape
        sums = (self.m0 @ values @ self.m1.T).reshape(n0, n0, n1, n1)
        return sums[mask] / self.ncells[mask]


def _conj(p: float) -> float:
    return p / (p - 1.0)


def weight_constants(
    boxes: Boxes2D, kind: str, ws: tuple[np.ndarray, np.ndarray],
    ps: tuple[float, float], q: float, r: float, v: np.ndarray,
) -> dict[str, float]:
    """ap (of ws[0] at ps[0]), apvec, apq and bump (alpha = 0) over one basis."""
    mask = boxes.mask(kind)
    p = 1.0 / sum(1.0 / pi for pi in ps)
    pps = [_conj(pi) for pi in ps]

    def avg(values: np.ndarray) -> np.ndarray:
        return boxes.avg(values, mask)

    w0, p0, pp0 = ws[0], ps[0], pps[0]
    ap = avg(w0) * avg(w0 ** (1.0 - pp0)) ** (p0 / pp0)
    apvec = avg(np.prod([w ** (p / pi) for w, pi in zip(ws, ps)], axis=0))
    apq = avg(np.prod(ws, axis=0) ** q) ** (1.0 / q)
    vol_exp = 1.0 / q - 1.0 / p
    bump = boxes.volume[mask] ** vol_exp * avg(v) ** (1.0 / q)
    for w, pp in zip(ws, pps):
        apvec = apvec * avg(w ** (1.0 - pp)) ** (p / pp)
        apq = apq * avg(w ** -pp) ** (1.0 / pp)
        bump = bump * avg(w ** ((1.0 - pp) * r)) ** (1.0 / (r * pp))
    return {name: float(val.max()) for name, val in
            (("ap", ap), ("apvec", apvec), ("apq", apq), ("bump", bump))}


def relative_error(got: np.ndarray | float, want: np.ndarray | float) -> float:
    """max |got - want| / |want|, with 0/0 read as 0."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    diff = np.abs(got - want)
    scale = np.abs(want)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(diff == 0, 0.0, diff / scale)
    return float(np.max(rel))
