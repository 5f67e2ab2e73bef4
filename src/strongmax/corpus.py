"""Seeded test-function corpus for the verification checks.

Four shape families, cycled: indicators of random rectangles, sums of three
separable bump tensors, single-cell spikes (the endpoint-extremal shape),
and log-normal noise. Everything is nonnegative and fully determined by the
seed, grid shape, and count.

Shape parameters are drawn as fractions of the domain from a per-function
child seed, so the corpus at one resolution is a sampling of the same
underlying functions as at another: refining the grid refines the corpus
(the log-normal family is consistent in distribution only).
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, grid_axes


def _axis_centers(s: int) -> np.ndarray:
    return (np.arange(s) + 0.5) / s


def _rect_indicator(rng: np.random.Generator, shape) -> np.ndarray:
    masks = []
    for s in shape:
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        centers = _axis_centers(s)
        m = (centers >= lo) & (centers < hi)
        if not m.any():  # degenerate thin rect: take the cell at its midpoint
            m[min(int((lo + hi) / 2 * s), s - 1)] = True
        masks.append(m.astype(np.float64))
    out = masks[0]
    for m in masks[1:]:
        out = np.multiply.outer(out, m)
    return out


def _bump_sum(rng: np.random.Generator, shape) -> np.ndarray:
    out = np.zeros(shape)
    for _ in range(3):
        amp = float(rng.uniform(0.2, 2.0))
        axes = []
        for s in shape:
            center = rng.uniform(0.0, 1.0)
            width = rng.uniform(1.0 / 16, 0.5)
            x = _axis_centers(s)
            axes.append(np.exp(-(((x - center) / width) ** 2)))
        bump = axes[0]
        for a in axes[1:]:
            bump = np.multiply.outer(bump, a)
        out += amp * bump
    return out


def _spike(rng: np.random.Generator, shape) -> np.ndarray:
    out = np.zeros(shape)
    idx = tuple(min(int(rng.uniform() * s), s - 1) for s in shape)
    out[idx] = float(rng.uniform(0.5, 4.0))
    return out


def _lognormal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.lognormal(mean=0.0, sigma=1.0, size=shape)


_KINDS = (_rect_indicator, _bump_sum, _spike, _lognormal)


def make_corpus(
    shape, cell_size, seed: int, count: int = 50
) -> list[GridFunction]:
    """Deterministic corpus of `count` nonnegative grid functions."""
    shape, _ = grid_axes(shape, cell_size)
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        values = _KINDS[i % len(_KINDS)](rng, shape)
        out.append(GridFunction(shape, cell_size, values))
    return out
