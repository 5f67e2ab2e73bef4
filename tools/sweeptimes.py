"""Time one all-basis sweep per grid, for one member and for a batch.

For each grid, the median wall time of ``_kernels.sweep`` over every rect
of the all basis, after one warm-up call: m functions of log-normal cells
(sigma 1, a fixed seed) per member, cell sides 1/N_k, alpha = 0. The
columns are B = 1 and B = 8 members in one call, in ms. It imports the
package from the checkout it lives in, so running it in two checkouts
gives before and after rows of the sweep layer:

    python3 tools/sweeptimes.py
    python3 tools/sweeptimes.py --m 2 --repeats 3 --grids 4096 64x64
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strongmax import _kernels  # noqa: E402
from strongmax.grid import Basis, GridFunction, basis_sizes, build_prefix_sum  # noqa: E402

GRIDS = ["256", "1024", "4096", "1x4096", "64x64", "128x128", "12x12x12", "16x16x16"]
BATCHES = (1, 8)


def sweep_ms(shape: tuple[int, ...], m: int, batch: int, repeats: int) -> float:
    """The median time of one sweep of batch members on shape, in ms."""
    rng = np.random.default_rng(0)
    h = tuple(1.0 / k for k in shape)
    P = np.stack([np.stack([build_prefix_sum(GridFunction(shape, h, rng.lognormal(0, 1, shape))).cum
                            for _ in range(m)]) for _ in range(batch)], axis=1)
    sizes = list(basis_sizes(Basis("all"), shape, h))
    _kernels.sweep(P, h, -m, sizes)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernels.sweep(P, h, -m, sizes)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", nargs="+", default=GRIDS, help="shapes such as 4096 or 64x64")
    parser.add_argument("--m", type=int, default=1, help="functions per member")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per grid and batch")
    args = parser.parse_args(argv)
    print("grid " + " ".join(f"B={b}_ms" for b in BATCHES))
    for grid in args.grids:
        shape = tuple(int(k) for k in grid.split("x"))
        print(grid, " ".join(f"{sweep_ms(shape, args.m, b, args.repeats):.2f}" for b in BATCHES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
