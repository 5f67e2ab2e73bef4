"""Time the Luxemburg solve on rows of log-normal cells, and count its work.

For each case, the median wall time of one ``orlicz.luxemburg_blocks`` call
on R rows of k cells (log-normal, sigma 1, a fixed seed; each row a set of
measure k cells of measure 1), after one warm-up call, for Phi_2 and t^2.5,
which start from a closed form, and Phi_3, which starts from the row max.
The columns are the median ms, the Phi calls of one call, and the Phi
passes per norm: the cells that went through Phi over the cells of all
rows, so a pass that leaves out the settled rows counts by its share. With
``--dense N`` it also times the Orlicz maximal operator of Phi_2 over the
all basis on one N x N grid of the same cells (one call, no warm-up). It
imports the package from the checkout it lives in, so running it in two
checkouts gives before and after rows of the Luxemburg layer:

    python3 tools/luxtimes.py
    python3 tools/luxtimes.py --repeats 3 --cases 20000x16 --dense 16
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strongmax.grid import Basis, GridFunction  # noqa: E402
from strongmax.maximal import MaximalQuery, orlicz_maximal  # noqa: E402
from strongmax.orlicz import luxemburg_blocks  # noqa: E402
from strongmax.young import phi_n, power  # noqa: E402

CASES = ["20000x16", "1200x256", "300x1024"]
PHIS = {"Phi_2": phi_n(2), "t^2.5": power(2.5), "Phi_3": phi_n(3)}


def counting(phi):
    """phi with an eval that adds each call and its cells to a tally."""
    tally = {"calls": 0, "cells": 0}

    def ev(t):
        tally["calls"] += 1
        tally["cells"] += np.size(t)
        return phi.eval(t)

    return dataclasses.replace(phi, eval=ev), tally


def case_row(rows: int, k: int, phi, repeats: int) -> tuple[float, int, float]:
    """(median ms, Phi calls, Phi passes per norm) of one call on rows x k."""
    cells = np.random.default_rng(0).lognormal(0.0, 1.0, (rows, k))
    counted, tally = counting(phi)
    luxemburg_blocks([(cells, float(k))], 1, 1.0, counted)
    calls, passes = tally["calls"], tally["cells"] / cells.size
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        luxemburg_blocks([(cells, float(k))], 1, 1.0, phi)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), calls, passes


def dense_s(n: int) -> float:
    """Seconds of one all-basis Phi_2 Orlicz maximal call on an n x n grid."""
    f = GridFunction((n, n), (1.0 / n, 1.0 / n), np.random.default_rng(0).lognormal(0.0, 1.0, (n, n)))
    start = time.perf_counter()
    orlicz_maximal([f], MaximalQuery(Basis("all"), 0.0, 1, (phi_n(2),)))
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", nargs="+", default=CASES, help="rows x cells, such as 20000x16")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per case and Young function")
    parser.add_argument("--dense", type=int, nargs="*", default=[], help="N of N x N Orlicz maximal calls")
    args = parser.parse_args(argv)
    print("case phi ms phi_calls passes_per_norm")
    for case in args.cases:
        rows, k = (int(x) for x in case.split("x"))
        for name, phi in PHIS.items():
            ms, calls, passes = case_row(rows, k, phi, args.repeats)
            print(case, name, f"{ms:.2f}", calls, f"{passes:.2f}", flush=True)
    for n in args.dense:
        print(f"dense {n}x{n} Phi_2 all-basis orlicz_maximal {dense_s(n):.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
