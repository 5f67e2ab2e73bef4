"""strongmax benchmark: one workload per run, every output checked.

Run from the root of a strongmax checkout:

    python3 perfbench/run.py --workload {verify-seed,maximal-sweep,weight-constants} \
        --seed N --seconds S --trace {0,1}

The program is imported from ./src of the checkout. The run times the
import five times (here and in four fresh interpreters) and sets up its
inputs five times; set-up time is the sum of the two medians. Then it runs
whole rounds of the workload's operations for up to S seconds, at least one
round: a round starts only if a round as long as the last one still ends
within S.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a run with every layer wrapped (layertrace.py). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the machine
fingerprint. Failed checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 5
# one process, at most the pool's threads: keep BLAS single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-seed", "maximal-sweep", "weight-constants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _source_id() -> str:
    """Digest of the program's source files, naming the code under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "strongmax").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _fresh_import_s() -> float:
    """Import time of numpy and strongmax in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import numpy, strongmax; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def _fingerprint(np, verify, kernels) -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    order = ("AVX512_SPR", "AVX512_ICL", "AVX512_SKX", "AVX512F", "AVX2", "AVX",
             "SSE42", "SVE", "ASIMD", "NEON", "VSX4", "VSX3", "VX")
    simd = next((f for f in order if features.get(f)), "baseline")
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": simd,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "strongmax_uses_numba": bool(kernels.USING_NUMBA),
        "verify_threads": verify.thread_count(),
        "source_id": _source_id(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "strongmax" / "__init__.py").is_file():
        print(f"error: no strongmax sources under {SRC}; run from a strongmax checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    import strongmax
    from strongmax import _kernels, verify
    import_s = time.perf_counter() - t0
    if Path(strongmax.__file__).resolve().parent != (SRC / "strongmax").resolve():
        print(f"error: imported strongmax from {strongmax.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layertrace
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, digest_file=str(OUT / "verify-report-digests.json"), source_id=_source_id())
    tracer = layertrace.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # this process imports once; fresh interpreters give the other samples
    import_s = [import_s] + [_fresh_import_s() for _ in range(SETUPS - 1)]
    setup_s, corpus_s = [], []
    for _ in range(SETUPS):
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
        if tracer:
            corpus_s.append(tracer.seconds["corpus.make_corpus"])
    if tracer:
        tracer.reset()

    rec = workloads.Recorder()
    walls = []
    start = now = time.perf_counter()
    while True:
        last = now
        walls.append(workload.round(rec))
        now = time.perf_counter()
        if (now - start) + (now - last) > args.seconds:  # the next round would overrun
            break
    if tracer:
        tracer.uninstall()
    rec.check(bool(rec.op_s), "no operation succeeded")

    if tracer:
        values = tracer.metrics(len(walls), {
            "corpus.make_corpus.s": statistics.median(corpus_s),
            "trace.wall_s": statistics.median(walls),
        })
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layertrace.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * statistics.median(rec.op_s or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for problem in rec.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"rounds {len(walls)}, round walls {[round(w, 3) for w in walls]}", file=sys.stderr)
    print("fingerprint " + json.dumps(_fingerprint(np, verify, _kernels), sort_keys=True))
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
