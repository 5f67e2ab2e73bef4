"""Per-layer tracing of strongmax from outside the package.

A Tracer replaces a layer's public functions, in every loaded strongmax
module namespace that binds them, with wrappers that count calls, work
items and inclusive wall seconds; `uninstall` puts the originals back.
Nothing under src/ is edited. Counters are shared by the threads of the
verification pool, so every update takes a lock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading
import time
from collections import defaultdict
from math import prod

# (module, function, layer key, wrapper kind)
LAYERS = (
    ("strongmax.grid", "build_prefix_sum", "grid.prefix_sum", "call"),
    ("strongmax.grid", "enumerate_basis", "grid.enumerate_basis", "generator"),
    ("strongmax.grid", "rect_cell_sum", "grid.rect_cell_sum", "call"),
    ("strongmax._kernels", "sweep_all_rects", "kernels.sweep", "sweep"),
    ("strongmax._kernels", "vol_pow_table", "kernels.vol_pow_table", "call"),
    ("strongmax.maximal", "multilinear_fractional_maximal", "maximal.operator", "call"),
    ("strongmax.maximal", "_maximal_rect_scan", "maximal.operator_enumerated", "call"),
    ("strongmax.maximal", "orlicz_maximal", "maximal.orlicz", "call"),
    ("strongmax.orlicz", "luxemburg_norm_values", "orlicz.luxemburg", "luxemburg"),
    ("strongmax.weights", "ap_constant", "weights.ap", "call"),
    ("strongmax.weights", "multi_weight_constant_ap", "weights.apvec", "call"),
    ("strongmax.weights", "multi_weight_constant_apq", "weights.apq", "call"),
    ("strongmax.weights", "power_bump_check", "weights.bump", "call"),
    ("strongmax.weights", "a_infty_classify", "weights.ainfty", "call"),
    ("strongmax.weights", "reverse_doubling_constant", "weights.rd", "call"),
    ("strongmax.weights", "power_weight_classify", "weights.power_classify", "call"),
    ("strongmax.covering", "cf_select", "covering.cf_select", "call"),
    ("strongmax.covering", "scattered_select", "covering.scattered_select", "call"),
    ("strongmax.young", "in_bp_star", "young.in_bp_star", "call"),
    ("strongmax.verify", "endpoint_check", "verify.endpoint_check", "call"),
    ("strongmax.verify", "run_all", "verify.run_all", "call"),
    ("strongmax.corpus", "make_corpus", "corpus.make_corpus", "call"),
)

# verify.JOBS keys: each job is timed by the CPU time of the pool thread that
# runs it, since its wall time also holds waits for the interpreter lock
JOB_NAMES = (
    "endpoint", "one-weight", "two-weight-bump", "two-weight-bump-skip",
    "vector-valued", "vector-valued-skip", "prop3.5", "prop3.6",
    "weight-theory", "covering",
)

# (metric, unit, better); every --trace 1 run prints all of them
PER_LAYER = (
    ("grid.prefix_sum.calls", "count", "lower"),
    ("grid.prefix_sum.s", "s", "lower"),
    ("grid.enumerate_basis.rects", "count", "lower"),
    ("grid.enumerate_basis.s", "s", "lower"),
    ("grid.rect_cell_sum.calls", "count", "lower"),
    ("grid.rect_cell_sum.s", "s", "lower"),
    ("kernels.sweep.calls", "count", "lower"),
    ("kernels.sweep.s", "s", "lower"),
    ("kernels.sweep.rects", "count", "lower"),
    ("kernels.sweep.rects_per_s", "1/s", "higher"),
    ("kernels.sweep.distinct_ratio", "ratio", "higher"),
    ("kernels.vol_pow_table.calls", "count", "lower"),
    ("kernels.vol_pow_table.s", "s", "lower"),
    ("maximal.operator.calls", "count", "lower"),
    ("maximal.operator.s", "s", "lower"),
    ("maximal.operator_enumerated.s", "s", "lower"),
    ("maximal.orlicz.calls", "count", "lower"),
    ("maximal.orlicz.s", "s", "lower"),
    ("orlicz.luxemburg.calls", "count", "lower"),
    ("orlicz.luxemburg.s", "s", "lower"),
    ("orlicz.phi_evals", "count", "lower"),
    ("orlicz.phi_evals_per_norm", "count", "lower"),
    *(
        (f"weights.{w}.{x}", u, "lower")
        for w in ("ap", "apvec", "apq", "bump", "ainfty", "rd", "power_classify")
        for x, u in (("calls", "count"), ("s", "s"))
    ),
    ("covering.cf_select.s", "s", "lower"),
    ("covering.scattered_select.s", "s", "lower"),
    ("young.in_bp_star.s", "s", "lower"),
    *((f"verify.job.{name}.s", "s", "lower") for name in JOB_NAMES),
    ("verify.endpoint_check.calls", "count", "lower"),
    ("verify.endpoint_check.s", "s", "lower"),
    ("verify.pool_overlap", "ratio", "higher"),
    ("corpus.make_corpus.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
)


def _strongmax_namespaces():
    return [
        vars(mod) for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "strongmax" or name.startswith("strongmax."))
    ]


class Tracer:
    """Counts and times the functions named in LAYERS while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._restore: list[tuple[dict, str, object]] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.seconds: dict[str, float] = defaultdict(float)
            self.items: dict[str, float] = defaultdict(float)
            self.sweep_inputs: set[bytes] = set()

    def _add(self, key: str, dt: float, **items: float) -> None:
        with self._lock:
            self.calls[key] += 1
            self.seconds[key] += dt
            for name, value in items.items():
                self.items[f"{key}.{name}"] += value

    # --- wrappers ------------------------------------------------------------

    def _call(self, fn, key):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, time.perf_counter() - t0)

        return wrapper

    def _generator(self, fn, key):
        # time spent inside the generator only, not in the consumer's loop body
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            spent, count = 0.0, 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        spent += time.perf_counter() - t0
                        return
                    spent += time.perf_counter() - t0
                    count += 1
                    yield item
            finally:
                self._add(key, spent, rects=count)

        return wrapper

    def _sweep(self, fn, key):
        def wrapper(P, h, e):
            digest = hashlib.sha1(P.tobytes() + repr((P.shape, tuple(h), e)).encode()).digest()
            rects = prod(k * (k - 1) // 2 for k in P.shape[1:])  # k = N + 1 prefix entries
            t0 = time.perf_counter()
            try:
                return fn(P, h, e)
            finally:
                self._add(key, time.perf_counter() - t0, rects=rects)
                with self._lock:
                    self.sweep_inputs.add(digest)

        return wrapper

    def _thread_cpu(self, fn, key):
        def wrapper(*args, **kwargs):
            t0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, time.thread_time() - t0)

        return wrapper

    def _luxemburg(self, fn, key):
        # passes a copy of phi whose eval counts calls: one per bisection step
        def wrapper(vals, cell_measure, total_measure, phi, *args, **kwargs):
            evals = 0

            def counting_eval(t):
                nonlocal evals
                evals += 1
                return phi.eval(t)

            counting = dataclasses.replace(phi, eval=counting_eval)
            t0 = time.perf_counter()
            try:
                return fn(vals, cell_measure, total_measure, counting, *args, **kwargs)
            finally:
                self._add(key, time.perf_counter() - t0, phi_evals=evals)

        return wrapper

    # --- install / uninstall -------------------------------------------------

    def install(self) -> None:
        namespaces = _strongmax_namespaces()
        for module, attr, key, kind in LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapper = getattr(self, f"_{kind}")(original, key)
            for ns in namespaces:
                for name, value in list(ns.items()):
                    if value is original:
                        self._restore.append((ns, name, original))
                        ns[name] = wrapper
        jobs = sys.modules["strongmax.verify"].JOBS  # run_all looks jobs up here
        for name, job in list(jobs.items()):
            self._restore.append((jobs, name, job))
            jobs[name] = self._thread_cpu(job, f"verify.job.{name}")

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._restore):
            ns[name] = original
        self._restore.clear()

    # --- metrics -------------------------------------------------------------

    def metrics(self, rounds: int, extra: dict[str, float]) -> dict[str, float]:
        """Per-round layer metrics (run totals divided by rounds), then `extra`."""
        out: dict[str, float] = {}
        with self._lock:
            for _, _, key, _ in LAYERS:
                out[f"{key}.calls"] = self.calls[key] / rounds
                out[f"{key}.s"] = self.seconds[key] / rounds
            out["grid.enumerate_basis.rects"] = self.items["grid.enumerate_basis.rects"] / rounds
            sweep_calls = self.calls["kernels.sweep"]
            sweep_rects = self.items["kernels.sweep.rects"]
            sweep_s = self.seconds["kernels.sweep"]
            out["kernels.sweep.rects"] = sweep_rects / rounds
            out["kernels.sweep.rects_per_s"] = sweep_rects / sweep_s if sweep_s else 0.0
            out["kernels.sweep.distinct_ratio"] = (
                len(self.sweep_inputs) / sweep_calls if sweep_calls else 0.0
            )
            job_s = 0.0
            for name in JOB_NAMES:
                job_s += self.seconds[f"verify.job.{name}"]
                out[f"verify.job.{name}.s"] = self.seconds[f"verify.job.{name}"] / rounds
            run_all_s = self.seconds["verify.run_all"]
            out["verify.pool_overlap"] = job_s / run_all_s if run_all_s else 0.0
            norms = self.calls["orlicz.luxemburg"]
            evals = self.items["orlicz.luxemburg.phi_evals"]
            out["orlicz.phi_evals"] = evals / rounds
            out["orlicz.phi_evals_per_norm"] = evals / norms if norms else 0.0
        out.update(extra)
        return {name: out.get(name, 0.0) for name, _, _ in PER_LAYER}
