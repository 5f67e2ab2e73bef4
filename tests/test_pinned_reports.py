"""The report contract: ``strongmax verify --seed S`` bytes for S = 0..4.

tests/data/verify-seed-S.json holds the report that ``strongmax verify
--seed S --out FILE`` writes, that is ``reports_to_json(run_all(S))`` and a
newline. The files pin this machine's libm along with the code; the test
does not skip elsewhere, since a difference there is a real difference.
Seed 0 is also run in a subprocess with numpy's dispatched kernels turned
off (NPY_DISABLE_CPU_FEATURES), so the pins cannot come to rest on one CPU
level's exp, log or power. A change that means to alter report bits
regenerates the files (see README, Test) and says in CHANGES.md why and
which fields moved.
"""

import json
import os
import subprocess
import sys

import pytest

from strongmax import verify

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _first_difference(want, got, path=()):
    """The key path of the first differing field, in sorted key order, or
    None when the two parsed values are equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                return path + (key,)
            found = _first_difference(want[key], got[key], path + (key,))
            if found is not None:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (a, b) in enumerate(zip(want, got)):
            found = _first_difference(a, b, path + (i,))
            if found is not None:
                return found
        return None
    # repr tells 0.1 from 0.1000000000000001 and -0.0 from 0.0
    return None if repr(want) == repr(got) and type(want) is type(got) else path


def _assert_pinned(seed, got, where=""):
    """got is the pinned report of seed, or the test fails naming the first
    differing job and field."""
    with open(os.path.join(DATA, f"verify-seed-{seed}.json")) as fh:
        want = fh.read()
    if got == want:
        return
    path = _first_difference(json.loads(want), json.loads(got))
    if path is None:
        pytest.fail(f"seed {seed}{where}: same fields, different bytes (formatting)")
    job, field = path[0], ".".join(map(str, path[1:])) or "(whole report)"
    pytest.fail(f"seed {seed}{where}: job {job!r} differs first in field {field}")


@pytest.mark.parametrize("seed", range(5))
def test_verify_report_bytes_are_pinned(seed):
    _assert_pinned(seed, verify.reports_to_json(verify.run_all(seed)) + "\n")


def test_verify_report_bytes_under_numpy_baseline_kernels():
    # numpy picks its exp, log and power kernels by CPU level at import, and
    # the levels give different bits; with every dispatch target disabled a
    # process runs the baseline kernels, and must still write the pin
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    run = subprocess.run([sys.executable, "-m", "strongmax.cli", "verify", "--seed", "0"],
                         env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    _assert_pinned(0, run.stdout.decode(), " under numpy's baseline kernels")
