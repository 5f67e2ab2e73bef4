"""Run the suite from a checkout that is not installed.

The package lives under src/, so it is put first on sys.path for the tests
and on PYTHONPATH for the subprocesses they start (the CLI tests).
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
)
