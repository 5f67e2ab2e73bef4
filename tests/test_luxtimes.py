"""tools/luxtimes.py times the Luxemburg solve and counts its Phi passes."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "luxtimes.py"


def test_one_small_case_and_one_dense_grid():
    out = subprocess.run([sys.executable, str(TOOL), "--cases", "50x16", "--repeats", "1", "--dense", "4"],
                         capture_output=True, text=True, check=True)
    header, *rows, dense = out.stdout.splitlines()
    assert header.split() == ["case", "phi", "ms", "phi_calls", "passes_per_norm"]
    assert [row.split()[:2] for row in rows] == [["50x16", "Phi_2"], ["50x16", "t^2.5"], ["50x16", "Phi_3"]]
    for row in rows:
        ms, calls, passes = row.split()[2:]
        assert float(ms) > 0 and int(calls) >= 2 and float(passes) >= 2.0
    assert dense.startswith("dense 4x4 ") and float(dense.split()[-2]) > 0
