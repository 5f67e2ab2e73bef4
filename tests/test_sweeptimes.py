"""tools/sweeptimes.py times one sweep per grid at B = 1 and B = 8."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweeptimes.py"


def test_one_small_grid_one_repeat():
    out = subprocess.run([sys.executable, str(TOOL), "--grids", "8x8", "--repeats", "1", "--m", "2"],
                         capture_output=True, text=True, check=True)
    header, row = out.stdout.splitlines()
    assert header.split() == ["grid", "B=1_ms", "B=8_ms"]
    grid, *times = row.split()
    assert grid == "8x8" and len(times) == 2 and all(float(t) > 0 for t in times)
