"""tools/codelines.py counts code lines of one file or of a directory tree."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

# 4 code lines: the def, x = 1 and the two lines of the return; the other
# lines are docstrings, a comment or blank
SOURCE = '''"""Module docstring,
over two lines."""

# a comment
def f():
    """Function docstring."""
    x = 1  # a trailing comment
    return max(x,
               2)
'''


def _count(path):
    out = subprocess.run([sys.executable, str(TOOL), str(path)], capture_output=True, text=True, check=True)
    return int(out.stdout)


def test_one_file(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(SOURCE)
    assert _count(src) == 4


def test_directory_sums_its_files(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text(SOURCE + "y = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert _count(tmp_path / "pkg") == 9
