import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 14 lines, 5 of them code: the import, the def, the two lines of the
# assignment and the return.  The docstrings, the string-only statement,
# the comments and the blank lines are not code.
SOURCE = '''"""A module docstring
on two lines."""

import os  # a comment

# a whole-line comment


def f(x):
    """A docstring."""
    y = (x +
         1)
    "a string-only statement"
    return f"{y}"
'''


def test_line_counter_counts_wc_and_code_only_lines(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["a.py", "14", "5"], ["b.py", "1", "1"], ["total", "15", "6"]]
