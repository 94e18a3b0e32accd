import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 16 lines, 7 of them code: the import, the two defs, the two lines of
# the call holding a multi-line string literal, the class line and the
# return.  Blank lines, comment lines and the three docstrings are not.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code

# a comment line


def f():
    """Function docstring."""
    print("""a string in code,
over two lines""")
class C:
    "class docstring"
    def g(self):
        return os.sep
'''


def test_src_lines_counts_a_fixture(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "    16      7  a.py",
        "     2      1  b.py",
        "    18      8  total (lines, code lines)",
    ]
