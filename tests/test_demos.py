"""Every script in demos/ runs to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    # TMPDIR keeps the files a demo writes inside the test's own directory
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_readme_commits_the_study_table(tmp_path):
    """Every line of the table the parameter study prints is a line of
    README.md, so the committed table is the one the script computes."""
    table = [line for line in run_demo(ROOT / "demos" / "06_parameter_study.py",
                                       tmp_path).splitlines() if line.startswith("|")]
    readme = set((ROOT / "README.md").read_text(encoding="utf-8").splitlines())
    assert len(table) == 18
    assert [line for line in table if line not in readme] == []
