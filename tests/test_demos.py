"""Every script in demos/ runs to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    # TMPDIR keeps the files a demo writes inside the test's own directory
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
