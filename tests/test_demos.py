"""Every walk-through script under demos/ runs cleanly against the package.

Each demo runs in its own process with the package's source directory on
PYTHONPATH and every RuntimeWarning an error, and must exit 0 with nothing
on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import otdistill

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    package_parent = str(Path(otdistill.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": package_parent})
    assert (proc.returncode, proc.stderr) == (0, "")
