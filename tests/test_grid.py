"""tools/grid.py runs with no arguments and prints one sha256 line per
group of outputs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_hash_per_group():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "grid.py")],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == [
        "public", "forward", "plan", "distill", "long"]
    for line in lines:
        assert re.fullmatch(r"[a-z]+ [0-9a-f]{64}", line), line
