"""The benchmark's self-test runs against the library as it stands.

A library change that breaks a benchmark op, its output check or a
per-layer metric makes `perfbench/selftest.py` exit nonzero.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
