"""The benchmark's self-test: two traced runs of a short slice of each workload agree and read correct.

perfbench wraps the library's call sites and reads some arguments by
position (k as the third), so a signature change it cannot follow fails
here, in the tier-1 suite.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
