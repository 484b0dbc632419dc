"""Smoke test of the benchmark itself: ``python3 -m pytest bench``.

Runs every workload at 200 users, untraced and traced, with the correctness
check, and confirms that a corrupted output file fails that check.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_rejects_a_corrupted_output():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "corrupted loss_users.csv fails the check" in proc.stdout
    assert proc.stdout.rstrip().endswith("smoke: ok")
