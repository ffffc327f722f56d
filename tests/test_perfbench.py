"""The benchmark's self-test: every workload in BENCHMARK.json runs on a
tiny input pool and reports every metric named there, so a refactor that
breaks the benchmark's contract with the package fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
