"""The benchmark's self-test runs against the package in this checkout.

`bench/run.py --self-test` drives the composed per-seed pipeline, the
tracer and the counters it reads from the package's results, so a change
under `src/` that breaks a call the benchmark makes fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test: ok" in proc.stdout
