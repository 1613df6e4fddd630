"""The documented walk-throughs in `demos/` run against this checkout.

Demos 01 and 02 take about a second together, demo 03 (the grid transfer,
three seeds at k = 500) about two. Each runs in its own temporary directory,
as demo 03 writes `demo_results/` relative to the working directory, and with
warnings as errors, so a demo that warns fails.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    ["01_feasible_reward_sets.py", "02_sampling_and_certificates.py", "03_grid_transfer.py"],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
