"""The benchmark's self-test runs against the package in this checkout.

`bench/run.py --self-test` drives the composed per-seed pipeline, the
tracer and the counters it reads from the package's results, so a change
under `src/` that breaks a call the benchmark makes fails here. The
`certify-4x4` workload's output checks and fingerprint, which read a
sampling run's history, are run in process on `bench/workloads.py`.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np

from mairl.estimation import _schedule
from mairl.gridworld import GridGameSpec

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


def _load_workloads(monkeypatch):
    """`bench/workloads.py` as a module, registered for this test only (its
    dataclasses look their module up while the file runs)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_certify_workload_checks_and_fingerprints_its_history(tmp_path, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    workload = workloads.Certify4x4()
    problem = workload.build()
    workload.prepare(problem, str(tmp_path))
    outs = [workload.op(seed) for seed in (0, 1)]
    for out in outs:
        assert workload.check(out) == []
    prints = [workload.fingerprint(out) for out in outs]
    # every query of the 4x4 NashQ oracle is fixed, so the seed changes nothing
    assert prints[0] == prints[1]
    game, tau = problem.game, workload.tau
    ks = np.arange(1, tau + 1, dtype=np.float64)
    shape = (game.n_states, game.action_counts, game.n_agents)
    rows = tuple(
        (int(k), float(e), float(c), float(r), int(game.n_states * i))
        for k, e, c, r, i in zip(ks, *_schedule(ks, workloads.PARAMS, *shape))
    )
    assert prints[0][:3] == (tau, True, rows)


def test_workload_boards_are_the_specs_own_crossing_layout(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    for width, height in ((3, 3), (4, 3), (4, 4)):
        spec = GridGameSpec(width=width, height=height, gamma=0.9, rmax=1.0)
        assert workloads.board(width, height) == spec
