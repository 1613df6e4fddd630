"""Reward-recovery benchmark: one workload per process.

    python3 bench/run.py --workload transfer-3x3 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1    # the three workloads, one process each
    python3 bench/run.py --self-test

A run measures set-up in fresh processes, builds the workload once, makes
one untimed warm-up op, then times ops for up to --seconds (at least one,
and none that the last op's duration says would end past the deadline). Op i
uses seed --seed + i, and every op's outputs are checked outside the timed
region. With --trace 1 each op runs once untraced and once traced on the
same seed; the two must return identical outputs, and the per-layer numbers
come from the traced copy. With --trace 0 a calibration is timed after
each op, and ops are reported in calibration units (see Calibration).
Metric lines go to stdout, and the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import time

T0 = time.perf_counter()  # start of the set-up clock in a --setup-only process

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("transfer-3x3", "select-4x3", "certify-4x4")
# One BLAS thread: op times spread far less than with two on a shared
# 2-core machine, and BLAS results (hence LP pivot counts) depend on the
# thread count, so a fixed count keeps outputs the same on every machine.
BLAS_THREADS = "1"
SETUP_REPEATS = 5
CAL_REPEATS = 20

END_TO_END = {"setup_s": "s", "op_cal_p50": "cal", "peak_rss_mb": "MB"}
# printed with every run, kept out of the JSON (see run_workload)
RAW_UNITS = {"op_s_p50": "s", "ops_per_s": "1/s", "cal_s_p50": "s"}
# "<span>.<stat>" per op, read from the tracer; stats s/self_s are seconds
SPAN_METRICS = (
    "gridworld.build_grid_game.s",
    "estimation.sample_round.s",
    "estimation.sample_round.calls",
    "estimation.estimate.s",
    "estimation.uncertainty.s",
    "estimation.stopping_time.s",
    "reward_select.max_gap_reward.s",
    "reward_select.max_gap_reward.self_s",
    "reward_select.max_gap_reward.projection_sweeps",
    "reward_select.max_gap_reward.lp_pivots",
    "simplex.solve_lp.s",
    "simplex.solve_lp.calls",
    "simplex.solve_lp.pivots",
    "equilibrium.nash_value_iteration.s",
    "equilibrium.nash_value_iteration.calls",
    "equilibrium.nash_value_iteration.backups",
    "equilibrium.bimatrix_nash.s",
    "equilibrium.bimatrix_nash.calls",
    "equilibrium.nash_gap.s",
    "feasible.check_implicit.s",
    "experiment.run_experiment.self_s",
)
# per set-up, from one traced in-process build
SETUP_SPANS = ("gridworld.build_grid_game", "equilibrium.nash_value_iteration")
DERIVED_UNITS = {
    "estimation.sample_round.ms_per_round": "ms",
    "setup.gridworld.build_grid_game.s": "s",
    "setup.equilibrium.nash_value_iteration.s": "s",
    "trace.op_s_p50": "s",
    "trace.overhead_frac": "frac",
    "trace.covered_frac": "frac",
}


def span_unit(metric):
    return "s" if metric.rsplit(".", 1)[1] in ("s", "self_s") else "count"


PER_LAYER = {**{m: span_unit(m) for m in SPAN_METRICS}, **DERIVED_UNITS}


def load_package():
    """Import the package from this checkout's src/, with BLAS_THREADS threads.

    `workloads` imports `mairl`, so it is imported only after this.
    """
    if not os.path.isfile(os.path.join(SRC, "mairl", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import mairl

    if not os.path.abspath(mairl.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported mairl from {mairl.__file__}, not from {SRC}")


def setup_seconds(name):
    """Median set-up time (import, grid builds, expert synthesis) over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-only"],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


class Calibration:
    """A fixed mix of interpreter, memory-bound and BLAS work, timed next to
    each op. The host's speed drifts by tens of percent from one minute to
    the next; an op's time over the calibration time around it cancels most
    of that drift, where op time alone does not."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.table = rng.random((120, 16, 240))
        self.out = np.empty_like(self.table)
        self.matrix = rng.random((120, 120)) + 40.0 * np.eye(120)
        self.seconds()  # first-touch page faults stay out of the figures

    def seconds(self):
        np = self.np
        start = time.perf_counter()
        for _ in range(CAL_REPEATS):
            for _ in range(4):
                np.multiply(self.table, 0.5, out=self.out)
                np.add(self.out, self.table, out=self.out)
            total = 0
            for i in range(25_000):
                total += i % 7
            for _ in range(10):
                np.linalg.solve(self.matrix, self.matrix[0])
        return time.perf_counter() - start


def timed_op(workload, seed, tracer=None):
    """(seconds, outputs) of one op; traced under a root span when a tracer is given."""
    if tracer is None:
        start = time.perf_counter()
        out = workload.op(seed)
        return time.perf_counter() - start, out
    tracer.reset()
    with spans.traced(tracer):
        start = time.perf_counter()
        with tracer.span(spans.ROOT_SPAN):
            out = workload.op(seed)
        return time.perf_counter() - start, out


class Tally:
    """Ops attempted and failed, and the quality of the ops that completed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.quality = []

    def run(self, label, op):
        """Run `op()`, check its outputs; (seconds, outputs, passed), or None if it raised."""
        self.attempted += 1
        try:
            seconds, out = op()
            problems = self.workload.check(out)
        except Exception:  # noqa: BLE001 - a failing op is counted and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"bench: {label} failed its checks: {problems}", file=sys.stderr)
            self.failed += 1
        quality = self.workload.quality(out)
        if quality is not None:
            self.quality.append(quality)
        return seconds, out, not problems

    def count_check(self, label, problems):
        """Count a check that is not an op, such as a self-test."""
        self.attempted += 1
        if problems:
            print(f"bench: {label} failed: {problems}", file=sys.stderr)
            self.failed += 1


def layer_values(tracer, op_s):
    """Per-layer metrics of the traced op just run."""
    stats = tracer.stats
    values = {}
    for metric in SPAN_METRICS:
        span, stat = metric.rsplit(".", 1)
        values[metric] = float(stats[span][stat]) if span in stats else 0.0
    rounds = values["estimation.sample_round.calls"]
    values["estimation.sample_round.ms_per_round"] = (
        1000.0 * values["estimation.sample_round.s"] / rounds if rounds else 0.0
    )
    runner = stats.get("experiment.run_experiment", {})
    values["trace.covered_frac"] = (tracer.top_s + runner.get("self_s", 0.0)) / op_s
    return values


def self_test(out_dir):
    """Problems found by the two self-tests on the 3x3 board; empty when they pass."""
    import workloads

    problems = workloads.composition_mismatch(out_dir)
    problem = workloads.build_problem(workloads.board(3, 3), workloads.TRANSFER_VARIANTS)
    config = workloads.pipeline_config(0, 1, out_dir)
    plain = workloads.pipeline_rows(problem, config, 0)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = workloads.pipeline_rows(problem, config, 0)
    if traced != plain:
        problems.append(f"traced rows {traced} != untraced rows {plain}")
    for span in ("estimation.sample_round", "reward_select.max_gap_reward", "simplex.solve_lp",
                 "equilibrium.nash_value_iteration", "equilibrium.bimatrix_nash"):
        if tracer.stats.get(span, {}).get("calls", 0) < 1:
            problems.append(f"tracer saw no call of {span}")
    return problems


def run_workload(name, seed, seconds, trace):
    import workloads

    setup_s = setup_seconds(name)
    workload = workloads.WORKLOADS[name]()
    tally = Tally(workload)
    tracer = spans.Tracer() if trace else None
    calibration = None if trace else Calibration()
    op_times, op_cals, cal_times = [], [], []
    traced_times, layer_rows, setup_layers = [], [], {}
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as out_dir:
        workload.prepare(workload.build(), out_dir)
        if trace:
            with spans.traced(tracer):
                workload.build()
            for span in SETUP_SPANS:
                setup_layers[f"setup.{span}.s"] = tracer.stats[span]["s"]
            if name == "select-4x3":
                tally.count_check("self-test", self_test(out_dir))
        tally.run("warm-up op", lambda: timed_op(workload, seed))
        cal = calibration.seconds() if calibration else None
        start = time.perf_counter()
        i = 1
        while True:
            op_seed = seed + i
            op_start = time.perf_counter()
            if not trace:
                done = tally.run(f"op {i}", lambda: timed_op(workload, op_seed))
                cal_next = calibration.seconds()
                if done:
                    op_times.append(done[0])
                    op_cals.append(2.0 * done[0] / (cal + cal_next))
                    cal_times.append(cal_next)
                cal = cal_next
            else:
                # alternate which copy runs first, so neither gets a warmer cache
                copies = {}
                for use_tracer in (False, True) if i % 2 else (True, False):
                    done = tally.run(
                        f"op {i} ({'traced' if use_tracer else 'untraced'})",
                        lambda: timed_op(workload, op_seed, tracer if use_tracer else None),
                    )
                    if done:
                        copies[use_tracer] = done
                        if use_tracer:
                            layer_rows.append(layer_values(tracer, done[0]))
                if len(copies) == 2:
                    op_times.append(copies[False][0])
                    traced_times.append(copies[True][0])
                    if copies[False][2] and copies[True][2] and (
                        workload.fingerprint(copies[False][1]) != workload.fingerprint(copies[True][1])
                    ):
                        print(f"bench: op {i}: traced and untraced outputs differ", file=sys.stderr)
                        tally.failed += 1
            i += 1
            # start no op that would likely end after the deadline
            now = time.perf_counter()
            if now + (now - op_start) - start > seconds:
                break
    if not op_times or (trace and not layer_rows):
        sys.exit("bench: no timed op completed")

    raw = {"op_s_p50": statistics.median(op_times), "ops_per_s": len(op_times) / sum(op_times)}
    lines = [(m, v, RAW_UNITS[m]) for m, v in raw.items()]
    if trace:
        layers = {m: statistics.median(row[m] for row in layer_rows) for m in layer_rows[0]}
        layers.update(setup_layers)
        layers["trace.op_s_p50"] = statistics.median(traced_times)
        layers["trace.overhead_frac"] = layers["trace.op_s_p50"] / raw["op_s_p50"] - 1.0
        reported, units = {m: layers[m] for m in PER_LAYER}, PER_LAYER
    else:
        reported, units = {
            "setup_s": setup_s,
            "op_cal_p50": statistics.median(op_cals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, END_TO_END
        lines.append(("cal_s_p50", statistics.median(cal_times), RAW_UNITS["cal_s_p50"]))
    lines += [(m, v, units[m]) for m, v in reported.items()]
    # printed but kept out of the JSON: raw op times drift with the host's
    # speed, fail_rate is 0 and travels as failed/attempted, and
    # gap_mairl/win_rate do not exist on certify-4x4
    lines.append(("fail_rate", tally.failed / tally.attempted, "frac"))
    if tally.quality:
        lines.append(("gap_mairl", statistics.mean(q["gap_mairl"] for q in tally.quality), "gap"))
        lines.append(("win_rate", statistics.mean(q["win"] for q in tally.quality), "frac"))
    print(f"{name}: seed {seed}, trace {int(trace)}, {len(op_times)} timed ops of "
          + ", ".join(f"{t:.3f}" for t in op_times) + " s")
    for metric, value, unit in lines:
        print(f"  {metric} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in reported.items()},
    }
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak memory is that workload's."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("give --workload or --self-test")
    load_package()
    if args.self_test:
        with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as out_dir:
            problems = self_test(out_dir)
        print("self-test:", "ok" if not problems else problems)
        return 1 if problems else 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload]().build()
        print(time.perf_counter() - T0)
        return 0
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
