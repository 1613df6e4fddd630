"""`max_gap_reward` with its agents split over forked child processes.

Each script runs in a fresh interpreter with one BLAS thread, so the process
has one OS thread and the fork is real, and with warnings as errors, so a
fork that Python warns about fails. Two groups are forced through
`reward_select._usable_cpus`, and every `os.fork` is counted so that a
script which never forked cannot pass. A script prints one JSON object last.
"""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PRELUDE = """
import json, os, time
import numpy as np
from mairl import reward_select
from mairl.errors import InfeasibleLPError, MairlError
from mairl.equilibrium import nash_value_iteration
from mairl.estimation import CountBook, GenerativeOracle, estimate, sample_round
from mairl.gridworld import GridGameSpec, build_grid_game
from mairl.synthetic import random_joint_policy, random_markov_game

assert reward_select._single_threaded()
forks = []
fork = os.fork


def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counting_fork
reward_select._usable_cpus = lambda: 2
"""


def run_script(body):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", PRELUDE + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_forked_selection_has_the_bits_of_the_in_process_one():
    """Every MaxGapResult field, byte for byte, on the estimated 3x3 and 4x3
    boards after one round (both modes, both classes) and on a three-agent
    random game, whose first two agents share a child."""
    out = run_script(
        """
        def fields(res):
            return (res.reward.tables.tobytes(), res.reward.rmax.tobytes(),
                    res.margins.tobytes(), res.mode, res.lp_iterations,
                    res.projection_sweeps, res.pinned_rows, res.projection_paths)

        def both_paths(game, policy, **kw):
            forked = fields(reward_select.max_gap_reward(game, policy, 1.0, **kw))
            reward_select._usable_cpus = lambda: 1
            in_process = fields(reward_select.max_gap_reward(game, policy, 1.0, **kw))
            reward_select._usable_cpus = lambda: 2
            return forked == in_process

        cases = []
        for w, h in ((3, 3), (4, 3)):
            spec = GridGameSpec(width=w, height=h, start_positions=((0, 0), (w - 1, 0)),
                                goal_positions=((w - 1, h - 1), (0, h - 1)))
            game, reward, _ = build_grid_game(spec)
            expert = nash_value_iteration(game, reward).policy
            counts = CountBook(game.n_states, game.action_counts)
            sample_round(GenerativeOracle(game, expert, seed=0), counts)
            problem = estimate(counts)
            est_game = problem.as_game(game.gamma, game.mu)
            for mode in ("max-margin", "distance-to-random"):
                for cls in ("state", "state-action"):
                    cases.append(both_paths(est_game, problem.pi_hat, mode=mode, seed=1,
                                            reward_class=cls))
        rng = np.random.default_rng(3)
        game = random_markov_game(rng, 5, (2, 3, 2), 0.7)
        policy = random_joint_policy(rng, game, deterministic=True)
        cases.append(both_paths(game, policy, mode="distance-to-random", seed=2,
                                reward_class="state-action"))
        print(json.dumps({"equal": cases, "forks": len(forks)}))
        """
    )
    assert out["equal"] == [True] * 9
    assert out["forks"] == 9


def test_failures_reach_the_caller_and_leave_no_process():
    """A child's exception comes back with its type and message, a child that
    exits without a result raises MairlError, and after a success, a child's
    failure and a failure in the caller no child process is left."""
    out = run_script(
        """
        caller = os.getpid()
        rng = np.random.default_rng(0)
        game = random_markov_game(rng, 4, (2, 2), 0.6)
        policy = random_joint_policy(rng, game, deterministic=True)
        margin = reward_select._lexicographic_margin

        def no_child_left():
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return True
            return False

        def outcome(in_child, in_caller=margin):
            def patched(*args):
                return (in_caller if os.getpid() == caller else in_child)(*args)

            reward_select._lexicographic_margin = patched
            start = time.perf_counter()
            try:
                reward_select.max_gap_reward(game, policy, 1.0, mode="distance-to-random",
                                             seed=0, reward_class="state")
                raised = None
            except BaseException as exc:
                raised = [type(exc).__name__, str(exc)]
            return raised, no_child_left(), time.perf_counter() - start

        def infeasible(*args):
            raise InfeasibleLPError("margin LP of agent 0 has no feasible point")

        def vanish(*args):
            os._exit(7)

        def hang(*args):
            time.sleep(60)

        def broken(*args):
            raise ValueError("failure in the caller")

        def interrupted(*args):
            raise KeyboardInterrupt

        print(json.dumps({
            "success": outcome(margin),
            "child error": outcome(infeasible),
            "child exit": outcome(vanish),
            "caller error": outcome(hang, broken),
            "caller interrupt": outcome(hang, interrupted),
            "forks": len(forks),
        }))
        """
    )
    assert out.pop("forks") == 5
    assert all(seconds < 30 for _, _, seconds in out.values())  # no wait on the hung child
    assert {name: raised for name, (raised, _, _) in out.items()} == {
        "success": None,
        "child error": ["InfeasibleLPError", "margin LP of agent 0 has no feasible point"],
        "child exit": [
            "MairlError",
            "reward selection of agents [0] exited with status 7 and no result",
        ],
        "caller error": ["ValueError", "failure in the caller"],
        "caller interrupt": ["KeyboardInterrupt", ""],
    }
    assert all(left for _, left, _ in out.values())
