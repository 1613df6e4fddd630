import os

# One BLAS thread, as the benchmark runs (bench/run.py::load_package), set
# before numpy loads: the suite then takes the forked selection path the
# benchmark times, and LP pivot counts do not depend on the BLAS pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import functools  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mairl import estimation, experiment, gridworld  # noqa: E402
from mairl.games import JointPolicy, deterministic_policy  # noqa: E402
from mairl.synthetic import (  # noqa: E402
    matching_pennies,
    prisoners_dilemma,
    random_joint_policy,
    random_markov_game,
)


@pytest.fixture
def pd():
    """Prisoner's dilemma at gamma = 0.5 with the (D, D) and (C, C) profiles."""
    game, reward = prisoners_dilemma(0.5)
    dd = deterministic_policy((2, 2), 1, [1, 1])
    cc = deterministic_policy((2, 2), 1, [0, 0])
    return game, reward, dd, cc


@pytest.fixture
def pennies():
    game, reward = matching_pennies(0.9)
    uniform = JointPolicy([np.full((1, 2), 0.5), np.full((1, 2), 0.5)])
    return game, reward, uniform


@functools.cache
def _every_variant(spec):
    return experiment.set_up(spec, gridworld.VARIANTS)


def grid_setup(spec=gridworld.GridGameSpec(), variants=()):
    """`experiment.set_up(spec, variants)`, cut from one `set_up` of `spec`
    with every variant, built once per session: each board's expert is
    synthesized once. Its games, rewards and policy are read-only and shared
    by every caller."""
    board = _every_variant(spec)
    built = {entry[0]: entry for entry in board.variants}
    return dataclasses.replace(board, variants=tuple(built[name] for name in variants))


@functools.cache
def one_round_estimate(spec):
    """(estimated game, estimated policy) after one round of the board's
    expert at seed 0, as `seed_curve` estimates its first eval point at k = 1."""
    setup = grid_setup(spec)
    game = setup.game
    counts = estimation.CountBook(game.n_states, game.action_counts)
    estimation.sample_round(estimation.GenerativeOracle(game, setup.expert, seed=0), counts)
    problem = estimation.estimate(counts)
    return problem.as_game(game.gamma, game.mu), problem.pi_hat


def make_instance(seed, n_states=3, action_counts=(2, 2), gamma=0.6, zeros=True):
    """Random game plus a policy with some exactly-zero entries (if asked)."""
    rng = np.random.default_rng(seed)
    game = random_markov_game(rng, n_states, action_counts, gamma)
    policy = random_joint_policy(rng, game)
    if zeros:
        tables = []
        for t in policy.per_agent:
            t = t.copy()
            for s in range(t.shape[0]):
                if t.shape[1] > 1 and rng.random() < 0.5:
                    drop = rng.integers(t.shape[1])
                    t[s, drop] = 0.0
                    t[s] /= t[s].sum()
            tables.append(t)
        policy = JointPolicy(tables)
    return game, policy
