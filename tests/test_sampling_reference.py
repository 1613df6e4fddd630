"""Bit-equality of the sampling layer against its previous implementation.

`reference_round_samples` is the former per-state draw (an unnormalised
`cumsum` per round for next states, one `rng.choice` per agent for expert
actions) and `reference_uniform_sampling` the former per-round loop that
re-ran `estimate` and `uncertainty` after every round to find tau. Both are
kept here as test oracles for `GenerativeOracle.round_samples` and
`uniform_sampling`.
"""

import numpy as np
import pytest

from mairl import equilibrium, gridworld
from mairl.estimation import (
    ConfidenceParams,
    CountBook,
    GenerativeOracle,
    _cdf,
    _inverse_cdf,
    estimate,
    sample_round,
    uncertainty,
    uniform_sampling,
)
from mairl.games import JointPolicy, MarkovGame
from mairl.synthetic import random_markov_game

from conftest import make_instance


def reference_round_samples(oracle: GenerativeOracle, k: int):
    game = oracle.game
    S, A = game.n_states, game.n_joint_actions
    next_states = np.empty((S, A), dtype=np.int64)
    expert_actions = np.empty((S, game.n_agents), dtype=np.int64)
    for s in range(S):
        rng = oracle._stream(k, s)
        u = rng.random(A)
        cum = np.cumsum(game.transitions[s], axis=1)
        next_states[s] = np.argmax(u[:, None] < cum, axis=1)
        for i in range(game.n_agents):
            expert_actions[s, i] = rng.choice(
                game.action_counts[i], p=oracle.expert.per_agent[i][s]
            )
    return next_states, expert_actions


def reference_uniform_sampling(oracle, params, epsilon_target, k_max):
    game = oracle.game
    counts = CountBook(game.n_states, game.action_counts)
    history = []
    problem = estimate(counts)
    unc = uncertainty(counts, params)
    converged = False
    for k in range(1, int(k_max) + 1):
        sample_round(oracle, counts)
        problem = estimate(counts)
        unc = uncertainty(counts, params)
        history.append(
            (
                k,
                unc.epsilon_k,
                float(unc.c.max()),
                unc.max_transition_radius,
                int(unc.indicator.sum()),
            )
        )
        if unc.epsilon_k <= epsilon_target / 2.0:
            converged = True
            break
    return problem, unc, counts.iteration, converged, history


def _board(width, height, variant="deterministic"):
    return gridworld.GridGameSpec(
        width=width,
        height=height,
        start_positions=((0, 0), (width - 1, 0)),
        goal_positions=((width - 1, height - 1), (0, height - 1)),
        variant=variant,
    )


def _grid_oracles():
    """The NashQ experts of the 3x3 and 4x3 boards, and a mixed expert on the
    3x3 board with stochastic up-moves."""
    oracles = []
    for width, height in ((3, 3), (4, 3)):
        game, reward, _ = gridworld.build_grid_game(_board(width, height))
        expert = equilibrium.nash_value_iteration(game, reward).policy
        oracles.append(GenerativeOracle(game, expert, seed=3))
    game, _, _ = gridworld.build_grid_game(_board(3, 3, "stochastic-up"))
    rng = np.random.default_rng(5)
    mixed = JointPolicy([rng.dirichlet(np.ones(c), game.n_states) for c in game.action_counts])
    oracles.append(GenerativeOracle(game, mixed, seed=4))
    return oracles


def _random_oracles(count=24):
    oracles = []
    for seed in range(count):
        rng = np.random.default_rng(100 + seed)
        n_states = int(rng.integers(2, 7))
        action_counts = tuple(int(c) for c in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        game, policy = make_instance(seed, n_states, action_counts, gamma=0.7)
        oracles.append(GenerativeOracle(game, policy, seed=seed))
    return oracles


@pytest.mark.parametrize("k", [1, 2, 50])
def test_round_samples_match_reference_on_grids_and_random_games(k):
    for oracle in _grid_oracles() + _random_oracles():
        next_states, expert_actions = oracle.round_samples(k)
        ref_states, ref_actions = reference_round_samples(oracle, k)
        assert next_states.dtype == ref_states.dtype and expert_actions.dtype == ref_actions.dtype
        assert np.array_equal(next_states, ref_states)
        assert np.array_equal(expert_actions, ref_actions)


def test_inverse_cdf_caps_a_short_row_at_its_last_positive_mass_state():
    # the row sums to 1 - 4e-13, inside the probability tolerance; an
    # unnormalised CDF sends u >= 1 - 4e-13 to argmax(all False) = state 0
    row = np.array([0.5, 0.5 - 4e-13, 0.0])
    u = np.array([1.0 - 1e-13, 0.25, 0.75, 0.0])
    assert _inverse_cdf(_cdf(row), u).tolist() == [1, 0, 1, 0]
    cum = np.cumsum(row)
    assert int(np.argmax(u[0] < cum)) == 0  # the former rule's draw
    # vectorised over leading axes: one row per state
    table = np.stack([row, np.array([0.0, 0.0, 1.0])])
    assert _inverse_cdf(_cdf(table), np.array([1.0 - 1e-13, 0.3])).tolist() == [1, 2]


def _toy_problem():
    rng = np.random.default_rng(42)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    expert = JointPolicy([np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.4, 0.6]])])
    params = ConfidenceParams(delta=0.1, pi_min=0.4, rmax=2.0, gamma=0.5)
    return GenerativeOracle(game, expert, seed=7), params


def _det_problem():
    P = np.zeros((2, 4, 2))
    P[:, :, 1] = 1.0
    game = MarkovGame(P, 0.1, [1.0, 0.0], (2, 2))
    expert = JointPolicy([np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[1.0, 0.0], [0.5, 0.5]])])
    params = ConfidenceParams(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    return GenerativeOracle(game, expert, seed=4), params


@pytest.mark.parametrize(
    "problem, epsilon, k_max, converged",
    [
        (_det_problem, np.inf, 10, True),  # immediate stop at k = 1
        (_toy_problem, 2.0, 20_000, True),  # converged run, indicator active early
        (_det_problem, 1e-3, 40, False),  # budget exhaustion
        (_toy_problem, 0.5, 0, False),  # no budget at all
    ],
)
def test_uniform_sampling_matches_per_round_reference(problem, epsilon, k_max, converged):
    oracle, params = problem()
    run = uniform_sampling(oracle, params, epsilon, k_max)
    ref_problem, ref_unc, ref_tau, ref_converged, ref_history = reference_uniform_sampling(
        oracle, params, epsilon, k_max
    )
    assert (run.tau, run.converged) == (ref_tau, ref_converged)
    assert run.converged == converged
    assert [row[:-1] for row in run.history] == ref_history
    for row, ref in zip(run.history, ref_history):
        assert [type(v) for v in row[:-1]] == [type(v) for v in ref]
    assert run.problem.p_hat.tobytes() == ref_problem.p_hat.tobytes()
    for mine, ref in zip(run.problem.pi_hat.per_agent, ref_problem.pi_hat.per_agent):
        assert mine.tobytes() == ref.tobytes()
    assert np.array_equal(run.problem.counts.n_sas, ref_problem.counts.n_sas)
    assert run.uncertainty.c.tobytes() == ref_unc.c.tobytes()
    assert run.uncertainty.indicator.tobytes() == ref_unc.indicator.tobytes()
    assert run.uncertainty.epsilon_k == ref_unc.epsilon_k
    assert run.uncertainty.max_transition_radius == ref_unc.max_transition_radius
