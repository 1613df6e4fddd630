import numpy as np
import pytest

import mairl.reward_select
import mairl.simplex
from mairl.equilibrium import matrix_ne_check, nash_gap, nash_value_iteration
from mairl.estimation import CountBook, estimate
from mairl.feasible import check_implicit
from mairl.games import JointReward
from mairl.gridworld import GridGameSpec, build_grid_game
from mairl.reward_select import (
    _advantage_rows,
    _margin_lp,
    behavior_cloning,
    max_gap_reward,
)
from mairl.synthetic import random_joint_policy, random_markov_game

from conftest import make_instance


def dense_advantage_rows(game, policy, agent, reward_class):
    """Reference rows from the stacked (S*A) x (S*A) system Q = (I - gamma P pi)^{-1} R:
    row (s, d) is (e_dev(s, d) - e_pi(s)) applied to that inverse, lifted onto
    per-state rewards for the "state" class."""
    S, A = game.n_states, game.n_joint_actions
    n_own = game.action_counts[agent]
    joint = policy.joint_table(game.agent_actions)
    pi_op = np.zeros((S, S * A))
    idx = np.arange(S)[:, None] * A + np.arange(A)[None, :]
    pi_op[np.repeat(np.arange(S), A), idx.ravel()] = joint.ravel()
    M = np.eye(S * A) - game.gamma * game.transitions.reshape(S * A, S) @ pi_op
    opp = policy.opponent_table(agent, game.agent_actions)
    own = game.agent_actions[agent]
    W = np.zeros((S * n_own, S * A))
    cols = np.arange(A)
    for s in range(S):
        for d in range(n_own):
            row = W[s * n_own + d]
            sel = own == d
            row[s * A + cols[sel]] = opp[s, sel]
            row[s * A + cols] -= joint[s]
    U = np.linalg.solve(M.T, W.T).T
    if reward_class == "state":
        lift = np.zeros((S * A, S))
        for s in range(S):
            lift[s * A : (s + 1) * A, s] = 1.0
        U = U @ lift
    return U


def advantage_row_cases():
    for seed in range(6):
        counts = (2, 3) if seed % 2 else (2, 2, 3)
        yield make_instance(500 + seed, n_states=4, action_counts=counts, gamma=0.8)
    game, reward, _ = build_grid_game(GridGameSpec())
    yield game, nash_value_iteration(game, reward).policy


@pytest.mark.parametrize("reward_class", ["state-action", "state"])
def test_advantage_rows_match_dense_system(reward_class):
    rng = np.random.default_rng(0)
    for game, policy in advantage_row_cases():
        S, A = game.n_states, game.n_joint_actions
        rows = []
        tables = np.zeros((game.n_agents, S, A))
        for i in range(game.n_agents):
            U = _advantage_rows(game, policy, i, reward_class)
            np.testing.assert_allclose(
                U, dense_advantage_rows(game, policy, i, reward_class), rtol=0, atol=1e-12
            )
            x = rng.uniform(size=U.shape[1])
            tables[i] = x.reshape(S, -1)
            rows.append(U @ x)
        worst = matrix_ne_check(game, JointReward(tables, 1.0), policy).worst_violation
        assert abs(max(float(r.max()) for r in rows) - worst) <= 1e-12


def test_lp_iterations_count_every_lexicographic_round(monkeypatch):
    pivots = []
    solve_lp = mairl.reward_select.solve_lp

    def counting(lp):
        sol = solve_lp(lp)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(mairl.reward_select, "solve_lp", counting)
    rng = np.random.default_rng(0)
    game = random_markov_game(rng, 4, (2, 2), 0.6)
    policy = random_joint_policy(rng, game, deterministic=True)
    res = max_gap_reward(game, policy, rmax=1.0, reward_class="state")
    assert len(pivots) > game.n_agents  # some agent needed a second round
    assert res.lp_iterations == sum(pivots)


@pytest.fixture(scope="module")
def grid_expert():
    game, reward, _ = build_grid_game(GridGameSpec())
    return game, nash_value_iteration(game, reward).policy


def test_grid_margin_lp_starts_feasible(grid_expert, monkeypatch):
    # -U x - t m >= 0 holds at x = 0, t = 0, so the slack basis is feasible
    # and phase 1 is skipped: one run of the core, for phase 2
    game, policy = grid_expert
    runs = []
    run = mairl.simplex._BoundedSimplex.run

    def counting(self, objective):
        runs.append(objective)
        return run(self, objective)

    monkeypatch.setattr(mairl.simplex._BoundedSimplex, "run", counting)
    U = _advantage_rows(game, policy, 0, "state")
    mask = (policy.per_agent[0] == 0.0).ravel()
    _margin_lp(U, mask, 1.0, game.gamma)
    assert len(runs) == 1


@pytest.mark.parametrize(
    "reward_class, expected",
    [
        # margins of the all-artificial start; the slack start must reproduce them
        ("state", [0.4072398190045177, 0.4090909090908768]),
        ("state-action", [0.9999999999999666, 0.9999999999998361]),
    ],
)
def test_grid_margins_match_artificial_start(grid_expert, reward_class, expected):
    game, policy = grid_expert
    res = max_gap_reward(game, policy, rmax=1.0, reward_class=reward_class)
    np.testing.assert_allclose(res.margins, expected, rtol=0, atol=1e-9)


def test_pd_max_margin(pd):
    game, _, dd, _ = pd
    res = max_gap_reward(game, dd, rmax=1.0)
    assert np.allclose(res.margins, 1.0)
    # the margin-1 extractor pays exactly the equilibrium joint action
    assert np.allclose(res.reward.tables[:, 0, 3], 1.0)
    assert np.abs(res.reward.tables[:, 0, :3]).max() < 1e-9
    assert nash_gap(game, res.reward, dd).gap < 1e-9
    assert check_implicit(game, res.reward, dd, tol=1e-8).passed


def test_fully_mixed_expert_caps_margin(pennies):
    game, _, uniform = pennies
    res = max_gap_reward(game, uniform, rmax=1.0)
    assert np.allclose(res.margins, 1.0 / (1.0 - game.gamma))
    assert check_implicit(game, res.reward, uniform, tol=1e-8).passed


def test_margin_monotone_in_rmax(pd):
    game, _, dd, _ = pd
    small = max_gap_reward(game, dd, rmax=1.0)
    large = max_gap_reward(game, dd, rmax=2.0)
    assert np.all(large.margins >= small.margins - 1e-10)


def test_scaling_covariance(pd):
    game, _, dd, _ = pd
    base = max_gap_reward(game, dd, rmax=1.0)
    scaled = max_gap_reward(game, dd, rmax=3.0)
    assert np.all(scaled.margins >= 3.0 * base.margins - 1e-8)
    assert check_implicit(game, scaled.reward, dd, tol=1e-8).passed


def test_distance_mode_seeded_and_feasible(pd):
    game, _, dd, _ = pd
    a = max_gap_reward(game, dd, rmax=1.0, mode="distance-to-random", seed=5)
    b = max_gap_reward(game, dd, rmax=1.0, mode="distance-to-random", seed=5)
    assert np.array_equal(a.reward.tables, b.reward.tables)
    assert a.projection_paths == b.projection_paths
    assert len(a.projection_paths) == game.n_agents
    assert max_gap_reward(game, dd, rmax=1.0).projection_paths == ()
    assert np.all(a.margins >= 1.0 - 1e-6 - 1e-9)
    assert check_implicit(game, a.reward, dd, tol=1e-8).passed
    with pytest.raises(ValueError):
        max_gap_reward(game, dd, rmax=1.0, mode="distance-to-random")


def test_feasibility_never_empty_on_random_instances():
    for seed in range(8):
        game, policy = make_instance(seed, n_states=3, gamma=0.7)
        res = max_gap_reward(game, policy, rmax=1.0)
        assert check_implicit(game, res.reward, policy, tol=1e-8).passed
        assert np.all(res.margins >= -1e-10)


def test_distance_mode_on_mixed_estimated_policy():
    """Estimated experts carry mixed rows; the projection must stay feasible."""
    game, policy = make_instance(12, n_states=3, gamma=0.7)
    res = max_gap_reward(game, policy, rmax=1.0, mode="distance-to-random", seed=2)
    assert check_implicit(game, res.reward, policy, tol=1e-8).passed


def test_projection_fallback_is_reported(monkeypatch):
    monkeypatch.setattr(mairl.reward_select, "_polish_projection", lambda *args: None)
    game, policy = make_instance(12, n_states=3, gamma=0.7)
    res = max_gap_reward(game, policy, rmax=1.0, mode="distance-to-random", seed=2)
    assert len(res.projection_paths) == game.n_agents
    assert set(res.projection_paths) <= {"blended", "vertex"}
    assert check_implicit(game, res.reward, policy, tol=1e-8).passed


def test_state_class_on_single_state_games(pd):
    game, _, dd, _ = pd
    res = max_gap_reward(game, dd, rmax=1.0, reward_class="state")
    # one state: state-only rewards cannot separate any deviation, so every
    # advantage row is dead and the margin caps out
    assert np.allclose(res.margins, 1.0 / (1.0 - game.gamma))
    # the reward is constant over joint actions
    assert np.ptp(res.reward.tables, axis=2).max() < 1e-12


def test_state_class_multistate_positive_margin():
    rng = np.random.default_rng(3)
    game = random_markov_game(rng, 4, (2, 2), 0.6)
    policy = random_joint_policy(rng, game, deterministic=True)
    res = max_gap_reward(game, policy, rmax=1.0, reward_class="state")
    assert check_implicit(game, res.reward, policy, tol=1e-8).passed
    assert np.ptp(res.reward.tables, axis=2).max() < 1e-12
    dist = max_gap_reward(game, policy, rmax=1.0, reward_class="state",
                          mode="distance-to-random", seed=7)
    assert check_implicit(game, dist.reward, policy, tol=1e-8).passed
    assert np.all(dist.margins >= res.margins - 1e-6 - 1e-8)


def test_behavior_cloning_identity_and_fallback():
    counts = CountBook(2, (2, 2))
    prob = estimate(counts)
    cloned = behavior_cloning(prob.pi_hat)
    assert cloned is prob.pi_hat
    # with no observations, cloning returns the uniform fallback policy
    assert np.allclose(cloned.per_agent[0], 0.5)
