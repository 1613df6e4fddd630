import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl.dp import (
    _RESIDUAL_TOL,
    expected_advantage_table,
    occupancy,
    own_action_marginal,
    policy_evaluation,
    simulation_decomposition,
)
from mairl.errors import DimensionMismatchError, StaleValuesError
from mairl.games import JointPolicy, JointReward, MarkovGame
from mairl.gridworld import VARIANTS, GridGameSpec
from mairl.synthetic import (
    random_joint_policy,
    random_markov_game,
    random_reward,
    single_state_game,
)

from conftest import grid_setup


def test_constant_reward_geometric_series():
    rng = np.random.default_rng(3)
    game = random_markov_game(rng, 4, (2, 2), 0.7)
    reward = JointReward(np.full((2, 4, 4), 0.3), rmax=[1.0, 1.0])
    policy = random_joint_policy(rng, game)
    vb = policy_evaluation(game, reward, policy)
    assert np.allclose(vb.v, 0.3 / (1 - 0.7))
    assert vb.residual <= _RESIDUAL_TOL


def test_single_state_closed_form(pd):
    game, reward, dd, cc = pd
    assert np.allclose(policy_evaluation(game, reward, cc).v, 1.2)
    assert np.allclose(policy_evaluation(game, reward, dd).v, 0.4)


def test_monte_carlo_rollout_oracle():
    """Truncated rollout estimate agrees with the linear solve within 3 SE."""
    rng = np.random.default_rng(7)
    game = random_markov_game(rng, 3, (2, 2), 0.8)
    reward = random_reward(rng, game)
    policy = random_joint_policy(rng, game)
    vb = policy_evaluation(game, reward, policy)

    joint = policy.joint_table()
    horizon = 120  # gamma^120 ~ 2e-12, truncation negligible
    n_rollouts = 3000
    start = 0
    returns = np.zeros(n_rollouts)
    states = np.full(n_rollouts, start)
    discount = 1.0
    # one rng.choice(p=row) per rollout draws one random() and inverts the
    # CDF cumsum(row) / its last entry (searchsorted side="right"); doing the
    # same over all rollouts at once keeps every draw of the per-rollout loop
    action_cdf = np.cumsum(joint, axis=1)
    action_cdf /= action_cdf[:, -1:]
    next_cdf = np.cumsum(game.transitions, axis=2)
    next_cdf /= next_cdf[:, :, -1:]
    for t in range(horizon):
        actions = (rng.random(n_rollouts)[:, None] >= action_cdf[states]).sum(axis=1)
        returns += discount * reward.tables[0, states, actions]
        states = (rng.random(n_rollouts)[:, None] >= next_cdf[states, actions]).sum(axis=1)
        discount *= game.gamma
    se = returns.std(ddof=1) / np.sqrt(n_rollouts)
    assert abs(returns.mean() - vb.v[0, start]) <= 3 * se


def test_iterative_branch_matches_closed_form():
    # a 1,100-state cycle whose value is 0.5 / (1 - 0.9) at every state
    S = 1100
    P = np.zeros((S, 1, S))
    P[np.arange(S), 0, (np.arange(S) + 1) % S] = 1.0
    game = MarkovGame(P, 0.9, np.full(S, 1 / S), (1,))
    reward = JointReward(np.full((1, S, 1), 0.5), rmax=[1.0])
    policy = JointPolicy([np.ones((S, 1))])
    vb = policy_evaluation(game, reward, policy)
    assert np.allclose(vb.v, 5.0, atol=1e-9)
    assert vb.residual <= 1e-10


def test_advantage_constant_reward_zero():
    rng = np.random.default_rng(5)
    game = random_markov_game(rng, 3, (2, 2), 0.5)
    reward = JointReward(np.full((2, 3, 4), 0.2), rmax=[1.0, 1.0])
    policy = random_joint_policy(rng, game)
    vb = policy_evaluation(game, reward, policy)
    for agent in range(2):
        adv = expected_advantage_table(game, policy, vb, agent)
        assert adv.shape == (3, 2)
        assert np.abs(adv).max() < 1e-12


def test_advantage_matching_pennies_uniform(pennies):
    game, reward, uniform = pennies
    vb = policy_evaluation(game, reward, uniform)
    for agent in range(2):
        adv = expected_advantage_table(game, uniform, vb, agent)
        assert np.abs(adv[0]).max() < 1e-12


def test_advantage_pd_defection(pd):
    # Q(C,D) - Q(D,D) = (0 + gamma*V) - (0.2 + gamma*V) = -0.2 at V = 0.4
    game, reward, dd, _ = pd
    vb = policy_evaluation(game, reward, dd)
    adv = expected_advantage_table(game, dd, vb, agent=0)
    assert abs(adv[0, 0] - (-0.2)) < 1e-12


def test_stale_values_rejected(pd):
    game, reward, dd, _ = pd
    vb = policy_evaluation(game, reward, dd)
    stale = type(vb)(v=vb.v, q=vb.q, residual=1.0)
    with pytest.raises(StaleValuesError):
        expected_advantage_table(game, dd, stale, 0)


def test_occupancy_absorbing_and_chain():
    game = single_state_game((1,), 0.9)
    policy = JointPolicy([np.ones((1, 1))])
    occ = occupancy(game, policy)
    assert abs(occ[0, 0] - 10.0) < 1e-9

    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 1] = 1.0
    chain = MarkovGame(P, 0.5, [1.0, 0.0], (1,))
    occ = occupancy(chain, JointPolicy([np.ones((2, 1))]))
    assert np.allclose(occ[:, 0], [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_occupancy_normalization_property(seed):
    rng = np.random.default_rng(seed)
    S = int(rng.integers(1, 5))
    counts = tuple(int(c) for c in rng.integers(1, 4, size=int(rng.integers(1, 3))))
    gamma = float(rng.uniform(0.0, 0.95))
    game = random_markov_game(rng, S, counts, gamma)
    policy = random_joint_policy(rng, game)
    if rng.random() < 0.5:  # a deterministic start state in place of the random mu
        game = MarkovGame(game.transitions, gamma, np.eye(S)[int(rng.integers(S))], counts)
    occ = occupancy(game, policy)
    assert occ.shape == (S, game.n_joint_actions)
    assert occ.min() >= -1e-15
    assert abs(occ.sum() - 1.0 / (1.0 - gamma)) <= 1e-9


def test_simulation_decomposition_identity_and_shift():
    rng = np.random.default_rng(9)
    game = random_markov_game(rng, 3, (2, 2), 0.8)
    reward = random_reward(rng, game)
    policy = random_joint_policy(rng, game)

    lhs, rhs = simulation_decomposition(game, game, reward, reward, policy, 0)
    assert np.abs(lhs).max() < 1e-12 and np.abs(rhs).max() < 1e-12

    game_hat = game.with_transitions(rng.dirichlet(np.ones(3), size=(3, 4)))
    reward_hat = random_reward(rng, game)
    lhs, rhs = simulation_decomposition(game, game_hat, reward, reward_hat, policy, 1)
    assert np.abs(lhs - rhs).max() <= 1e-8

    shifted = JointReward(reward.tables + 0.1, reward.rmax + 0.1)
    lhs, rhs = simulation_decomposition(game, game, reward, shifted, policy, 0)
    assert np.allclose(lhs, 0.1 / (1 - 0.8))
    assert np.allclose(rhs, 0.1 / (1 - 0.8))

    # models of another size, action counts or discount are refused
    for other in (
        random_markov_game(rng, 2, (2, 2), 0.8),
        random_markov_game(rng, 3, (2, 3), 0.8),
        random_markov_game(rng, 3, (2, 2), 0.5),
    ):
        with pytest.raises(DimensionMismatchError, match="models must share"):
            simulation_decomposition(game, other, reward, reward, policy, 0)


def test_value_bound_invariant():
    rng = np.random.default_rng(13)
    for seed in range(10):
        r = np.random.default_rng(seed)
        game = random_markov_game(r, 3, (2, 2), 0.7)
        reward = random_reward(r, game)
        policy = random_joint_policy(r, game)
        vb = policy_evaluation(game, reward, policy)
        assert vb.v.min() >= -1e-12
        assert vb.v.max() <= 1.0 / (1 - 0.7) + 1e-9


def reference_own_action_marginal(game, policy, agent, table):
    """The former `own_action_marginal`: one einsum over the opponents'
    probabilities, the table and a one-hot own-action matrix."""
    opp = policy.opponent_table(agent)
    own = game.agent_actions[agent]
    onehot = np.equal.outer(own, np.arange(game.action_counts[agent])).astype(np.float64)
    return np.einsum("sf,sf...,fd->sd...", opp, table, onehot)


def assert_marginals_match_reference(game, policy, tables):
    for agent in [*range(game.n_agents), -1]:
        for table in tables:
            got = own_action_marginal(game, policy, agent, table)
            want = reference_own_action_marginal(game, policy, agent, table)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("width, height", [(3, 3), (4, 3), (4, 4)])
def test_own_action_marginal_matches_the_einsum_on_the_grids(width, height, variant):
    """The NashQ expert and a random mixed policy, each agent, on the reward
    tables, P V (2-D) and a table with a trailing axis (3-D)."""
    board = grid_setup(GridGameSpec(width=width, height=height, variant=variant))
    game, reward = board.game, board.reward
    rng = np.random.default_rng(width * 10 + height)
    S, A = game.n_states, game.n_joint_actions
    tables = [
        *reward.tables,
        rng.standard_normal((S, A)),
        rng.standard_normal((S, A, 3)),
        reward.tables.transpose(1, 2, 0).copy(),
    ]
    for policy in (board.expert, random_joint_policy(rng, game)):
        assert_marginals_match_reference(game, policy, tables)


@pytest.mark.parametrize("counts", [(2, 2), (3, 2), (2, 3, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_own_action_marginal_matches_the_einsum_on_random_games(counts):
    """Two to four agents: a middle agent has opponents on both sides, and
    (3, 3, 3) gives every agent nine opponent joint actions."""
    rng = np.random.default_rng(len(counts) * 100 + sum(counts))
    game = random_markov_game(rng, 5, counts, 0.8)
    S, A = game.n_states, game.n_joint_actions
    tables = [
        *random_reward(rng, game).tables,
        rng.standard_normal((S, A)),
        rng.standard_normal((S, A, 2, 3)),
    ]
    for deterministic in (False, True):
        policy = random_joint_policy(rng, game, deterministic=deterministic)
        assert_marginals_match_reference(game, policy, tables)
