import numpy as np
import pytest

from mairl.errors import DimensionMismatchError, StochasticityError
from mairl.games import (
    PROB_ATOL,
    JointPolicy,
    JointReward,
    MarkovGame,
    _check_rows_stochastic,
    deterministic_policy,
)
from mairl.synthetic import random_markov_game, single_state_game


def test_transition_rows_must_be_stochastic():
    P = np.ones((2, 2, 2)) * 0.4
    with pytest.raises(StochasticityError):
        MarkovGame(P, 0.9, [0.5, 0.5], (2,))
    P = np.full((2, 2, 2), 0.5)
    P[0, 0, 0] = -0.1
    P[0, 0, 1] = 1.1
    with pytest.raises(StochasticityError):
        MarkovGame(P, 0.9, [0.5, 0.5], (2,))


def test_row_check_names_each_fault():
    def check(rows):
        _check_rows_stochastic(np.asarray(rows, dtype=np.float64), "table")

    # a negative entry is named even where its row sums to 1, NaN wherever it is
    for rows in ([[0.5, 0.5], [1.1, -0.1]], [[np.nan, 1.0]], [[-np.inf, 1.0]], [[1.0], [np.nan]]):
        with pytest.raises(StochasticityError, match="table has negative or NaN entries"):
            check(rows)
    check([[-0.0, 1.0]])  # -0.0 is not negative
    off = 3 * PROB_ATOL
    deviation = r"table rows deviate from sum 1 by up to 3\.000e-12"
    with pytest.raises(StochasticityError, match=deviation):
        check([[0.5, 0.5], [0.5, 0.5 + off], [0.5, 0.5 - off / 3]])
    with pytest.raises(StochasticityError, match="deviate from sum 1 by up to inf"):
        check([[np.inf, 0.0]])
    with pytest.raises(StochasticityError, match="deviate from sum 1 by up to 1.000e"):
        check(np.zeros((2, 0)))  # rows with no entries sum to 0
    # within PROB_ATOL, and tables with no rows, pass
    check([[0.5, 0.5 + PROB_ATOL / 2], [1.0, 0.0]])
    check(np.zeros((0, 3)))
    check(np.zeros((0, 0)))


def test_mu_and_gamma_validation():
    P = np.full((2, 2, 2), 0.5)
    with pytest.raises(StochasticityError):
        MarkovGame(P, 0.9, [0.9, 0.2], (2,))
    with pytest.raises(ValueError):
        MarkovGame(P, 1.0, [0.5, 0.5], (2,))
    # gamma = 0 single-shot games are allowed
    MarkovGame(P, 0.0, [0.5, 0.5], (2,))


def test_shape_mismatches():
    P = np.full((2, 3, 2), 1 / 2)
    with pytest.raises(DimensionMismatchError):
        MarkovGame(P, 0.9, [0.5, 0.5], (2, 2))
    for dense in (np.full((2, 2), 0.5), np.full((2, 2, 3), 1 / 3)):
        with pytest.raises(DimensionMismatchError, match=r"is not \(S, A, S\)"):
            MarkovGame(dense, 0.9, [0.5, 0.5], (2,))
    with pytest.raises(DimensionMismatchError, match="mu shape"):
        MarkovGame(np.full((2, 2, 2), 0.5), 0.9, [1.0], (2,))
    for counts in ((0,), (2, -1)):
        with pytest.raises(ValueError, match="action counts must be positive"):
            MarkovGame(np.full((2, 2, 2), 0.5), 0.9, [0.5, 0.5], counts)
    with pytest.raises(DimensionMismatchError, match="reward tables"):
        JointReward(np.zeros((2, 4)), rmax=1.0)
    with pytest.raises(ValueError, match="at least one agent"):
        JointPolicy([])
    for tables, agent in (([np.full(2, 0.5)], 0), ([np.full((2, 2), 0.5), np.ones((3, 1))], 1)):
        with pytest.raises(DimensionMismatchError, match=f"policy table {agent}"):
            JointPolicy(tables)


def test_reward_range_enforced():
    with pytest.raises(ValueError):
        JointReward(np.full((1, 1, 2), 1.5), rmax=[1.0])
    with pytest.raises(ValueError):
        JointReward(np.full((1, 1, 2), -0.1), rmax=[1.0])
    r = JointReward(np.full((2, 1, 4), 0.5), rmax=1.0)  # scalar rmax broadcasts
    assert r.rmax.tolist() == [1.0, 1.0]


def test_policy_rows_are_distributions():
    with pytest.raises(StochasticityError):
        JointPolicy([np.array([[0.5, 0.4]])])
    pol = JointPolicy([np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])])
    assert pol.action_counts == (2, 2)
    joint = pol.joint_table()
    assert np.allclose(joint, [[0.5, 0.0, 0.5, 0.0]])
    assert np.allclose(pol.opponent_table(0), [[1.0, 0.0, 1.0, 0.0]])
    assert pol.support(1).tolist() == [[True, False]]


def test_nan_entries_are_rejected():
    P = np.full((2, 2, 2), 0.5)
    P[1, 0] = [np.nan, 1.0]
    with pytest.raises(StochasticityError):
        MarkovGame(P, 0.9, [0.5, 0.5], (2,))
    with pytest.raises(StochasticityError):
        MarkovGame(np.full((2, 2, 2), 0.5), 0.9, [np.nan, 1.0], (2,))
    with pytest.raises(ValueError):
        MarkovGame(np.full((2, 2, 2), 0.5), np.nan, [0.5, 0.5], (2,))
    with pytest.raises(StochasticityError):
        JointPolicy([np.array([[np.nan, 1.0]])])
    tables = np.full((2, 1, 4), 0.5)
    tables[1, 0, 2] = np.nan
    with pytest.raises(ValueError):
        JointReward(tables, rmax=1.0)
    with pytest.raises(ValueError):
        JointReward(tables, rmax=np.inf)
    with pytest.raises(ValueError):
        JointReward(np.full((2, 1, 4), 0.5), rmax=[1.0, np.nan])


def test_tables_are_read_only():
    game = single_state_game((2, 2), 0.5)
    with pytest.raises(ValueError):
        game.transitions[0, 0, 0] = 2.0
    rng = np.random.default_rng(0)
    g = random_markov_game(rng, 3, (2,), 0.9)
    with pytest.raises(ValueError):
        g.mu[0] = 0.7


def test_deterministic_policy_and_with_transitions():
    pol = deterministic_policy((2, 3), 2, [[0, 1], 2])
    assert pol.per_agent[0][0, 0] == 1.0 and pol.per_agent[0][1, 1] == 1.0
    assert np.all(pol.per_agent[1][:, 2] == 1.0)
    rng = np.random.default_rng(1)
    g = random_markov_game(rng, 2, (2, 2), 0.8)
    g2 = g.with_transitions(np.full((2, 4, 2), 0.5))
    assert g2.gamma == g.gamma and g2.action_counts == g.action_counts


@pytest.mark.parametrize(
    "actions, agent", [([[-1, 0], 2], 0), ([2, 0], 0), ([[0, 1], 3], 1), ([[0, 1], -1], 1)]
)
def test_deterministic_policy_rejects_actions_out_of_range(actions, agent):
    """A negative action would otherwise play the agent's last action."""
    with pytest.raises(ValueError, match=f"agent {agent}"):
        deterministic_policy((2, 3), 2, actions)


def test_successor_list_validation_and_dense_round_trip():
    P = np.zeros((2, 2, 2))
    P[:, :, 1] = 1.0
    P[0, 0] = [0.25, 0.75]
    game = MarkovGame(P, 0.9, [0.5, 0.5], (2,))
    assert game.successors.shape == (2, 2, 2)
    assert game.successors[0, 0].tolist() == [0, 1]
    assert game.successor_probs[0, 0].tolist() == [0.25, 0.75]
    # shorter rows are padded with state 0 at probability 0
    assert game.successors[1, 1].tolist() == [1, 0]
    assert game.successor_probs[1, 1].tolist() == [1.0, 0.0]
    assert np.array_equal(game.transitions, P)

    succ, probs, mu = game.successors, game.successor_probs, [0.5, 0.5]
    same = MarkovGame.from_successors(succ, probs, 0.9, mu, (2,))
    assert np.array_equal(same.transitions, P)
    with pytest.raises(ValueError):
        MarkovGame.from_successors(succ + 1, probs, 0.9, mu, (2,))
    with pytest.raises(StochasticityError):
        MarkovGame.from_successors(succ, 0.5 * probs, 0.9, mu, (2,))
    with pytest.raises(DimensionMismatchError):
        MarkovGame.from_successors(succ[:, :, :1], probs, 0.9, mu, (2,))
    with pytest.raises(DimensionMismatchError):
        MarkovGame.from_successors(succ, probs, 0.9, mu, (3,))
