import numpy as np
import pytest

from mairl.errors import DimensionMismatchError, StochasticityError
from mairl.games import JointPolicy, JointReward, MarkovGame, deterministic_policy
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
