"""Small synthetic games used by the test-suite and the demo scripts."""

from __future__ import annotations

import numpy as np

from .games import JointPolicy, JointReward, MarkovGame, deterministic_policy, per_agent_rmax
from .joint import joint_action_count


def single_state_game(action_counts, gamma: float) -> MarkovGame:
    """One state, every joint action loops back to it."""
    A = joint_action_count(action_counts)
    P = np.ones((1, A, 1))
    return MarkovGame(P, gamma, np.array([1.0]), action_counts)


def prisoners_dilemma(gamma: float = 0.5):
    """Repeated prisoner's dilemma, payoffs (3,5,0,1)/5; action 0 = cooperate.

    Returns (game, reward); the unique equilibrium of the stage game is
    mutual defection (action 1 for both).
    """
    game = single_state_game((2, 2), gamma)
    # joint order: (C,C), (C,D), (D,C), (D,D)
    r1 = np.array([[0.6, 0.0, 1.0, 0.2]])
    r2 = np.array([[0.6, 1.0, 0.0, 0.2]])
    reward = JointReward(np.stack([r1, r2]), rmax=[1.0, 1.0])
    return game, reward


def matching_pennies(gamma: float = 0.9):
    """Repeated matching pennies scaled to [0, 1]; agent 0 wins on a match."""
    game = single_state_game((2, 2), gamma)
    r1 = np.array([[1.0, 0.0, 0.0, 1.0]])
    reward = JointReward(np.stack([r1, 1.0 - r1]), rmax=[1.0, 1.0])
    return game, reward


def random_markov_game(
    rng: np.random.Generator, n_states: int, action_counts, gamma: float
) -> MarkovGame:
    """Dense random transition kernel with Dirichlet(1) rows and random mu."""
    A = joint_action_count(action_counts)
    P = rng.dirichlet(np.ones(n_states), size=(n_states, A))
    mu = rng.dirichlet(np.ones(n_states))
    return MarkovGame(P, gamma, mu, action_counts)


def random_reward(rng: np.random.Generator, game: MarkovGame, rmax=1.0) -> JointReward:
    r = per_agent_rmax(rmax, game.n_agents)
    tables = rng.uniform(
        0.0, r[:, None, None], size=(game.n_agents, game.n_states, game.n_joint_actions)
    )
    return JointReward(tables, r)


def random_joint_policy(
    rng: np.random.Generator, game: MarkovGame, deterministic: bool = False
) -> JointPolicy:
    if deterministic:
        actions = [rng.integers(0, c, size=game.n_states) for c in game.action_counts]
        return deterministic_policy(game.action_counts, game.n_states, actions)
    tables = [
        rng.dirichlet(np.ones(c), size=game.n_states) for c in game.action_counts
    ]
    return JointPolicy(tables)
