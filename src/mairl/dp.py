"""Exact dynamic-programming primitives on Markov games.

Values solve the linear Bellman system Q = R + gamma * P V, V = pi Q per
agent. Every system is solved by one dense S x S factorization: the game
already stores an (S, A, S) kernel, A times the size of that system.
Discounted occupancy measures are plain (S, A) arrays. Rewards must be
(n, S, A) tables of the game and policies must match its states and action
counts; otherwise DimensionMismatchError is raised. Opponent-expected
advantages come as one (S, |A_i|) table per agent, and a value bundle whose
Bellman residual exceeds its tolerance raises StaleValuesError there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StaleValuesError
from .games import JointPolicy, JointReward, MarkovGame


@dataclass(frozen=True)
class ValueBundle:
    """Per-agent V (n, S) and Q (n, S, A) with the achieved Bellman residual."""

    v: np.ndarray
    q: np.ndarray
    residual: float
    tol: float

    def require_fresh(self) -> None:
        if self.residual > self.tol:
            raise StaleValuesError(
                f"value bundle residual {self.residual:.3e} exceeds tolerance {self.tol:.3e}"
            )


def _check_shapes(
    game: MarkovGame, reward: JointReward | None, policy: JointPolicy | None
) -> None:
    """Raise DimensionMismatchError unless the reward tables are (n, S, A)
    and the policy's action counts and states are the game's; None skips."""
    if policy is not None:
        if policy.n_states != game.n_states or policy.action_counts != game.action_counts:
            raise DimensionMismatchError(
                f"policy shape {policy.action_counts}x{policy.n_states} does not match game"
            )
    if reward is not None:
        if reward.tables.shape != (game.n_agents, game.n_states, game.n_joint_actions):
            raise DimensionMismatchError(
                f"reward shape {reward.tables.shape} does not match game"
            )


def transition_under(game: MarkovGame, policy: JointPolicy) -> np.ndarray:
    """State-to-state kernel P_pi(s'|s) = sum_a pi(a|s) P(s'|s,a)."""
    joint = policy.joint_table()
    return np.einsum("sa,sat->st", joint, game.transitions)


def policy_evaluation(
    game: MarkovGame, reward: JointReward, policy: JointPolicy, tol: float = 1e-10
) -> ValueBundle:
    """Solve (I - gamma P_pi) V^i = R^i_pi per agent; Q from one Bellman backup."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_shapes(game, reward, policy)
    joint = policy.joint_table()
    p_pi = transition_under(game, policy)
    r_pi = np.einsum("sa,isa->is", joint, reward.tables)
    v = np.linalg.solve(np.eye(game.n_states) - game.gamma * p_pi, r_pi.T).T
    q = reward.tables + game.gamma * np.einsum("sat,it->isa", game.transitions, v)
    residual = float(np.max(np.abs(v - np.einsum("sa,isa->is", joint, q))))
    return ValueBundle(v=v, q=q, residual=residual, tol=tol)


def own_action_marginal(
    game: MarkovGame, policy: JointPolicy, agent: int, table: np.ndarray
) -> np.ndarray:
    """(S, |A_i|, ...) table sum_{a^{-i}} pi^{-i}(a^{-i}|s) table[s, (a^i, a^{-i}), ...].

    `table` is indexed by (state, joint action) first; trailing axes are kept.
    """
    opp = policy.opponent_table(agent)
    own = game.agent_actions[agent]
    onehot = np.equal.outer(own, np.arange(game.action_counts[agent])).astype(np.float64)
    return np.einsum("sf,sf...,fd->sd...", opp, table, onehot)


def shaping(game: MarkovGame, v: np.ndarray) -> np.ndarray:
    """(n, S, A) potential-shaping tables V^i(s) - gamma sum_{s'} P(s'|s,a) V^i(s')."""
    return v[:, :, None] - game.gamma * np.einsum("sat,it->isa", game.transitions, v)


def expected_advantage_table(
    game: MarkovGame, policy: JointPolicy, values: ValueBundle, agent: int
) -> np.ndarray:
    """(S, |A_i|) table of sum_{a^{-i}} pi^{-i}(a^{-i}|s) Q^i(s, a^i a^{-i}) - V^i(s).

    Raises StaleValuesError if `values` missed its Bellman residual tolerance.
    """
    values.require_fresh()
    exp_q = own_action_marginal(game, policy, agent, values.q[agent])
    return exp_q - values.v[agent][:, None]


def occupancy(game: MarkovGame, policy: JointPolicy) -> np.ndarray:
    """(S, A) discounted visitation w(s,a) = sum_t gamma^t Pr_t(s) pi(a|s)
    from the start distribution game.mu, whose entries sum to 1/(1-gamma)."""
    _check_shapes(game, None, policy)
    S = game.n_states
    p_pi = transition_under(game, policy)
    d = np.linalg.solve(np.eye(S) - game.gamma * p_pi.T, game.mu)
    return d[:, None] * policy.joint_table()


def simulation_decomposition(
    game_p: MarkovGame,
    game_phat: MarkovGame,
    reward: JointReward,
    reward_hat: JointReward,
    policy: JointPolicy,
    agent: int,
):
    """Per-state value gap between two models and its occupancy expansion.

    lhs(s) = Vhat^{i,pi}(s) - V^{i,pi}(s). rhs(s) accumulates, over the
    visitation of pi in the hat model started at s, the per-pair defect
    (Rhat - R)(s,a) + gamma * sum_{s'} (Phat - P)(s'|s,a) V^{i,pi}(s')
    with V the true-model value. The two sides agree identically.
    """
    if (
        game_p.n_states != game_phat.n_states
        or game_p.action_counts != game_phat.action_counts
        or game_p.gamma != game_phat.gamma
    ):
        raise DimensionMismatchError("models must share states, actions and discount")
    v_true = policy_evaluation(game_p, reward, policy).v[agent]
    v_hat = policy_evaluation(game_phat, reward_hat, policy).v[agent]
    lhs = v_hat - v_true

    defect = (reward_hat.tables[agent] - reward.tables[agent]) + game_p.gamma * (
        (game_phat.transitions - game_p.transitions) @ v_true
    )
    joint = policy.joint_table()
    defect_pi = (joint * defect).sum(axis=1)
    # rhs(s0) = e_{s0}^T (I - gamma Phat_pi)^{-1} defect_pi: one solve covers all starts
    p_pi_hat = transition_under(game_phat, policy)
    rhs = np.linalg.solve(np.eye(game_p.n_states) - game_p.gamma * p_pi_hat, defect_pi)
    return lhs, rhs
