"""Exact dynamic-programming primitives on Markov games.

Values solve the linear Bellman system Q = R + gamma * P V, V = pi Q per
agent. Every system is solved by one dense S x S factorization of
I - gamma P_pi. Every S x S kernel, the policy's P_pi and an agent's pure
reply against the others' policy alike, is summed from the game's successor
list; P V, in Q and in reward shaping, is a gather over that list
(`_expected_next`). Discounted occupancy measures are plain (S, A) arrays.
Rewards must be (n, S, A) tables of the game and policies must match its
states and action counts; otherwise DimensionMismatchError is raised.
Opponent-expected advantages come as one (S, |A_i|) table per agent, and a
value bundle whose Bellman residual exceeds its tolerance raises
StaleValuesError there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StaleValuesError
from .games import JointPolicy, JointReward, MarkovGame, _gather, _scatter

# the Bellman residual a fresh value bundle may carry
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ValueBundle:
    """Per-agent V (n, S) and Q (n, S, A) with the achieved Bellman residual."""

    v: np.ndarray
    q: np.ndarray
    residual: float

    def require_fresh(self) -> None:
        if self.residual > _RESIDUAL_TOL:
            raise StaleValuesError(
                f"value bundle residual {self.residual:.3e} exceeds tolerance {_RESIDUAL_TOL:.3e}"
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


def _expected_next(game: MarkovGame, v: np.ndarray) -> np.ndarray:
    """(..., S, A) table P V: sum_{s'} P(s'|s,a) v[..., s'] per value row of v (..., S)."""
    return _gather(game.successors, game.successor_probs, v)


def _weighted_kernel(game: MarkovGame, weights: np.ndarray) -> np.ndarray:
    """S x S kernel sum_a weights[s, a] P(s'|s,a) for (S, A) weights."""
    S = game.n_states
    return _scatter(game.successors, game.successor_probs, weights, np.arange(S)[:, None], S)


def transition_under(game: MarkovGame, policy: JointPolicy) -> np.ndarray:
    """State-to-state kernel P_pi(s'|s) = sum_a pi(a|s) P(s'|s,a)."""
    return _weighted_kernel(game, policy.joint_table())


def _reply_weights(game: MarkovGame, policy: JointPolicy, agent: int, actions) -> np.ndarray:
    """(..., S, A) table pi^{-i}(a^{-i}|s) where the own action is `actions`, else 0:
    one own action, a reply (S,), or (n, 1) for n own actions at once."""
    mask = game.agent_actions[agent] == np.asarray(actions)[..., None]
    return np.where(mask, policy.opponent_table(agent), 0.0)


def _reply_kernel(game: MarkovGame, policy: JointPolicy, agent: int, actions) -> np.ndarray:
    """S x S kernel sum_{a^{-i}} pi^{-i}(a^{-i}|s) P(s'|s, (actions[s], a^{-i})) of
    the pure reply `actions` (S,) of `agent`, or of one own action everywhere."""
    return _weighted_kernel(game, _reply_weights(game, policy, agent, actions))


def policy_evaluation(game: MarkovGame, reward: JointReward, policy: JointPolicy) -> ValueBundle:
    """Solve (I - gamma P_pi) V^i = R^i_pi per agent; Q from one Bellman
    backup; `require_fresh` checks the residual against _RESIDUAL_TOL."""
    _check_shapes(game, reward, policy)
    joint = policy.joint_table()
    p_pi = transition_under(game, policy)
    r_pi = np.einsum("sa,isa->is", joint, reward.tables)
    v = np.linalg.solve(np.eye(game.n_states) - game.gamma * p_pi, r_pi.T).T
    q = reward.tables + game.gamma * _expected_next(game, v)
    residual = float(np.max(np.abs(v - np.einsum("sa,isa->is", joint, q))))
    return ValueBundle(v=v, q=q, residual=residual)


def own_action_marginal(
    game: MarkovGame, policy: JointPolicy, agent: int, table: np.ndarray
) -> np.ndarray:
    """(S, |A_i|, ...) table sum_{a^{-i}} pi^{-i}(a^{-i}|s) table[s, (a^i, a^{-i}), ...].

    `table` is indexed by (state, joint action) first; trailing axes are kept.
    The weighted table is reshaped to (state, agents before i, own action,
    agents after i, ...) and summed over the opponents' joint actions one at
    a time, in joint-action order from zero: the order fixes the bits, and a
    numpy reduction over both opponent axes would group the additions
    differently.
    """
    i = range(game.n_agents)[agent]
    counts = game.action_counts
    trailing = table.shape[2:]
    opp = policy.opponent_table(i)
    terms = (opp.reshape(opp.shape + (1,) * len(trailing)) * table).reshape(
        game.n_states, math.prod(counts[:i]), counts[i], math.prod(counts[i + 1 :]), *trailing
    )
    out = np.zeros((game.n_states, counts[i], *trailing))
    for before, after in itertools.product(range(terms.shape[1]), range(terms.shape[3])):
        out += terms[:, before, :, after]
    return out


def shaping(game: MarkovGame, v: np.ndarray) -> np.ndarray:
    """(n, S, A) potential-shaping tables V^i(s) - gamma sum_{s'} P(s'|s,a) V^i(s')."""
    return v[:, :, None] - game.gamma * _expected_next(game, v)


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

    next_hat, next_true = (_expected_next(g, v_true) for g in (game_phat, game_p))
    defect = (reward_hat.tables[agent] - reward.tables[agent]) + game_p.gamma * (
        next_hat - next_true
    )
    joint = policy.joint_table()
    defect_pi = (joint * defect).sum(axis=1)
    # rhs(s0) = e_{s0}^T (I - gamma Phat_pi)^{-1} defect_pi: one solve covers all starts
    p_pi_hat = transition_under(game_phat, policy)
    rhs = np.linalg.solve(np.eye(game_p.n_states) - game_p.gamma * p_pi_hat, defect_pi)
    return lhs, rhs
