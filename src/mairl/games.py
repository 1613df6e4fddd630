"""Finite discounted n-agent Markov games and their reward/policy tables.

All probability rows must sum to one within PROB_ATOL. Tables are stored as
read-only float64 arrays, so instances are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, StochasticityError
from .joint import agent_action_table, joint_action_count

PROB_ATOL = 1e-12


def _frozen(a, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype)).copy()
    out.setflags(write=False)
    return out


def per_agent_rmax(rmax, n_agents: int) -> np.ndarray:
    """`rmax` as a float64 array with one entry per agent; a scalar or a
    length-1 value is repeated n_agents times, any other shape is kept."""
    r = np.atleast_1d(np.asarray(rmax, dtype=np.float64))
    if r.shape == (1,):
        r = np.repeat(r, n_agents)
    return r


def _check_rows_stochastic(rows: np.ndarray, what: str) -> None:
    if np.any(rows < 0):
        raise StochasticityError(f"{what} has negative entries")
    sums = rows.sum(axis=-1)
    bad = np.abs(sums - 1.0) > PROB_ATOL
    if np.any(bad):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise StochasticityError(f"{what} rows deviate from sum 1 by up to {worst:.3e}")


class MarkovGame:
    """A reward-free Markov game: state space, per-agent action sets,
    joint transition kernel, discount, and start distribution.

    transitions has shape (S, A, S) with A the joint-action count; each row
    transitions[s, a] is a distribution over next states.
    """

    def __init__(self, transitions, gamma: float, mu, action_counts):
        self.action_counts = tuple(int(c) for c in action_counts)
        if any(c <= 0 for c in self.action_counts):
            raise ValueError("action counts must be positive")
        self.n_agents = len(self.action_counts)
        self.n_joint_actions = joint_action_count(self.action_counts)

        P = _frozen(transitions)
        if P.ndim != 3 or P.shape[1] != self.n_joint_actions or P.shape[0] != P.shape[2]:
            raise DimensionMismatchError(
                f"transitions shape {P.shape} incompatible with joint action count "
                f"{self.n_joint_actions}"
            )
        self.n_states = P.shape[0]
        _check_rows_stochastic(P.reshape(-1, self.n_states), "transition table")
        self.transitions = P

        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        self.gamma = float(gamma)

        m = _frozen(mu)
        if m.shape != (self.n_states,):
            raise DimensionMismatchError(f"mu shape {m.shape} != ({self.n_states},)")
        _check_rows_stochastic(m[None, :], "initial distribution")
        self.mu = m

        # per-flat-action decomposition, shape (n_agents, A)
        self.agent_actions = _frozen(agent_action_table(self.action_counts), dtype=np.int64)

    def with_transitions(self, transitions) -> "MarkovGame":
        """Same state/action structure, discount and start, different kernel."""
        return MarkovGame(transitions, self.gamma, self.mu, self.action_counts)

    def __repr__(self):
        return (
            f"MarkovGame(n={self.n_agents}, S={self.n_states}, "
            f"A={self.action_counts}, gamma={self.gamma})"
        )


class JointReward:
    """Per-agent reward tables over (state, joint action), bounded in [0, rmax_i]."""

    def __init__(self, tables, rmax):
        T = _frozen(tables)
        if T.ndim != 3:
            raise DimensionMismatchError(f"reward tables must be (n, S, A), got {T.shape}")
        r = per_agent_rmax(rmax, T.shape[0])
        if r.shape != (T.shape[0],):
            raise DimensionMismatchError(f"rmax shape {r.shape} != ({T.shape[0]},)")
        if np.any(r < 0):
            raise ValueError("rmax entries must be nonnegative")
        lo = T.min(axis=(1, 2))
        hi = T.max(axis=(1, 2))
        if np.any(lo < -PROB_ATOL) or np.any(hi > r + PROB_ATOL):
            raise ValueError(
                f"reward entries outside [0, rmax]: min {lo.min():.3e}, "
                f"max overshoot {(hi - r).max():.3e}"
            )
        self.tables = T
        self.rmax = _frozen(r)

    @property
    def n_agents(self) -> int:
        return self.tables.shape[0]

    def __repr__(self):
        return f"JointReward(n={self.n_agents}, shape={self.tables.shape[1:]}, rmax={self.rmax})"


class JointPolicy:
    """Per-agent stochastic policy tables pi_i[s, a_i]; rows are distributions.

    The joint probability of a joint action is the product over agents.
    Support tests compare stored probabilities to exactly 0.
    """

    def __init__(self, per_agent):
        tables = [_frozen(t) for t in per_agent]
        if not tables:
            raise ValueError("need at least one agent")
        S = tables[0].shape[0]
        for i, t in enumerate(tables):
            if t.ndim != 2 or t.shape[0] != S:
                raise DimensionMismatchError(
                    f"policy table {i} has shape {t.shape}, expected ({S}, |A_{i}|)"
                )
            _check_rows_stochastic(t, f"policy table for agent {i}")
        self.per_agent = tables

    @property
    def n_agents(self) -> int:
        return len(self.per_agent)

    @property
    def n_states(self) -> int:
        return self.per_agent[0].shape[0]

    @property
    def action_counts(self):
        return tuple(t.shape[1] for t in self.per_agent)

    def joint_table(self, agent_actions=None) -> np.ndarray:
        """(S, A) table of joint probabilities (product over agents)."""
        if agent_actions is None:
            agent_actions = agent_action_table(self.action_counts)
        out = np.ones((self.n_states, agent_actions.shape[1]))
        for j, table in enumerate(self.per_agent):
            out *= table[:, agent_actions[j]]
        return out

    def opponent_table(self, agent: int, agent_actions=None) -> np.ndarray:
        """(S, A) table of pi^{-agent}(a^{-agent} | s), constant in agent's own action."""
        if agent_actions is None:
            agent_actions = agent_action_table(self.action_counts)
        out = np.ones((self.n_states, agent_actions.shape[1]))
        for j, table in enumerate(self.per_agent):
            if j != agent:
                out *= table[:, agent_actions[j]]
        return out

    def support(self, agent: int) -> np.ndarray:
        """Boolean (S, |A_i|) mask of actions with strictly positive stored probability."""
        return self.per_agent[agent] > 0.0

    def __repr__(self):
        return f"JointPolicy(n={self.n_agents}, S={self.n_states}, A={self.action_counts})"


def deterministic_policy(action_counts, n_states, actions) -> JointPolicy:
    """Build the pure joint policy playing actions[i][s] (or a constant per agent)."""
    tables = []
    for i, count in enumerate(action_counts):
        a = np.asarray(actions[i])
        if a.ndim == 0:
            a = np.full(n_states, int(a))
        t = np.zeros((n_states, count))
        t[np.arange(n_states), a] = 1.0
        tables.append(t)
    return JointPolicy(tables)
