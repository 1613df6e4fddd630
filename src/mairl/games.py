"""Finite discounted n-agent Markov games and their reward/policy tables.

A game stores its transition kernel as a successor list: for each (state,
joint action) the next states of positive probability, in ascending order,
and their probabilities, both (S, A, w) with w the widest row's count and
shorter rows padded with state 0 at probability 0.0. A grid row has at most
four successors and most have one, so every layer reads this list and none
holds an (S, A, S) table; `MarkovGame.transitions` builds that dense table
on demand for the matrix forms that need it. `_gather` takes expectations
under a list and `_scatter` sums it into dense rows.

All probability rows must sum to one within PROB_ATOL. Tables are stored as
read-only arrays, so instances are safe to share across threads.
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
    length-1 value is repeated n_agents times, any other shape but
    (n_agents,) raises DimensionMismatchError."""
    r = np.atleast_1d(np.asarray(rmax, dtype=np.float64))
    if r.shape == (1,):
        r = np.repeat(r, n_agents)
    if r.shape != (n_agents,):
        raise DimensionMismatchError(f"rmax shape {r.shape} != ({n_agents},)")
    return r


def _check_rows_stochastic(rows: np.ndarray, what: str) -> None:
    # two passes over the table, its min and its row sums; min propagates
    # NaN, which then fails the comparison, as every comparison with NaN does
    if rows.size and not rows.min() >= 0:
        raise StochasticityError(f"{what} has negative or NaN entries")
    worst = float(np.abs(rows.sum(axis=-1) - 1.0).max(initial=0.0))
    if worst > PROB_ATOL:
        raise StochasticityError(f"{what} rows deviate from sum 1 by up to {worst:.3e}")


def _pack_positive(P: np.ndarray):
    """The positive entries of each row of P (..., n), left-aligned in
    ascending position order: (positions, values), each (..., w) with w the
    widest row's count, padded with position 0 and value 0."""
    flat = P.reshape(-1, P.shape[-1])
    rows, cols = np.nonzero(flat > 0)
    per_row = np.bincount(rows, minlength=flat.shape[0])
    slot = np.arange(rows.size) - (np.cumsum(per_row) - per_row)[rows]
    shape = P.shape[:-1] + (int(per_row.max()),)
    positions = np.zeros(shape, dtype=np.intp)
    values = np.zeros(shape)
    positions.reshape(flat.shape[0], -1)[rows, slot] = cols
    values.reshape(flat.shape[0], -1)[rows, slot] = flat[rows, cols]
    return positions, values


def _gather(successors: np.ndarray, probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(..., S, A) table sum_w probs[s, a, w] v[..., successors[s, a, w]]: each
    value row of v (..., S) in expectation under the successor list."""
    return (probs * v[..., successors]).sum(axis=-1)


def _scatter(successors, probs, weights, rows, n_rows: int) -> np.ndarray:
    """(n_rows, S) table whose row r sums weights[s, a] probs[s, a, w] into
    column successors[s, a, w] over every (s, a) with rows[s, a] = r.

    Each entry adds its terms one by one in (s, a, w) order, starting from 0.0.
    """
    S = successors.shape[0]
    index = rows[..., None] * S + successors
    terms = weights[..., None] * probs
    return np.bincount(index.ravel(), terms.ravel(), minlength=n_rows * S).reshape(n_rows, S)


class MarkovGame:
    """A reward-free Markov game: state space, per-agent action sets,
    joint transition kernel, discount, and start distribution.

    The constructor takes a dense kernel (S, A, S) with A the joint-action
    count, each row transitions[s, a] a distribution over next states, and
    keeps only its successor list `successors`, `successor_probs` (S, A, w);
    `from_successors` takes the list itself.
    """

    def __init__(self, transitions, gamma: float, mu, action_counts):
        P = np.asarray(transitions, dtype=np.float64)
        if P.ndim != 3 or P.shape[0] != P.shape[2]:
            raise DimensionMismatchError(f"transitions shape {P.shape} is not (S, A, S)")
        _check_rows_stochastic(P.reshape(-1, P.shape[0]), "transition table")
        self._init(*_pack_positive(P), gamma, mu, action_counts)

    @classmethod
    def from_successors(cls, successors, probs, gamma: float, mu, action_counts) -> "MarkovGame":
        """The game whose kernel is the successor list (successors, probs),
        both (S, A, w): row (s, a) moves to successors[s, a, j] with
        probability probs[s, a, j]. Entries of probability 0 are allowed, and
        draws follow the slot order."""
        game = cls.__new__(cls)
        game._init(successors, probs, gamma, mu, action_counts)
        return game

    def _init(self, successors, probs, gamma, mu, action_counts):
        self.action_counts = tuple(int(c) for c in action_counts)
        if any(c <= 0 for c in self.action_counts):
            raise ValueError("action counts must be positive")
        self.n_agents = len(self.action_counts)
        self.n_joint_actions = joint_action_count(self.action_counts)

        succ = _frozen(successors, dtype=np.intp)
        prob = _frozen(probs)
        if succ.ndim != 3 or succ.shape != prob.shape or succ.shape[1] != self.n_joint_actions:
            raise DimensionMismatchError(
                f"successor list shapes {succ.shape} and {prob.shape} incompatible with "
                f"joint action count {self.n_joint_actions}"
            )
        self.n_states = succ.shape[0]
        if not (succ.min() >= 0 and succ.max() < self.n_states):
            raise ValueError(f"successor indices must lie in [0, {self.n_states})")
        _check_rows_stochastic(prob.reshape(-1, prob.shape[-1]), "transition table")
        self.successors = succ
        self.successor_probs = prob

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

    @property
    def transitions(self) -> np.ndarray:
        """The dense kernel (S, A, S), read-only, built anew on every access."""
        return _dense_kernel(self.successors, self.successor_probs)

    def with_transitions(self, transitions) -> "MarkovGame":
        """Same state/action structure, discount and start, different kernel."""
        return MarkovGame(transitions, self.gamma, self.mu, self.action_counts)

    def __repr__(self):
        return (
            f"MarkovGame(n={self.n_agents}, S={self.n_states}, "
            f"A={self.action_counts}, gamma={self.gamma})"
        )


def _dense_kernel(successors: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The read-only dense kernel (S, A, S) of a successor list (S, A, w)."""
    S, A = successors.shape[:2]
    rows = np.arange(S * A).reshape(S, A)
    out = _scatter(successors, probs, np.ones((S, A)), rows, S * A).reshape(S, A, S)
    out.setflags(write=False)
    return out


class JointReward:
    """Per-agent reward tables over (state, joint action), bounded in [0, rmax_i]."""

    def __init__(self, tables, rmax):
        T = _frozen(tables)
        if T.ndim != 3:
            raise DimensionMismatchError(f"reward tables must be (n, S, A), got {T.shape}")
        r = per_agent_rmax(rmax, T.shape[0])
        if not np.all(r >= 0):
            raise ValueError("rmax entries must be nonnegative")
        # min and max propagate NaN, which then fails both comparisons
        lo = T.min(axis=(1, 2))
        hi = T.max(axis=(1, 2))
        if not (np.all(lo >= -PROB_ATOL) and np.all(hi <= r + PROB_ATOL)):
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
        # per-flat-action decomposition, shape (n_agents, A)
        self.agent_actions = _frozen(agent_action_table(self.action_counts), dtype=np.int64)

    @property
    def n_agents(self) -> int:
        return len(self.per_agent)

    @property
    def n_states(self) -> int:
        return self.per_agent[0].shape[0]

    @property
    def action_counts(self):
        return tuple(t.shape[1] for t in self.per_agent)

    def _product(self, skipped=None) -> np.ndarray:
        """(S, A) product over the agents but `skipped`, in agent order."""
        out = np.ones((self.n_states, self.agent_actions.shape[1]))
        for j, table in enumerate(self.per_agent):
            if j != skipped:
                out *= table[:, self.agent_actions[j]]
        return out

    def joint_table(self) -> np.ndarray:
        """(S, A) table of joint probabilities (product over agents)."""
        return self._product()

    def opponent_table(self, agent: int) -> np.ndarray:
        """(S, A) table of pi^{-agent}(a^{-agent} | s), constant in agent's own action.

        A negative agent counts from the last, as in `per_agent`; an agent
        outside [-n, n) raises IndexError."""
        return self._product(range(self.n_agents)[agent])

    def support(self, agent: int) -> np.ndarray:
        """Boolean (S, |A_i|) mask of actions with strictly positive stored probability."""
        return self.per_agent[agent] > 0.0

    def __repr__(self):
        return f"JointPolicy(n={self.n_agents}, S={self.n_states}, A={self.action_counts})"


def deterministic_policy(action_counts, n_states, actions) -> JointPolicy:
    """Build the pure joint policy playing actions[i][s] (or a constant per agent).

    An action outside [0, count) raises ValueError naming the agent."""
    tables = []
    for i, count in enumerate(action_counts):
        a = np.asarray(actions[i])
        if a.ndim == 0:
            a = np.full(n_states, int(a))
        if np.any((a < 0) | (a >= count)):
            raise ValueError(f"actions of agent {i} must lie in [0, {count})")
        t = np.zeros((n_states, count))
        t[np.arange(n_states), a] = 1.0
        tables.append(t)
    return JointPolicy(tables)
