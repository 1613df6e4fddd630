"""Nash-equilibrium computation and verification.

Provides exact single-agent best responses (policy iteration), the Nash
imitation gap, a stacked-operator equilibrium test, a support-enumeration
bimatrix solver, and NashQ equilibrium synthesis: `nash_value_iteration`
runs exact full-width backups on the true model. `best_response`,
`nash_gap` and `nash_value_iteration` raise DimensionMismatchError for a
reward whose tables are not the game's (n, S, A).

A NashQ backup solves one stage game per state, warm-started from the support
that state selected in the previous backup. Cached pure supports are checked
for all states in one numpy pass; the remaining states (no cache, a mixed
cache, or a pure cache that stopped being an equilibrium) run support
enumeration one state at a time. The selected equilibrium is the one the
per-state solver picks, so both paths give bit-identical results.

Once a backup leaves every cached support unchanged and all of them are
pure, the backups that follow are linear, and NashQ jumps to their fixed
point, the cached one-hot profile's Q from one S x S policy evaluation
(modified policy iteration; Puterman 1994, ch. 6). A stage check and one
backup confirm it; otherwise plain backups go on (see
`nash_value_iteration`).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dp import _check_shapes, own_action_kernel, own_action_marginal, policy_evaluation
from .errors import ConvergenceError, DimensionMismatchError
from .games import JointPolicy, JointReward, MarkovGame, _gather

MAX_OVER_STATES = "max-over-states"
MU_WEIGHTED = "mu-weighted"


@dataclass(frozen=True)
class BestResponseResult:
    """Exact deterministic best response of one agent against pi^{-i}."""

    actions: np.ndarray  # (S,) argmax actions
    value: np.ndarray  # (S,) value under (BR, pi^{-i})
    gap_per_state: np.ndarray  # value - V^{i,pi}, >= 0 up to tolerance


@dataclass(frozen=True)
class NashGapReport:
    per_agent_gap: np.ndarray
    gap: float
    initial_state_mode: str


@dataclass(frozen=True)
class MatrixNECheck:
    passed: bool
    worst_violation: float


def best_response(
    game: MarkovGame,
    reward: JointReward,
    policy: JointPolicy,
    agent: int,
) -> BestResponseResult:
    """Exactly optimal deterministic reply via policy iteration.

    Ties are broken toward the lowest action index, so the result is
    reproducible across runs.
    """
    _check_shapes(game, reward, policy)
    S = game.n_states
    n_actions = game.action_counts[agent]
    # the single-agent MDP seen by `agent` when the others play policy^{-agent}
    r = own_action_marginal(game, policy, agent, reward.tables[agent])
    p = own_action_kernel(game, policy, agent)

    # switches require a strict improvement beyond float noise, which rules
    # out cycling between policies whose values tie to machine precision
    switch_tol = 1e-11 * (1.0 + np.abs(r).max() / max(1.0 - game.gamma, 1e-12))
    actions = np.zeros(S, dtype=np.int64)
    rows = np.arange(S)
    for _ in range(4 * S * n_actions + 64):
        p_pol = p[rows, actions]
        v = np.linalg.solve(np.eye(S) - game.gamma * p_pol, r[rows, actions])
        q = r + game.gamma * p @ v
        # lowest action index within the tolerance window of the maximum
        greedy = np.argmax(q >= q.max(axis=1, keepdims=True) - switch_tol, axis=1)
        improving = q[rows, greedy] > q[rows, actions] + switch_tol
        if not improving.any():
            break
        actions = np.where(improving, greedy, actions)
    else:  # pragma: no cover - strict improvement makes cycling impossible
        raise ConvergenceError("policy iteration failed to stabilize")

    v_pi = policy_evaluation(game, reward, policy).v[agent]
    return BestResponseResult(actions=actions, value=v, gap_per_state=v - v_pi)


def nash_gap(
    game: MarkovGame,
    reward: JointReward,
    policy: JointPolicy,
    initial_state_mode: str = MAX_OVER_STATES,
) -> NashGapReport:
    """max_i max_{pi^i} V^i(pi^i, policy^{-i}) - V^i(policy), clamped at 0.

    The default aggregates the per-state deviation gain by its maximum over
    states (the per-state equilibrium reading); "mu-weighted" averages under
    the start distribution instead.
    """
    if initial_state_mode not in (MAX_OVER_STATES, MU_WEIGHTED):
        raise ValueError(f"unknown initial_state_mode {initial_state_mode!r}")
    gaps = np.zeros(game.n_agents)
    for i in range(game.n_agents):
        br = best_response(game, reward, policy, i)
        if initial_state_mode == MAX_OVER_STATES:
            gaps[i] = np.max(br.gap_per_state)
        else:
            gaps[i] = float(game.mu @ br.gap_per_state)
    gaps = np.maximum(gaps, 0.0)
    return NashGapReport(
        per_agent_gap=gaps, gap=float(gaps.max()), initial_state_mode=initial_state_mode
    )


def matrix_ne_check(
    game: MarkovGame, reward: JointReward, policy: JointPolicy, tol: float = 1e-9
) -> MatrixNECheck:
    """Equilibrium test via the stacked operators.

    Solves (I - gamma P pi) Q^i = R^i over the stacked (s,a) space, where
    (P pi)[(s,a), (s',a')] = P(s'|s,a) pi(a'|s'), and checks that every pure
    deviation's opponent-expected Q stays below V^i(s) + tol.
    """
    S, A = game.n_states, game.n_joint_actions
    joint = policy.joint_table()
    p_pi_stacked = (game.transitions[:, :, :, None] * joint).reshape(S * A, S * A)
    M = np.eye(S * A) - game.gamma * p_pi_stacked
    worst = -np.inf
    for i in range(game.n_agents):
        q = np.linalg.solve(M, reward.tables[i].ravel()).reshape(S, A)
        v = np.einsum("sa,sa->s", joint, q)
        exp_q = own_action_marginal(game, policy, i, q)
        worst = max(worst, float(np.max(exp_q - v[:, None])))
    return MatrixNECheck(passed=worst <= tol, worst_violation=worst)


# ---------------------------------------------------------------------------
# Bimatrix stage games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BimatrixEquilibrium:
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    payoffs: tuple
    supports: tuple  # (row support, col support), as sorted tuples


def _try_support(a, b, rows, cols, tol):
    """Solve the indifference system on a candidate support pair; None if invalid."""
    k = len(rows)
    if k == 1:
        i, j = rows[0], cols[0]
        x = np.zeros(a.shape[0])
        y = np.zeros(a.shape[1])
        x[i] = 1.0
        y[j] = 1.0
        v, w = a[i, j], b[i, j]
    else:
        # y makes the row player indifferent across `rows`; x the column player
        # across `cols` (Nisan et al., Algorithm 3.4 layout).
        lhs_y = np.zeros((k + 1, k + 1))
        lhs_y[:k, :k] = a[np.ix_(rows, cols)]
        lhs_y[:k, k] = -1.0
        lhs_y[k, :k] = 1.0
        lhs_x = np.zeros((k + 1, k + 1))
        lhs_x[:k, :k] = b[np.ix_(rows, cols)].T
        lhs_x[:k, k] = -1.0
        lhs_x[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol_y = np.linalg.solve(lhs_y, rhs)
            sol_x = np.linalg.solve(lhs_x, rhs)
        except np.linalg.LinAlgError:
            return None
        if not (np.all(np.isfinite(sol_x)) and np.all(np.isfinite(sol_y))):
            return None
        if np.any(sol_x[:k] < -tol) or np.any(sol_y[:k] < -tol):
            return None
        x = np.zeros(a.shape[0])
        y = np.zeros(a.shape[1])
        x[list(rows)] = np.clip(sol_x[:k], 0.0, None)
        y[list(cols)] = np.clip(sol_y[:k], 0.0, None)
        x /= x.sum()
        y /= y.sum()
        # the row-indifference system carries the row player's value and vice versa
        v, w = sol_y[k], sol_x[k]
    # no profitable pure deviation for either player
    row_payoffs = a @ y
    col_payoffs = x @ b
    if np.max(row_payoffs) > v + tol or np.max(col_payoffs) > w + tol:
        return None
    if np.max(np.abs(row_payoffs[list(rows)] - v)) > 10 * tol:
        return None
    if np.max(np.abs(col_payoffs[list(cols)] - w)) > 10 * tol:
        return None
    return BimatrixEquilibrium(
        row_strategy=x,
        col_strategy=y,
        payoffs=(float(x @ a @ y), float(x @ b @ y)),
        supports=(tuple(rows), tuple(cols)),
    )


def bimatrix_nash(payoff_row, payoff_col, tol: float = 1e-9, first_supports=None):
    """One exact equilibrium of a finite two-player game by support enumeration.

    Candidate supports are ordered by total size, then lexicographically, and
    the first support pair whose indifference system yields nonnegative
    probabilities with no profitable pure deviation is returned. An optional
    `first_supports` hint is tried before the enumeration (cache warm start).
    """
    a = np.asarray(payoff_row, dtype=np.float64)
    b = np.asarray(payoff_col, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatchError(f"payoff shapes differ: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("payoff matrices must be finite")

    if first_supports is not None:
        rows, cols = first_supports
        if len(rows) == len(cols):
            hit = _try_support(a, b, tuple(rows), tuple(cols), tol)
            if hit is not None:
                return hit

    m, n = a.shape
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                hit = _try_support(a, b, rows, cols, tol)
                if hit is not None:
                    return hit
    raise RuntimeError(
        "support enumeration found no equilibrium; finite games always have one, "
        "so this indicates a solver bug or non-finite payoffs"
    )


# ---------------------------------------------------------------------------
# NashQ synthesis
# ---------------------------------------------------------------------------


@dataclass
class NashQResult:
    policy: JointPolicy
    q: np.ndarray  # (2, S, A)
    values: np.ndarray  # (2, S)
    converged: bool
    iterations: int
    final_delta: float  # max |Q change| of the last backup; inf if none ran
    stage_supports: list = field(default_factory=list)  # per-state selected supports


def _check_pure_supports(game, q, support_cache, tol=1e-9):
    """The batched test of every cached pure support ((i,), (j,)) against q.

    Returns the (state, i, j) index arrays of the pure caches, whether each
    still holds, and both players' payoffs at (i, j). A support holds iff
    max_r Q^1[s,r,j] <= Q^1[s,i,j] + tol and max_c Q^2[s,i,c] <= Q^2[s,i,j] + tol,
    which is `_try_support`'s k = 1 test (exact for one-hot strategies).
    """
    a1, a2 = game.action_counts
    S = game.n_states
    pure = [
        (s, c[0][0], c[1][0])
        for s, c in enumerate(support_cache)
        if c is not None and len(c[0]) == 1
    ]
    s_idx, i_idx, j_idx = np.array(pure, dtype=np.int64).reshape(-1, 3).T
    q1 = q[0].reshape(S, a1, a2)
    q2 = q[1].reshape(S, a1, a2)
    v = q1[s_idx, i_idx, j_idx]
    w = q2[s_idx, i_idx, j_idx]
    ok = (q1[s_idx, :, j_idx].max(axis=1) <= v + tol) & (
        q2[s_idx, i_idx, :].max(axis=1) <= w + tol
    )
    return s_idx, i_idx, j_idx, ok, v, w


def _solve_stage_games(game, q, support_cache, tol=1e-9):
    """Per-state equilibrium of (Q^1(s,.), Q^2(s,.)); returns policies and values.

    States whose cached support is pure are checked in one numpy pass
    (`_check_pure_supports`). Every other state (no cache, a mixed cache, or
    a failed check) goes through `bimatrix_nash` warm-started from its cache.
    The selected equilibrium is the per-state solver's, bit for bit.
    """
    if not np.all(np.isfinite(q)):
        raise ValueError("payoff matrices must be finite")
    a1, a2 = game.action_counts
    S = game.n_states
    pol1 = np.zeros((S, a1))
    pol2 = np.zeros((S, a2))
    values = np.zeros((2, S))

    s_idx, i_idx, j_idx, ok, v, w = _check_pure_supports(game, q, support_cache, tol)
    s_ok = s_idx[ok]
    pol1[s_ok, i_idx[ok]] = 1.0
    pol2[s_ok, j_idx[ok]] = 1.0
    values[0, s_ok] = v[ok]
    values[1, s_ok] = w[ok]
    settled = np.zeros(S, dtype=bool)
    settled[s_ok] = True

    for s in np.flatnonzero(~settled):
        eq = bimatrix_nash(
            q[0, s].reshape(a1, a2),
            q[1, s].reshape(a1, a2),
            tol=tol,
            first_supports=support_cache[s],
        )
        support_cache[s] = eq.supports
        pol1[s] = eq.row_strategy
        pol2[s] = eq.col_strategy
        values[0, s], values[1, s] = eq.payoffs
    return pol1, pol2, values


def _jump(game, reward, pol1, pol2, support_cache):
    """The fixed point of the backup that keeps every (pure) cached support.

    With each cached support pure and held, a backup is the linear map
    Q <- R + gamma P V, V the Q value of the cached one-hot profile at each
    state, so its fixed point is that profile's Q = policy_evaluation(...).q.
    Returns (Q, the confirming backup's largest move) when a stage pass on
    Q would leave a copy of the cache unchanged and its backup moves Q by
    less than 1e-8, else None. The pass leaves the copy unchanged iff every
    cached support passes the batched check (a failed one is retried first
    by `bimatrix_nash`, fails again and is replaced), so the check alone
    decides it and no state enumerates.
    """
    q = policy_evaluation(game, reward, JointPolicy([pol1, pol2])).q
    s_idx, _, _, ok, v, w = _check_pure_supports(game, q, support_cache)
    if not ok.all():
        return None
    values = np.zeros((2, game.n_states))
    values[0, s_idx] = v
    values[1, s_idx] = w
    q_next = reward.tables + game.gamma * _gather(game.successors, game.successor_probs, values)
    delta = float(np.max(np.abs(q_next - q)))
    return (q, delta) if delta < 1e-8 else None


def nash_value_iteration(
    game: MarkovGame,
    reward: JointReward,
    max_iters: int = 5000,
) -> NashQResult:
    """Exact model-based NashQ: full-width backups with a bimatrix stage solver.

    Each backup bootstraps with the stage-game equilibrium value of
    (Q^1(s',.), Q^2(s',.)). Stage equilibria are selected deterministically:
    the support a state selected in the previous backup if it is still an
    equilibrium, else the first support in the fixed enumeration order (size,
    then lexicographic), which pins down the equilibrium the iteration tracks.
    Cached pure supports are checked for all states in one pass and only the
    other states enumerate (see `_solve_stage_games`). The iteration has
    converged once a backup moves no Q entry by 1e-8 or more; `final_delta`
    reports the last backup's largest move either way.

    Policy-evaluation jump (modified policy iteration): when a backup leaves
    every cached support unchanged and all of them are pure, the next
    backups are linear until a support changes, and their fixed point is the
    cached one-hot profile's Q, one S x S solve away. That Q is accepted,
    and the iteration stops there, if one confirming stage pass on a copy of
    the cache changes no support and its backup moves Q by less than 1e-8.
    Otherwise it is discarded and plain backups continue from the last
    iterate; the jump is tried again only after the cache changes again.
    `iterations` counts every backup, the confirming one included, and never
    exceeds `max_iters`. The returned policy is the profile of the last
    stage pass on the returned Q, so an accepted jump returns the cached
    one-hot profile; mixed supports never jump.

    General-sum iteration carries no convergence guarantee; on failure the
    best-so-far policy is returned with converged=False and a warning.
    """
    if game.n_agents != 2:
        raise ValueError("the stage-game solver is bimatrix; need exactly 2 agents")
    _check_shapes(game, reward, None)
    S, A = game.n_states, game.n_joint_actions
    q = np.zeros((2, S, A))
    support_cache = [None] * S
    converged = False
    iterations = 0
    delta = np.inf
    jump_ready = False  # the cache changed since the last jump was tried
    while iterations < max_iters:
        iterations += 1
        before = list(support_cache)
        pol1, pol2, values = _solve_stage_games(game, q, support_cache)
        q_next = reward.tables + game.gamma * _gather(
            game.successors, game.successor_probs, values
        )
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta < 1e-8:
            converged = True
            break
        if support_cache != before:
            jump_ready = True
        elif jump_ready and iterations < max_iters and all(
            len(rows) == 1 for rows, _ in support_cache
        ):
            jump_ready = False
            iterations += 1
            jumped = _jump(game, reward, pol1, pol2, support_cache)
            if jumped is not None:
                q, delta = jumped
                converged = True
                break
    if not converged:
        warnings.warn(
            f"Nash value iteration did not converge within {max_iters} backups "
            f"(last delta {delta:.3e}, tolerance 1e-08); returning best-so-far policy",
            RuntimeWarning,
        )
    pol1, pol2, values = _solve_stage_games(game, q, support_cache)
    return NashQResult(
        policy=JointPolicy([pol1, pol2]),
        q=q,
        values=values,
        converged=converged,
        iterations=iterations,
        final_delta=delta,
        stage_supports=list(support_cache),
    )
