"""Nash-equilibrium computation and verification.

Provides exact single-agent best responses (policy iteration), the Nash
imitation gap, a stacked-operator equilibrium test, a support-enumeration
bimatrix solver, and NashQ equilibrium synthesis: `nash_value_iteration`
runs exact full-width backups on the true model. `best_response`,
`nash_gap` and `nash_value_iteration` raise DimensionMismatchError for a
reward whose tables are not the game's (n, S, A).

A NashQ backup solves one stage game per state, warm-started from the support
that state selected in the previous backup. Cached pure supports are checked
for all states in one numpy pass. A second pass gives every state with no
cache, or with a pure cache that stopped being an equilibrium, its first
pure equilibrium in enumeration order. Only the remaining states (a mixed
cache, or no pure equilibrium) run support enumeration, one state at a
time. Both passes and `bimatrix_nash` test pure profiles with one helper,
`_pure_equilibria`, so the selected equilibrium is the one the per-state
solver picks, and every path gives bit-identical results.

Once a backup leaves every cached support unchanged and all of them are
pure, NashQ jumps to the fixed point of the linear backup that keeps those
supports, the cached one-hot profile's Q from one S x S policy evaluation
(modified policy iteration; Puterman 1994, ch. 6). A stage check and one
backup confirm it; otherwise plain backups go on (see
`nash_value_iteration`). A confirmed jump ends on an equilibrium of the
backup, but not always on plain iteration's: plain backups from the same
iterate may switch a support before they settle, and then converge to
another equilibrium.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dp import _check_shapes, _expected_next, _reply_kernel, own_action_marginal, policy_evaluation
from .errors import ConvergenceError, DimensionMismatchError
from .games import JointPolicy, JointReward, MarkovGame

MAX_OVER_STATES = "max-over-states"
MU_WEIGHTED = "mu-weighted"

# a stage-game profile is an equilibrium when no pure deviation gains more
# than this, and a support's mix may dip this far below 0
_STAGE_TOL = 1e-9


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


def _reply(game: MarkovGame, reward: JointReward, policy: JointPolicy, agent: int):
    """(actions, value) of `agent`'s exactly optimal deterministic reply to
    policy^{-agent}, by policy iteration with ties toward the lowest action."""
    S = game.n_states
    # the single-agent MDP seen by `agent` when the others play policy^{-agent}:
    # opponent-expected rewards, and each reply's S x S kernel and P V
    r = own_action_marginal(game, policy, agent, reward.tables[agent])

    # switches require a strict improvement beyond float noise, which rules
    # out cycling between policies whose values tie to machine precision
    switch_tol = 1e-11 * (1.0 + np.abs(r).max() / max(1.0 - game.gamma, 1e-12))
    actions = np.zeros(S, dtype=np.int64)
    rows = np.arange(S)
    for _ in range(4 * S * game.action_counts[agent] + 64):
        p_pol = _reply_kernel(game, policy, agent, actions)
        v = np.linalg.solve(np.eye(S) - game.gamma * p_pol, r[rows, actions])
        q = r + game.gamma * own_action_marginal(game, policy, agent, _expected_next(game, v))
        # lowest action index within the tolerance window of the maximum
        greedy = np.argmax(q >= q.max(axis=1, keepdims=True) - switch_tol, axis=1)
        improving = q[rows, greedy] > q[rows, actions] + switch_tol
        if not improving.any():
            break
        actions = np.where(improving, greedy, actions)
    else:  # pragma: no cover - strict improvement makes cycling impossible
        raise ConvergenceError("policy iteration failed to stabilize")
    return actions, v


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
    actions, v = _reply(game, reward, policy, agent)
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
    the start distribution instead. V(policy) is evaluated once for all
    agents.
    """
    if initial_state_mode not in (MAX_OVER_STATES, MU_WEIGHTED):
        raise ValueError(f"unknown initial_state_mode {initial_state_mode!r}")
    v_pi = policy_evaluation(game, reward, policy).v
    gaps = np.zeros(game.n_agents)
    for i in range(game.n_agents):
        gain = _reply(game, reward, policy, i)[1] - v_pi[i]
        gaps[i] = np.max(gain) if initial_state_mode == MAX_OVER_STATES else game.mu @ gain
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


def _indifferent_mix(block, support, n):
    """(mix, value): the strategy over `n` actions, on `support`, that makes
    the opponent indifferent across the rows of the k x k `block` (the
    opponent's payoffs, one row per opponent action), and that common
    payoff; None if the system is singular or not finite, or the mix is
    negative beyond _STAGE_TOL."""
    k = len(support)
    lhs = np.zeros((k + 1, k + 1))
    lhs[:k, :k] = block
    lhs[:k, k] = -1.0
    lhs[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)) or np.any(sol[:k] < -_STAGE_TOL):
        return None
    mix = np.zeros(n)
    mix[list(support)] = np.clip(sol[:k], 0.0, None)
    mix /= mix.sum()
    return mix, sol[k]


def _try_support(a, b, rows, cols):
    """Solve the indifference system on a candidate support pair of size
    k >= 2; None if invalid. Pure profiles are `_pure_equilibria`'s."""
    # y makes the row player indifferent across `rows` and carries its value
    # v; x the column player across `cols`, with its value w (Nisan et al.,
    # Algorithm 3.4 layout)
    block = np.ix_(rows, cols)
    row_side = _indifferent_mix(a[block], cols, a.shape[1])
    col_side = _indifferent_mix(b[block].T, rows, a.shape[0])
    if row_side is None or col_side is None:
        return None
    (y, v), (x, w) = row_side, col_side
    # no profitable pure deviation for either player
    row_payoffs = a @ y
    col_payoffs = x @ b
    if np.max(row_payoffs) > v + _STAGE_TOL or np.max(col_payoffs) > w + _STAGE_TOL:
        return None
    if np.max(np.abs(row_payoffs[list(rows)] - v)) > 10 * _STAGE_TOL:
        return None
    if np.max(np.abs(col_payoffs[list(cols)] - w)) > 10 * _STAGE_TOL:
        return None
    return _profile(a, b, x, y, rows, cols)


def _profile(a, b, x, y, rows, cols):
    """Strategies x, y with payoffs (x a y, x b y) on supports (rows, cols)."""
    payoffs = (float(x @ a @ y), float(x @ b @ y))
    return BimatrixEquilibrium(x, y, payoffs, (tuple(rows), tuple(cols)))


def _pure_profile(a, b, i, j):
    """The pure profile (i, j): one-hot strategies, payoffs (a[i, j], b[i, j])."""
    x = np.eye(a.shape[0])[i]
    y = np.eye(a.shape[1])[j]
    return _profile(a, b, x, y, (i,), (j,))


def bimatrix_nash(payoff_row, payoff_col, first_supports=None):
    """One exact equilibrium of a finite two-player game by support enumeration.

    Candidate supports are ordered by total size, then lexicographically, and
    the first support pair whose indifference system yields nonnegative
    probabilities with no profitable pure deviation is returned; the size-1
    pairs are tested at once (`_pure_equilibria`), in C order. An optional
    `first_supports` hint is tried first (cache warm start); a pure hint is
    kept if it is an equilibrium.
    """
    a = np.asarray(payoff_row, dtype=np.float64)
    b = np.asarray(payoff_col, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatchError(f"payoff shapes differ: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("payoff matrices must be finite")

    rows, cols = first_supports or ((), ())
    if len(rows) == len(cols) > 1:
        hit = _try_support(a, b, tuple(rows), tuple(cols))
        if hit is not None:
            return hit
    holds = _pure_equilibria(a, b)
    if len(rows) == len(cols) == 1 and holds[rows[0], cols[0]]:
        return _pure_profile(a, b, rows[0], cols[0])
    m, n = a.shape
    if holds.any():
        return _pure_profile(a, b, *divmod(int(holds.argmax()), n))
    for k in range(2, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                hit = _try_support(a, b, rows, cols)
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


def _pure_caches(support_cache):
    """The (state, i, j) index arrays of the cached pure supports ((i,), (j,))."""
    pure = [
        (s, c[0][0], c[1][0])
        for s, c in enumerate(support_cache)
        if c is not None and len(c[0]) == 1
    ]
    return np.array(pure, dtype=np.int64).reshape(-1, 3).T


def _pure_equilibria(q1, q2):
    """Which pure profiles (i, j) are equilibria of the stage games q1, q2
    (..., a1, a2): max_r Q^1[r,j] <= Q^1[i,j] + tol and
    max_c Q^2[i,c] <= Q^2[i,j] + tol, tol = _STAGE_TOL, the deviation
    test of a size-1 support (exact for one-hot strategies)."""
    return (q1.max(axis=-2, keepdims=True) <= q1 + _STAGE_TOL) & (
        q2.max(axis=-1, keepdims=True) <= q2 + _STAGE_TOL
    )


def _solve_stage_games(game, q, support_cache):
    """Per-state equilibrium of (Q^1(s,.), Q^2(s,.)); returns policies and values.

    Two numpy passes settle every state they can at a pure equilibrium
    (`_pure_equilibria`). The first keeps each cached pure support that
    still holds. The second gives each state with no cache, or whose pure
    cache failed, its first pure equilibrium in C order, as `bimatrix_nash`
    would after rejecting the failed hint. Only states with a mixed cache,
    or with no pure equilibrium, call `bimatrix_nash`, warm-started from
    their cache. The selected equilibrium is the per-state solver's, bit
    for bit.
    """
    if not np.all(np.isfinite(q)):
        raise ValueError("payoff matrices must be finite")
    a1, a2 = game.action_counts
    S = game.n_states
    q1 = q[0].reshape(S, a1, a2)
    q2 = q[1].reshape(S, a1, a2)
    pol1 = np.zeros((S, a1))
    pol2 = np.zeros((S, a2))
    values = np.zeros((2, S))

    holds = _pure_equilibria(q1, q2)
    s_idx, i_idx, j_idx = _pure_caches(support_cache)
    ok = holds[s_idx, i_idx, j_idx]
    open_ = np.array([c is None or len(c[0]) == 1 for c in support_cache], dtype=bool)
    open_[s_idx[ok]] = False
    s_new = np.flatnonzero(open_)
    first = holds[s_new].reshape(s_new.size, a1 * a2)
    found = first.any(axis=1)
    s_new = s_new[found]
    i_new, j_new = np.divmod(first[found].argmax(axis=1), a2)
    for s, i, j in zip(s_new.tolist(), i_new.tolist(), j_new.tolist()):
        support_cache[s] = ((i,), (j,))
    s_pure = np.concatenate([s_idx[ok], s_new])
    i_pure = np.concatenate([i_idx[ok], i_new])
    j_pure = np.concatenate([j_idx[ok], j_new])
    pol1[s_pure, i_pure] = 1.0
    pol2[s_pure, j_pure] = 1.0
    values[0, s_pure] = q1[s_pure, i_pure, j_pure]
    values[1, s_pure] = q2[s_pure, i_pure, j_pure]
    settled = np.zeros(S, dtype=bool)
    settled[s_pure] = True

    for s in np.flatnonzero(~settled):
        eq = bimatrix_nash(
            q[0, s].reshape(a1, a2),
            q[1, s].reshape(a1, a2),
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
    cached support still holds (a failed one is replaced, by another pure
    equilibrium or by `bimatrix_nash`'s), so that test alone decides it and
    no state enumerates.
    """
    q = policy_evaluation(game, reward, JointPolicy([pol1, pol2])).q
    a1, a2 = game.action_counts
    payoffs = q.reshape(2, game.n_states, a1, a2)
    s_idx, i_idx, j_idx = _pure_caches(support_cache)
    if not _pure_equilibria(*payoffs)[s_idx, i_idx, j_idx].all():
        return None
    values = np.zeros((2, game.n_states))
    values[:, s_idx] = payoffs[:, s_idx, i_idx, j_idx]
    q_next = reward.tables + game.gamma * _expected_next(game, values)
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
    Cached pure supports are checked for all states in one numpy pass,
    states without a valid one take their first pure equilibrium in a
    second, and only the rest enumerate (see `_solve_stage_games`). The
    iteration has
    converged once a backup moves no Q entry by 1e-8 or more; `final_delta`
    reports the last backup's largest move either way.

    Policy-evaluation jump (modified policy iteration): when a backup leaves
    every cached support unchanged and all of them are pure, the backup that
    keeps those supports is linear, and its fixed point is the cached
    one-hot profile's Q, one S x S solve away. That Q is accepted, and the
    iteration stops there, if one confirming stage pass on a copy of the
    cache changes no support and its backup moves Q by less than 1e-8.
    Otherwise it is discarded and plain backups continue from the last
    iterate; the jump is tried again only after the cache changes again.
    An accepted Q is a fixed point of the backup, yet plain iteration need
    not reach it: its later backups may switch a support on the way and
    converge to another equilibrium, so the jump can select another
    equilibrium than plain backups would.
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
        q_next = reward.tables + game.gamma * _expected_next(game, values)
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
