"""Nash-equilibrium computation and verification.

Provides exact single-agent best responses (policy iteration), the Nash
imitation gap, a stacked-operator equilibrium test, a support-enumeration
bimatrix solver, and NashQ equilibrium synthesis: `nash_value_iteration`
runs exact full-width backups on the true model. `best_response`,
`nash_gap` and `nash_value_iteration` raise DimensionMismatchError for a
reward whose tables are not the game's (n, S, A).

A NashQ backup solves one stage game per state, warm-started from the support
that state selected in the previous backup. One rule picks pure stage
equilibria: keep a cached pure profile while it is still an equilibrium
(`_pure_holds`, tested at that profile's entry only), else take the first
pure equilibrium in C order (`_first_pure`). NashQ's stage pass applies it to
all states in a few numpy calls and `bimatrix_nash` to its one game; the
jump is accepted only where every cached profile passes `_pure_holds`. A
state with a mixed cache keeps its supports while they still give an
equilibrium; that state otherwise, and a state with no pure equilibrium, goes
to support enumeration, which solves the indifference systems of each support
size's candidate pairs in stacked LAPACK calls (`_indifference_solves`): one
`dgesv` per system, as a solve of one system alone, so the batching moves no
bit.

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
# NashQ has converged once a backup moves no Q entry by this much
_BACKUP_TOL = 1e-8
# bound on the entries of one stacked batch of support enumeration's
# indifference systems, so memory stays flat as the action counts grow
_BATCH_ELEMENTS = 1 << 14


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


def _indifference_solves(a, b, rows, cols):
    """Solve the indifference systems of the support pairs (rows[p], cols[p]),
    rows and cols (P, k) index arrays, k >= 2.

    Pair p poses two (k + 1) x (k + 1) systems, stacked as [p, 0] and [p, 1]
    and each solved by its own `dgesv` call: y over `cols` makes the row
    player indifferent across `rows` and carries its value v, and x over
    `rows` makes the column player indifferent across `cols`, with its value
    w (Nisan et al., Algorithm 3.4 layout). Returns (kept, sol): the pairs
    whose systems are both regular, with finite solutions whose weights are
    >= -_STAGE_TOL, in input order, and their solutions (len(kept), 2, k + 1),
    weights first and the value last.
    """
    P, k = rows.shape
    lhs = np.zeros((P, 2, k + 1, k + 1))
    lhs[:, 0, :k, :k] = a[rows[:, :, None], cols[:, None, :]]
    lhs[:, 1, :k, :k] = b[rows[:, None, :], cols[:, :, None]]  # b's block, transposed
    lhs[:, :, :k, k] = -1.0
    lhs[:, :, k, :k] = 1.0
    rhs = np.zeros((k + 1, 1))
    rhs[k] = 1.0
    # a zero pivot in the LU factorization (the `dgetrf` that `solve` runs,
    # and raises on) gives the determinant sign 0
    regular = np.flatnonzero(np.all(np.linalg.slogdet(lhs)[0] != 0, axis=1))
    sol = np.linalg.solve(lhs[regular], rhs)[..., 0]
    ok = np.all(np.isfinite(sol), axis=(1, 2)) & np.all(sol[:, :, :k] >= -_STAGE_TOL, axis=(1, 2))
    return regular[ok], sol[ok]


def _mix(weights, support, n):
    """The strategy over `n` actions that plays `weights`, clipped at 0 and
    normalized, on `support`."""
    mix = np.zeros(n)
    mix[list(support)] = np.clip(weights, 0.0, None)
    mix /= mix.sum()
    return mix


def _supported_equilibrium(a, b, sol, rows, cols):
    """The profile that support pair (rows, cols) with solved indifference
    systems `sol` (`_indifference_solves`'s (2, k + 1)) gives, or None if a
    player gains by a pure deviation or a support action pays off its value."""
    k = len(rows)
    y, v = _mix(sol[0, :k], cols, a.shape[1]), sol[0, k]
    x, w = _mix(sol[1, :k], rows, a.shape[0]), sol[1, k]
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


def _try_support(a, b, rows, cols):
    """The equilibrium on one candidate support pair of size k >= 2; None if
    invalid. Pure profiles are `_pure_equilibria`'s."""
    kept, sol = _indifference_solves(a, b, np.array([rows]), np.array([cols]))
    return _supported_equilibrium(a, b, sol[0], rows, cols) if kept.size else None


def _profile(a, b, x, y, rows, cols):
    """Strategies x, y with payoffs (x a y, x b y) on supports (rows, cols)."""
    payoffs = (float(x @ a @ y), float(x @ b @ y))
    return BimatrixEquilibrium(x, y, payoffs, (tuple(rows), tuple(cols)))


def _pure_equilibria(q1, q2):
    """Which pure profiles (i, j) are equilibria of the stage games q1, q2
    (..., a1, a2): max_r Q^1[r,j] <= Q^1[i,j] + tol and
    max_c Q^2[i,c] <= Q^2[i,j] + tol, tol = _STAGE_TOL, the deviation
    test of a size-1 support (exact for one-hot strategies)."""
    return (q1.max(axis=-2, keepdims=True) <= q1 + _STAGE_TOL) & (
        q2.max(axis=-1, keepdims=True) <= q2 + _STAGE_TOL
    )


def _first_pure(q1, q2):
    """Each stage game's first pure equilibrium in C order, as the flat
    profile i * a2 + j; -1 for a game without one. q1, q2 are (games, a1, a2)."""
    holds = _pure_equilibria(q1, q2).reshape(len(q1), -1)
    return np.where(holds.any(axis=1), holds.argmax(axis=1), -1)


def _pure_holds(q1, q2, states, codes):
    """Whether each state's pure profile `codes` (i * a2 + j) is still an
    equilibrium of its stage game in q1, q2 (S, a1, a2): `_pure_equilibria`'s
    comparisons at that one entry."""
    i, j = np.divmod(codes, q1.shape[2])
    return (q1[states, :, j].max(axis=1) <= q1[states, i, j] + _STAGE_TOL) & (
        q2[states, i, :].max(axis=1) <= q2[states, i, j] + _STAGE_TOL
    )


def bimatrix_nash(payoff_row, payoff_col):
    """One exact equilibrium of a finite two-player game by support enumeration.

    Candidate supports are ordered by total size, then lexicographically, and
    the first support pair whose indifference system yields nonnegative
    probabilities with no profitable pure deviation is returned: among the
    size-1 pairs, the first pure equilibrium in C order (`_first_pure`).
    The larger pairs of one size are solved in stacked batches of at most
    _BATCH_ELEMENTS system entries (`_indifference_solves`); the pairs a
    batch keeps are checked for deviations in enumeration order.
    """
    a = np.asarray(payoff_row, dtype=np.float64)
    b = np.asarray(payoff_col, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatchError(f"payoff shapes differ: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("payoff matrices must be finite")

    m, n = a.shape
    pick = int(_first_pure(a[None], b[None])[0])
    if pick >= 0:
        i, j = divmod(pick, n)
        return _profile(a, b, np.eye(m)[i], np.eye(n)[j], (i,), (j,))
    for k in range(2, min(m, n) + 1):
        row_sets = np.array(list(itertools.combinations(range(m), k)))
        col_sets = np.array(list(itertools.combinations(range(n), k)))
        pairs = len(row_sets) * len(col_sets)
        step = max(1, _BATCH_ELEMENTS // (2 * (k + 1) ** 2))
        for start in range(0, pairs, step):
            r, c = np.divmod(np.arange(start, min(start + step, pairs)), len(col_sets))
            kept, sol = _indifference_solves(a, b, row_sets[r], col_sets[c])
            for p, solved in zip(kept.tolist(), sol):
                rows, cols = tuple(row_sets[r[p]].tolist()), tuple(col_sets[c[p]].tolist())
                hit = _supported_equilibrium(a, b, solved, rows, cols)
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


def _solve_stage_games(game, q, cache, mixed):
    """Per-state equilibrium of (Q^1(s,.), Q^2(s,.)); returns policies and values.

    `cache` holds each state's selected profile: i * a2 + j for a pure one,
    -1 for none and -2 for a mixed one, whose supports `mixed` holds by
    state; both are updated in place. A cached pure profile is kept while it
    is still an equilibrium (`_pure_holds`); a state whose pure cache failed,
    or that has none, takes its first pure equilibrium (`_first_pure`). Each
    of the rest (a mixed cache, or no pure equilibrium) keeps its cached
    mixed supports while their indifference system still gives an
    equilibrium, and otherwise calls `bimatrix_nash`.
    """
    if not np.all(np.isfinite(q)):
        raise ValueError("payoff matrices must be finite")
    a1, a2 = game.action_counts
    S = game.n_states
    q1, q2 = q.reshape(2, S, a1, a2)
    pure = np.flatnonzero(cache >= 0)
    cache[pure[~_pure_holds(q1, q2, pure, cache[pure])]] = -1
    fresh = np.flatnonzero(cache == -1)
    if fresh.size:
        cache[fresh] = _first_pure(q1[fresh], q2[fresh])
    # every state as if pure; the loop below overwrites the rest
    pick = np.maximum(cache, 0)
    i, j = np.divmod(pick, a2)
    pol1 = np.eye(a1)[i]
    pol2 = np.eye(a2)[j]
    values = q[:, np.arange(S), pick]

    for s in np.flatnonzero(cache < 0).tolist():
        a, b = q1[s], q2[s]
        hint = mixed.pop(s, None)
        eq = _try_support(a, b, *hint) if hint else None
        if eq is None:
            eq = bimatrix_nash(a, b)
        rows, cols = eq.supports
        cache[s] = -2 if len(rows) > 1 else rows[0] * a2 + cols[0]
        if len(rows) > 1:
            mixed[s] = eq.supports
        pol1[s] = eq.row_strategy
        pol2[s] = eq.col_strategy
        values[0, s], values[1, s] = eq.payoffs
    return pol1, pol2, values


def _stage_supports(cache, mixed, a2):
    """Each state's selected supports as (rows, cols) tuples."""
    return [
        mixed[s] if code == -2 else tuple((k,) for k in divmod(code, a2))
        for s, code in enumerate(cache.tolist())
    ]


def _jump(game, reward, pol1, pol2, cache):
    """The fixed point of the backup that keeps every (pure) cached support.

    With each cached support pure and held, a backup is the linear map
    Q <- R + gamma P V, V the Q value of the cached one-hot profile at each
    state, so its fixed point is that profile's Q = policy_evaluation(...).q.
    Returns (Q, the confirming backup's largest move) when a stage pass on
    Q would leave a copy of the cache unchanged and its backup moves Q by
    less than _BACKUP_TOL, else None. The pass leaves the copy unchanged iff
    every cached profile still holds (`_pure_holds`), so that test alone
    decides it and no state enumerates.
    """
    q = policy_evaluation(game, reward, JointPolicy([pol1, pol2])).q
    a1, a2 = game.action_counts
    S = game.n_states
    states = np.arange(S)
    if not np.all(_pure_holds(*q.reshape(2, S, a1, a2), states, cache)):
        return None
    q_next = reward.tables + game.gamma * _expected_next(game, q[:, states, cache])
    delta = float(np.max(np.abs(q_next - q)))
    return (q, delta) if delta < _BACKUP_TOL else None


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
    The pure half of that rule settles all states at once, and only the rest
    enumerate (see `_solve_stage_games`). The iteration has converged once a
    backup moves no Q entry by _BACKUP_TOL or more; `final_delta` reports the
    last backup's largest move either way.

    Policy-evaluation jump (modified policy iteration): when a backup leaves
    every cached support unchanged and all of them are pure, the backup that
    keeps those supports is linear, and its fixed point is the cached
    one-hot profile's Q, one S x S solve away. That Q is accepted, and the
    iteration stops there, if one confirming stage pass on a copy of the
    cache changes no support and its backup moves Q by less than _BACKUP_TOL.
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
    cache = np.full(S, -1, dtype=np.int64)  # `_solve_stage_games`'s codes
    mixed = {}  # state -> supports of its mixed equilibrium
    converged = False
    iterations = 0
    delta = np.inf
    jump_ready = False  # the cache changed since the last jump was tried
    while iterations < max_iters:
        iterations += 1
        before = cache.copy()
        pol1, pol2, values = _solve_stage_games(game, q, cache, mixed)
        q_next = reward.tables + game.gamma * _expected_next(game, values)
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta < _BACKUP_TOL:
            converged = True
            break
        if not np.array_equal(cache, before):
            jump_ready = True
        elif jump_ready and iterations < max_iters and np.all(cache >= 0):
            jump_ready = False
            iterations += 1
            jumped = _jump(game, reward, pol1, pol2, cache)
            if jumped is not None:
                q, delta = jumped
                converged = True
                break
    if not converged:
        warnings.warn(
            f"Nash value iteration did not converge within {max_iters} backups "
            f"(last delta {delta:.3e}, tolerance {_BACKUP_TOL:.0e}); "
            "returning best-so-far policy",
            RuntimeWarning,
        )
    pol1, pol2, values = _solve_stage_games(game, q, cache, mixed)
    return NashQResult(
        policy=JointPolicy([pol1, pol2]),
        q=q,
        values=values,
        converged=converged,
        iterations=iterations,
        final_delta=delta,
        stage_supports=_stage_supports(cache, mixed, game.action_counts[1]),
    )
