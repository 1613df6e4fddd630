"""Selecting one reward from the feasible set.

Per agent i, the deviation constraints say that every pure own-action reply
d at state s, averaged over the opponents' policy, must not beat the
policy's value. With V = (I - gamma P_pi)^{-1} R_pi the policy's value, the
opponent-expected advantage of d at s is

    adv(s, d) = R_d(s, d) - R_pi(s) + gamma (P_d - P_pi)(s, d, .) V,

where the subscript d marginalizes over the opponents' actions and pi
averages over the joint policy. It is linear in the reward, adv = U r, and
U needs only the S x S resolvent (I - gamma P_pi)^{-1} (see
`_advantage_rows`). Rows for actions the policy never plays carry a margin.
The max-margin mode maximizes that margin by LP over a reward class:

* "state-action": one reward entry per (state, joint action);
* "state": one entry per state, broadcast over joint actions. Deviations
  through identical dynamics are then indistinguishable, and route ties in
  the expert can make small sets of deviation gaps sum to zero identically;
  such structurally-tied rows are detected from the LP duals and pinned at
  zero so the margin over the remaining deviations stays meaningful.

The distance mode then projects a seeded random target reward onto the
margin-pinned feasible polytope (minimizing the squared distance):
projected gradient on the dual of the projection problem plus an exact
active-set polish, with the LP vertex as the feasibility-preserving
fallback. `MaxGapResult.projection_paths` reports, per agent, which point
came back:

* "polished": the exact projection from the active-set polish;
* "blended": the best gradient iterate, moved toward the LP vertex just
  enough to satisfy every row (not moved at all if it already did);
* "vertex": the max-margin LP vertex itself, because neither of the above
  was feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import own_action_marginal, transition_under
from .errors import NotFeasibleError
from .feasible import check_implicit
from .games import JointPolicy, JointReward, MarkovGame, per_agent_rmax
from .simplex import GE, LinearProgram, solve_lp

MAX_MARGIN = "max-margin"
DISTANCE_TO_RANDOM = "distance-to-random"

STATE_ACTION_CLASS = "state-action"
STATE_CLASS = "state"

_DEAD_ROW = 1e-9


@dataclass
class MaxGapResult:
    reward: JointReward
    margins: np.ndarray  # achieved margin per agent
    mode: str
    lp_iterations: int
    projection_sweeps: int
    pinned_rows: tuple  # per agent: count of structurally-tied deviation rows
    projection_paths: tuple  # per agent: "polished", "blended" or "vertex"; () in max-margin mode


def _advantage_rows(game: MarkovGame, policy: JointPolicy, agent: int, reward_class: str):
    """Rows U with (U x)[s, d] = opponent-expected advantage of pure reply d at s.

    Stack Q over (s, a): with Pt the (S*A, S) kernel and Pi the (S, S*A)
    policy average, Q = (I - gamma Pt Pi)^{-1} R, and row (s, d) of W takes
    the own-action marginal of Q at (s, d) minus its policy average at s,
    so the advantage is W (I - gamma Pt Pi)^{-1} R. The push-through identity

        (I - gamma Pt Pi)^{-1} = I + gamma Pt (I - gamma P_pi)^{-1} Pi,

    with P_pi = Pi Pt the S x S policy kernel and W Pt = P_d - P_pi (P_d
    the kernel marginalized over the opponents), gives

        U = W + gamma (P_d - P_pi) (I - gamma P_pi)^{-1} Pi,

    so only an S x S system is solved. In the "state" class the reward is
    R = L x with L broadcasting x over joint actions; Pi L = I and W L = 0,
    so U = gamma (P_d - P_pi) (I - gamma P_pi)^{-1} acts on x directly and
    nothing of size S*A is built.
    """
    if reward_class not in (STATE_ACTION_CLASS, STATE_CLASS):
        raise ValueError(f"unknown reward class {reward_class!r}")
    S, A = game.n_states, game.n_joint_actions
    n_own = game.action_counts[agent]
    p_pi = transition_under(game, policy)
    p_dev = own_action_marginal(game, policy, agent, game.transitions) - p_pi[:, None, :]
    # X (I - gamma P_pi)^{-1} is the transpose of a solve with the transposed system
    resolved = np.linalg.solve(
        (np.eye(S) - game.gamma * p_pi).T, game.gamma * p_dev.reshape(S * n_own, S).T
    ).T
    if reward_class == STATE_CLASS:
        return resolved
    joint = policy.joint_table()
    U = (resolved[:, :, None] * joint).reshape(S, n_own, S, A)
    own_rows = own_action_marginal(game, policy, agent, np.broadcast_to(np.eye(A), (S, A, A)))
    states = np.arange(S)
    U[states, :, states, :] += own_rows - joint[:, None, :]
    return U.reshape(S * n_own, S * A)


def _margin_lp(U, margin_rows, rmax_i, gamma):
    n_vars = U.shape[1] + 1
    lhs = np.hstack([-U, -margin_rows.astype(np.float64)[:, None]])
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(U.shape[1]), [1.0]]),
        lhs=lhs,
        sense=np.full(U.shape[0], GE, dtype=np.int64),
        rhs=np.zeros(U.shape[0]),
        lower=np.zeros(n_vars),
        upper=np.concatenate([np.full(U.shape[1], rmax_i), [rmax_i / (1.0 - gamma)]]),
    )
    return solve_lp(lp)


def _lexicographic_margin(U, mask, live, rmax_i, gamma, max_rounds=32):
    """Maximize the scalar margin, pinning structurally-tied rows at zero.

    Returns the last round's solution, the rows still carrying the margin,
    and the simplex pivots summed over all rounds.

    When the optimum is zero, the rows carrying nonzero LP duals form a
    certificate whose gaps sum to zero for every reward in the class; they
    are removed from the margin (kept feasible at <= 0) and the LP repeats.
    """
    margin_rows = mask & live
    sol = None
    pivots = 0
    for _ in range(max_rounds):
        sol = _margin_lp(U, margin_rows, rmax_i, gamma)
        pivots += sol.iterations
        if sol.x[-1] > 1e-9 or not margin_rows.any():
            break
        cert = margin_rows & (np.abs(sol.row_duals) > 1e-9)
        if not cert.any():
            break
        margin_rows = margin_rows & ~cert
    return sol, margin_rows, pivots


def _violation(x, U, rhs, rmax_i):
    slack = U @ x - rhs
    return max(float(np.max(slack)), float(np.max(-x)), float(np.max(x - rmax_i)))


def _polish_projection(target, x, U, rhs, rmax_i, tol, max_rounds=60):
    """Exact projection onto the face suggested by an approximate solution.

    Fixes near-bound coordinates, treats near-active rows as equalities, and
    solves the KKT system of the equality-constrained projection. Violated
    rows/coordinates are added and the solve repeats; additions are monotone,
    so the loop terminates.
    Returns None if no feasible polish is found.
    """
    n = x.size
    eps_id = 1e-7 * max(1.0, rmax_i)
    vals = U @ x
    active_rows = set(np.nonzero(vals >= rhs - eps_id)[0].tolist())
    fix_lo = set(np.nonzero(x <= eps_id)[0].tolist())
    fix_hi = set(np.nonzero(x >= rmax_i - eps_id)[0].tolist())
    for _ in range(max_rounds):
        fixed = np.zeros(n, dtype=bool)
        fixed_vals = np.zeros(n)
        for j in fix_lo:
            fixed[j] = True
        for j in fix_hi:
            fixed[j] = True
            fixed_vals[j] = rmax_i
        free = ~fixed
        rows = sorted(active_rows)
        C = U[rows][:, free]
        d = rhs[rows] - U[rows][:, fixed] @ fixed_vals[fixed]
        z = target[free]
        if rows:
            gram = C @ C.T
            try:
                mu = np.linalg.solve(gram, C @ z - d)
            except np.linalg.LinAlgError:
                mu = np.linalg.lstsq(gram, C @ z - d, rcond=None)[0]
            xf = z - C.T @ mu
        else:
            xf = z
        cand = fixed_vals.copy()
        cand[free] = xf
        viol = _violation(cand, U, rhs, rmax_i)
        if viol <= tol:
            return np.clip(cand, 0.0, rmax_i)
        grew = False
        vals = U @ cand
        for r in np.nonzero(vals > rhs + tol)[0]:
            if r not in active_rows:
                active_rows.add(int(r))
                grew = True
        for j in np.nonzero(cand < -tol)[0]:
            if j not in fix_lo:
                fix_lo.add(int(j))
                grew = True
        for j in np.nonzero(cand > rmax_i + tol)[0]:
            if j not in fix_hi:
                fix_hi.add(int(j))
                grew = True
        if not grew:
            return None
    return None


def _distance_project(target, U, rhs, anchor, rmax_i, tol=1e-10, max_iters=8000):
    """Feasible near-projection of `target` onto {0 <= x <= rmax, U x <= rhs}.

    Accelerated projected gradient on the dual (multipliers for the rows, box
    kept implicit) tracks the best-feasibility primal iterate; an exact
    active-set polish is attempted, and when the near-active face is too
    degenerate for it, the iterate is blended toward the strictly feasible
    `anchor` just enough to restore exact feasibility. Returns (point,
    iterations, path) with path "polished", "blended" or "vertex"; on
    "vertex" no feasible projection was found and the point is `anchor`."""
    m = U.shape[0]
    if m == 0:
        return np.clip(target, 0.0, rmax_i), 0, "polished"
    gram_scale = 1.0
    v = np.ones(m) / np.sqrt(m)
    for _ in range(30):
        v = U @ (U.T @ v)
        nv = np.linalg.norm(v)
        if nv == 0:
            break
        gram_scale = nv
        v /= nv
    step = 1.0 / max(gram_scale * 1.01, 1e-12)

    lam = np.zeros(m)
    lam_prev = lam.copy()
    t_acc = 1.0
    x = np.clip(target, 0.0, rmax_i)
    best = x.copy()
    best_viol = _violation(x, U, rhs, rmax_i)
    it = 0
    for it in range(1, max_iters + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        mom = lam + ((t_acc - 1.0) / t_next) * (lam - lam_prev)
        x = np.clip(target - U.T @ mom, 0.0, rmax_i)
        grad = U @ x - rhs
        lam_prev = lam
        lam = np.maximum(mom + step * grad, 0.0)
        t_acc = t_next
        if it % 25 == 0:
            viol = _violation(x, U, rhs, rmax_i)
            if viol < best_viol:
                best_viol = viol
                best = x.copy()
            if viol <= 1e-8:
                break
    polished = _polish_projection(target, best, U, rhs, rmax_i, tol)
    if polished is not None:
        return polished, it, "polished"
    # blend toward the strictly feasible anchor until every row holds exactly
    excess = np.maximum(U @ best - rhs, 0.0)
    spare = np.maximum(rhs - U @ anchor, 0.0)
    need = excess > 0
    if not need.any():
        return np.clip(best, 0.0, rmax_i), it, "blended"
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_rows = excess[need] / (excess[need] + spare[need])
    theta = float(np.max(theta_rows))
    if theta >= 1.0 or not np.isfinite(theta):
        return anchor, it, "vertex"
    blended = (1.0 - 1.05 * theta) * best + 1.05 * min(theta, 1.0 / 1.05) * anchor
    if _violation(blended, U, rhs, rmax_i) <= tol:
        return np.clip(blended, 0.0, rmax_i), it, "blended"
    return anchor, it, "vertex"


def max_gap_reward(
    game: MarkovGame,
    policy: JointPolicy,
    rmax,
    mode: str = MAX_MARGIN,
    seed: int | None = None,
    reward_class: str = STATE_ACTION_CLASS,
) -> MaxGapResult:
    """One feasible reward per agent, deviation margins maximized.

    mode="max-margin" returns the LP maximizer of the scalar margin (capped
    at rmax/(1-gamma), which caps the otherwise unbounded case of a fully
    mixed policy or an all-tied deviation set). mode="distance-to-random"
    additionally projects a seeded uniform target onto the polytope with the
    margin pinned at its maximum minus 1e-6, and reports per agent whether
    the projection was polished, blended or fell back to the LP vertex.
    Works on the true model or on an estimated problem converted to a game.
    """
    if mode not in (MAX_MARGIN, DISTANCE_TO_RANDOM):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == DISTANCE_TO_RANDOM and seed is None:
        raise ValueError("distance-to-random mode needs a seed for the target reward")
    r = per_agent_rmax(rmax, game.n_agents)
    if np.any(r <= 0):
        raise ValueError("rmax must be positive")

    S, A = game.n_states, game.n_joint_actions
    tables = np.zeros((game.n_agents, S, A))
    margins = np.zeros(game.n_agents)
    lp_iters = 0
    sweeps = 0
    pinned = []
    paths = []
    rng = np.random.default_rng(seed) if seed is not None else None

    for i in range(game.n_agents):
        U = _advantage_rows(game, policy, i, reward_class)
        n_vars = U.shape[1]
        mask = (policy.per_agent[i] == 0.0).ravel()  # row order (s, d)
        live = np.linalg.norm(U, axis=1) > _DEAD_ROW
        sol, margin_rows, pivots = _lexicographic_margin(U, mask, live, r[i], game.gamma)
        lp_iters += pivots
        pinned.append(int(np.sum(mask & live & ~margin_rows)))
        t_star = sol.x[-1]
        x = sol.x[:-1]
        if mode == DISTANCE_TO_RANDOM:
            target = rng.uniform(0.0, r[i], size=n_vars)
            # support rows are one-sided too: their average under the policy is
            # zero identically, so <= 0 on each forces equality at any
            # feasible point
            rhs = np.where(margin_rows & live, -max(t_star - 1e-6, 0.0), 0.0)
            x, s_i, path = _distance_project(target, U[live], rhs[live], x, r[i])
            sweeps += s_i
            paths.append(path)
        # a state-class x has one entry per state and broadcasts over joint actions
        tables[i] = np.clip(x, 0.0, r[i]).reshape(S, -1)
        vals = U @ x
        if (margin_rows & live).any():
            margins[i] = float(-vals[margin_rows & live].max())
        else:
            margins[i] = r[i] / (1.0 - game.gamma)

    reward = JointReward(tables, r)
    report = check_implicit(game, reward, policy, tol=1e-8)
    if not report.passed:
        raise NotFeasibleError(
            f"selected reward fails the feasibility check "
            f"(max violation {report.max_violation:.3e})"
        )
    return MaxGapResult(
        reward=reward,
        margins=margins,
        mode=mode,
        lp_iterations=lp_iters,
        projection_sweeps=sweeps,
        pinned_rows=tuple(pinned),
        projection_paths=tuple(paths),
    )


def behavior_cloning(pi_hat: JointPolicy) -> JointPolicy:
    """Tabular behavior cloning against a generative model is the empirical
    expert policy itself; kept as an explicit stage for pipeline symmetry."""
    return pi_hat
