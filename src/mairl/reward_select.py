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

The margin LP, max t s.t. U x + t 1_margin <= 0, 0 <= x <= rmax,
0 <= t <= rmax/(1-gamma), has one row per (s, d) and one column per reward
entry plus t. `_margin_lp` poses it in the form with the smaller simplex
basis: the state class (S |A_i| rows, S + 1 columns) through its (S + 1)-row
dual, whose row multipliers, negated, are x and t and whose variables y on
the rows of U certify the tied rows; the state-action class (S A + 1
columns) as the primal.

The distance mode then projects a seeded random target reward onto the
margin-pinned feasible polytope (minimizing the squared distance):
projected gradient on the dual of the projection problem plus an exact
active-set polish, with the LP vertex as the feasibility-preserving
fallback. The sweep cap (MAX_SWEEPS), check interval, stop and polish
tolerances are module constants. `MaxGapResult.projection_paths` reports,
per agent, which point came back:

* "polished": the exact projection from the active-set polish;
* "blended": the best gradient iterate, moved toward the LP vertex just
  enough to satisfy every row (not moved at all if it already did);
* "vertex": the max-margin LP vertex itself, because neither of the above
  was feasible.

Agent i's constraints bind only agent i's reward, so selection splits by
agent. `max_gap_reward` draws every agent's target first, in agent order
(the seeded generator feeds nothing else), and then runs one body,
`_select_agents`, on contiguous groups of agents. For its group, the body
stages every agent (rows U, margin LP), keeping only U's live rows, then
runs one gradient loop for all of them (`_dual_gradient`): the elementwise
steps act in place on stacked buffers, while each agent keeps its own two
matrix-vector products, stop and sweep count, so every agent's iterates are
bit for bit those of a loop over that agent alone. Last, it reads each
agent's margin back through U's full shape. There are min(agents, usable
CPUs) groups. With two or more, the last group runs in the caller and every
other group in a forked child process, which sends its agents' points,
margins and counters back through a pipe, or the exception it raised. The
call forks only where `os.fork` exists and the process runs one OS thread:
a process with a BLAS thread pool, or with a second Python thread, runs
every agent in the caller, as does a machine with one CPU. Each agent's
work is the same on either path, so the outputs have the same bits.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dp import _check_shapes, _reply_kernel, own_action_marginal, transition_under
from .errors import MairlError, NotFeasibleError
from .feasible import check_implicit
from .games import JointPolicy, JointReward, MarkovGame, per_agent_rmax
from .simplex import GE, LinearProgram, solve_lp

MAX_MARGIN = "max-margin"
DISTANCE_TO_RANDOM = "distance-to-random"

STATE_ACTION_CLASS = "state-action"
STATE_CLASS = "state"

_DEAD_ROW = 1e-9
# projection: the gradient sweep cap, the sweep interval of each iterate's
# feasibility check, the violation that ends the sweeps, the feasibility
# tolerance of a polished or blended point, and the polish's solve cap
MAX_SWEEPS = 8000
CHECK_EVERY = 25
SWEEP_TOL = 1e-8
PROJECTION_TOL = 1e-10
POLISH_ROUNDS = 60


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
    S, A = game.n_states, game.n_joint_actions
    n_own = game.action_counts[agent]
    p_pi = transition_under(game, policy)
    p_dev = np.empty((S, n_own, S))
    for d in range(n_own):  # gamma (P_d - P_pi), one own action d at a time
        p_dev[:, d] = (_reply_kernel(game, policy, agent, d) - p_pi) * game.gamma
    # X (I - gamma P_pi)^{-1} is the transpose of a solve with the transposed system
    resolved = np.linalg.solve(
        (np.eye(S) - game.gamma * p_pi).T, p_dev.reshape(S * n_own, S).T
    ).T
    if reward_class == STATE_CLASS:
        return resolved
    joint = policy.joint_table()
    U = (resolved[:, :, None] * joint).reshape(S, n_own, S, A)
    own_rows = own_action_marginal(game, policy, agent, np.broadcast_to(np.eye(A), (S, A, A)))
    states = np.arange(S)
    U[states, :, states, :] += own_rows - joint[:, None, :]
    return U.reshape(S * n_own, S * A)


def _primal_margin_lp(U, margin_rows, rmax_i, gamma):
    """The margin LP over (x, t): m rows, so an m x m simplex basis."""
    m, n = U.shape
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(n), [1.0]]),
        lhs=np.hstack([-U, -margin_rows.astype(np.float64)[:, None]]),
        sense=np.full(m, GE, dtype=np.int64),
        rhs=np.zeros(m),
        lower=np.zeros(n + 1),
        upper=np.concatenate([np.full(n, rmax_i), [rmax_i / (1.0 - gamma)]]),
    )
    sol = solve_lp(lp)
    return sol.x[:-1], sol.x[-1], -sol.row_duals, sol.iterations


def _dual_margin_lp(U, margin_rows, rmax_i, gamma):
    """The margin LP's dual over (y, z, w): n + 1 rows, so an (n+1) x (n+1)
    basis. (x, t) are its row multipliers, negated: solve_lp's multipliers
    of GE rows are <= 0 in a maximization."""
    m, n = U.shape
    lhs = np.zeros((n + 1, m + n + 1))
    lhs[:n, :m] = U.T
    lhs[:n, m : m + n] = np.eye(n)
    lhs[n, :m] = margin_rows
    lhs[n, -1] = 1.0
    lp = LinearProgram(
        objective=-np.concatenate([np.zeros(m), np.full(n, rmax_i), [rmax_i / (1.0 - gamma)]]),
        lhs=lhs,
        sense=np.full(n + 1, GE, dtype=np.int64),
        rhs=np.concatenate([np.zeros(n), [1.0]]),
        lower=np.zeros(m + n + 1),
        upper=np.full(m + n + 1, np.inf),
    )
    sol = solve_lp(lp)
    primal = -sol.row_duals
    return primal[:-1], primal[-1], sol.x[:m], sol.iterations


def _margin_lp(U, margin_rows, rmax_i, gamma):
    """max t s.t. U x + t 1_margin <= 0, 0 <= x <= rmax, 0 <= t <= T, T = rmax/(1-gamma).

    Returns (x, t, y, pivots): an optimal point, the row multipliers y >= 0
    of U x + t 1_margin <= 0 and the simplex pivots. The simplex keeps an
    explicit inverse of its basis, so the LP is solved in whichever form has
    the smaller one: the primal's is m x m with m = U.shape[0], its dual's

        min rmax 1^T z + T w  s.t.  U^T y + z >= 0,  1_margin^T y + w >= 1,  y, z, w >= 0

    is (n+1) x (n+1) with n = U.shape[1]. The state class (n = S, m = S |A_i|)
    takes the dual; the state-action class (n = S A > m) keeps the primal.
    """
    m, n = U.shape
    if m > n + 1:
        return _dual_margin_lp(U, margin_rows, rmax_i, gamma)
    return _primal_margin_lp(U, margin_rows, rmax_i, gamma)


def _lexicographic_margin(U, mask, live, rmax_i, gamma):
    """Maximize the scalar margin, pinning structurally-tied rows at zero.

    Returns the last round's x and t, the rows still carrying the margin,
    and the simplex pivots summed over all rounds.

    When the optimum is zero, the rows carrying nonzero multipliers y form a
    certificate whose gaps sum to zero for every reward in the class; they
    are removed from the margin (kept feasible at <= 0) and the LP repeats.
    Each repeat removes at least one row, so there are at most
    |margin rows| + 1 rounds.
    """
    margin_rows = mask & live
    pivots = 0
    while True:
        x, t, y, iterations = _margin_lp(U, margin_rows, rmax_i, gamma)
        pivots += iterations
        if t > 1e-9 or not margin_rows.any():
            break
        cert = margin_rows & (np.abs(y) > 1e-9)
        if not cert.any():
            break
        margin_rows = margin_rows & ~cert
    return x, t, margin_rows, pivots


def _violation(x, slack, rmax_i):
    """Largest violation of {U x <= rhs, 0 <= x <= rmax}, given slack = U x - rhs."""
    return max(float(slack.max()), float(-x.min()), float(x.max() - rmax_i))


def _polish_projection(target, x, U, rhs, rmax_i):
    """Exact projection onto the face suggested by an approximate solution.

    Fixes near-bound coordinates, treats near-active rows as equalities, and
    solves the KKT system of the equality-constrained projection. Violated
    rows/coordinates are added and the solve repeats, for at most
    POLISH_ROUNDS solves; additions are monotone, so the loop terminates.
    Returns None if no feasible polish is found.
    """
    eps_id = 1e-7 * max(1.0, rmax_i)
    active = U @ x >= rhs - eps_id
    lo = x <= eps_id
    hi = x >= rmax_i - eps_id
    tol = PROJECTION_TOL
    for _ in range(POLISH_ROUNDS):
        fixed = lo | hi
        fixed_vals = np.where(hi, rmax_i, 0.0)
        free = ~fixed
        rows = np.flatnonzero(active)
        C = U[rows][:, free]
        d = rhs[rows] - U[rows][:, fixed] @ fixed_vals[fixed]
        z = target[free]
        if rows.size:
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
        vals = U @ cand
        if _violation(cand, vals - rhs, rmax_i) <= tol:
            return np.clip(cand, 0.0, rmax_i)
        grown = (active | (vals > rhs + tol), lo | (cand < -tol), hi | (cand > rmax_i + tol))
        if all(np.array_equal(g, m) for g, m in zip(grown, (active, lo, hi))):
            return None
        active, lo, hi = grown
    return None


def _step_size(U):
    """1 / (1.01 L), L the power-iteration estimate of the largest eigenvalue of U U^T."""
    m = U.shape[0]
    gram_scale = 1.0
    v = np.ones(m) / np.sqrt(m)
    for _ in range(30):
        v = U @ (U.T @ v)
        nv = np.linalg.norm(v)
        if nv == 0:
            break
        gram_scale = nv
        v /= nv
    return 1.0 / max(gram_scale * 1.01, 1e-12)


def _dual_gradient(problems):
    """Accelerated projected gradient on the duals of all `problems` at once.

    Returns (sweeps, best) per problem: the sweeps it ran and its
    best-feasibility primal iterate. One loop serves every problem: the
    multipliers, primal iterates and gradients live in stacked (k, max rows)
    and (k, n) buffers updated in place, and a problem with fewer rows is
    padded with rhs = 0 and gradient 0, so its multipliers stay 0 there. Each
    problem keeps its own two matrix-vector products (on its C-contiguous U
    and on U.T), bound once as `ndarray.dot(v, out)` calls into its own
    buffer slices, so its iterates are bit for bit those of a loop over that
    problem alone. A problem stops at its own check, every CHECK_EVERY
    sweeps, once its iterate violates no constraint by more than SWEEP_TOL;
    its rows are then zeroed and stay 0.
    """
    k = len(problems)
    rows = [p[1].shape[0] for p in problems]
    targets = np.stack([p[0] for p in problems])
    # per-problem scalars spread over full rows: a broadcast column costs
    # more per call than the elementwise work itself
    rmax = np.repeat([[p[4]] for p in problems], targets.shape[1], axis=1)
    steps = np.repeat([[_step_size(p[1])] for p in problems], max(rows), axis=1)
    rhs = np.zeros_like(steps)
    for j, p in enumerate(problems):
        rhs[j, : rows[j]] = p[2]
    lam = np.zeros_like(rhs)
    lam_prev = np.zeros_like(rhs)
    mom = np.zeros_like(rhs)
    grad = np.zeros_like(rhs)
    back = np.empty_like(targets)  # U^T mom per problem
    x = np.clip(targets, 0.0, rmax)
    best = x.copy()
    # per problem: its two products, bound to their buffer slices
    to_primal = [partial(p[1].T.dot, mom[j, : rows[j]], back[j]) for j, p in enumerate(problems)]
    to_rows = [partial(p[1].dot, x[j], grad[j, : rows[j]]) for j, p in enumerate(problems)]
    best_viol = [_violation(x[j], p[1] @ x[j] - p[2], p[4]) for j, p in enumerate(problems)]
    sweeps = [MAX_SWEEPS] * k
    running = list(range(k))
    t_acc = 1.0
    for it in range(1, MAX_SWEEPS + 1):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        np.subtract(lam, lam_prev, out=mom)
        mom *= (t_acc - 1.0) / t_next
        mom += lam
        for j in running:
            to_primal[j]()
        np.subtract(targets, back, out=x)
        np.maximum(x, 0.0, out=x)
        np.minimum(x, rmax, out=x)
        for j in running:
            to_rows[j]()
        grad -= rhs
        stopped = []
        if it % CHECK_EVERY == 0:
            for j in running:
                viol = _violation(x[j], grad[j, : rows[j]], problems[j][4])
                if viol < best_viol[j]:
                    best_viol[j] = viol
                    best[j] = x[j]
                if viol <= SWEEP_TOL:
                    sweeps[j] = it
                    stopped.append(j)
        grad *= steps
        grad += mom
        lam_prev, lam = lam, lam_prev
        np.maximum(grad, 0.0, out=lam)
        t_acc = t_next
        for j in stopped:
            running.remove(j)
            for buf in (lam, lam_prev, grad, rhs):
                buf[j] = 0.0
        if not running:
            break
    return sweeps, best


def _distance_project(problems):
    """Feasible near-projections of each `target` onto {0 <= x <= rmax, U x <= rhs}.

    `problems` holds one (target, U, rhs, anchor, rmax_i) per agent, with U
    C-contiguous and every target of the same length. Accelerated projected
    gradient on the dual (multipliers for the rows, box kept implicit; see
    `_dual_gradient`) tracks the best-feasibility primal iterate; an exact
    active-set polish is attempted, and when the near-active face is too
    degenerate for it, the iterate is blended toward the strictly feasible
    `anchor` just enough to restore exact feasibility. Returns one (point,
    sweeps, path) per problem, path "polished", "blended" or "vertex"; on
    "vertex" no feasible projection was found and the point is `anchor`."""
    out = [(np.clip(p[0], 0.0, p[4]), 0, "polished") for p in problems]
    gradient = [j for j, p in enumerate(problems) if p[1].shape[0] > 0]
    if gradient:
        sweeps, best = _dual_gradient([problems[j] for j in gradient])
        for j, it, point in zip(gradient, sweeps, best):
            out[j] = _finish_projection(*problems[j], point, it)
    return out


def _finish_projection(target, U, rhs, anchor, rmax_i, best, it):
    """Polish `best`, else blend it toward `anchor`, else return `anchor`."""
    polished = _polish_projection(target, best, U, rhs, rmax_i)
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
    if _violation(blended, U @ blended - rhs, rmax_i) <= PROJECTION_TOL:
        return np.clip(blended, 0.0, rmax_i), it, "blended"
    return anchor, it, "vertex"


def _select_agents(game, policy, r, reward_class, targets, agents):
    """The selection of each agent in `agents`: one (x, margin, pivots,
    pinned, sweeps, path) per agent, path None in max-margin mode.

    Every agent is staged first (rows U, margin LP), keeping only U's live
    rows; then one `_distance_project` call projects the targets of all of
    them, unless `targets` is None (max-margin mode)."""
    staged = []  # per agent: live rows of U, live, rows carrying the margin, LP x, U's layout
    problems = []  # per agent in distance mode: target, live rows of U, rhs, LP x, rmax
    for i in agents:
        U = _advantage_rows(game, policy, i, reward_class)
        mask = (policy.per_agent[i] == 0.0).ravel()  # row order (s, d)
        live = np.linalg.norm(U, axis=1) > _DEAD_ROW
        x, t_star, margin_rows, pivots = _lexicographic_margin(U, mask, live, r[i], game.gamma)
        pinned = int(np.sum(mask & live & ~margin_rows))
        U_live = U[live]
        order = "F" if U.flags.f_contiguous else "C"
        staged.append((U_live, live, margin_rows, x, order, pivots, pinned))
        if targets is not None:
            # support rows are one-sided too: their average under the policy is
            # zero identically, so <= 0 on each forces equality at any
            # feasible point
            rhs = np.where(margin_rows[live], -max(t_star - 1e-6, 0.0), 0.0)
            problems.append((targets[i], U_live, rhs, x, r[i]))
        del U  # only the live rows stay alive through the other agents' LPs

    if targets is None:
        projected = [(x, 0, None) for _, _, _, x, _, _, _ in staged]
    else:
        projected = _distance_project(problems)
    selected = []
    for i, (U_live, live, carrying, _, order, pivots, pinned), (x, sweeps, path) in zip(
        agents, staged, projected
    ):
        if carrying.any():
            # the live rows back in U's shape and memory layout: each row's
            # product then has the bits of that row of U @ x
            full = np.zeros((live.size, x.size), order=order)
            full[live] = U_live
            margin = float(-(full @ x)[carrying].max())
        else:
            margin = r[i] / (1.0 - game.gamma)
        selected.append((x, margin, pivots, pinned, sweeps, path))
    return selected


def _usable_cpus() -> int:
    """The CPUs this process may run on, which bounds the agent groups."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _single_threaded() -> bool:
    """Whether this process runs one OS thread, so that forking it is safe."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _child(select, group, write_end):
    """In a forked child: send the pickled outcome of select(group) and exit.

    It never returns into the caller's frames, and `os._exit` flushes none of
    the stdio or file buffers it inherited. Status 0 means the whole outcome
    was written; an outcome that cannot be pickled leaves with status 1."""
    status = 1
    try:
        try:
            outcome = (True, select(group))
        except BaseException as exc:  # noqa: BLE001 - the caller re-raises it
            outcome = (False, exc)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def _forked(select, groups):
    """select(group) for every group, concatenated in group order: the last
    group in the caller, each other one in a forked child that sends its
    outcome back through a pipe.

    A child's exception is raised again here; a child that exits without an
    outcome raises MairlError. On every way out, a pipe not yet read is
    closed and its child killed, and every child is reaped."""
    pending = {}  # child pid -> read end of its pipe, in group order
    try:
        for group in groups[:-1]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child(select, group, write_end)
            os.close(write_end)
            pending[pid] = open(read_end, "rb")
        own = select(groups[-1])
        selected = []
        for (pid, pipe), group in zip(list(pending.items()), groups):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pending[pid]
            if status != 0 or not data:
                raise MairlError(
                    f"reward selection of agents {group} exited with status {status} "
                    f"and no result"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            selected.extend(value)
        return selected + own
    finally:
        for pid, pipe in pending.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


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
    A policy or per-agent rmax not shaped for the game raises
    DimensionMismatchError, and an rmax entry that is not positive and
    finite ValueError, before any LP runs.
    """
    if mode not in (MAX_MARGIN, DISTANCE_TO_RANDOM):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == DISTANCE_TO_RANDOM and seed is None:
        raise ValueError("distance-to-random mode needs a seed for the target reward")
    if reward_class not in (STATE_ACTION_CLASS, STATE_CLASS):
        raise ValueError(f"unknown reward class {reward_class!r}")
    _check_shapes(game, None, policy)
    r = per_agent_rmax(rmax, game.n_agents)
    if not np.all((r > 0) & (r < np.inf)):
        raise ValueError("rmax must be positive and finite")

    n, S, A = game.n_agents, game.n_states, game.n_joint_actions
    targets = None
    if mode == DISTANCE_TO_RANDOM:
        rng = np.random.default_rng(seed)
        size = S if reward_class == STATE_CLASS else S * A
        targets = [rng.uniform(0.0, r[i], size=size) for i in range(n)]
    select = partial(_select_agents, game, policy, r, reward_class, targets)
    groups = [part.tolist() for part in np.array_split(np.arange(n), min(n, _usable_cpus()))]
    if len(groups) > 1 and hasattr(os, "fork") and _single_threaded():
        selected = _forked(select, groups)
    else:
        selected = select(range(n))

    tables = np.zeros((n, S, A))
    for i, (x, *_) in enumerate(selected):
        # a state-class x has one entry per state and broadcasts over joint actions
        tables[i] = np.clip(x, 0.0, r[i]).reshape(S, -1)
    reward = JointReward(tables, r)
    report = check_implicit(game, reward, policy, tol=1e-8)
    if not report.passed:
        raise NotFeasibleError(
            f"selected reward fails the feasibility check "
            f"(max violation {report.max_violation:.3e})"
        )
    _, margins, pivots, pinned, sweeps, paths = zip(*selected)
    return MaxGapResult(
        reward=reward,
        margins=np.array(margins),
        mode=mode,
        lp_iterations=sum(pivots),
        projection_sweeps=sum(sweeps),
        pinned_rows=pinned,
        projection_paths=paths if mode == DISTANCE_TO_RANDOM else (),
    )


def behavior_cloning(pi_hat: JointPolicy) -> JointPolicy:
    """Tabular behavior cloning against a generative model is the empirical
    expert policy itself; kept as an explicit stage for pipeline symmetry."""
    return pi_hat
