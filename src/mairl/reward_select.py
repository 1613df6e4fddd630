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
  such structurally-tied rows are pinned at zero (kept feasible, without a
  margin) so the margin over the remaining deviations stays meaningful.
  Most are antipodal pairs, U[r1] = -c U[r2] with c > 0, found before the
  first LP by matching rounded unit rows (`_antipodal_rows`); any other tied
  set is found from the LP duals (`_lexicographic_margin`). On the grids the
  pairs are all of them, so each agent solves one LP. The state-action
  class leaves every tied set to the LP duals: no state-action rows
  measured hold an antipodal pair.

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
(the seeded generator feeds nothing else), and then runs one body per
agent, `_select_agent`: rows U, margin LP, in distance mode the projection
onto U's live rows, and the margin read off the full U. The agents are
split into min(agents, usable CPUs) contiguous groups. With two or more,
the last group runs in the caller and every other group in a forked child
process, which sends its agents' points, margins and counters back through
a pipe, or the exception it raised. Each child moves off the CPU the caller
last ran on, where another CPU is usable, so that the two do not share one
CPU while others idle. The call forks only where `os.fork`
exists and the process runs one OS thread: a process with a BLAS thread
pool, or with a second Python thread, runs every agent in the caller, one
after another, as does a machine with one CPU. Each agent's work is the
same on either path, so at one BLAS thread count the outputs have the same
bits. Between thread counts they can differ: the thread count changes the
rounding of BLAS products and with it the simplex's pivots. A run that is
compared or reproduced bit for bit should pin OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .dp import _check_shapes, _reply_weights, _weighted_kernel, transition_under
from .errors import MairlError, NotFeasibleError
from .feasible import check_implicit
from .games import JointPolicy, JointReward, MarkovGame, per_agent_rmax
from .simplex import LinearProgram, solve_lp

MAX_MARGIN = "max-margin"
DISTANCE_TO_RANDOM = "distance-to-random"
MODES = (MAX_MARGIN, DISTANCE_TO_RANDOM)

STATE_ACTION_CLASS = "state-action"
STATE_CLASS = "state"
REWARD_CLASSES = (STATE_ACTION_CLASS, STATE_CLASS)

_DEAD_ROW = 1e-9
_PIN_BLOCK_BYTES = 2**20  # the slice of U that `_antipodal_rows` normalises at once
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
    weights = _reply_weights(game, policy, agent, np.arange(n_own)[:, None])  # (|A_i|, S, A)
    p_dev = np.empty((S, n_own, S))
    for d in range(n_own):  # gamma (P_d - P_pi), one own action d at a time
        p_dev[:, d] = (_weighted_kernel(game, weights[d]) - p_pi) * game.gamma
    # X (I - gamma P_pi)^{-1} is the transpose of a solve with the transposed system
    resolved = np.linalg.solve(
        (np.eye(S) - game.gamma * p_pi).T, p_dev.reshape(S * n_own, S).T
    ).T
    if reward_class == STATE_CLASS:
        return resolved
    joint = policy.joint_table()
    U = (resolved[:, :, None] * joint).reshape(S, n_own, S, A)
    states = np.arange(S)
    U[states, :, states, :] += weights.swapaxes(0, 1) - joint[:, None, :]
    return U.reshape(S * n_own, S * A)


def _primal_margin_lp(U, margin_rows, rmax_i, gamma):
    """The margin LP over (x, t): m rows, so an m x m simplex basis."""
    m, n = U.shape
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(n), [1.0]]),
        lhs=np.hstack([-U, -margin_rows.astype(np.float64)[:, None]]),
        rhs=np.zeros(m),
        upper=np.concatenate([np.full(n, rmax_i), [rmax_i / (1.0 - gamma)]]),
    )
    sol = solve_lp(lp)
    return sol.x[:-1], sol.x[-1], -sol.row_duals, sol.iterations


def _dual_margin_lp(U, margin_rows, rmax_i, gamma):
    """The margin LP's dual over (y, z, w): n + 1 rows, so an (n+1) x (n+1)
    basis. (x, t) are its row multipliers, negated: solve_lp's row
    multipliers are <= 0 in a maximization."""
    m, n = U.shape
    lhs = np.zeros((n + 1, m + n + 1))
    lhs[:n, :m] = U.T
    lhs[:n, m : m + n] = np.eye(n)
    lhs[n, :m] = margin_rows
    lhs[n, -1] = 1.0
    lp = LinearProgram(
        objective=-np.concatenate([np.zeros(m), np.full(n, rmax_i), [rmax_i / (1.0 - gamma)]]),
        lhs=lhs,
        rhs=np.concatenate([np.zeros(n), [1.0]]),
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


def _unit_rows(U, norms, rows):
    """Rows `rows` of U over their norms, rounded to 9 digits; adding 0.0
    turns -0.0 into 0.0, so that equal rows have equal bytes."""
    return np.round(U[rows] / norms[rows, None], 9) + 0.0


def _antipodal_rows(U, rows, norms):
    """The rows among `rows` with an antipodal partner among them:
    U[r1] = -c U[r2] with c > 0, matched on their rounded unit rows.

    Both gaps of such a pair cannot be negative at once (U[r2] x <= -t and
    -c U[r2] x <= -t force t <= 0), so neither carries a margin. Each row's
    bytes, and its negation's, are hashed _PIN_BLOCK_BYTES of U at a time,
    so no second copy of U is held; a match of hashes is confirmed on the
    bytes themselves."""
    idx = np.flatnonzero(rows)
    block = max(1, _PIN_BLOCK_BYTES // (U.itemsize * max(1, U.shape[1])))
    by_hash = {}  # hash of a unit row's bytes -> its rows
    negated = []  # per row of idx, the hash of its negated unit row's bytes
    for start in range(0, idx.size, block):
        part = idx[start : start + block]
        unit = _unit_rows(U, norms, part)
        for r, u, neg in zip(part, unit, 0.0 - unit):
            by_hash.setdefault(hash(u.tobytes()), []).append(r)
            negated.append(hash(neg.tobytes()))
    pinned = np.zeros_like(rows)
    for r, key in zip(idx, negated):
        if key in by_hash:
            neg = 0.0 - _unit_rows(U, norms, [r])
            pinned[r] = any(np.array_equal(_unit_rows(U, norms, [p]), neg) for p in by_hash[key])
    return pinned


def _lexicographic_margin(U, mask, live, rmax_i, gamma):
    """Maximize the scalar margin, pinning structurally-tied rows at zero.

    Returns the last round's x and t, the rows still carrying the margin,
    and the simplex pivots summed over all rounds.

    When the optimum is zero, the rows carrying nonzero multipliers y form a
    certificate whose gaps sum to zero for every reward in the class; they
    are removed from the margin (kept feasible at <= 0) and the LP repeats.
    Each repeat removes at least one row, so there are at most
    |margin rows| + 1 rounds. Each antipodal pair is such a certificate, at
    one cold LP apiece; in the state class `_select_agent` pins the pairs
    beforehand (`_antipodal_rows`) and leaves this loop the certificates that
    are not pairs. Called alone on the whole mask, it finds the pairs itself;
    on the grids it then ends on the same rows, x and t, bit for bit.
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
    """1 / (1.01 L), L the power-iteration estimate of the largest eigenvalue
    of U U^T, or its bound ||U||_F^2 where the all-ones start lies in the null
    space of U^T."""
    m = U.shape[0]
    gram_scale = 1.0
    v = np.ones(m) / np.sqrt(m)
    for _ in range(30):
        v = U @ (U.T @ v)
        nv = np.linalg.norm(v)
        if nv == 0:
            # only the start can vanish: every later v lies in the range of U
            gram_scale = float(np.vdot(U, U))
            break
        gram_scale = nv
        v /= nv
    return 1.0 / max(gram_scale * 1.01, 1e-12)


@lru_cache(maxsize=None)
def _momentum(sweeps, block):
    """The coefficients (t_k - 1) / t_{k+1} of sweeps k = 1..sweeps, in
    tuples of `block`, the last one shorter if `block` does not divide
    `sweeps`. The sequence t_1 = 1, t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 of
    Beck & Teboulle's accelerated gradient does not depend on the problem,
    so each (sweeps, block) is computed once, on first use."""
    coefs = []
    t_acc = 1.0
    for _ in range(sweeps):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        coefs.append((t_acc - 1.0) / t_next)
        t_acc = t_next
    # numpy scalars: a Python float operand costs a conversion on every call
    coefs = tuple(np.array(coefs))
    return tuple(coefs[k : k + block] for k in range(0, sweeps, block))


def _dual_gradient(target, U, rhs, rmax_i):
    """Accelerated projected gradient on the dual of one projection problem.

    Returns (sweeps, best): the sweeps run and the best-feasibility primal
    iterate. A sweep takes the momentum point mom = lam + c_k (lam -
    lam_prev) of the multipliers, the primal iterate x = clip(target -
    U^T mom, 0, rmax) and the slack U x - rhs; the next sweep opens with the
    dual step lam = max(mom + step * slack, 0) (zero before the first, whose
    slack and mom are zero). The sweeps run in blocks of CHECK_EVERY, with
    the coefficients c_k from `_momentum`; after each block the iterate's
    violation is checked, and the loop stops once it is at most SWEEP_TOL,
    and otherwise after MAX_SWEEPS. The multipliers, iterate and slack live
    in buffers updated in place: the ufuncs are bound to locals and write
    through `out` (positional, except for np.maximum and np.minimum, which
    deprecate it), the two matrix-vector products are `ndarray.dot(v, out)`
    calls bound once on the C-contiguous U and on U.T, and no operand is a
    Python scalar, since converting one costs more per call than the
    elementwise work itself.
    """
    steps = np.full_like(rhs, _step_size(U))
    rmax = np.full_like(target, rmax_i)
    row_zeros = np.zeros_like(rhs)
    col_zeros = np.zeros_like(target)
    lam = np.zeros_like(rhs)
    lam_prev = np.zeros_like(rhs)
    mom = np.zeros_like(rhs)
    grad = np.zeros_like(rhs)  # the slack U x - rhs, then the dual step
    back = np.empty_like(target)  # U^T mom
    x = np.clip(target, 0.0, rmax_i)
    best = x.copy()
    best_viol = _violation(x, U @ x - rhs, rmax_i)
    to_primal = partial(U.T.dot, mom, back)
    to_rows = partial(U.dot, x, grad)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    maximum, minimum = np.maximum, np.minimum
    sweeps = 0
    for block in _momentum(MAX_SWEEPS, CHECK_EVERY):
        for coef in block:
            multiply(grad, steps, grad)
            add(grad, mom, grad)
            lam_prev, lam = lam, lam_prev
            maximum(grad, row_zeros, out=lam)
            subtract(lam, lam_prev, mom)
            multiply(mom, coef, mom)
            add(mom, lam, mom)
            to_primal()
            subtract(target, back, x)
            maximum(x, col_zeros, out=x)
            minimum(x, rmax, out=x)
            to_rows()
            subtract(grad, rhs, grad)
        sweeps += len(block)
        if len(block) < CHECK_EVERY:
            break  # a last, shorter block ends at the cap without a check
        viol = _violation(x, grad, rmax_i)
        if viol < best_viol:
            best_viol = viol
            best[:] = x
        if viol <= SWEEP_TOL:
            break
    return sweeps, best


def _aligned_rows(U, rows):
    """U[rows] as a C-contiguous copy that starts on a 64-byte boundary.

    The projection's matrix-vector products return the same bits at any
    offset, but over a matrix 16 bytes past a 32-byte boundary they take
    ~20% longer (4x3 live rows, 363 x 132, OpenBLAS at 1 thread), and where
    malloc puts a plain U[rows] moves with every allocation made before it."""
    idx = np.flatnonzero(rows)
    size = idx.size * U.shape[1]
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // buf.itemsize
    out = buf[start : start + size].reshape(idx.size, U.shape[1])
    # "clip" writes straight into out; the default mode would buffer a copy
    return np.take(U, idx, axis=0, out=out, mode="clip")


def _distance_project(target, U, rhs, anchor, rmax_i):
    """A feasible near-projection of `target` onto {0 <= x <= rmax, U x <= rhs}.

    U is C-contiguous. Accelerated projected gradient on the dual
    (multipliers for the rows, box kept implicit; see `_dual_gradient`)
    tracks the best-feasibility primal iterate; an exact active-set polish
    is attempted, and when the near-active face is too degenerate for it,
    the iterate is blended toward the strictly feasible `anchor` just enough
    to restore exact feasibility. Returns (point, sweeps, path), path
    "polished", "blended" or "vertex"; on "vertex" no feasible projection
    was found and the point is `anchor`."""
    if U.shape[0] == 0:
        return np.clip(target, 0.0, rmax_i), 0, "polished"
    it, best = _dual_gradient(target, U, rhs, rmax_i)
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


def _select_agent(game, policy, r, reward_class, targets, i):
    """Agent i's selection: (x, margin, pivots, pinned, sweeps, path), path
    None in max-margin mode (`targets` None).

    Builds the rows U, pins their antipodal pairs in the state class, solves
    the lexicographic margin LP and, in distance mode, projects agent i's target onto U's live
    rows; the margin is read off the full U."""
    U = _advantage_rows(game, policy, i, reward_class)
    mask = (policy.per_agent[i] == 0.0).ravel()  # row order (s, d)
    norms = np.linalg.norm(U, axis=1)
    live = norms > _DEAD_ROW
    unpaired = mask
    if reward_class == STATE_CLASS:
        # pinning the antipodal pairs first leaves the loop one LP on the grids;
        # no state-action rows measured hold a pair, so that class skips the search
        unpaired = mask & ~_antipodal_rows(U, mask & live, norms)
    x, t_star, margin_rows, pivots = _lexicographic_margin(U, unpaired, live, r[i], game.gamma)
    pinned = int(np.sum(mask & live & ~margin_rows))
    sweeps, path = 0, None
    if targets is not None:
        # support rows are one-sided too: their average under the policy is
        # zero identically, so <= 0 on each forces equality at any feasible point
        rhs = np.where(margin_rows[live], -max(t_star - 1e-6, 0.0), 0.0)
        x, sweeps, path = _distance_project(targets[i], _aligned_rows(U, live), rhs, x, r[i])
    if margin_rows.any():
        # over the full U: a product over U[live] alone can differ in the last bit
        margin = float(-(U @ x)[margin_rows].max())
    else:
        margin = r[i] / (1.0 - game.gamma)
    return x, margin, pivots, pinned, sweeps, path


def _usable_cpus() -> int:
    """The CPUs this process may run on, which bounds the agent groups."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _single_threaded() -> bool:
    """Whether this process runs one OS thread, so that forking it is safe."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _caller_cpu() -> int | None:
    """The CPU this process last ran on, field 39 of /proc/self/stat, or None
    where it cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # the command name, field 2, is in parentheses and may hold spaces
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _leave_cpu(cpu) -> None:
    """In a forked child: run on the usable CPUs other than `cpu`, the one the
    caller last ran on, so that the child does not queue behind it. Skipped
    where `cpu` is None, no other CPU is usable or affinity cannot be set."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:
        pass


def _child(agent, group, write_end, caller_cpu):
    """In a forked child: leave `caller_cpu`, send the pickled outcome of
    mapping `agent` over `group` and exit.

    It never returns into the caller's frames, and `os._exit` flushes none of
    the stdio or file buffers it inherited. Status 0 means the whole outcome
    was written; an outcome that cannot be pickled leaves with status 1."""
    status = 1
    try:
        _leave_cpu(caller_cpu)
        try:
            outcome = (True, [agent(i) for i in group])
        except BaseException as exc:  # noqa: BLE001 - the caller re-raises it
            outcome = (False, exc)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def _select_all(agent, n):
    """[agent(i) for i in range(n)], split as the module docstring says: in
    min(n, usable CPUs) contiguous groups, the last in the caller and each
    other in a forked child, or all in the caller where forking is unsafe.

    A child's exception is raised again here; a child that exits without an
    outcome raises MairlError. On every way out, a pipe not yet read is
    closed and its child killed, and every child is reaped."""
    groups = [part.tolist() for part in np.array_split(np.arange(n), min(n, _usable_cpus()))]
    if len(groups) == 1 or not (hasattr(os, "fork") and _single_threaded()):
        return [agent(i) for i in range(n)]
    pending = {}  # child pid -> read end of its pipe, in group order
    caller_cpu = _caller_cpu()
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
                _child(agent, group, write_end, caller_cpu)
            os.close(write_end)
            pending[pid] = open(read_end, "rb")
        own = [agent(i) for i in groups[-1]]
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
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == DISTANCE_TO_RANDOM and seed is None:
        raise ValueError("distance-to-random mode needs a seed for the target reward")
    if reward_class not in REWARD_CLASSES:
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
    selected = _select_all(partial(_select_agent, game, policy, r, reward_class, targets), n)

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
