"""Generative-model estimation of a Markov game and its Nash expert.

One sampling round queries the generative model once per (state, joint
action) for a next state and once per state for a joint expert action, so
after k rounds every pair count and every state count equals k, and k is
the only count kept. Empirical estimates are the tallies divided by k and
fall back to uniform only before the first round (k = 0). Hoeffding-style
radii and the expert-support indicator at k combine into the reward
uncertainty C_k whose maximum drives the stopping rule; closed-form sample
bounds mirror the same quantities.

Draws are deterministic per (seed, round): each seed has one numpy Philox
stream, keyed `SeedSequence(seed).generate_state(2, np.uint64)`, and round
k reads its own range of counter blocks, starting at (k - 1) times the
blocks one round takes. Of a round's `random()` draws, each state takes A
in turn to pick the next states of the A joint actions, then n to pick the
agents' expert actions. Each uniform is inverted through a per-row jump
table of its normalised CDF, built once per oracle, which makes the same
float comparisons as the dense CDF at only the entries where it rises.
`sample_round` draws any number of rounds in chunks of bounded size, one
`random()` call per chunk, so memory stays flat in the round count. Since
counts depend on k alone, `uniform_sampling` takes tau from
`stopping_time`; it returns one history row per round (LOG_COLUMNS) and
writes no file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dp import policy_evaluation
from .errors import DimensionMismatchError
from .feasible import decompose_reward, event_mask
from .games import JointPolicy, JointReward, MarkovGame
from .joint import joint_action_count

LOG_COLUMNS = (
    "k",
    "epsilon_k",
    "max_C",
    "max_transition_radius",
    "indicator_active_states",
    "wall_time_ms",
)


@dataclass(frozen=True)
class ConfidenceParams:
    """Confidence level, expert support floor, reward scale, and discount."""

    delta: float
    pi_min: float
    rmax: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.pi_min <= 1.0:
            raise ValueError("pi_min must lie in (0, 1]")
        if self.rmax < 0:
            raise ValueError("rmax must be nonnegative")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")


class CountBook:
    """Cumulative next-state and per-agent expert-action tallies after
    `iteration` uniform rounds; every (s, a) row of `n_sas` and every state
    row of `n_i_sa[i]` sums to `iteration`."""

    def __init__(self, n_states: int, action_counts):
        self.n_states = int(n_states)
        self.action_counts = tuple(int(c) for c in action_counts)
        A = joint_action_count(self.action_counts)
        self.n_sas = np.zeros((n_states, A, n_states), dtype=np.int64)
        self.n_i_sa = [np.zeros((n_states, c), dtype=np.int64) for c in self.action_counts]
        self.iteration = 0

    @property
    def n_agents(self) -> int:
        return len(self.action_counts)


@dataclass(frozen=True)
class EstimatedProblem:
    """Empirical transition and expert-policy estimates after k rounds."""

    p_hat: np.ndarray
    pi_hat: JointPolicy
    k: int

    def as_game(self, gamma: float, mu) -> MarkovGame:
        return MarkovGame(self.p_hat, gamma, mu, self.pi_hat.action_counts)


@dataclass(frozen=True)
class UncertaintyTable:
    """Per-pair reward uncertainty and the accuracy epsilon_k it induces."""

    c: np.ndarray  # (S, A)
    epsilon_k: float
    indicator: np.ndarray  # (S,) 0/1 expert-support indicator per state
    max_transition_radius: float


# per-chunk bound on uniforms times the widest jump table, so memory stays
# flat in rounds
_CHUNK_ELEMENTS = 1 << 16


class GenerativeOracle:
    """Generative model backed by a known game and expert policy.

    All draws of a seed come from one Philox4x64-10 stream keyed
    `SeedSequence(seed).generate_state(2, np.uint64)`. Round k owns the B =
    ceil(S (A + n) / 4) counter blocks after counter (k - 1) B, that is 4B
    `random()` draws, of which the first S (A + n) are used: per state, A
    transition uniforms in flat joint-action order, then one per agent. Any
    run of consecutive rounds is one `random()` call on a `Philox` started at
    its first round's counter, so draws depend on (seed, round) alone. Each
    uniform goes through the inverse CDF of its row, kept as a jump table
    built in the constructor. A negative seed raises ValueError here, from
    `SeedSequence`.
    """

    def __init__(self, game: MarkovGame, expert: JointPolicy, seed: int = 0):
        if expert.n_states != game.n_states or expert.action_counts != game.action_counts:
            raise DimensionMismatchError("expert policy does not match the game")
        self.game = game
        self.expert = expert
        self.seed = int(seed)
        self._key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
        self._round_uniforms = game.n_states * (game.n_joint_actions + game.n_agents)
        self._round_blocks = -(-self._round_uniforms // 4)
        self._transition_table = _jump_table(game.transitions)  # (S, A, w) each
        self._action_tables = [_jump_table(table) for table in expert.per_agent]  # (S, w_i)
        width = max(t[0].shape[-1] for t in (self._transition_table, *self._action_tables))
        self._chunk_rounds = max(1, _CHUNK_ELEMENTS // (self._round_uniforms * width))

    def round_samples(self, first: int, rounds: int = 1):
        """All queries of rounds first, ..., first + rounds - 1: next states
        of shape (rounds, S, A) and expert actions of shape (rounds, S, n)."""
        if first < 1:
            raise ValueError("rounds are numbered from 1")
        S, A = self.game.n_states, self.game.n_joint_actions
        bits = np.random.Philox(key=self._key, counter=(first - 1) * self._round_blocks)
        u = np.random.Generator(bits).random((rounds, 4 * self._round_blocks))
        u = u[:, : self._round_uniforms].reshape(rounds, S, A + self.game.n_agents)
        actions = [_draw(table, u[..., A + i]) for i, table in enumerate(self._action_tables)]
        return _draw(self._transition_table, u[..., :A]), np.stack(actions, axis=-1)


def _cdf(p: np.ndarray) -> np.ndarray:
    """CDF over the last axis divided by its last entry, as `Generator.choice` builds it."""
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


def _jump_table(p: np.ndarray):
    """Inverse-CDF table of each row of p (..., n): the positions where the
    normalised CDF (`_cdf`) rises and its values there, padded with +inf to
    the widest row's count w. Returns (positions, values), each (..., w)."""
    cdf = _cdf(p)
    flat = cdf.reshape(-1, cdf.shape[-1])
    rows, cols = np.nonzero(flat > np.pad(flat[:, :-1], ((0, 0), (1, 0))))
    per_row = np.bincount(rows, minlength=flat.shape[0])
    slot = np.arange(rows.size) - (np.cumsum(per_row) - per_row)[rows]
    shape = (flat.shape[0], int(per_row.max()))
    positions = np.zeros(shape, dtype=np.intp)
    values = np.full(shape, np.inf)
    positions[rows, slot] = cols
    values[rows, slot] = flat[rows, cols]
    lead = cdf.shape[:-1] + shape[-1:]
    return positions.reshape(lead), values.reshape(lead)


def _draw(table, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for uniforms u (..., *rows): the first outcome whose
    normalised CDF exceeds u, i.e. `searchsorted(cdf, u, side="right")`.

    Exact: the rises counted are the dense CDF's comparisons at its distinct
    values, and a normalised CDF ends at 1 > u, so the last positive-mass
    outcome caps the draw.
    """
    positions, values = table
    rises = (u[..., None] >= values).sum(axis=-1)
    return positions[(*np.indices(positions.shape[:-1], sparse=True), rises)]


def sample_round(oracle: GenerativeOracle, counts: CountBook, rounds: int = 1) -> CountBook:
    """`rounds` uniform rounds: in each, every (s,a) is sampled once and
    every agent is observed once per state.

    Rounds are drawn in chunks whose uniforms, times the widest jump table,
    stay under a fixed element count, so memory stays flat in `rounds`; a
    chunk adds its samples with one `np.add.at` per table on its flat view.
    The counts equal those of `rounds` single-round calls.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    S, A = counts.n_states, oracle.game.n_joint_actions
    first, stop = counts.iteration + 1, counts.iteration + rounds + 1
    sa_offsets = np.arange(S * A).reshape(S, A) * S
    for lo in range(first, stop, oracle._chunk_rounds):
        next_states, expert_actions = oracle.round_samples(lo, min(oracle._chunk_rounds, stop - lo))
        np.add.at(counts.n_sas.reshape(-1), (sa_offsets + next_states).ravel(), 1)
        for i, table in enumerate(counts.n_i_sa):
            flat = np.arange(S) * table.shape[1] + expert_actions[..., i]
            np.add.at(table.reshape(-1), flat.ravel(), 1)
    counts.iteration += rounds
    return counts


def estimate(counts: CountBook) -> EstimatedProblem:
    """Maximum-likelihood estimates: the tallies divided by k, or uniform at k = 0."""
    k = counts.iteration
    if k == 0:
        p_hat = np.full(counts.n_sas.shape, 1.0 / counts.n_states)
        tables = [np.full(t.shape, 1.0 / c) for t, c in zip(counts.n_i_sa, counts.action_counts)]
    else:
        p_hat = counts.n_sas / k
        tables = [t / k for t in counts.n_i_sa]
    return EstimatedProblem(p_hat=p_hat, pi_hat=JointPolicy(tables), k=k)


def xi_threshold(n_s, params: ConfidenceParams, n_states: int, action_counts, n_agents: int):
    """Support-detection threshold log(2 S prodA (n-1) N^2 / (delta/2)) / log(1/(1-pi_min)).

    Returns 0 for pure experts (pi_min = 1) and at N = 0. Accepts a scalar or
    an array of counts.
    """
    scalar = np.ndim(n_s) == 0
    N = np.atleast_1d(np.asarray(n_s, dtype=np.float64))
    if params.pi_min >= 1.0:
        out = np.zeros_like(N)
    else:
        A = joint_action_count(action_counts)
        denom = math.log(1.0 / (1.0 - params.pi_min))
        arg = 2.0 * n_states * A * max(n_agents - 1, 1) * np.square(N) / (params.delta / 2.0)
        out = np.where(N > 0, np.log(np.maximum(arg, 1e-300)) / denom, 0.0)
    return float(out[0]) if scalar else out


def transition_radius(n_sa, params: ConfidenceParams, n_states: int, action_counts):
    """(rmax/(1-gamma)) sqrt(2 l_k / N+) with l_k = log(12 S prodA (N+)^2 / delta)."""
    scalar = np.ndim(n_sa) == 0
    A = joint_action_count(action_counts)
    n_plus = np.maximum(np.atleast_1d(np.asarray(n_sa, dtype=np.float64)), 1.0)
    l_k = np.log(12.0 * n_states * A * np.square(n_plus) / params.delta)
    out = (params.rmax / (1.0 - params.gamma)) * np.sqrt(2.0 * l_k / n_plus)
    return float(out[0]) if scalar else out


def _indicator(n_s, params: ConfidenceParams, n_states: int, action_counts, n_agents: int):
    """1 where the expert-support estimate is still uncertain.

    Uncertain iff N(s) <= max(1, xi(N(s))); a pure expert clears after a
    single observation (N >= 1), since one sample reveals each deterministic
    action exactly.
    """
    N = np.asarray(n_s, dtype=np.float64)
    if params.pi_min >= 1.0:
        return (N < 1.0).astype(np.float64)
    xi = xi_threshold(N, params, n_states, action_counts, n_agents)
    return (N <= np.maximum(1.0, xi)).astype(np.float64)


def _schedule(ks, params: ConfidenceParams, n_states: int, action_counts, n_agents: int):
    """epsilon_k, C_k, transition radius and indicator of the uniform schedule
    at rounds ks (an array), where every count after k rounds equals k:
    C_k = rmax/(1-gamma) indicator + gamma radius and epsilon_k = C_k/(1-gamma)."""
    ind = _indicator(ks, params, n_states, action_counts, n_agents)
    radius = transition_radius(ks, params, n_states, action_counts)
    c = params.rmax / (1.0 - params.gamma) * ind + params.gamma * radius
    return c / (1.0 - params.gamma), c, radius, ind


def uncertainty(counts: CountBook, params: ConfidenceParams) -> UncertaintyTable:
    """The `_schedule` row at k = counts.iteration, broadcast to C_k per pair
    (S, A) and the indicator per state (S,)."""
    k = np.array([float(counts.iteration)])
    eps, c, radius, ind = _schedule(
        k, params, counts.n_states, counts.action_counts, counts.n_agents
    )
    S, A = counts.n_sas.shape[:2]
    return UncertaintyTable(
        c=np.full((S, A), c[0]),
        epsilon_k=float(eps[0]),
        indicator=np.full(S, ind[0]),
        max_transition_radius=float(radius[0]),
    )


@dataclass
class UniformSamplingResult:
    problem: EstimatedProblem
    uncertainty: UncertaintyTable
    tau: int
    converged: bool
    history: list = field(default_factory=list)  # rows matching LOG_COLUMNS


def uniform_sampling(
    oracle: GenerativeOracle,
    params: ConfidenceParams,
    epsilon_target: float,
    k_max: int,
) -> UniformSamplingResult:
    """Sample one round per (s,a) until epsilon_k <= epsilon_target / 2.

    tau is `stopping_time`'s first such k (every count after k rounds equals
    k); one `sample_round` call draws the tau rounds and the estimates are
    taken once. If k_max runs out first, converged is False, with the
    estimates after k_max rounds. Every history row's wall_time_ms is the
    elapsed time at the end of that call, the batch that drew its round.
    """
    if not epsilon_target > 0:
        raise ValueError("epsilon_target must be positive")
    game = oracle.game
    shape = (game.n_states, game.action_counts, game.n_agents)
    tau = stopping_time(params, *shape, epsilon_target, k_max=int(k_max))
    counts = CountBook(game.n_states, game.action_counts)
    start = time.perf_counter()
    sample_round(oracle, counts, int(k_max) if tau is None else tau)
    wall_ms = (time.perf_counter() - start) * 1000.0
    ks = np.arange(1, counts.iteration + 1, dtype=np.float64)
    history = [
        (int(k), float(e), float(c), float(r), int(game.n_states * i), wall_ms)
        for k, e, c, r, i in zip(ks, *_schedule(ks, params, *shape))
    ]
    problem, unc = estimate(counts), uncertainty(counts, params)
    return UniformSamplingResult(problem, unc, counts.iteration, tau is not None, history)


def stopping_time(
    params: ConfidenceParams,
    n_states: int,
    action_counts,
    n_agents: int,
    epsilon: float,
    k_max: int = 100_000_000,
):
    """Deterministic stopping round of the uniform schedule.

    One round gives every pair one sample, so N_k(s,a) = N_k(s) = k everywhere
    and C_k is a function of k alone; the stopping round needs no simulation.
    Returns None if the rule is not met within k_max.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    chunk = 65536
    lo = 1
    while lo <= k_max:
        hi = min(lo + chunk - 1, k_max)
        ks = np.arange(lo, hi + 1, dtype=np.float64)
        eps_k = _schedule(ks, params, n_states, action_counts, n_agents)[0]
        hit = np.nonzero(eps_k <= epsilon / 2.0)[0]
        if hit.size:
            return int(ks[hit[0]])
        lo = hi + 1
        # eps_k is elementwise in k, so the chunk size moves only memory, not tau
        chunk = min(chunk * 4, 1 << 18)
    return None


@dataclass(frozen=True)
class SampleBound:
    total: float
    transition_term: float
    policy_term: float


def theoretical_sample_bound(
    params: ConfidenceParams,
    n_states: int,
    action_counts,
    n_agents: int,
    epsilon: float,
) -> SampleBound:
    """Closed-form proof-constant sample bound for the uniform schedule.

    transition term: 128 S prodA gamma^2 rmax^2 / ((1-gamma)^4 eps^2) times its
    logarithmic factor; policy term: nS plus the support-detection surcharge.
    The total takes the max of the two, matching the bound's max structure.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    S, A, n = n_states, joint_action_count(action_counts), n_agents
    g, R, d = params.gamma, params.rmax, params.delta
    lead = 128.0 * S * A * g * g * R * R / ((1.0 - g) ** 4 * epsilon * epsilon)
    if lead > 0:
        log_arg = (64.0 * g * g * R * R / ((1.0 - g) ** 4 * epsilon * epsilon)) * math.sqrt(
            12.0 * S * A / d
        )
        transition = max(0.0, lead * math.log(log_arg))
    else:
        transition = 0.0
    if params.pi_min >= 1.0:
        policy = float(n * S)
    else:
        L = math.log(1.0 / (1.0 - params.pi_min))
        c = math.log(2.0 * S * A * max(n - 1, 1) / d)
        policy = n * S + (n * S / L) * (c + 2.0 * (c + 2.0) / L)
    return SampleBound(
        total=float(max(transition, policy)),
        transition_term=float(transition),
        policy_term=float(policy),
    )


def policy_estimation_threshold(n_agents: int, delta: float, pi_min: float) -> int:
    """Smallest integer N with (n-1)(1-pi_min)^N <= delta.

    Callers that need at least one observation should clamp the result to 1;
    the raw threshold is 0 when delta >= n-1 or pi_min = 1.
    """
    if n_agents < 2:
        raise ValueError("need at least two agents")
    if not 0.0 < delta:
        raise ValueError("delta must be positive")
    if pi_min >= 1.0:
        return 0
    value = (math.log(1.0 / delta) + math.log(n_agents - 1)) / math.log(1.0 / (1.0 - pi_min))
    return max(0, math.ceil(value - 1e-12))


def good_event_inequalities(
    game: MarkovGame,
    reward: JointReward,
    expert: JointPolicy,
    problems,
    params: ConfidenceParams,
) -> list:
    """Evaluate the four concentration inequalities for each estimated problem
    in the sequence `problems`.

    Returns one tuple of four booleans per problem: the support-mask bound
    with the true penalties, the same with the estimated problem's
    penalties, and the transition bound with the true and with the estimated
    values. Indicator and radius come from each problem's k. The true side
    (penalties, event mask, |V|) is computed once per call. The true reward
    must be feasible for (game, expert).
    """
    scale = params.rmax / (1.0 - params.gamma)
    params_true = decompose_reward(game, expert, reward)
    mask_true = event_mask(expert)
    v_true_abs = np.abs(params_true.v_fn)
    ks = np.array([float(problem.k) for problem in problems])
    _, _, radii, inds = _schedule(ks, params, game.n_states, game.action_counts, game.n_agents)
    flags = []
    for problem, radius, ind in zip(problems, radii, inds):
        mask_diff = mask_true != event_mask(problem.pi_hat)
        values_hat = policy_evaluation(problem.as_game(game.gamma, game.mu), reward, problem.pi_hat)
        a_hat = np.maximum(values_hat.v[:, :, None] - values_hat.q, 0.0)

        ok1 = bool(np.all(mask_diff * params_true.a_fn <= scale * ind + 1e-12))
        ok2 = bool(np.all(mask_diff * a_hat <= scale * ind + 1e-12))

        dp_abs = np.abs(game.transitions - problem.p_hat)  # (S, A, S)
        lhs_true = np.einsum("sat,it->isa", dp_abs, v_true_abs)
        lhs_hat = np.einsum("sat,it->isa", dp_abs, np.abs(values_hat.v))
        ok3 = bool(np.all(lhs_true <= radius + 1e-12))
        ok4 = bool(np.all(lhs_hat <= radius + 1e-12))
        flags.append((ok1, ok2, ok3, ok4))
    return flags
