"""Generative-model estimation of a Markov game and its Nash expert.

One sampling round queries the generative model once per (state, joint
action) for a next state and once per state for a joint expert action, so
after k rounds every pair count and every state count equals k, and k is
the only count kept. A next state can only be one of the game's successors
of its pair, so next states are tallied per slot of the game's successor
list (see `games`), and the estimated kernel is that list with the tallies
divided by k as probabilities. Empirical estimates fall back to uniform,
a list of width S, only before the first round (k = 0). Hoeffding-style
radii and the expert-support indicator at k combine into the reward
uncertainty C_k whose maximum drives the stopping rule; closed-form sample
bounds mirror the same quantities.

Draws are deterministic per (seed, round): each seed has one numpy Philox
stream, keyed `SeedSequence(seed).generate_state(2, np.uint64)`, and round
k reads its own range of counter blocks, starting at (k - 1) times the
blocks one round takes. Of a round's `random()` draws, each state takes A
in turn to pick the next states of the A joint actions, then n to pick the
agents' expert actions. Each uniform is inverted by sequential search on
its row's normalised CDF, taken once per oracle; a transition row's CDF is
over its successor list, whose partial sums are the dense ones at the
listed states, since adding 0.0 is exact.

A row whose normalised CDF is already 1 at its first positive entry is
fixed: every uniform draws that outcome, so a fixed row takes no uniform
and no comparison, though its position in the round's block stays
reserved, and the random rows read the same uniforms whatever the other
rows are. An oracle with no random row (a deterministic game with a pure
expert, such as every grid NashQ expert) takes no CDF and builds no
generator and no key. `sample_round`, the one draw path, hands draws out
only as tallies: it adds `rounds` to each fixed row's slot at once, one
1-D indexed add per table at slots found when the oracle is built, and
draws the random rows' rounds in chunks of bounded size, one `random()`
call per chunk, so memory stays flat in the round count.

Since counts depend on k alone, `uniform_sampling` takes tau from
`stopping_time`, a search on the nonincreasing schedule epsilon_k that
tests a batch of rounds per `_schedule` call. Its
history (LOG_COLUMNS) is a `SamplingHistory`: one row per round, computed
from the schedule when read, so a run to tau costs numpy work on the random
rows and O(1) Python objects, whatever tau is. It writes no file.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dp import _check_shapes, policy_evaluation
from .errors import DimensionMismatchError
from .feasible import decompose_reward, event_mask
from .games import JointPolicy, JointReward, MarkovGame, _dense_kernel, _gather
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
        if not 0.0 <= self.rmax < math.inf:
            raise ValueError("rmax must be nonnegative and finite")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")


class CountBook:
    """Cumulative next-state and per-agent expert-action tallies after
    `iteration` uniform rounds.

    Next states are tallied by slot of a successor list: `n_slot[s, a, j]`
    counts draws of `successors[s, a, j]`. The book takes the sampled game's
    list, and zero tallies of its shape, on its first `sample_round`; until
    then both are None. Every (s, a) row of `n_slot` and every state row of
    `n_i_sa[i]` sums to `iteration`."""

    def __init__(self, n_states: int, action_counts):
        self.n_states = int(n_states)
        self.action_counts = tuple(int(c) for c in action_counts)
        self.successors = None
        self.n_slot = None
        self.n_i_sa = [np.zeros((n_states, c), dtype=np.int64) for c in self.action_counts]
        self.iteration = 0

    @property
    def n_agents(self) -> int:
        return len(self.action_counts)


@dataclass(frozen=True)
class EstimatedProblem:
    """Empirical transition and expert-policy estimates after k rounds; the
    transition estimate is a successor list (S, A, w) as `MarkovGame` keeps."""

    successors: np.ndarray
    successor_probs: np.ndarray
    pi_hat: JointPolicy
    k: int

    @property
    def p_hat(self) -> np.ndarray:
        """The dense estimated kernel (S, A, S), read-only, built anew on every access."""
        return _dense_kernel(self.successors, self.successor_probs)

    def as_game(self, gamma: float, mu) -> MarkovGame:
        return MarkovGame.from_successors(
            self.successors, self.successor_probs, gamma, mu, self.pi_hat.action_counts
        )


@dataclass(frozen=True)
class UncertaintyTable:
    """Per-pair reward uncertainty and the accuracy epsilon_k it induces."""

    c: np.ndarray  # (S, A)
    epsilon_k: float
    indicator: np.ndarray  # (S,) 0/1 expert-support indicator per state
    max_transition_radius: float


# per-chunk bound on the uniforms drawn and on the random rows' CDF
# comparisons, so memory stays flat in rounds
_CHUNK_ELEMENTS = 1 << 16


class GenerativeOracle:
    """Generative model backed by a known game and expert policy.

    All draws of a seed come from one Philox4x64-10 stream keyed
    `SeedSequence(seed).generate_state(2, np.uint64)`. Round k owns the B =
    ceil(S (A + n) / 4) counter blocks after counter (k - 1) B, that is 4B
    `random()` draws, of which the first S (A + n) are used: per state, A
    transition uniforms in flat joint-action order, then one per agent. Any
    run of consecutive rounds is one `random()` call on a `Philox` started at
    its first round's counter, so draws depend on (seed, round) alone. The
    constructor splits every table (`_split`) into fixed rows, with one
    outcome, which take no uniform (their positions in the block stay
    reserved), and random rows, which keep their normalised CDF and invert
    their uniforms on it; a transition draw picks a slot of the game's
    successor list. With no random row there is no `random()` call and no
    key: the seed is hashed by `SeedSequence` only when some row is random.
    Each fixed row's flat slot in its table is kept, so its tallies take one
    indexed add per table. Draws leave the oracle only as `sample_round`'s
    tallies. A seed that is not a non-negative integer (a float included)
    raises ValueError here, whether or not a key is built.
    """

    def __init__(self, game: MarkovGame, expert: JointPolicy, seed: int = 0):
        _check_shapes(game, None, expert)
        self.game = game
        self.expert = expert
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self._round_uniforms = game.n_states * (game.n_joint_actions + game.n_agents)
        self._round_blocks = -(-self._round_uniforms // 4)
        S, A, n = game.n_states, game.n_joint_actions, game.n_agents
        columns = np.arange(self._round_uniforms).reshape(S, A + n)
        # one table per draw kind: next-state slots of the (S, A) pairs, then
        # each agent's expert actions at the S states
        tables = [game.successor_probs, *expert.per_agent]
        row_columns = [columns[:, :A], *(columns[:, A + i] for i in range(n))]
        splits = [_split(t, c) for t, c in zip(tables, row_columns)]
        # each fixed row's flat slot in its (rows, outcomes) table
        self._fixed_slots = [
            rows * t.shape[-1] + outcomes for t, ((rows, outcomes), _) in zip(tables, splits)
        ]
        self._random = [random for _, random in splits]  # (rows, columns, CDF rows)
        comparisons = sum(cdf.size for _, _, cdf in self._random)
        self._has_random = comparisons > 0
        if self._has_random:
            self._key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
        per_round = max(4 * self._round_blocks, comparisons)
        self._chunk_rounds = max(1, _CHUNK_ELEMENTS // per_round)

    @property
    def _fixed(self):
        """Each table's fixed rows and their outcomes, read off the slots."""
        tables = [self.game.successor_probs, *self.expert.per_agent]
        return [divmod(slots, t.shape[-1]) for slots, t in zip(self._fixed_slots, tables)]

    def _random_draws(self, first: int, rounds: int):
        """Each table's random-row draws in rounds first, ..., first + rounds - 1,
        of shape (rounds, random rows). Call only if some row is random."""
        bits = np.random.Philox(key=self._key, counter=(first - 1) * self._round_blocks)
        u = np.random.Generator(bits).random((rounds, 4 * self._round_blocks))
        return [_draw(cdf, u[:, columns]) for _, columns, cdf in self._random]


def _cdf(p: np.ndarray) -> np.ndarray:
    """CDF over the last axis divided by its last entry, as `Generator.choice` builds it."""
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for uniforms u (..., *rows) on normalised CDF rows
    (*rows, n): the first outcome whose CDF exceeds u, i.e.
    `searchsorted(cdf, u, side="right")`. A normalised CDF ends at 1 > u, so
    the last positive-mass outcome caps the draw."""
    return (u[..., None] >= cdf).sum(axis=-1)


def _split(p: np.ndarray, columns: np.ndarray):
    """Split the rows of a probability table p (*rows, n) into fixed rows,
    drawn at their first positive entry whatever the uniform, and random
    rows. `columns` (*rows) holds each row's uniform column in a round's
    block; rows are flat indices. Returns ((fixed rows, their outcomes),
    (random rows, their columns, their normalised CDF (R, n))).

    A row is fixed when its normalised CDF is already 1 at its first positive
    entry: a row with one positive entry, or whose other entries are too
    small to move the CDF. One `np.nonzero` pass finds every row's positive
    entries, and only rows with more than one take a CDF.
    """
    p = p.reshape(-1, p.shape[-1])
    rows, outcomes = np.nonzero(p > 0)  # in row order
    if rows.size == p.shape[0]:  # one positive entry per row: no random row
        return (rows, outcomes), (rows[:0], columns.ravel()[:0], np.zeros((0, p.shape[-1])))
    # each row's count of positive entries and its first one
    count = np.bincount(rows, minlength=p.shape[0])
    first = outcomes[np.searchsorted(rows, np.arange(p.shape[0]))]
    rest = np.flatnonzero(count > 1)  # not empty: some row has more than one
    cdf = _cdf(p[rest])
    moves = cdf[np.arange(rest.size), first[rest]] < 1.0
    fixed = np.ones(p.shape[0], dtype=bool)
    fixed[rest[moves]] = False
    rows, random = np.flatnonzero(fixed), rest[moves]
    return (rows, first[rows]), (random, columns.ravel()[random], cdf[moves])


def sample_round(oracle: GenerativeOracle, counts: CountBook, rounds: int = 1) -> CountBook:
    """`rounds` uniform rounds: in each, every (s,a) is sampled once and
    every agent is observed once per state.

    Each fixed row (one outcome, see `GenerativeOracle`) gets `rounds` added
    to its one slot in a single indexed add per table, with no draw. The
    random rows' rounds are drawn in chunks whose uniforms, and whose CDF
    comparisons, stay under a fixed element count, so memory stays flat in
    `rounds`; a chunk adds its samples with one `np.bincount` per table over
    the random rows. An oracle with no random row costs O(S A) per call,
    whatever `rounds` is. The counts equal those of `rounds` single-round
    calls. Negative or non-integer `rounds` (ValueError) and a book not
    shaped for the game (DimensionMismatchError) raise before any tally. A
    book takes the oracle's successor list on its first call and raises
    DimensionMismatchError if a later oracle's list differs.
    """
    if not isinstance(rounds, numbers.Integral) or rounds < 0:
        raise ValueError(f"rounds must be a non-negative integer, got {rounds!r}")
    game = oracle.game
    if (counts.n_states, counts.action_counts) != (game.n_states, game.action_counts):
        raise DimensionMismatchError("the counts do not match the oracle's game")
    if counts.successors is None:
        counts.successors = game.successors
        counts.n_slot = np.zeros(game.successors.shape, dtype=np.int64)
    elif not np.array_equal(counts.successors, game.successors):
        raise DimensionMismatchError("the counts were drawn from another successor list")
    tables = [counts.n_slot, *counts.n_i_sa]
    for table, slots in zip(tables, oracle._fixed_slots):
        table.reshape(-1)[slots] += rounds
    first, stop = counts.iteration + 1, counts.iteration + rounds + 1
    if oracle._has_random:
        for lo in range(first, stop, oracle._chunk_rounds):
            draws = oracle._random_draws(lo, min(oracle._chunk_rounds, stop - lo))
            for table, (rows, _, _), drawn in zip(tables, oracle._random, draws):
                _tally(table, rows, drawn)
    counts.iteration += rounds
    return counts


def _tally(table: np.ndarray, rows: np.ndarray, drawn: np.ndarray) -> None:
    """Add one count to `table` (*rows, m) per entry of `drawn` (rounds, R):
    each entry indexes the last axis at its flat row `rows[r]`."""
    m = table.shape[-1]
    flat = (np.arange(rows.size) * m + drawn).ravel()
    counts = np.bincount(flat, minlength=rows.size * m).reshape(rows.size, m)
    table.reshape(-1, m)[rows] += counts


def estimate(counts: CountBook) -> EstimatedProblem:
    """Maximum-likelihood estimates: the tallies divided by k on the book's
    successor list, or uniform at k = 0, over all S states."""
    k = counts.iteration
    if k == 0:
        S, A = counts.n_states, joint_action_count(counts.action_counts)
        successors = np.broadcast_to(np.arange(S), (S, A, S))
        probs = np.broadcast_to(1.0 / S, (S, A, S))
        tables = [np.full(t.shape, 1.0 / c) for t, c in zip(counts.n_i_sa, counts.action_counts)]
    else:
        successors = counts.successors
        probs = counts.n_slot / k
        tables = [t / k for t in counts.n_i_sa]
    return EstimatedProblem(successors, probs, pi_hat=JointPolicy(tables), k=k)


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
    S, A = counts.n_states, joint_action_count(counts.action_counts)
    return UncertaintyTable(
        c=np.full((S, A), c[0]),
        epsilon_k=float(eps[0]),
        indicator=np.full(S, ind[0]),
        max_transition_radius=float(radius[0]),
    )


# rounds per `_schedule` call, when a history is iterated and when
# `stopping_time` searches
_SCHEDULE_CHUNK = 1 << 12


class SamplingHistory(Sequence):
    """The history rows (LOG_COLUMNS) of rounds 1, ..., len of a uniform
    sampling run, computed from `_schedule` when they are read.

    Row k - 1 is (k, epsilon_k, max C_k, max transition radius, indicator
    active states, wall time), with Python int and float values; every row
    carries the same wall time. Indexing takes one `_schedule` call (a
    slice takes one over its rounds) and iteration takes one per chunk of
    `_SCHEDULE_CHUNK` rounds, so nothing of the run's length is stored."""

    def __init__(self, rounds: int, params: ConfidenceParams, shape, wall_time_ms: float):
        self._rounds = int(rounds)
        self._params = params
        self._shape = tuple(shape)  # (n_states, action_counts, n_agents)
        self._wall_ms = float(wall_time_ms)

    def __len__(self) -> int:
        return self._rounds

    def __getitem__(self, index):
        rounds = range(1, self._rounds + 1)[index]  # IndexError out of range
        if isinstance(rounds, range):  # a slice
            return self._rows(np.arange(rounds.start, rounds.stop, rounds.step))
        return self._rows(np.array([rounds]))[0]

    def __iter__(self):
        for lo in range(1, self._rounds + 1, _SCHEDULE_CHUNK):
            yield from self._rows(np.arange(lo, min(lo + _SCHEDULE_CHUNK, self._rounds + 1)))

    def _rows(self, ks: np.ndarray) -> list:
        """The rows of rounds ks (an int array)."""
        eps, c, radius, ind = _schedule(ks.astype(np.float64), self._params, *self._shape)
        active = (self._shape[0] * ind).astype(np.int64)
        columns = (ks.tolist(), eps.tolist(), c.tolist(), radius.tolist(), active.tolist())
        return list(zip(*columns, itertools.repeat(self._wall_ms)))


@dataclass
class UniformSamplingResult:
    problem: EstimatedProblem
    uncertainty: UncertaintyTable
    tau: int
    converged: bool
    history: SamplingHistory  # rows matching LOG_COLUMNS, read on demand


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
    estimates after k_max rounds. The history holds one row per round drawn
    (a `SamplingHistory`, whose rows are computed when read); every row's
    wall_time_ms is the elapsed time at the end of that call, the batch that
    drew its round. An epsilon_target or a k_max that `stopping_time`
    refuses raises ValueError before any draw.
    """
    game = oracle.game
    shape = (game.n_states, game.action_counts, game.n_agents)
    tau = stopping_time(params, *shape, epsilon_target, k_max=k_max)
    counts = CountBook(game.n_states, game.action_counts)
    start = time.perf_counter()
    sample_round(oracle, counts, int(k_max) if tau is None else tau)
    wall_ms = (time.perf_counter() - start) * 1000.0
    history = SamplingHistory(counts.iteration, params, shape, wall_ms)
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
    """Deterministic stopping round of the uniform schedule: the first
    k <= k_max with epsilon_k <= epsilon / 2, or None if there is none.
    A non-positive epsilon or a negative or non-integer k_max raises ValueError.

    One round gives every pair one sample, so N_k(s,a) = N_k(s) = k everywhere
    and C_k is a function of k alone; the stopping round needs no simulation.
    epsilon_k is nonincreasing in k >= 1, so the rule, once met, stays met,
    and a search that tests `_SCHEDULE_CHUNK` rounds per `_schedule` call finds
    its first round in at most ceil(log(k_max + 1) / log(_SCHEDULE_CHUNK + 1))
    calls (one up to k_max = 4096, three at 10^8):

    * the radius is (rmax/(1-gamma)) sqrt(2 log(a k^2) / k) with
      a = 12 S prodA / delta > 12, and log(a k^2) / k has derivative
      (2 - log(a k^2)) / k^2 < 0 from k = 1 on, since a > e^2;
    * the indicator is 1 exactly on one run of rounds [1, N*]. A pure expert
      (pi_min = 1) has N* = 0. Otherwise the indicator is 1 where
      k <= max(1, xi(k)), with xi(k) = log(c k^2) / L, L = log(1/(1-pi_min))
      and c = 4 S prodA max(n-1, 1) / delta > 4. f(k) = k - xi(k) is convex,
      so f <= 0 on one interval. If f(1) <= 0 it contains 1. If f(1) > 0,
      then L > log c and every m >= 2 has
      f(m) > m - 1 - 2 log(m) / log(c) > m - 1 - log2(m) >= 0, so N* = 1.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise ValueError(f"k_max must be a non-negative integer, got {k_max!r}")
    k_max = int(k_max)
    # (lo, hi] holds the answer, lo = 0 or a round that misses the rule and
    # hi = k_max + 1 or one that meets it; each call tests up to
    # _SCHEDULE_CHUNK evenly spaced rounds inside and keeps the gap around the
    # first that meets it, so the last call tests every round left
    lo, hi = 0, k_max + 1
    while hi - lo > 1:
        step = -(-(hi - lo) // (_SCHEDULE_CHUNK + 1))
        ks = np.arange(lo + step, hi, step)
        eps = _schedule(ks.astype(np.float64), params, n_states, action_counts, n_agents)[0]
        hits = np.flatnonzero(eps <= epsilon / 2.0)
        first = int(hits[0]) if hits.size else ks.size  # index of the first round met
        if first:
            lo = int(ks[first - 1])
        if first < ks.size:
            hi = int(ks[first])
    return hi if hi <= k_max else None


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
    the raw threshold is 0 when delta >= n-1 or pi_min = 1. A pi_min
    outside (0, 1] raises ValueError, as in `ConfidenceParams`.
    """
    if n_agents < 2:
        raise ValueError("need at least two agents")
    if not 0.0 < delta:
        raise ValueError("delta must be positive")
    if not 0.0 < pi_min <= 1.0:
        raise ValueError("pi_min must lie in (0, 1]")
    if pi_min == 1.0:
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
    must be feasible for (game, expert). Every problem must be estimated from
    rounds of `game` (k >= 1), so that its successor list is the game's and
    |P - Phat| is taken slot by slot; otherwise ValueError is raised.
    """
    scale = params.rmax / (1.0 - params.gamma)
    params_true = decompose_reward(game, expert, reward)
    mask_true = event_mask(expert)
    v_true_abs = np.abs(params_true.v_fn)
    ks = np.array([float(problem.k) for problem in problems])
    _, _, radii, inds = _schedule(ks, params, game.n_states, game.action_counts, game.n_agents)
    flags = []
    for problem, radius, ind in zip(problems, radii, inds):
        if not np.array_equal(problem.successors, game.successors):
            raise ValueError("the estimate's successor list is not the game's")
        mask_diff = mask_true != event_mask(problem.pi_hat)
        values_hat = policy_evaluation(problem.as_game(game.gamma, game.mu), reward, problem.pi_hat)
        a_hat = np.maximum(values_hat.v[:, :, None] - values_hat.q, 0.0)

        ok1 = bool(np.all(mask_diff * params_true.a_fn <= scale * ind + 1e-12))
        ok2 = bool(np.all(mask_diff * a_hat <= scale * ind + 1e-12))

        dp_abs = np.abs(game.successor_probs - problem.successor_probs)  # (S, A, w)
        lhs_true = _gather(game.successors, dp_abs, v_true_abs)
        lhs_hat = _gather(game.successors, dp_abs, np.abs(values_hat.v))
        ok3 = bool(np.all(lhs_true <= radius + 1e-12))
        ok4 = bool(np.all(lhs_hat <= radius + 1e-12))
        flags.append((ok1, ok2, ok3, ok4))
    return flags
