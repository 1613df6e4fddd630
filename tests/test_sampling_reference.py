"""Bit-equality of the sampling layer against reference draws and loops.

`reference_round_samples` draws one round k with numpy's own generator:
`Generator(Philox(key=SeedSequence(seed).generate_state(2, np.uint64),
counter=(k - 1) B))`, B = ceil(S (A + n) / 4) blocks per round, read state
by state, A uniforms through the dense normalised CDF (`_inverse_cdf`) for
next states, then one `rng.choice` per agent for expert actions.
`reference_uniform_sampling` is the former per-round loop that re-ran
`estimate` and `uncertainty` after every round to find tau.
`reference_split` is the former oracle construction, a jump table
(`_jump_table`: the positions where a row's normalised CDF rises and its
values there) of every row split into fixed rows (one rise) and random rows,
and `_jump_draw` is the former draw on it. They are kept here as test
oracles for the CDF draw, the oracle's row split, `sample_round` and
`uniform_sampling`. Draws reach callers only as `sample_round`'s tallies,
so `pipeline_round_samples` reads round k's draws back off the tallies of
one `sample_round` call, and batched calls are checked by their tallies
against the reference draws' (`_reference_tallies`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl.estimation import (
    ConfidenceParams,
    CountBook,
    GenerativeOracle,
    _cdf,
    _draw,
    _split,
    estimate,
    sample_round,
    uncertainty,
    uniform_sampling,
)
from mairl.games import JointPolicy, MarkovGame, _pack_positive
from mairl.gridworld import GridGameSpec
from mairl.synthetic import random_markov_game

from conftest import grid_setup, make_instance


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of CDF entries <= u on the last axis (`searchsorted(side="right")`);
    a normalised CDF ends at 1 > u, so the last positive-mass outcome caps it."""
    return (u[..., None] >= cdf).sum(axis=-1)


def reference_round_samples(oracle: GenerativeOracle, k: int):
    game = oracle.game
    S, A = game.n_states, game.n_joint_actions
    key = np.random.SeedSequence(oracle.seed).generate_state(2, np.uint64)
    blocks = -(-S * (A + game.n_agents) // 4)
    rng = np.random.Generator(np.random.Philox(key=key, counter=(k - 1) * blocks))
    next_states = np.empty((S, A), dtype=np.intp)
    expert_actions = np.empty((S, game.n_agents), dtype=np.intp)
    for s in range(S):
        next_states[s] = _inverse_cdf(_cdf(game.transitions[s]), rng.random(A))
        for i in range(game.n_agents):
            expert_actions[s, i] = rng.choice(
                game.action_counts[i], p=oracle.expert.per_agent[i][s]
            )
    return next_states, expert_actions


def pipeline_round_samples(oracle: GenerativeOracle, k: int):
    """Round k's next states (S, A) and expert actions (S, n) as
    `sample_round` draws them: one round on a fresh book set to iteration
    k - 1, so that the call draws round k. A round adds one count to one
    slot of every (s, a) row and to one action per agent per state, so each
    row's one count is its draw."""
    game = oracle.game
    counts = CountBook(game.n_states, game.action_counts)
    counts.iteration = k - 1
    sample_round(oracle, counts)
    for table in (counts.n_slot, *counts.n_i_sa):
        assert np.all(table.sum(axis=-1) == 1)
    slots = counts.n_slot.argmax(axis=-1)[..., None]
    next_states = np.take_along_axis(counts.successors, slots, axis=-1)[..., 0]
    return next_states, np.stack([t.argmax(axis=-1) for t in counts.n_i_sa], axis=-1)


def _jump_table(p: np.ndarray):
    """Inverse-CDF table of each row of p (..., n): the positions where the
    normalised CDF (`_cdf`) rises and its values there, padded with +inf to
    the widest row's count w. Returns (positions, values), each (..., w)."""
    cdf = _cdf(p)
    rises = cdf > np.concatenate([np.zeros(cdf.shape[:-1] + (1,)), cdf[..., :-1]], axis=-1)
    positions, values = _pack_positive(np.where(rises, cdf, 0.0))
    values[values == 0.0] = np.inf  # a rise is above 0, so only padding is 0
    return positions, values


def _jump_draw(table, u: np.ndarray) -> np.ndarray:
    """Draws for uniforms u (..., *rows) on jump tables (*rows, w): the
    position of the first rise whose CDF value exceeds u."""
    positions, values = table
    rises = (u[..., None] >= values).sum(axis=-1)
    return positions[(*np.indices(positions.shape[:-1], sparse=True), rises)]


def reference_split(p: np.ndarray, columns: np.ndarray):
    """The jump table of every row of p (*rows, n), split into fixed rows (one
    rise) and random rows: ((rows, outcomes), (rows, columns, table))."""
    positions, values = (a.reshape(-1, a.shape[-1]) for a in _jump_table(p))
    fixed = np.isfinite(values).sum(axis=-1) == 1
    rows, outcomes = np.flatnonzero(fixed), positions[fixed, 0]
    random = np.flatnonzero(~fixed)
    return (rows, outcomes), (random, columns.ravel()[random], (positions[random], values[random]))


def _assert_matches_reference_split(split, ref, p):
    """A `_split` result has the fixed rows, outcomes, random rows and
    columns of the reference split `ref` of p, and keeps the normalised CDF
    (`_cdf`) of its random rows as their table."""
    (fixed, (rows, columns, cdf)), (ref_fixed, (ref_rows, ref_columns, _)) = split, ref
    _assert_same_arrays((fixed, (rows, columns)), (ref_fixed, (ref_rows, ref_columns)))
    _assert_same_arrays(cdf, _cdf(p.reshape(-1, p.shape[-1])[rows]))


def _assert_oracle_matches_reference_split(oracle: GenerativeOracle):
    """`_assert_matches_reference_split` on each of the oracle's tables."""
    game = oracle.game
    S, A, n = game.n_states, game.n_joint_actions, game.n_agents
    columns = np.arange(S * (A + n)).reshape(S, A + n)
    tables = [game.successor_probs, *oracle.expert.per_agent]
    row_columns = [columns[:, :A], *(columns[:, A + i] for i in range(n))]
    splits = zip(oracle._fixed, oracle._random)
    for split, p, c in zip(splits, tables, row_columns):
        _assert_matches_reference_split(split, reference_split(p, c), p)


def _assert_same_arrays(mine, ref):
    """Nested tuples/lists of arrays equal in type, dtype, shape and values."""
    if isinstance(ref, np.ndarray):
        assert isinstance(mine, np.ndarray)
        assert (mine.dtype, mine.shape) == (ref.dtype, ref.shape)
        assert np.array_equal(mine, ref)
    else:
        assert type(mine) is type(ref) and len(mine) == len(ref)
        for a, b in zip(mine, ref):
            _assert_same_arrays(a, b)


def reference_uniform_sampling(oracle, params, epsilon_target, k_max):
    game = oracle.game
    counts = CountBook(game.n_states, game.action_counts)
    history = []
    problem = estimate(counts)
    unc = uncertainty(counts, params)
    converged = False
    for k in range(1, int(k_max) + 1):
        sample_round(oracle, counts)
        problem = estimate(counts)
        unc = uncertainty(counts, params)
        history.append(
            (
                k,
                unc.epsilon_k,
                float(unc.c.max()),
                unc.max_transition_radius,
                int(unc.indicator.sum()),
            )
        )
        if unc.epsilon_k <= epsilon_target / 2.0:
            converged = True
            break
    return problem, unc, counts.iteration, converged, history


def _grid_oracles():
    """The NashQ experts of the 3x3 and 4x3 boards, and a mixed expert on the
    3x3 board with stochastic up-moves."""
    boards = [grid_setup(GridGameSpec(width=w, height=h)) for w, h in ((3, 3), (4, 3))]
    oracles = [GenerativeOracle(board.game, board.expert, seed=3) for board in boards]
    game = grid_setup(GridGameSpec(variant="stochastic-up")).game
    rng = np.random.default_rng(5)
    mixed = JointPolicy([rng.dirichlet(np.ones(c), game.n_states) for c in game.action_counts])
    oracles.append(GenerativeOracle(game, mixed, seed=4))
    return oracles


def _random_oracles(count=24):
    oracles = []
    for seed in range(count):
        rng = np.random.default_rng(100 + seed)
        n_states = int(rng.integers(2, 7))
        action_counts = tuple(int(c) for c in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        game, policy = make_instance(seed, n_states, action_counts, gamma=0.7)
        oracles.append(GenerativeOracle(game, policy, seed=seed))
    return oracles


@pytest.mark.parametrize("k", [1, 2, 50])
def test_round_samples_match_reference_on_grids_and_random_games(k):
    for oracle in _grid_oracles() + _random_oracles():
        next_states, expert_actions = pipeline_round_samples(oracle, k)
        ref_states, ref_actions = reference_round_samples(oracle, k)
        assert next_states.dtype == ref_states.dtype and expert_actions.dtype == ref_actions.dtype
        assert np.array_equal(next_states, ref_states)
        assert np.array_equal(expert_actions, ref_actions)


def test_nashq_grid_draws_do_not_depend_on_the_seed():
    # every row of the deterministic grids and their pure NashQ experts has
    # one outcome, so no draw reads its uniform and the grid results stay
    # the same under any change of stream layout
    for width, height in ((3, 3), (4, 3), (4, 4)):
        board = grid_setup(GridGameSpec(width=width, height=height))
        oracles = [GenerativeOracle(board.game, board.expert, seed=seed) for seed in (0, 1)]
        for k in range(1, 6):
            draws = [pipeline_round_samples(oracle, k) for oracle in oracles]
            assert np.array_equal(draws[0][0], draws[1][0])
            assert np.array_equal(draws[0][1], draws[1][1])


def test_inverse_cdf_caps_a_short_row_at_its_last_positive_mass_state():
    # the row sums to 1 - 4e-13, inside the probability tolerance; an
    # unnormalised CDF sends u >= 1 - 4e-13 to argmax(all False) = state 0
    row = np.array([0.5, 0.5 - 4e-13, 0.0])
    u = np.array([1.0 - 1e-13, 0.25, 0.75, 0.0])
    assert _inverse_cdf(_cdf(row), u).tolist() == [1, 0, 1, 0]
    cum = np.cumsum(row)
    assert int(np.argmax(u[0] < cum)) == 0  # the former rule's draw
    # vectorised over leading axes: one row per state
    table = np.stack([row, np.array([0.0, 0.0, 1.0])])
    assert _inverse_cdf(_cdf(table), np.array([1.0 - 1e-13, 0.3])).tolist() == [1, 2]


def test_out_of_range_seed_and_round_index_raise():
    game, policy = make_instance(0)
    for seed in (-1, 0.7, 2.0):  # at construction, not at the first draw
        with pytest.raises(ValueError, match="seed"):
            GenerativeOracle(game, policy, seed=seed)
    oracle = GenerativeOracle(game, policy, seed=0)
    # rounds are not bounded above: round k starts at counter (k - 1) B
    next_states, _ = pipeline_round_samples(oracle, 2**40 + 1)
    assert next_states.shape == (game.n_states, game.n_joint_actions)
    assert np.array_equal(next_states, reference_round_samples(oracle, 2**40 + 1)[0])
    counts = CountBook(game.n_states, game.action_counts)
    counts.iteration = 2**40 - 1
    _assert_reference_tallies(sample_round(oracle, counts, 2), oracle, 2**40, 2)


_MASS = st.one_of(st.just(0.0), st.just(1e-17), st.floats(min_value=1e-300, max_value=1.0))


@st.composite
def _probability_tables(draw):
    """Rows of one width with exact zeros, tiny masses and a zero-mass tail."""
    n = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(_MASS, min_size=n, max_size=n).filter(lambda r: sum(r) > 0)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    tail = draw(st.integers(min_value=0, max_value=3))
    return np.hstack([np.array(rows), np.zeros((len(rows), tail))])


@settings(max_examples=200, deadline=None)
@given(table=_probability_tables(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_jump_table_draw_matches_dense_cdf_draw(table, seed):
    cdf = _cdf(table)
    # random uniforms plus every CDF value below 1, where ties decide the draw
    u = np.random.default_rng(seed).random((7, table.shape[0]))
    ties = np.where(cdf < 1.0, cdf, 0.0).T
    u = np.vstack([u, ties, np.nextafter(ties, 0.0)])
    draws = _draw(cdf, u)
    assert draws.dtype == np.intp
    assert np.array_equal(draws, _inverse_cdf(cdf, u))
    assert np.array_equal(draws, _jump_draw(_jump_table(table), u))


def test_jump_table_caps_a_short_row_at_its_last_positive_mass_state():
    # the row of the dense-CDF test above, summing to 1 - 4e-13
    table = np.stack([np.array([0.5, 0.5 - 4e-13, 0.0]), np.array([0.0, 0.0, 1.0])])
    positions, values = _jump_table(table)
    assert positions.tolist() == [[0, 1], [2, 0]]
    assert values[1, 1] == np.inf
    u = np.array([[1.0 - 1e-13, 0.3], [0.25, 0.0], [0.75, 1.0 - 1e-13]])
    assert _jump_draw((positions, values), u).tolist() == [[1, 2], [0, 2], [1, 2]]
    assert _draw(_cdf(table), u).tolist() == [[1, 2], [0, 2], [1, 2]]
    assert np.array_equal(_jump_draw((positions, values), u), _inverse_cdf(_cdf(table), u))


def test_batched_sample_round_matches_single_rounds_across_chunks():
    game, policy = make_instance(3, n_states=4, action_counts=(2, 3))
    batched, single = GenerativeOracle(game, policy, seed=11), GenerativeOracle(game, policy, seed=11)
    batched._chunk_rounds = 3  # after 2 rounds, rounds 3..12 span chunks of 3, 3, 3, 1
    counts, ref = CountBook(4, (2, 3)), CountBook(4, (2, 3))
    sample_round(batched, counts, 2)
    sample_round(batched, counts, 10)
    for _ in range(12):
        sample_round(single, ref)
    assert counts.iteration == ref.iteration == 12
    assert np.array_equal(counts.n_slot, ref.n_slot)
    for mine, theirs in zip(counts.n_i_sa, ref.n_i_sa):
        assert np.array_equal(mine, theirs)
    # the slot tallies, spread over next states, are the reference draws' tallies
    S, A = game.n_states, game.n_joint_actions
    dense = np.zeros((S, A, S), dtype=np.int64)
    for k in range(1, 13):
        np.add.at(dense, (*np.indices((S, A)), reference_round_samples(single, k)[0]), 1)
    assert np.array_equal(estimate(counts).p_hat, dense / 12)
    # the 10-round call alone tallies the reference draws of rounds 3..12
    later = CountBook(4, (2, 3))
    later.iteration = 2
    _assert_reference_tallies(sample_round(batched, later, 10), single, 3, 10)


def _mixed_oracles():
    """Oracles whose tables mix fixed rows (one outcome) and random rows: the
    3x3 board with stochastic up-moves and its pure NashQ expert, and a
    random game with some (s, a) rows forced to one successor and an expert
    that is pure on some states and mixed on the others."""
    board = grid_setup(GridGameSpec(variant="stochastic-up"))
    oracles = [GenerativeOracle(board.game, board.expert, seed=6)]
    rng = np.random.default_rng(9)
    n_states, action_counts = 6, (2, 3)
    dense = random_markov_game(rng, n_states, action_counts, 0.8)
    transitions = dense.transitions.copy()
    forced = rng.random(transitions.shape[:2]) < 0.5
    transitions[forced] = np.eye(n_states)[rng.integers(n_states, size=int(forced.sum()))]
    game = MarkovGame(transitions, 0.8, dense.mu, action_counts)
    tables = []
    for c in action_counts:
        table = rng.dirichlet(np.ones(c), n_states)
        pure = np.arange(n_states) % 2 == 0
        table[pure] = np.eye(c)[rng.integers(c, size=int(pure.sum()))]
        tables.append(table)
    oracles.append(GenerativeOracle(game, JointPolicy(tables), seed=8))
    return oracles


def _reference_tallies(oracle, first, rounds):
    """Dense next-state counts (S, A, S) and per-agent expert-action counts
    of the reference draws of rounds first, ..., first + rounds - 1."""
    game = oracle.game
    S, A = game.n_states, game.n_joint_actions
    dense = np.zeros((S, A, S), dtype=np.int64)
    actions = [np.zeros((S, c), dtype=np.int64) for c in game.action_counts]
    for k in range(first, first + rounds):
        next_states, expert_actions = reference_round_samples(oracle, k)
        np.add.at(dense, (*np.indices((S, A)), next_states), 1)
        for i, table in enumerate(actions):
            np.add.at(table, (np.arange(S), expert_actions[:, i]), 1)
    return dense, actions


def _spread(counts):
    """The slot tallies of a book as dense next-state counts (S, A, S)."""
    S, A, _ = counts.successors.shape
    dense = np.zeros((S, A, S), dtype=np.int64)
    np.add.at(dense, (*np.indices(counts.successors.shape)[:2], counts.successors), counts.n_slot)
    return dense


def _assert_reference_tallies(counts, oracle, first, rounds):
    """The book's tallies are those of the reference draws of rounds
    first, ..., first + rounds - 1."""
    dense, actions = _reference_tallies(oracle, first, rounds)
    assert np.array_equal(_spread(counts), dense)
    for mine, theirs in zip(counts.n_i_sa, actions):
        assert np.array_equal(mine, theirs)


def test_oracle_split_matches_the_jump_table_split_of_every_row():
    boards = [grid_setup(GridGameSpec(width=w, height=h)) for w, h in ((3, 3), (4, 3), (4, 4))]
    oracles = [GenerativeOracle(board.game, board.expert, seed=0) for board in boards]
    oracles += _mixed_oracles() + _grid_oracles() + _random_oracles()
    for oracle in oracles:
        _assert_oracle_matches_reference_split(oracle)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_states=st.integers(min_value=1, max_value=6),
    action_counts=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3),
)
def test_oracle_split_matches_the_jump_table_split_on_random_games(seed, n_states, action_counts):
    game, policy = make_instance(seed, n_states, tuple(action_counts), gamma=0.7)
    _assert_oracle_matches_reference_split(GenerativeOracle(game, policy, seed=seed))


@settings(max_examples=200, deadline=None)
@given(table=_probability_tables())
def test_split_matches_the_jump_table_split_on_tiny_masses(table):
    columns = np.arange(table.shape[0]) * 3
    _assert_matches_reference_split(_split(table, columns), reference_split(table, columns), table)


def test_split_keeps_a_row_fixed_when_its_second_mass_cannot_move_the_cdf():
    # 1 + 1e-17 == 1: the first row's CDF rises once though it has two
    # positive entries; the third row's tiny first entry is a rise of its own
    table = np.array([[1.0, 1e-17, 0.0], [0.0, 1.0, 0.0], [1e-17, 1.0, 0.0], [0.5, 0.0, 0.5]])
    columns = np.array([7, 8, 9, 10])
    (rows, outcomes), (random, random_columns, _) = _split(table, columns)
    assert rows.tolist() == [0, 1] and outcomes.tolist() == [0, 1]
    assert random.tolist() == [2, 3] and random_columns.tolist() == [9, 10]
    _assert_matches_reference_split(_split(table, columns), reference_split(table, columns), table)
    # a table of fixed rows only keeps the empty CDF of its width
    (rows, _), random_part = _split(table[:2], columns[:2])
    assert rows.tolist() == [0, 1] and random_part[2].shape == (0, 3)
    fixed_only = _split(table[:2], columns[:2])
    _assert_matches_reference_split(fixed_only, reference_split(table[:2], columns[:2]), table[:2])


def test_mixed_oracles_have_fixed_and_random_rows():
    up, forced = _mixed_oracles()
    # stochastic up-moves make some transition rows random; the pure expert
    # makes every action row fixed
    assert up._fixed[0][0].size and up._random[0][0].size
    assert all(rows.size == 0 for rows, _, _ in up._random[1:])
    for (fixed, _), (random, _, _) in zip(forced._fixed, forced._random):
        assert fixed.size and random.size


@pytest.mark.parametrize("rounds", [0, 1, 37])
def test_mixed_oracles_match_reference_across_chunks(rounds):
    for oracle in _mixed_oracles():
        oracle._chunk_rounds = 4  # rounds 3, ... span chunks of 4 and a remainder
        for k in range(3, 3 + rounds):
            next_states, expert_actions = pipeline_round_samples(oracle, k)
            ref_states, ref_actions = reference_round_samples(oracle, k)
            assert np.array_equal(next_states, ref_states)
            assert np.array_equal(expert_actions, ref_actions)
        game = oracle.game
        counts = CountBook(game.n_states, game.action_counts)
        sample_round(oracle, counts, 2)
        sample_round(oracle, counts, rounds)
        assert counts.iteration == 2 + rounds
        _assert_reference_tallies(counts, oracle, 1, 2 + rounds)


def test_mixed_oracles_uniform_sampling_matches_per_round_reference():
    params = ConfidenceParams(delta=0.1, pi_min=0.2, rmax=1.0, gamma=0.9)
    for oracle in _mixed_oracles():
        oracle._chunk_rounds = 7
        run = uniform_sampling(oracle, params, 1.0, 30)
        ref_problem, ref_unc, ref_tau, ref_converged, ref_history = reference_uniform_sampling(
            oracle, params, 1.0, 30
        )
        assert (run.tau, run.converged) == (ref_tau, ref_converged) == (30, False)
        assert [row[:-1] for row in run.history] == ref_history
        assert run.problem.p_hat.tobytes() == ref_problem.p_hat.tobytes()
        dense, actions = _reference_tallies(oracle, 1, 30)
        assert np.array_equal(run.problem.p_hat, dense / 30)
        per_agent = zip(run.problem.pi_hat.per_agent, ref_problem.pi_hat.per_agent, actions)
        for mine, ref, tally in per_agent:
            assert mine.tobytes() == ref.tobytes() == (tally / 30).tobytes()
        assert run.uncertainty.c.tobytes() == ref_unc.c.tobytes()


class _CountingGenerator:
    """Stands in for `np.random.Generator`, counting `random` calls."""

    calls = 0
    _inner_type = np.random.Generator

    def __init__(self, bits):
        self._inner = self._inner_type(bits)

    def random(self, *args, **kwargs):
        type(self).calls += 1
        return self._inner.random(*args, **kwargs)


def test_all_fixed_oracle_builds_no_seed_sequence(monkeypatch):
    board = grid_setup()
    game, expert = board.game, board.expert
    built = []
    seed_sequence = np.random.SeedSequence

    def counting_seed_sequence(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    # the counter sees a mixed oracle's key
    mixed = _mixed_oracles()[1]
    assert mixed._has_random and built
    built.clear()
    oracle = GenerativeOracle(game, expert, seed=2)
    assert not oracle._has_random
    sample_round(oracle, CountBook(game.n_states, game.action_counts), 1000)
    params = ConfidenceParams(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    assert uniform_sampling(oracle, params, 100.0, 500).converged
    # a negative seed raises at construction, though no key would be built
    with pytest.raises(ValueError, match="seed"):
        GenerativeOracle(game, expert, seed=-1)
    assert built == []


def test_all_fixed_oracle_draws_no_uniform(monkeypatch):
    board = grid_setup()
    oracle = GenerativeOracle(board.game, board.expert, seed=2)
    assert not oracle._has_random
    want_states, want_actions = reference_round_samples(oracle, 5)
    monkeypatch.setattr(_CountingGenerator, "calls", 0)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    # the counter sees a mixed oracle's draws
    mixed = _mixed_oracles()[1]
    sample_round(mixed, CountBook(mixed.game.n_states, mixed.game.action_counts), 3)
    assert _CountingGenerator.calls > 0
    monkeypatch.setattr(_CountingGenerator, "calls", 0)
    game, k = oracle.game, 100_000
    counts = sample_round(oracle, CountBook(game.n_states, game.action_counts), k)
    draws = [pipeline_round_samples(oracle, r) for r in (5, 6, 7)]
    assert _CountingGenerator.calls == 0
    for next_states, expert_actions in draws:
        assert np.array_equal(next_states, want_states)
        assert np.array_equal(expert_actions, want_actions)
    # each fixed slot holds all k draws of its row, every other slot none
    rows, outcomes = oracle._fixed[0]
    assert rows.size == game.n_states * game.n_joint_actions
    slots = counts.n_slot.reshape(rows.size, -1)
    assert np.all(slots[rows, outcomes] == k) and slots.sum() == k * rows.size
    for table, (rows, outcomes) in zip(counts.n_i_sa, oracle._fixed[1:]):
        assert rows.size == game.n_states
        assert np.all(table[rows, outcomes] == k) and table.sum() == k * rows.size


def _toy_problem():
    rng = np.random.default_rng(42)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    expert = JointPolicy([np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.4, 0.6]])])
    params = ConfidenceParams(delta=0.1, pi_min=0.4, rmax=2.0, gamma=0.5)
    return GenerativeOracle(game, expert, seed=7), params


def _det_problem():
    P = np.zeros((2, 4, 2))
    P[:, :, 1] = 1.0
    game = MarkovGame(P, 0.1, [1.0, 0.0], (2, 2))
    expert = JointPolicy([np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[1.0, 0.0], [0.5, 0.5]])])
    params = ConfidenceParams(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    return GenerativeOracle(game, expert, seed=4), params


@pytest.mark.parametrize(
    "problem, epsilon, k_max, converged",
    [
        (_det_problem, np.inf, 10, True),  # immediate stop at k = 1
        (_toy_problem, 2.0, 20_000, True),  # converged run, indicator active early
        (_det_problem, 1e-3, 40, False),  # budget exhaustion
        (_toy_problem, 0.5, 0, False),  # no budget at all
    ],
)
def test_uniform_sampling_matches_per_round_reference(problem, epsilon, k_max, converged):
    oracle, params = problem()
    run = uniform_sampling(oracle, params, epsilon, k_max)
    ref_problem, ref_unc, ref_tau, ref_converged, ref_history = reference_uniform_sampling(
        oracle, params, epsilon, k_max
    )
    assert (run.tau, run.converged) == (ref_tau, ref_converged)
    assert run.converged == converged
    assert [row[:-1] for row in run.history] == ref_history
    for row, ref in zip(run.history, ref_history):
        assert [type(v) for v in row[:-1]] == [type(v) for v in ref]
    assert run.problem.p_hat.tobytes() == ref_problem.p_hat.tobytes()
    for mine, ref in zip(run.problem.pi_hat.per_agent, ref_problem.pi_hat.per_agent):
        assert mine.tobytes() == ref.tobytes()
    assert run.problem.k == ref_problem.k == ref_tau
    assert run.uncertainty.c.tobytes() == ref_unc.c.tobytes()
    assert run.uncertainty.indicator.tobytes() == ref_unc.indicator.tobytes()
    assert run.uncertainty.epsilon_k == ref_unc.epsilon_k
    assert run.uncertainty.max_transition_radius == ref_unc.max_transition_radius
