"""Bit-equality of NashQ's batched stage-game pass against a per-state loop.

`reference_solve_stage_games` settles one state at a time: it keeps a cached
pure profile while neither player gains by a pure deviation, else keeps
cached mixed supports while their indifference system still gives an
equilibrium, else calls `bimatrix_nash`. It is kept here as a test oracle;
NashQ run with it patched in must return exactly what NashQ returns with the
batched passes (the cached pure-support check, then the first pure
equilibrium of every state left without a valid cache).
"""

import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl import equilibrium
from mairl.experiment import ExperimentConfig, seed_curve
from mairl.games import JointReward, MarkovGame
from mairl.gridworld import VARIANTS, GridGameSpec
from mairl.synthetic import matching_pennies, random_markov_game, random_reward

from conftest import grid_setup

BOARDS = {
    "3x3": GridGameSpec(),
    "4x3": GridGameSpec(width=4, height=3),
}


def coded(supports, a2):
    """Per-state supports (None for no cache) as NashQ's stage cache: the
    `_select_pure` codes and the mixed supports by state."""
    cache = np.array(
        [-1 if c is None else -2 if len(c[0]) > 1 else c[0][0] * a2 + c[1][0] for c in supports],
        dtype=np.int64,
    )
    return cache, {s: c for s, c in enumerate(supports) if c is not None and len(c[0]) > 1}


def decoded(cache, mixed, a2):
    """The per-state supports of a stage cache, as `coded` takes them."""
    return [
        None if code == -1 else mixed[s] if code == -2 else ((code // a2,), (code % a2,))
        for s, code in enumerate(cache.tolist())
    ]


def reference_solve_stage_games(game, q, cache, mixed):
    a1, a2 = game.action_counts
    S = game.n_states
    support_cache = decoded(cache, mixed, a2)
    pol1 = np.zeros((S, a1))
    pol2 = np.zeros((S, a2))
    values = np.zeros((2, S))
    for s in range(S):
        a, b = q[:, s].reshape(2, a1, a2)
        rows, cols = support_cache[s] or ((), ())
        eq = None
        if len(rows) == 1:
            i, j = rows[0], cols[0]
            # neither player gains more than 1e-9 by a pure deviation
            if a[:, j].max() <= a[i, j] + 1e-9 and b[i, :].max() <= b[i, j] + 1e-9:
                eq = equilibrium._profile(a, b, np.eye(a1)[i], np.eye(a2)[j], rows, cols)
        elif rows:
            eq = equilibrium._try_support(a, b, rows, cols)
        if eq is None:
            eq = equilibrium.bimatrix_nash(a, b)
        support_cache[s] = eq.supports
        pol1[s] = eq.row_strategy
        pol2[s] = eq.col_strategy
        values[0, s], values[1, s] = eq.payoffs
    cache[:], coded_mixed = coded(support_cache, a2)
    mixed.clear()
    mixed.update(coded_mixed)
    return pol1, pol2, values


def reference_nash_value_iteration(game, reward, **kwargs):
    with mock.patch.object(equilibrium, "_solve_stage_games", reference_solve_stage_games):
        return equilibrium.nash_value_iteration(game, reward, **kwargs)


def assert_same_result(got, want):
    for mine, theirs in zip(got.policy.per_agent, want.policy.per_agent):
        assert mine.tobytes() == theirs.tobytes()
    assert got.q.tobytes() == want.q.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.stage_supports == want.stage_supports


class CallLog:
    """Wraps `equilibrium.bimatrix_nash`, counting its calls."""

    def __init__(self):
        self.calls = 0
        self._inner = equilibrium.bimatrix_nash

    def __call__(self, *args):
        self.calls += 1
        return self._inner(*args)


def logged_calls(monkeypatch):
    log = CallLog()
    monkeypatch.setattr(equilibrium, "bimatrix_nash", log)
    return log


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("board", sorted(BOARDS))
def test_grid_experts_match_reference(board, variant):
    _, game, reward = grid_setup(BOARDS[board], (variant,)).variants[0]
    want = reference_nash_value_iteration(game, reward)
    assert_same_result(equilibrium.nash_value_iteration(game, reward), want)


@pytest.mark.parametrize("variant", ["deterministic", "obstacle-one"])
def test_recovered_reward_transfer_matches_reference(variant):
    """Criterion 8's transfer for seed 0 at k = 1: along the way cached pure
    supports fail (about 70 misses per run) and a few states pass through a
    mixed support."""
    config = ExperimentConfig(
        seeds=(0,), epsilon=1.0, delta=0.1, pi_min=1.0, k_max=1, eval_points=(1,),
        variants=("deterministic", "obstacle-one"), gamma=0.9, rmax=1.0,
        mode="distance-to-random", reward_class="state",
    )
    spec = config.grid_spec()
    recovered, _ = next(seed_curve(grid_setup(spec), config, 0))
    _, alt_game, _ = grid_setup(spec, (variant,)).variants[0]
    want = reference_nash_value_iteration(alt_game, recovered.reward)
    assert_same_result(equilibrium.nash_value_iteration(alt_game, recovered.reward), want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_states=st.integers(min_value=1, max_value=4),
    a1=st.integers(min_value=2, max_value=4),
    a2=st.integers(min_value=2, max_value=4),
)
def test_random_games_match_reference(seed, n_states, a1, a2):
    rng = np.random.default_rng(seed)
    game = random_markov_game(rng, n_states, (a1, a2), float(rng.uniform(0.3, 0.95)))
    reward = random_reward(rng, game)
    with warnings.catch_warnings():
        # general-sum iteration may cycle; both runs must then stop alike
        warnings.simplefilter("ignore", RuntimeWarning)
        want = reference_nash_value_iteration(game, reward, max_iters=300)
        got = equilibrium.nash_value_iteration(game, reward, max_iters=300)
    assert_same_result(got, want)


@st.composite
def _stage_stacks(draw):
    """Stacks of stage games with payoffs in {0, 1, 2}, so that ties are
    dense, and a cache per state: none, any pure support or any mixed one."""
    n_states = draw(st.integers(min_value=1, max_value=4))
    a1 = draw(st.integers(min_value=1, max_value=4))
    a2 = draw(st.integers(min_value=1, max_value=4))
    size = 2 * n_states * a1 * a2
    payoffs = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=size, max_size=size))
    q = np.array(payoffs, dtype=np.float64).reshape(2, n_states, a1 * a2)
    supports = [None] + [
        (rows, cols)
        for k in range(1, min(a1, a2) + 1)
        for rows in itertools.combinations(range(a1), k)
        for cols in itertools.combinations(range(a2), k)
    ]
    cache = draw(st.lists(st.sampled_from(supports), min_size=n_states, max_size=n_states))
    return q, (a1, a2), cache


@settings(max_examples=300, deadline=None)
@given(stack=_stage_stacks())
def test_stage_pass_matches_reference_on_tied_integer_games(stack):
    q, action_counts, cache = stack
    game = random_markov_game(np.random.default_rng(0), q.shape[1], action_counts, 0.9)
    a2 = action_counts[1]
    want_cache, got_cache = coded(cache, a2), coded(cache, a2)
    try:
        want = reference_solve_stage_games(game, q, *want_cache)
    except RuntimeError:
        # a degenerate game may have no equilibrium with equal-size supports;
        # the batched pass must then fail the same way
        with pytest.raises(RuntimeError):
            equilibrium._solve_stage_games(game, q, *got_cache)
        return
    got = equilibrium._solve_stage_games(game, q, *got_cache)
    assert decoded(*got_cache, a2) == decoded(*want_cache, a2)
    assert got_cache[1] == want_cache[1]  # no supports kept for a state gone pure
    for mine, theirs in zip(got, want):
        assert mine.tobytes() == theirs.tobytes()


def _chain_game():
    """Three states, 2x2 actions, gamma 0.9, starting in state 0. There the
    joint action (0, 0) pays 0.5 to both and ends in the absorbing state 2,
    which pays nothing; every other joint action pays nothing and moves to the
    absorbing state 1, which pays 0.2 per step. Action (0, 0) is the stage
    equilibrium of state 0 until the continuation value of state 1 grows past
    0.5, a few backups in."""
    transitions = np.zeros((3, 4, 3))
    transitions[0, :, 1] = 1.0
    transitions[0, 0] = [0.0, 0.0, 1.0]
    transitions[1, :, 1] = 1.0
    transitions[2, :, 2] = 1.0
    tables = np.zeros((2, 3, 4))
    tables[:, 0, 0] = 0.5
    tables[:, 1, :] = 0.2
    game = MarkovGame(transitions, 0.9, np.array([1.0, 0.0, 0.0]), (2, 2))
    return game, JointReward(tables, rmax=[1.0, 1.0])


def test_cached_pure_support_that_stops_being_an_equilibrium(monkeypatch):
    game, reward = _chain_game()
    want = reference_nash_value_iteration(game, reward)
    log = logged_calls(monkeypatch)
    with pytest.warns(RuntimeWarning):
        early = equilibrium.nash_value_iteration(game, reward, max_iters=3)
    # first backup: from Q = 0 every state takes its first pure equilibrium,
    # ((0,), (0,)), in the pass; the supports then hold for the next backups
    assert log.calls == 0
    assert early.stage_supports[0] == ((0,), (0,))
    got = equilibrium.nash_value_iteration(game, reward)
    assert_same_result(got, want)
    # later, state 0's cached (0, 0) stops being an equilibrium; the pass
    # moves it to the next pure equilibrium in enumeration order, (0, 1),
    # the one bimatrix_nash picks
    assert log.calls == 0
    assert got.converged and got.stage_supports[0] == ((0,), (1,))


def test_batched_pass_settles_only_valid_pure_caches(monkeypatch):
    game, _ = _chain_game()
    q = np.zeros((2, 3, 4))
    q[:, 0] = [0.0, 0.0, 1.0, 1.0]  # in state 0 both players gain by leaving (0, 0)
    cache = coded([((0,), (0,))] * 3, 2)
    want_cache = coded([((0,), (0,))] * 3, 2)
    want = reference_solve_stage_games(game, q, *want_cache)
    log = logged_calls(monkeypatch)
    got = equilibrium._solve_stage_games(game, q, *cache)
    # state 0's cache fails and the pass takes its first pure equilibrium,
    # (1, 0); the others keep their caches, and no state calls the solver
    assert log.calls == 0
    assert (
        decoded(*cache, 2)
        == decoded(*want_cache, 2)
        == [((1,), (0,)), ((0,), (0,)), ((0,), (0,))]
    )
    for mine, theirs in zip(got, want):
        assert mine.tobytes() == theirs.tobytes()


def test_mixed_stage_equilibria_take_the_per_state_path(monkeypatch):
    game, reward = matching_pennies(0.9)
    want = reference_nash_value_iteration(game, reward)
    log = logged_calls(monkeypatch)
    tried = []
    try_support = equilibrium._try_support
    monkeypatch.setattr(
        equilibrium, "_try_support", lambda *args: tried.append(args[2:]) or try_support(*args)
    )
    got = equilibrium.nash_value_iteration(game, reward)
    assert_same_result(got, want)
    assert got.stage_supports == [((0, 1), (0, 1))]
    assert np.allclose(got.policy.per_agent[0], 0.5)
    # the first backup settles Q = 0 at the pure ((0,), (0,)) in the pass; on
    # the second that cache fails and the game has no pure equilibrium, so
    # bimatrix_nash enumerates, once; every later stage pass, the returned
    # profile's included, keeps the mixed cache
    assert log.calls == 1
    assert tried == [((0, 1), (0, 1))] * got.iterations


def test_all_zero_first_backup(monkeypatch):
    """From Q = 0 every stage game is a tie; the first-pure pass picks
    ((0,), (0,)) everywhere, as enumeration does, and the batched check then
    keeps it; neither calls the solver."""
    game = grid_setup().game
    q = np.zeros((2, game.n_states, game.n_joint_actions))
    a2 = game.action_counts[1]
    cache = coded([None] * game.n_states, a2)
    want_cache = coded([None] * game.n_states, a2)
    want = reference_solve_stage_games(game, q, *want_cache)
    log = logged_calls(monkeypatch)
    got = equilibrium._solve_stage_games(game, q, *cache)
    assert log.calls == 0
    assert decoded(*cache, a2) == decoded(*want_cache, a2) == [((0,), (0,))] * game.n_states
    for mine, theirs in zip(got, want):
        assert mine.tobytes() == theirs.tobytes()
    again = equilibrium._solve_stage_games(game, q, *cache)
    assert log.calls == 0
    for mine, theirs in zip(again, want):
        assert mine.tobytes() == theirs.tobytes()


def test_a_mixed_cache_that_turns_pure_is_forgotten():
    """The 3x3 game G has no pure equilibrium and two mixed ones, on the
    supports A = ((0, 2), (1, 2)) and, later in enumeration order, the full
    support F. A pass on G keeps a cached F; a pass on H, where F fails and
    (0, 0) is strictly dominant, turns the cache pure; the next pass on G
    then enumerates from A, and does not return to F."""
    g = np.array(
        [[[0, 1, 2], [3, 1, 0], [2, 0, 3]], [[0, 0, 2], [0, 2, 3], [1, 1, 0]]], dtype=np.float64
    ).reshape(2, 1, 9)
    h = np.zeros((2, 1, 9))
    h[0, 0, :3] = 1.0  # the row player's row 0
    h[1, 0, ::3] = 1.0  # the column player's column 0
    game = random_markov_game(np.random.default_rng(0), 1, (3, 3), 0.9)
    full = ((0, 1, 2), (0, 1, 2))
    cache, want_cache = coded([full], 3), coded([full], 3)
    for q, supports in ((g, full), (h, ((0,), (0,))), (g, ((0, 2), (1, 2)))):
        want = reference_solve_stage_games(game, q, *want_cache)
        got = equilibrium._solve_stage_games(game, q, *cache)
        assert decoded(*cache, 3) == decoded(*want_cache, 3) == [supports]
        for mine, theirs in zip(got, want):
            assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_reward_raises(bad):
    _, game, reward = grid_setup(variants=("deterministic",)).variants[0]
    tables = reward.tables.copy()
    tables[1, 5, 3] = bad
    if np.isnan(bad):
        # JointReward admits inf under rmax = inf but rejects NaN itself
        with pytest.raises(ValueError, match="outside"):
            JointReward(tables, rmax=[np.inf, np.inf])
    else:
        bad_reward = JointReward(tables, rmax=[np.inf, np.inf])
        # the first backup starts from Q = 0; the second meets the non-finite
        # entry with every state's pure support cached
        with pytest.raises(ValueError, match="finite"):
            equilibrium.nash_value_iteration(game, bad_reward)
    q = np.zeros((2, game.n_states, game.n_joint_actions))
    q[0, 7, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        equilibrium._solve_stage_games(game, q, np.zeros(game.n_states, dtype=np.int64), {})
