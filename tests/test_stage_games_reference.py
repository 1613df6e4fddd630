"""Bit-equality of NashQ's batched stage-game pass against the per-state loop.

`reference_solve_stage_games` is the former `_solve_stage_games`: one
warm-started `bimatrix_nash` call per state. It is kept here as a test
oracle; NashQ run with it patched in must return exactly what NashQ returns
with the batched pure-support check.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl import equilibrium
from mairl.estimation import CountBook, GenerativeOracle, sample_round
from mairl.experiment import ExperimentConfig, recover_reward, synthesize_expert
from mairl.games import JointReward, MarkovGame
from mairl.gridworld import VARIANTS, GridGameSpec, build_grid_game, variant_spec
from mairl.synthetic import matching_pennies, random_markov_game, random_reward

BOARDS = {
    "3x3": GridGameSpec(),
    "4x3": GridGameSpec(
        width=4, height=3, start_positions=((0, 0), (3, 0)), goal_positions=((3, 2), (0, 2))
    ),
}


def reference_solve_stage_games(game, q, support_cache, tol=1e-9):
    a1, a2 = game.action_counts
    S = game.n_states
    pol1 = np.zeros((S, a1))
    pol2 = np.zeros((S, a2))
    values = np.zeros((2, S))
    for s in range(S):
        eq = equilibrium.bimatrix_nash(
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
    """Wraps `equilibrium.bimatrix_nash`, recording each call's warm-start hint."""

    def __init__(self):
        self.hints = []
        self._inner = equilibrium.bimatrix_nash

    def __call__(self, *args, first_supports=None, **kwargs):
        self.hints.append(first_supports)
        return self._inner(*args, first_supports=first_supports, **kwargs)


def logged_calls(monkeypatch):
    log = CallLog()
    monkeypatch.setattr(equilibrium, "bimatrix_nash", log)
    return log


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("board", sorted(BOARDS))
def test_grid_experts_match_reference(board, variant):
    game, reward, _ = build_grid_game(variant_spec(BOARDS[board], variant))
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
    spec, game, _, expert = synthesize_expert(config)
    counts = CountBook(game.n_states, game.action_counts)
    sample_round(GenerativeOracle(game, expert.policy, seed=0), counts)
    _, recovered = recover_reward(config, counts, game.mu, 0)
    alt_game, _, _ = build_grid_game(variant_spec(spec, variant))
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
    # first backup: every state enumerates from no cache; the pure supports
    # it selects then hold for the next backups without a solver call
    assert log.hints == [None] * game.n_states
    assert early.stage_supports[0] == ((0,), (0,))
    log.hints.clear()
    got = equilibrium.nash_value_iteration(game, reward)
    assert_same_result(got, want)
    # later, state 0's cached (0, 0) stops being an equilibrium: the miss goes
    # to bimatrix_nash, which retries the cached support before enumerating
    assert log.hints[: game.n_states] == [None] * game.n_states
    assert log.hints[game.n_states :] == [((0,), (0,))]
    assert got.converged and got.stage_supports[0] != ((0,), (0,))


def test_batched_pass_settles_only_valid_pure_caches(monkeypatch):
    game, _ = _chain_game()
    q = np.zeros((2, 3, 4))
    q[:, 0] = [0.0, 0.0, 1.0, 1.0]  # in state 0 both players gain by leaving (0, 0)
    cache = [((0,), (0,))] * 3
    want_cache = list(cache)
    want = reference_solve_stage_games(game, q, want_cache)
    log = logged_calls(monkeypatch)
    got = equilibrium._solve_stage_games(game, q, cache)
    assert log.hints == [((0,), (0,))]  # state 0 only; the others settle in the pass
    assert cache == want_cache == [((1,), (0,)), ((0,), (0,)), ((0,), (0,))]
    for mine, theirs in zip(got, want):
        assert mine.tobytes() == theirs.tobytes()


def test_mixed_stage_equilibria_take_the_per_state_path(monkeypatch):
    game, reward = matching_pennies(0.9)
    want = reference_nash_value_iteration(game, reward)
    log = logged_calls(monkeypatch)
    got = equilibrium.nash_value_iteration(game, reward)
    assert_same_result(got, want)
    assert got.stage_supports == [((0, 1), (0, 1))]
    assert np.allclose(got.policy.per_agent[0], 0.5)
    # every backup after the first warm-starts the single state from its mixed cache
    assert len(log.hints) == got.iterations + 1
    assert all(hint == ((0, 1), (0, 1)) for hint in log.hints[2:])


def test_all_zero_first_backup(monkeypatch):
    """From Q = 0 every stage game is a tie; enumeration picks ((0,), (0,))
    everywhere, and the batched pass then keeps it with no solver call."""
    game, _, _ = build_grid_game(GridGameSpec())
    q = np.zeros((2, game.n_states, game.n_joint_actions))
    cache = [None] * game.n_states
    want_cache = [None] * game.n_states
    want = reference_solve_stage_games(game, q, want_cache)
    got = equilibrium._solve_stage_games(game, q, cache)
    assert cache == want_cache == [((0,), (0,))] * game.n_states
    for mine, theirs in zip(got, want):
        assert mine.tobytes() == theirs.tobytes()
    log = logged_calls(monkeypatch)
    again = equilibrium._solve_stage_games(game, q, cache)
    assert log.hints == []
    for mine, theirs in zip(again, want):
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_reward_raises(bad):
    game, reward, _ = build_grid_game(GridGameSpec())
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
        equilibrium._solve_stage_games(game, q, [((0,), (0,))] * game.n_states)
