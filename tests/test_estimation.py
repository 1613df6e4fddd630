import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mairl import estimation
from mairl.estimation import (
    _SCHEDULE_CHUNK,
    LOG_COLUMNS,
    ConfidenceParams,
    _indicator,
    _schedule,
    CountBook,
    GenerativeOracle,
    estimate,
    good_event_inequalities,
    policy_estimation_threshold,
    sample_round,
    stopping_time,
    theoretical_sample_bound,
    transition_radius,
    uncertainty,
    uniform_sampling,
    xi_threshold,
)
from mairl.errors import DimensionMismatchError
from mairl.experiment import ExperimentConfig, sample_reward_family, write_csv
from mairl.games import JointPolicy, MarkovGame, deterministic_policy
from mairl.synthetic import random_markov_game

from conftest import grid_setup, make_instance
from test_sampling_reference import pipeline_round_samples


def _params(delta=0.5, pi_min=0.5, rmax=1.0, gamma=0.9):
    return ConfidenceParams(delta=delta, pi_min=pi_min, rmax=rmax, gamma=gamma)


def det_game_and_expert():
    P = np.zeros((2, 4, 2))
    P[:, :, 1] = 1.0
    game = MarkovGame(P, 0.1, [1.0, 0.0], (2, 2))
    expert = deterministic_policy((2, 2), 2, [0, 1])
    return game, expert


def test_sample_round_counts_uniform_schedule():
    rng_game, expert = det_game_and_expert()
    oracle = GenerativeOracle(rng_game, expert, seed=0)
    counts = CountBook(2, (2, 2))
    assert counts.successors is None and counts.n_slot is None
    for k in range(1, 4):
        sample_round(oracle, counts)
        assert np.all(counts.n_slot.sum(-1) == k)
        for i in range(2):
            assert np.all(counts.n_i_sa[i].sum(-1) == k)
        assert counts.iteration == k
    # deterministic transitions: one slot per row, on the known successor
    assert counts.successors is rng_game.successors
    assert counts.n_slot.shape == (2, 4, 1)
    assert np.all(counts.successors == 1)
    assert np.all(counts.n_slot == 3)
    # deterministic expert: every agent's count sits on its action
    assert np.all(counts.n_i_sa[0][:, 0] == 3)
    assert np.all(counts.n_i_sa[1][0] == [0, 3])


def test_counts_keep_the_successor_list_of_their_first_oracle():
    game, expert = det_game_and_expert()
    counts = CountBook(2, (2, 2))
    sample_round(GenerativeOracle(game, expert, seed=0), counts)
    # a copy of the same game shares the list; another kernel does not
    same = MarkovGame(game.transitions, 0.1, [1.0, 0.0], (2, 2))
    sample_round(GenerativeOracle(same, expert, seed=0), counts)
    assert counts.iteration == 2
    other = MarkovGame(np.full((2, 4, 2), 0.5), 0.1, [1.0, 0.0], (2, 2))
    with pytest.raises(DimensionMismatchError):
        sample_round(GenerativeOracle(other, expert, seed=0), counts)


@pytest.mark.parametrize("n_states, action_counts", [(3, (2, 2)), (2, (2, 3)), (2, (3, 2))])
def test_oracle_rejects_an_expert_of_another_shape(n_states, action_counts):
    # the 2-state (2, 2) game; unchecked, a pure expert of another shape
    # would build an oracle that draws from rows the game does not have
    game, _ = det_game_and_expert()
    expert = deterministic_policy(action_counts, n_states, [0, 1])
    with pytest.raises(DimensionMismatchError):
        GenerativeOracle(game, expert, seed=0)


@pytest.mark.parametrize("n_states, action_counts", [(3, (3, 3)), (5, (2, 2)), (2, (2, 2))])
def test_sample_round_rejects_a_book_of_another_shape(n_states, action_counts):
    # a 3-state (2, 2) oracle; unchecked, these books would tally silently,
    # fail later in estimate, or raise IndexError mid-tally
    game, expert = make_instance(0, n_states=3, action_counts=(2, 2))
    counts = CountBook(n_states, action_counts)
    with pytest.raises(DimensionMismatchError):
        sample_round(GenerativeOracle(game, expert, seed=0), counts)
    assert counts.iteration == 0 and counts.successors is None and counts.n_slot is None
    assert all(not t.any() for t in counts.n_i_sa)


def test_negative_rounds_raise_and_leave_the_book_unchanged():
    game, expert = make_instance(1, n_states=3, action_counts=(2, 2))
    oracle = GenerativeOracle(game, expert, seed=0)
    counts = sample_round(oracle, CountBook(3, (2, 2)), 2)
    before = [counts.n_slot.copy(), *(t.copy() for t in counts.n_i_sa)]
    for rounds in (-1, 2.5):
        with pytest.raises(ValueError, match="rounds"):
            sample_round(oracle, counts, rounds=rounds)
    assert counts.iteration == 2
    for table, old in zip((counts.n_slot, *counts.n_i_sa), before):
        assert np.array_equal(table, old)


def test_estimate_uniform_fallback_and_frequencies():
    counts = CountBook(3, (2,))
    prob = estimate(counts)
    assert prob.successors.shape == (3, 2, 3)
    assert np.allclose(prob.p_hat, 1 / 3)
    assert np.allclose(prob.pi_hat.per_agent[0], 1 / 2)

    # three rounds on a two-slot successor list: every row holds 3 tallies
    counts.iteration = 3
    counts.successors = np.tile([1, 2], (3, 2, 1))
    counts.n_slot = np.tile([0, 3], (3, 2, 1))
    counts.n_slot[0, 0] = [2, 1]
    counts.n_i_sa[0][:, 1] = 3
    prob = estimate(counts)
    assert prob.k == 3
    assert np.allclose(prob.successor_probs[0, 0], [2 / 3, 1 / 3])
    assert np.allclose(prob.p_hat[0, 0], [0.0, 2 / 3, 1 / 3])
    assert np.allclose(prob.p_hat[1:, :], [0.0, 0.0, 1.0])
    assert np.allclose(prob.pi_hat.per_agent[0], [0.0, 1.0])

    game, expert = det_game_and_expert()
    oracle = GenerativeOracle(game, expert, seed=1)
    counts = CountBook(2, (2, 2))
    sample_round(oracle, counts)
    prob = estimate(counts)
    for i in range(2):
        assert np.array_equal(prob.pi_hat.per_agent[i], expert.per_agent[i])


def test_xi_threshold_examples():
    # 2 S prodA (n-1) N^2 / (delta/2) = 2*2*4*1*16/0.5 = 512; log2(512) = 9
    params = _params(delta=1.0 - 1e-12, pi_min=0.5)
    assert abs(xi_threshold(4, params, 2, (2, 2), 2) - 9.0) < 1e-9
    assert xi_threshold(4, _params(pi_min=1.0), 2, (2, 2), 2) == 0.0
    # direct formula at N = 1: log2(2*2*4*1/0.25) = 6
    assert abs(xi_threshold(1, _params(delta=0.5, pi_min=0.5), 2, (2, 2), 2) - 6.0) < 1e-12
    # no samples yet: threshold reports 0 and the indicator stays active
    assert xi_threshold(0, _params(), 2, (2, 2), 2) == 0.0


def test_transition_radius_examples():
    params = _params(delta=0.5, pi_min=0.5, rmax=1.0, gamma=0.9)
    # l = ln(12*2*4*1/0.5) = ln 192
    expected = 10.0 * math.sqrt(2 * math.log(192.0))
    assert abs(transition_radius(1, params, 2, (2, 2)) - expected) < 1e-12
    assert transition_radius(5, _params(rmax=0.0), 2, (2, 2)) == 0.0
    # quadrupling N shrinks the radius for all tested N >= 8
    for n in [8, 16, 64, 256, 1024]:
        assert transition_radius(4 * n, params, 2, (2, 2)) < transition_radius(
            n, params, 2, (2, 2)
        )


@pytest.mark.parametrize("rmax", [math.nan, math.inf, -1.0])
def test_confidence_params_reject_an_rmax_that_is_no_finite_scale(rmax):
    # a NaN rmax made every radius NaN, so the stopping rule never held;
    # an infinite one made epsilon_k NaN
    with pytest.raises(ValueError, match="rmax"):
        _params(rmax=rmax)
    assert _params(rmax=0.0).rmax == 0.0


@pytest.mark.parametrize(
    "field, value",
    [("delta", 0.0), ("delta", 1.0), ("pi_min", 0.0), ("pi_min", 1.5), ("gamma", 1.0),
     ("gamma", -0.1), ("gamma", math.nan)],
)
def test_confidence_params_reject_each_field_out_of_its_range(field, value):
    with pytest.raises(ValueError, match=field):
        _params(**{field: value})


def test_uncertainty_example_value():
    params = _params(delta=0.5, pi_min=0.5, rmax=1.0, gamma=0.9)
    counts = CountBook(2, (2, 2))  # N = 0 everywhere: indicator active, N+ = 1
    table = uncertainty(counts, params)
    expected = 10.0 * (1.0 + 0.9 * math.sqrt(2 * math.log(192.0)))
    assert np.allclose(table.c, expected)
    assert abs(table.epsilon_k - expected / 0.1) < 1e-9
    # radius vanishes as counts grow
    counts.iteration = 10**12
    big = uncertainty(counts, params)
    assert big.c.max() < 1e-4


def test_pure_expert_indicator_clears_after_one_round():
    params = _params(delta=0.5, pi_min=1.0, rmax=1.0, gamma=0.5)
    counts = CountBook(2, (2, 2))
    assert np.all(uncertainty(counts, params).indicator == 1.0)
    counts.iteration = 1
    assert np.all(uncertainty(counts, params).indicator == 0.0)


def test_uncertainty_monotone_after_threshold():
    params = _params(delta=0.1, pi_min=0.5, rmax=1.0, gamma=0.8)
    xi_cleared = None
    last = None
    for k in range(1, 200):
        counts = CountBook(2, (2, 2))
        counts.iteration = k
        table = uncertainty(counts, params)
        if xi_cleared is None and table.indicator.max() == 0.0:
            xi_cleared = k
        if xi_cleared is not None and last is not None:
            assert table.c.max() <= last + 1e-12
        last = table.c.max()
    assert xi_cleared is not None


def test_uniform_sampling_immediate_and_pure_expert():
    game, expert = det_game_and_expert()
    params = _params(delta=0.5, pi_min=1.0, rmax=1.0, gamma=0.1)
    oracle = GenerativeOracle(game, expert, seed=3)
    run = uniform_sampling(oracle, params, epsilon_target=np.inf, k_max=10)
    assert run.tau == 1 and run.converged

    # indicator is gone after round one; tau is set by the radius alone
    run = uniform_sampling(oracle, params, epsilon_target=2.0, k_max=100)
    assert run.converged
    assert run.history[0][4] == 0  # no indicator-active states at k = 1
    scan = stopping_time(params, 2, (2, 2), 2, 2.0)
    assert run.tau == scan


@pytest.mark.parametrize("epsilon", [2.0, 4.0])
def test_stopping_time_past_a_chunk_boundary_matches_one_array_scan(epsilon):
    params = _params(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    tau = stopping_time(params, 2, (2, 2), 2, epsilon)
    ks = np.arange(1, 600_001, dtype=np.float64)
    eps_k = (
        params.rmax / (1.0 - params.gamma) * _indicator(ks, params, 2, (2, 2), 2)
        + params.gamma * transition_radius(ks, params, 2, (2, 2))
    ) / (1.0 - params.gamma)
    assert tau > 65536  # past the first scan chunk
    assert tau == int(ks[np.argmax(eps_k <= epsilon / 2.0)])


def _scan_stopping_time(params, n_states, action_counts, n_agents, epsilon, k_max):
    """The former linear scan, kept as the oracle of `stopping_time`'s
    search: epsilon_k in chunks of rounds, the first k that meets the rule."""
    chunk, lo = 65536, 1
    while lo <= k_max:
        ks = np.arange(lo, min(lo + chunk - 1, k_max) + 1, dtype=np.float64)
        eps_k = _schedule(ks, params, n_states, action_counts, n_agents)[0]
        hit = np.nonzero(eps_k <= epsilon / 2.0)[0]
        if hit.size:
            return int(ks[hit[0]])
        lo = int(ks[-1]) + 1
        chunk = min(chunk * 4, 1 << 18)
    return None


@st.composite
def _stopping_cases(draw):
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    params = ConfidenceParams(
        delta=draw(st.floats(1e-6, 0.999)),
        pi_min=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
        rmax=draw(st.floats(0.1, 5.0)),
        gamma=draw(st.floats(0.0, 0.99)),
    )
    shape = (draw(st.integers(1, 50)), counts, len(counts))
    k_max = draw(st.integers(0, 200_000))
    if draw(st.booleans()):
        epsilon = draw(st.floats(1e-2, 1e5))
    else:
        # epsilon / 2 on, or one ulp either side of, epsilon_k at some round
        k = float(draw(st.integers(1, max(k_max, 1))))
        eps_k = float(_schedule(np.array([k]), params, *shape)[0][0])
        near = [eps_k, np.nextafter(eps_k, 0.0), np.nextafter(eps_k, np.inf)]
        epsilon = 2.0 * float(draw(st.sampled_from(near)))
    assume(epsilon > 0)
    return params, shape, epsilon, k_max


@settings(max_examples=150, deadline=None)
@given(case=_stopping_cases())
def test_stopping_time_bisection_matches_the_linear_scan(case):
    params, shape, epsilon, k_max = case
    assert stopping_time(params, *shape, epsilon, k_max=k_max) == _scan_stopping_time(
        params, *shape, epsilon, k_max
    )


def _counting_schedule(monkeypatch):
    """Patch `_schedule` to record the round count of each call; returns the record."""
    calls = []
    schedule = estimation._schedule

    def counting(ks, *args):
        calls.append(len(ks))
        return schedule(ks, *args)

    monkeypatch.setattr(estimation, "_schedule", counting)
    return calls


@pytest.mark.parametrize("k_max, most", [(500, 3), (10**8, 5)])
def test_stopping_time_tests_a_batch_of_rounds_per_schedule_call(k_max, most, monkeypatch):
    # the 4x4 board (240 states, 4 x 4 joint actions) at epsilon = 100 with
    # the grid's defaults, as the certify-4x4 benchmark runs it
    params, shape = _params(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9), (240, (4, 4), 2)
    want = _scan_stopping_time(params, *shape, 100.0, k_max)
    calls = _counting_schedule(monkeypatch)
    assert stopping_time(params, *shape, 100.0, k_max=k_max) == want == 150
    assert 1 <= len(calls) <= most
    assert max(calls) <= _SCHEDULE_CHUNK


def test_stopping_time_of_the_3x3_board_at_epsilon_1_matches_the_scan(monkeypatch):
    config = ExperimentConfig()
    game = grid_setup(config.grid_spec()).game
    params, shape = config.confidence_params(), (game.n_states, game.action_counts, game.n_agents)
    want = _scan_stopping_time(params, *shape, config.epsilon, 10**8)
    calls = _counting_schedule(monkeypatch)
    assert stopping_time(params, *shape, config.epsilon, k_max=10**8) == want == 2_685_541
    assert len(calls) <= 5
    # one round short of tau there is no stopping round
    assert stopping_time(params, *shape, config.epsilon, k_max=want - 1) is None


def test_uniform_sampling_budget_exhaustion():
    game, expert = det_game_and_expert()
    params = _params(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    oracle = GenerativeOracle(game, expert, seed=4)
    run = uniform_sampling(oracle, params, epsilon_target=1e-3, k_max=5)
    assert not run.converged and run.tau == 5


@pytest.mark.parametrize("k_max", [-1, 2.7, np.inf])
def test_uniform_sampling_rejects_a_k_max_that_is_no_round_count(k_max, monkeypatch):
    game, expert = det_game_and_expert()
    oracle = GenerativeOracle(game, expert, seed=4)

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before checking k_max")

    monkeypatch.setattr("mairl.estimation.sample_round", no_draws)
    with pytest.raises(ValueError, match="k_max"):
        uniform_sampling(oracle, _params(pi_min=1.0), epsilon_target=1e-3, k_max=k_max)
    with pytest.raises(ValueError, match="k_max"):
        stopping_time(_params(pi_min=1.0), game.n_states, game.action_counts, 2, 1e-3, k_max)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_a_non_positive_epsilon_raises_before_any_draw(epsilon, monkeypatch):
    game, expert = det_game_and_expert()
    oracle = GenerativeOracle(game, expert, seed=4)

    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before checking epsilon")

    monkeypatch.setattr("mairl.estimation.sample_round", no_draws)
    params, shape = _params(), (game.n_states, game.action_counts, 2)
    with pytest.raises(ValueError, match="epsilon"):
        uniform_sampling(oracle, params, epsilon_target=epsilon, k_max=10)
    with pytest.raises(ValueError, match="epsilon"):
        stopping_time(params, *shape, epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        theoretical_sample_bound(params, *shape, epsilon)


def _schedule_row(k, params, shape, wall_ms):
    """The history row of round k from one `_schedule` call on that round alone."""
    eps, c, radius, ind = _schedule(np.array([float(k)]), params, *shape)
    return (k, float(eps[0]), float(c[0]), float(radius[0]), int(shape[0] * ind[0]), wall_ms)


def test_history_of_a_run_to_the_3x3_stopping_round_is_read_on_demand():
    # the deterministic 3x3 board at epsilon = 1: millions of rounds, each
    # query fixed, so the run costs no more than its set-up
    config = ExperimentConfig()
    setup = grid_setup(config.grid_spec())
    game, params = setup.game, config.confidence_params()
    shape = (game.n_states, game.action_counts, game.n_agents)
    oracle = GenerativeOracle(game, setup.expert, seed=0)
    tracemalloc.start()
    try:
        run = uniform_sampling(oracle, params, config.epsilon, 10**8)
        run_peak = tracemalloc.get_traced_memory()[1]
        history = run.history
        head = list(itertools.islice(history, 2 * _SCHEDULE_CHUNK + 3))
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.converged and run.tau == len(history) == 2_685_541
    # a list of all its rows would take hundreds of MB; reading a few chunks
    # holds those rows and one chunk's schedule arrays
    assert run_peak < 2**20 and read_peak < 8 * 2**20
    wall_ms = history[0][-1]
    assert isinstance(wall_ms, float)
    for k in (1, _SCHEDULE_CHUNK, _SCHEDULE_CHUNK + 1, run.tau):
        want = _schedule_row(k, params, shape, wall_ms)
        for row in (history[k - 1], history[k - 1 - run.tau]):
            assert row == want
            assert [type(v) for v in row] == [type(v) for v in want]
    # iteration, indexing and slicing agree across chunk boundaries
    boundary = range(_SCHEDULE_CHUNK - 2, 2 * _SCHEDULE_CHUNK + 3)
    assert [head[i] for i in boundary] == [history[i] for i in boundary]
    assert head == history[: len(head)]
    assert history[-3:] == [history[run.tau - 3], history[run.tau - 2], history[run.tau - 1]]
    assert history[1:9:4] == [history[1], history[5]]
    for index in (run.tau, -run.tau - 1):
        with pytest.raises(IndexError):
            history[index]


def test_run_log_columns(tmp_path):
    game, expert = det_game_and_expert()
    params = _params(delta=0.5, pi_min=1.0, rmax=1.0, gamma=0.1)
    oracle = GenerativeOracle(game, expert, seed=5)
    path = tmp_path / "log.csv"
    run = uniform_sampling(oracle, params, epsilon_target=2.0, k_max=50)
    write_csv(path, LOG_COLUMNS, run.history)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,epsilon_k,max_C,max_transition_radius,indicator_active_states,wall_time_ms"
    assert len(lines) >= 2


def test_oracle_is_deterministic_per_seed():
    rng = np.random.default_rng(0)
    game = random_markov_game(rng, 3, (2, 2), 0.5)
    expert = JointPolicy([rng.dirichlet(np.ones(2), 3), rng.dirichlet(np.ones(2), 3)])
    o1 = GenerativeOracle(game, expert, seed=9)
    o2 = GenerativeOracle(game, expert, seed=9)
    s1, e1 = pipeline_round_samples(o1, 17)
    s2, e2 = pipeline_round_samples(o2, 17)
    assert np.array_equal(s1, s2) and np.array_equal(e1, e2)
    s3, _ = pipeline_round_samples(o1, 18)
    assert not np.array_equal(s1, s3)  # astronomically unlikely to collide


def test_theoretical_sample_bound_closed_form():
    params = _params(delta=0.1, pi_min=0.5, rmax=1.0, gamma=0.9)
    bound = theoretical_sample_bound(params, 72, (4, 4), 2, epsilon=0.5)
    lead = 128 * 72 * 16 * 0.9**2 / (0.1**4 * 0.25)
    log_term = math.log(64 * 0.9**2 / (0.1**4 * 0.25) * math.sqrt(12 * 72 * 16 / 0.1))
    assert abs(bound.transition_term - lead * log_term) < 1e-6 * bound.transition_term
    L = math.log(2.0)
    c = math.log(2 * 72 * 16 * 1 / 0.1)
    policy = 2 * 72 + (2 * 72 / L) * (c + 2 * (c + 2) / L)
    assert abs(bound.policy_term - policy) < 1e-9
    assert bound.total == max(bound.transition_term, bound.policy_term)


def test_theoretical_sample_bound_limits():
    params = _params(delta=0.1, pi_min=0.5, rmax=1.0, gamma=0.9)
    big = theoretical_sample_bound(params, 4, (2, 2), 2, epsilon=1e9)
    assert big.transition_term == 0.0
    assert big.total == big.policy_term

    pure = theoretical_sample_bound(_params(pi_min=1.0), 4, (2, 2), 2, epsilon=0.5)
    assert pure.policy_term == 2 * 4

    # doubling the joint action count doubles the transition term up to logs
    small = theoretical_sample_bound(params, 4, (2, 2), 2, epsilon=0.5)
    double = theoretical_sample_bound(params, 4, (2, 2, 2), 3, epsilon=0.5)
    ratio = double.transition_term / small.transition_term
    assert 2.0 <= ratio <= 2.2


def test_policy_estimation_threshold():
    assert policy_estimation_threshold(2, 0.1, 0.5) == 4
    assert policy_estimation_threshold(2, 1.0, 0.5) == 0
    assert policy_estimation_threshold(3, 0.1, 1.0) == 0
    with pytest.raises(ValueError):
        policy_estimation_threshold(1, 0.1, 0.5)
    for pi_min in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="pi_min"):
            policy_estimation_threshold(2, 0.1, pi_min)
    for delta in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="delta"):
            policy_estimation_threshold(2, delta, 0.5)


def test_estimator_consistency_long_run():
    rng = np.random.default_rng(42)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    expert = JointPolicy(
        [np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.4, 0.6]])]
    )
    oracle = GenerativeOracle(game, expert, seed=11)
    counts = CountBook(2, (2, 2))
    sample_round(oracle, counts, 10_000)
    prob = estimate(counts)
    assert np.abs(prob.p_hat - game.transitions).max() <= 0.02
    for i in range(2):
        assert np.abs(prob.pi_hat.per_agent[i] - expert.per_agent[i]).max() <= 0.02


def test_good_event_inequalities_smoke():
    game, policy = make_instance(3, n_states=3, gamma=0.8)
    reward = sample_reward_family(game, policy, 1.0, 1, seed=0)[0]
    params = _params(delta=0.2, pi_min=0.25, rmax=1.0, gamma=0.8)
    oracle = GenerativeOracle(game, policy, seed=0)
    counts = CountBook(3, (2, 2))
    problems = []
    for _ in range(5):
        sample_round(oracle, counts)
        problems.append(estimate(counts))
    flags = good_event_inequalities(game, reward, policy, problems, params)
    assert len(flags) == 5
    for oks in flags:
        assert len(oks) == 4 and all(isinstance(v, bool) for v in oks)


def test_good_event_flags_do_not_change_when_the_counts_keep_sampling():
    game, policy = make_instance(3, n_states=3, gamma=0.8)
    reward = sample_reward_family(game, policy, 1.0, 1, seed=0)[0]
    params = _params(delta=0.2, pi_min=0.25, rmax=1.0, gamma=0.8)
    oracle = GenerativeOracle(game, policy, seed=0)
    counts = CountBook(3, (2, 2))
    sample_round(oracle, counts)
    problem = estimate(counts)
    p_hat = problem.p_hat.copy()
    before = good_event_inequalities(game, reward, policy, [problem], params)
    sample_round(oracle, counts, 10_000)
    assert problem.k == 1 and np.array_equal(problem.p_hat, p_hat)
    assert good_event_inequalities(game, reward, policy, [problem], params) == before
    assert before == [(True, True, True, True)]


def test_good_event_inequalities_reject_an_estimate_off_the_game_list():
    # the uniform estimate before any round spans all S states, and the
    # slot-by-slot |P - Phat| needs the game's own successor list
    game, policy = det_game_and_expert()
    reward = sample_reward_family(game, policy, 1.0, 1, seed=0)[0]
    problem = estimate(CountBook(2, (2, 2)))
    with pytest.raises(ValueError):
        good_event_inequalities(game, reward, policy, [problem], _params())
