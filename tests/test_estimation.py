import math
import os

import numpy as np
import pytest

from mairl.estimation import (
    LOG_COLUMNS,
    ConfidenceParams,
    _indicator,
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
from mairl.experiment import sample_reward_family, write_csv
from mairl.games import JointPolicy, MarkovGame, deterministic_policy
from mairl.synthetic import random_markov_game

from conftest import make_instance


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
    for k in range(1, 4):
        sample_round(oracle, counts)
        assert np.all(counts.n_sas.sum(-1) == k)
        for i in range(2):
            assert np.all(counts.n_i_sa[i].sum(-1) == k)
        assert counts.iteration == k
    # deterministic transitions: all mass on the known successor
    assert np.all(counts.n_sas[:, :, 1] == 3)
    assert np.all(counts.n_sas[:, :, 0] == 0)
    # deterministic expert: every agent's count sits on its action
    assert np.all(counts.n_i_sa[0][:, 0] == 3)
    assert np.all(counts.n_i_sa[1][0] == [0, 3])


def test_estimate_uniform_fallback_and_frequencies():
    counts = CountBook(3, (2,))
    prob = estimate(counts)
    assert np.allclose(prob.p_hat, 1 / 3)
    assert np.allclose(prob.pi_hat.per_agent[0], 1 / 2)

    # three rounds: every row holds 3 tallies
    counts.iteration = 3
    counts.n_sas[:, :, 2] = 3
    counts.n_sas[0, 0] = [2, 1, 0]
    counts.n_i_sa[0][:, 1] = 3
    prob = estimate(counts)
    assert prob.k == 3
    assert np.allclose(prob.p_hat[0, 0], [2 / 3, 1 / 3, 0.0])
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


def test_uniform_sampling_budget_exhaustion():
    game, expert = det_game_and_expert()
    params = _params(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    oracle = GenerativeOracle(game, expert, seed=4)
    run = uniform_sampling(oracle, params, epsilon_target=1e-3, k_max=5)
    assert not run.converged and run.tau == 5


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
    s1, e1 = o1.round_samples(17)
    s2, e2 = o2.round_samples(17)
    assert np.array_equal(s1, s2) and np.array_equal(e1, e2)
    s3, _ = o1.round_samples(18)
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
