"""The successor-list kernel against the dense (S, A, S) formulas it replaced.

The dense formulas live here only, as the test oracle: the NashQ backup and
policy evaluation's Q as `einsum("sat,it->isa", P, v)`, the state kernel as
`einsum("sa,sat->st", joint, P)`, the own-action kernel as the opponent-
weighted sum over joint actions of P, and draws through the dense
normalised CDF. On grids whose rows have one successor (w = 1: the
deterministic and obstacle variants) every result must be bit-identical;
on random games (w = S) and stochastic-up (w = 4) the sum order differs,
so they agree within 1e-12.

Best responses and advantage rows once read one (S, |A_i|, S) own-action
kernel, scattered from the list in one pass; that kernel and the policy
iteration on it are kept here as the oracle of the S x S reply kernels that
replaced them, and every result must match it bit for bit.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl import dp, equilibrium, estimation, experiment, gridworld, reward_select
from mairl.estimation import EstimatedProblem, GenerativeOracle
from mairl.games import JointPolicy, MarkovGame, _gather, _scatter, deterministic_policy
from mairl.synthetic import random_joint_policy, random_markov_game, random_reward

from conftest import grid_setup, one_round_estimate
from test_sampling_reference import pipeline_round_samples, reference_round_samples


@st.composite
def games(draw):
    """(game, reward, policy, exact): a random game with dense Dirichlet rows,
    or a 3x3 grid variant; the policy is mixed with some zeros, or pure.
    `exact` marks the grids whose rows have one successor."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        n_states = draw(st.integers(min_value=1, max_value=5))
        counts = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
        game = random_markov_game(rng, n_states, counts, 0.8)
        reward = random_reward(rng, game)
        exact = False
    else:
        variant = draw(st.sampled_from(gridworld.VARIANTS))
        _, game, reward = grid_setup(variants=(variant,)).variants[0]
        exact = variant != "stochastic-up"
    if draw(st.booleans()):
        tables = [rng.dirichlet(np.ones(c), game.n_states) for c in game.action_counts]
        for t in tables:
            t[rng.random(t.shape) < 0.3] = 0.0
            t[t.sum(axis=1) == 0.0, 0] = 1.0
            t /= t.sum(axis=1, keepdims=True)
        policy = JointPolicy(tables)
    else:
        policy = random_joint_policy(rng, game, deterministic=True)
    return game, reward, policy, exact


def _check(exact, got, want):
    """Bit-identical where `exact`, else within 1e-12."""
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def _dense_backup(P, v):
    return np.einsum("sat,it->isa", P, v)


def _dense_own_action_kernel(game, policy, agent):
    onehot = np.equal.outer(game.agent_actions[agent], np.arange(game.action_counts[agent]))
    return np.einsum(
        "sf,sf...,fd->sd...", policy.opponent_table(agent), game.transitions, onehot.astype(float)
    )


def _scatter_own_action_kernel(game, policy, agent):
    """(S, |A_i|, S) kernel sum_{a^{-i}} pi^{-i}(a^{-i}|s) P(s'|s, (a^i, a^{-i})),
    scattered from the list into rows (s, a^i) in one pass."""
    S, n_own = game.n_states, game.action_counts[agent]
    rows = np.arange(S)[:, None] * n_own + game.agent_actions[agent]
    kernel = _scatter(
        game.successors, game.successor_probs, policy.opponent_table(agent), rows, S * n_own
    )
    return kernel.reshape(S, n_own, S)


def _dense_best_response(game, reward, policy, agent):
    """Policy iteration on the own-action kernel: (actions, value, gap_per_state)."""
    S = game.n_states
    n_actions = game.action_counts[agent]
    r = dp.own_action_marginal(game, policy, agent, reward.tables[agent])
    p = _scatter_own_action_kernel(game, policy, agent)
    switch_tol = 1e-11 * (1.0 + np.abs(r).max() / max(1.0 - game.gamma, 1e-12))
    actions = np.zeros(S, dtype=np.int64)
    rows = np.arange(S)
    for _ in range(4 * S * n_actions + 64):
        p_pol = p[rows, actions]
        v = np.linalg.solve(np.eye(S) - game.gamma * p_pol, r[rows, actions])
        q = r + game.gamma * p @ v
        greedy = np.argmax(q >= q.max(axis=1, keepdims=True) - switch_tol, axis=1)
        improving = q[rows, greedy] > q[rows, actions] + switch_tol
        if not improving.any():
            break
        actions = np.where(improving, greedy, actions)
    v_pi = dp.policy_evaluation(game, reward, policy).v[agent]
    return actions, v, v - v_pi


def _assert_best_responses_match_the_dense_oracle(game, reward, policy):
    for agent in range(game.n_agents):
        got = equilibrium.best_response(game, reward, policy, agent)
        actions, value, gap = _dense_best_response(game, reward, policy, agent)
        assert got.actions.tobytes() == actions.tobytes()
        assert got.value.tobytes() == value.tobytes()
        assert got.gap_per_state.tobytes() == gap.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=games(), seed=st.integers(0, 2**32 - 1))
def test_gather_backup_and_shaping_match_the_dense_einsum(case, seed):
    game, _, _, exact = case
    v = np.random.default_rng(seed).uniform(-5.0, 5.0, (2, game.n_states))
    P = game.transitions
    _check(exact, _gather(game.successors, game.successor_probs, v), _dense_backup(P, v))
    _check(exact, dp.shaping(game, v), v[:, :, None] - game.gamma * _dense_backup(P, v))


@settings(max_examples=60, deadline=None)
@given(case=games())
def test_state_and_own_action_kernels_match_the_dense_sums(case):
    game, _, policy, exact = case
    P = game.transitions
    want = np.einsum("sa,sat->st", policy.joint_table(), P)
    _check(exact, dp.transition_under(game, policy), want)
    rows = np.arange(game.n_states)
    rng = np.random.default_rng(0)
    for agent in range(game.n_agents):
        dense = _dense_own_action_kernel(game, policy, agent)
        scattered = _scatter_own_action_kernel(game, policy, agent)
        _check(exact, scattered, dense)
        # the advantage rows' P_d: one reply kernel per own action, all states
        # alike, from the weights of every own action at once
        n_own = game.action_counts[agent]
        weights = dp._reply_weights(game, policy, agent, np.arange(n_own)[:, None])
        for d in range(n_own):
            assert weights[d].tobytes() == dp._reply_weights(game, policy, agent, d).tobytes()
            got = dp._weighted_kernel(game, weights[d])
            assert np.array_equal(got, scattered[:, d])
        # best_response's kernel: one own action per state
        actions = rng.integers(0, n_own, game.n_states)
        got = dp._reply_kernel(game, policy, agent, actions)
        assert np.array_equal(got, scattered[rows, actions])
        _check(exact, got, dense[rows, actions])


@settings(max_examples=60, deadline=None)
@given(case=games())
def test_best_response_matches_the_own_action_kernel_policy_iteration(case):
    game, reward, policy, _ = case
    _assert_best_responses_match_the_dense_oracle(game, reward, policy)


@settings(max_examples=30, deadline=None)
@given(case=games())
def test_state_class_advantage_rows_match_the_own_action_kernel(case):
    """U = gamma (P_d - P_pi) (I - gamma P_pi)^{-1} with P_d the kernel above."""
    game, _, policy, _ = case
    S = game.n_states
    p_pi = dp.transition_under(game, policy)
    system = (np.eye(S) - game.gamma * p_pi).T
    for agent in range(game.n_agents):
        p_dev = (_scatter_own_action_kernel(game, policy, agent) - p_pi[:, None, :]) * game.gamma
        want = np.linalg.solve(system, p_dev.reshape(-1, S).T).T
        got = reward_select._advantage_rows(game, policy, agent, reward_select.STATE_CLASS)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width, height", [(3, 3), (4, 3), (4, 4)], ids=["3x3", "4x3", "4x4"])
def test_best_responses_on_the_transfer_sweep_match_the_dense_oracle(width, height):
    """Each variant of the board under its true reward and the state-class
    rewards recovered in both modes after one round: the best responses to
    the variant's NashQ policy of that reward and to behavior cloning,
    scored under the variant's true reward and under that reward."""
    spec = gridworld.GridGameSpec(width=width, height=height)
    setup = grid_setup(spec, gridworld.VARIANTS)
    estimated, pi_hat = one_round_estimate(spec)
    recovered = [
        reward_select.max_gap_reward(
            estimated, pi_hat, 1.0, mode=mode, seed=0, reward_class="state"
        ).reward
        for mode in (reward_select.MAX_MARGIN, reward_select.DISTANCE_TO_RANDOM)
    ]
    cloning = reward_select.behavior_cloning(pi_hat)
    for name, alt_game, alt_reward in setup.variants:
        # under its true reward, the variant's NashQ policy is its board's expert
        transfers = [(alt_reward, grid_setup(gridworld.variant_spec(spec, name)).expert)]
        transfers += [(r, equilibrium.nash_value_iteration(alt_game, r).policy) for r in recovered]
        for reward, transferred in transfers:
            scores = (alt_reward,) if reward is alt_reward else (alt_reward, reward)
            for policy in (transferred, cloning):
                for score in scores:
                    _assert_best_responses_match_the_dense_oracle(alt_game, score, policy)


@settings(max_examples=60, deadline=None)
@given(case=games())
def test_policy_evaluation_matches_the_dense_solve(case):
    game, reward, policy, exact = case
    P = game.transitions
    joint = policy.joint_table()
    p_pi = np.einsum("sa,sat->st", joint, P)
    r_pi = np.einsum("sa,isa->is", joint, reward.tables)
    v = np.linalg.solve(np.eye(game.n_states) - game.gamma * p_pi, r_pi.T).T
    values = dp.policy_evaluation(game, reward, policy)
    _check(exact, values.v, v)
    _check(exact, values.q, reward.tables + game.gamma * _dense_backup(P, v))


@settings(max_examples=40, deadline=None)
@given(case=games(), seed=st.integers(0, 2**20), k=st.integers(1, 2**20))
def test_jump_table_draws_match_the_dense_cdf(case, seed, k):
    game, _, policy, _ = case
    oracle = GenerativeOracle(game, policy, seed=seed)
    next_states, expert_actions = pipeline_round_samples(oracle, k)
    ref_states, ref_actions = reference_round_samples(oracle, k)
    assert np.array_equal(next_states, ref_states)
    assert np.array_equal(expert_actions, ref_actions)


@pytest.mark.parametrize("variant", gridworld.VARIANTS)
def test_grid_list_is_the_ascending_support_of_its_dense_view(variant):
    _, game, _ = grid_setup(variants=(variant,)).variants[0]
    P = game.transitions
    again = MarkovGame(P, game.gamma, game.mu, game.action_counts)
    assert np.array_equal(again.successors, game.successors)
    assert np.array_equal(again.successor_probs, game.successor_probs)
    assert np.array_equal(again.transitions, P)
    assert game.successors.shape[-1] == (4 if variant == "stochastic-up" else 1)


@pytest.mark.parametrize("variant", gridworld.VARIANTS)
def test_nashq_matches_a_dense_backup_loop(variant):
    """The dense backup loop runs to its own convergence (a backup moving no Q
    entry by 1e-8). A policy-evaluation jump may end NashQ earlier, on the
    exact fixed point, so Q agrees within 1e-7 (gamma 1e-8 / (1 - gamma) =
    9e-8 is the loop's own distance to its fixed point) and the policies
    exactly."""
    _, game, reward = grid_setup(variants=(variant,)).variants[0]
    result = equilibrium.nash_value_iteration(game, reward)
    P = game.transitions
    q = np.zeros((2, game.n_states, game.n_joint_actions))
    cache, mixed = np.full(game.n_states, -1, dtype=np.int64), {}
    delta = np.inf
    while delta >= 1e-8:
        _, _, values = equilibrium._solve_stage_games(game, q, cache, mixed)
        q_next = reward.tables + game.gamma * _dense_backup(P, values)
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
    pol1, pol2, _ = equilibrium._solve_stage_games(game, q, cache, mixed)
    assert result.converged and result.final_delta < 1e-8
    assert result.stage_supports == equilibrium._stage_supports(
        cache, mixed, game.action_counts[1]
    )
    assert result.policy.per_agent[0].tobytes() == pol1.tobytes()
    assert result.policy.per_agent[1].tobytes() == pol2.tobytes()
    assert np.max(np.abs(result.q - q)) <= 1e-7


def _refuse(self):
    raise AssertionError("a dense (S, A, S) table was built on the pipeline path")


@pytest.mark.parametrize(
    "mode, reward_class",
    [("distance-to-random", "state"), ("max-margin", "state-action")],
)
def test_run_experiment_builds_no_dense_kernel(monkeypatch, tmp_path, mode, reward_class):
    monkeypatch.setattr(MarkovGame, "transitions", property(_refuse))
    monkeypatch.setattr(EstimatedProblem, "p_hat", property(_refuse))
    config = experiment.ExperimentConfig(
        seeds=(0,),
        k_max=1,
        eval_points=(1,),
        variants=("deterministic", "obstacle-one"),
        mode=mode,
        reward_class=reward_class,
        out_dir=str(tmp_path),
    )
    result = experiment.run_experiment(config)
    assert not result.errors and len(result.curve_rows) == 2


def test_5x5_pipeline_front_stays_below_one_dense_kernel():
    spec = gridworld.GridGameSpec(width=5, height=5)
    dense_bytes = 600 * 16 * 600 * 8  # one (S, A, S) float64 table: 46 MB
    tracemalloc.start()
    try:
        game, reward, _ = gridworld.build_grid_game(spec)
        expert = equilibrium.nash_value_iteration(game, reward).policy
        oracle = GenerativeOracle(game, expert, seed=0)
        counts = estimation.CountBook(game.n_states, game.action_counts)
        estimation.sample_round(oracle, counts)
        problem = estimation.estimate(counts)
        problem.as_game(game.gamma, game.mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert game.n_states == 600
    assert peak < dense_bytes, peak


def test_dense_views_are_read_only_and_not_cached():
    game = grid_setup().game
    assert game.transitions is not game.transitions
    with pytest.raises(ValueError):
        game.transitions[0, 0, 0] = 0.5
    expert = deterministic_policy((4, 4), game.n_states, [0, 0])
    counts = estimation.CountBook(game.n_states, game.action_counts)
    estimation.sample_round(GenerativeOracle(game, expert, seed=0), counts)
    problem = estimation.estimate(counts)
    assert np.array_equal(problem.p_hat, game.transitions)
    with pytest.raises(ValueError):
        problem.p_hat[0, 0, 0] = 0.5


def test_nashq_final_delta_on_converged_and_capped_runs():
    _, game, reward = grid_setup(variants=("deterministic",)).variants[0]
    done = equilibrium.nash_value_iteration(game, reward)
    assert done.converged and 0.0 <= done.final_delta < 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        two = equilibrium.nash_value_iteration(game, reward, max_iters=2)
        three = equilibrium.nash_value_iteration(game, reward, max_iters=3)
    assert not three.converged and three.iterations == 3
    assert three.final_delta == float(np.max(np.abs(three.q - two.q))) >= 1e-8
