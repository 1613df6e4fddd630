"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to calibration. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import numpy as np
import pytest

import mairl
from mairl.equilibrium import best_response
from mairl.estimation import CountBook, estimate, sample_round
from mairl.dp import policy_evaluation
from mairl.games import JointPolicy
from mairl.gridworld import GridGameSpec, build_grid_game, variant_spec
from mairl.synthetic import (
    random_joint_policy,
    random_markov_game,
    random_reward,
)

from conftest import grid_setup, make_instance


def report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# Shared toy problem for criteria 6 and 7 (2-state stochastic instance with a
# partially mixed equilibrium expert; no state gives both agents a zero-mass
# action, so converged recoveries stay inside the expert support while the
# k=1 point-mass estimates do not).
# ---------------------------------------------------------------------------

TOY_FAMILY = dict(v_range=(2.2, 2.4), penalty_range=(0.9, 1.0))


def toy_problem():
    rng = np.random.default_rng(42)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    expert = JointPolicy(
        [
            np.array([[0.5, 0.5], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.4, 0.6]]),
        ]
    )
    params = mairl.ConfidenceParams(delta=0.1, pi_min=0.4, rmax=2.0, gamma=0.5)
    return game, expert, params


@pytest.fixture(scope="module")
def toy_run():
    game, expert, params = toy_problem()
    oracle = mairl.GenerativeOracle(game, expert, seed=7)
    run = mairl.uniform_sampling(oracle, params, epsilon_target=0.5, k_max=20_000)
    return game, expert, params, run


def test_criterion_1_simulation_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 6))
        counts = tuple(int(c) for c in rng.integers(1, 4, size=2))
        gamma = float(rng.uniform(0.1, 0.9))
        game = random_markov_game(rng, S, counts, gamma)
        game_hat = game.with_transitions(rng.dirichlet(np.ones(S), size=(S, game.n_joint_actions)))
        reward = random_reward(rng, game)
        reward_hat = random_reward(rng, game)
        policy = random_joint_policy(rng, game)
        for agent in range(2):
            lhs, rhs = mairl.simulation_decomposition(
                game, game_hat, reward, reward_hat, policy, agent
            )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    report(1, worst <= 1e-8, f"simulation identity max per-state error {worst:.3e} <= 1e-8")


def test_criterion_2_three_way_equivalence_and_round_trip():
    tol = 1e-6
    agree = True
    round_trip_err = 0.0
    n_feasible = 0
    for seed in range(100):
        rng = np.random.default_rng(1_000 + seed)
        n_agents = 2 if seed % 3 else 3
        counts = tuple(int(c) for c in rng.integers(2, 4, size=n_agents))
        S = int(rng.integers(2, 5))
        gamma = float(rng.uniform(0.3, 0.8))
        game, policy = make_instance(2_000 + seed, n_states=S, action_counts=counts, gamma=gamma)
        if seed % 2:
            reward = mairl.sample_reward_family(game, policy, 1.0, 1, seed=seed)[0]
        else:
            reward = random_reward(rng, game)
        implicit = mairl.check_implicit(game, reward, policy, tol=tol).passed
        matrix = mairl.matrix_ne_check(game, reward, policy, tol=tol).passed
        gap_ok = mairl.nash_gap(game, reward, policy).gap <= tol / (1 - gamma)
        agree = agree and (implicit == matrix == gap_ok)
        if implicit:
            n_feasible += 1
            params = mairl.decompose_reward(game, policy, reward, tol=tol)
            back = mairl.construct_reward(game, policy, params, rmax=reward.rmax)
            round_trip_err = max(
                round_trip_err, float(np.abs(back.tables - reward.tables).max())
            )
    ok = agree and round_trip_err <= 1e-8 and n_feasible >= 40
    report(
        2,
        ok,
        f"implicit=matrix=nash-gap on 100 instances ({n_feasible} feasible), "
        f"round-trip error {round_trip_err:.3e} <= 1e-8",
    )


def test_criterion_3_error_propagation_realizability():
    worst = -np.inf
    for seed in range(100):
        game, policy = make_instance(seed, n_states=3, gamma=0.6)
        reward = mairl.sample_reward_family(game, policy, 1.0, 1, seed=seed)[0]
        params = mairl.decompose_reward(game, policy, reward)
        rng = np.random.default_rng(seed + 11_000)
        p_hat = game.transitions + 0.08 * rng.random(game.transitions.shape)
        p_hat = p_hat / p_hat.sum(-1, keepdims=True)
        _, policy_hat = make_instance(seed + 7_000, n_states=3, gamma=0.6)
        bound = mairl.error_propagation_bound(
            params,
            mairl.event_mask(policy),
            mairl.event_mask(policy_hat),
            game.transitions,
            p_hat,
        )
        r_true = mairl.witness_reward_tables(game, policy, params)
        r_hat = mairl.witness_reward_tables(
            game.with_transitions(p_hat), policy_hat, params
        )
        worst = max(worst, float((np.abs(r_true - r_hat) - bound).max()))
    report(3, worst <= 1e-10, f"witness slack max(|R-Rhat| - bound) = {worst:.3e} <= 1e-10")


def test_criterion_4_good_event_coverage():
    game, policy = make_instance(3, n_states=3, gamma=0.9)
    reward = mairl.sample_reward_family(game, policy, 1.0, 1, seed=0)[0]
    # stochastic expert with support floor 0.25
    expert = JointPolicy(
        [
            np.array([[0.75, 0.25], [1.0, 0.0], [0.25, 0.75]]),
            np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]),
        ]
    )
    reward = mairl.sample_reward_family(game, expert, 1.0, 1, seed=1)[0]
    params = mairl.ConfidenceParams(delta=0.2, pi_min=0.25, rmax=1.0, gamma=0.9)
    runs, horizon = 200, 50
    covered = 0
    for run_seed in range(runs):
        oracle = mairl.GenerativeOracle(game, expert, seed=run_seed)
        counts = CountBook(game.n_states, game.action_counts)
        problems = []
        for _ in range(horizon):
            sample_round(oracle, counts)
            problems.append(estimate(counts))
        flags = mairl.good_event_inequalities(game, reward, expert, problems, params)
        covered += all(all(f) for f in flags)
    frac = covered / runs
    report(4, frac >= 0.8, f"good event held jointly in {covered}/{runs} runs ({frac:.1%}) >= 80%")


def test_criterion_5_support_threshold_monte_carlo():
    n_agents, delta, p_min = 3, 0.1, 0.3
    N = mairl.policy_estimation_threshold(n_agents, delta, p_min)
    assert N == 9
    rng = np.random.default_rng(123)
    trials = 100_000
    # focal agent's event has true probability 0 (its estimate is 0 almost
    # surely); the masked-indicator mismatch happens iff some other agent
    # never observes its own event, each carrying probability p_min = 0.3
    # inside a 3-event categorical.
    others = rng.random((trials, n_agents - 1, N)) < p_min
    seen = others.any(axis=2).all(axis=1)
    freq = 1.0 - seen.mean()
    report(
        5,
        freq <= delta,
        f"mismatch frequency {freq:.4f} <= delta {delta} at N = {N} over {trials} trials",
    )


def test_criterion_6_end_to_end(toy_run):
    game, expert, params, run = toy_run
    est_game = run.problem.as_game(game.gamma, game.mu)
    fam_true = mairl.sample_reward_family(game, expert, 2.0, 20, seed=5, **TOY_FAMILY)
    fam_rec = mairl.sample_reward_family(
        est_game, run.problem.pi_hat, 2.0, 20, seed=5, **TOY_FAMILY
    )
    rep = mairl.optimality_check(
        (game, expert), (est_game, run.problem.pi_hat), fam_true, fam_rec, epsilon=0.5
    )

    oracle = mairl.GenerativeOracle(game, expert, seed=7)
    counts = CountBook(game.n_states, game.action_counts)
    sample_round(oracle, counts)
    prob1 = estimate(counts)
    est1 = prob1.as_game(game.gamma, game.mu)
    fam_rec1 = mairl.sample_reward_family(est1, prob1.pi_hat, 2.0, 20, seed=5, **TOY_FAMILY)
    control = mairl.optimality_check(
        (game, expert), (est1, prob1.pi_hat), fam_true, fam_rec1, epsilon=0.5
    )
    ok = (
        run.converged
        and rep.passed
        and not control.passed
        and max(control.supinf_1, control.supinf_2) > 0.5
    )
    report(
        6,
        ok,
        f"tau = {run.tau} finite, converged check sup-infs "
        f"({rep.supinf_1:.3f}, {rep.supinf_2:.3f}) <= 0.5; k=1 control "
        f"({control.supinf_1:.3f}, {control.supinf_2:.3f}) fails",
    )


def test_criterion_7_bound_dominates_empirical(toy_run):
    game, expert, params, run = toy_run
    scan = mairl.stopping_time(params, game.n_states, game.action_counts, 2, 0.5)
    bound_toy = mairl.theoretical_sample_bound(
        params, game.n_states, game.action_counts, 2, 0.5
    )
    toy_ok = (
        scan == run.tau
        and run.tau * game.n_states * game.n_joint_actions <= bound_toy.total
    )

    grid_params = mairl.ConfidenceParams(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    tau_grid = mairl.stopping_time(grid_params, 72, (4, 4), 2, epsilon=1.0)
    bound_grid = mairl.theoretical_sample_bound(grid_params, 72, (4, 4), 2, epsilon=1.0)
    grid_ok = tau_grid is not None and tau_grid * 72 * 16 <= bound_grid.total
    report(
        7,
        toy_ok and grid_ok,
        f"toy: sampled tau {run.tau} = scan {scan}, {run.tau * 8} <= "
        f"{bound_toy.total:.3g}; grid: tau {tau_grid} x 1152 = "
        f"{tau_grid * 1152:.3g} <= {bound_grid.total:.3g}",
    )


@pytest.fixture(scope="module")
def transfer_experiment(tmp_path_factory):
    config = mairl.ExperimentConfig(
        seeds=tuple(range(10)),
        epsilon=1.0,
        delta=0.1,
        pi_min=1.0,
        k_max=500,
        eval_points=(500,),
        variants=("deterministic", "obstacle-one"),
        gamma=0.9,
        rmax=1.0,
        mode="distance-to-random",
        reward_class="state",
        out_dir=str(tmp_path_factory.mktemp("transfer")),
    )
    return config, mairl.run_experiment(config)


def test_criterion_8_transfer_beats_cloning(transfer_experiment):
    config, result = transfer_experiment
    assert not result.errors, result.errors

    det = {row[0]: row for row in result.curve_rows if row[1] == "deterministic"}
    obs = {row[0]: row for row in result.curve_rows if row[1] == "obstacle-one"}
    bc_det_zero = all(det[s][5] <= 1e-9 for s in config.seeds)

    # independent account of the cloning failure: agent 1 (index 0) earns
    # nothing from every state its cloned path breaks at, and the reported
    # gap equals its full best-response value over those states
    board = grid_setup(GridGameSpec(gamma=0.9, rmax=1.0), ("obstacle-one",))
    _, alt_game, alt_reward = board.variants[0]
    br0 = best_response(alt_game, alt_reward, board.expert, agent=0)
    clone_value = policy_evaluation(alt_game, alt_reward, board.expert).v[0]
    broken = clone_value <= 1e-9
    full_br = float(br0.value[broken].max())
    gap_bc = obs[0][5]
    bc_equals_br = abs(gap_bc - full_br) <= 1e-9 and all(
        abs(obs[s][5] - gap_bc) <= 1e-12 for s in config.seeds
    )

    wins = sum(1 for s in config.seeds if obs[s][4] < obs[s][5])
    ok = bc_det_zero and bc_equals_br and wins >= 8
    report(
        8,
        ok,
        f"BC deterministic gap 0 on all seeds; BC obstacle gap {gap_bc:.4f} = "
        f"agent 1 best-response value {full_br:.4f}; recovered reward beats "
        f"cloning on {wins}/10 seeds",
    )


def test_criterion_9_grid_construction():
    game, _, _ = build_grid_game(GridGameSpec())
    count_ok = game.n_states == 72 and game.n_joint_actions == 16

    sgame, _, index = build_grid_game(variant_spec(GridGameSpec(), "stochastic-up"))
    s = index.state_of[((0, 0), (2, 0))]
    row = sgame.transitions[s, 0 * 4 + 1]  # up for agent 0, blocked down for agent 1
    advance = index.state_of[((0, 1), (2, 0))]
    stay = s
    masses_ok = (
        np.count_nonzero(row) == 2
        and row[advance] == 0.5
        and row[stay] == 0.5
    )
    report(
        9,
        count_ok and masses_ok,
        "72 states, 16 joint actions; stochastic-up row carries exactly "
        "{0.5, 0.5} on {advance, stay}",
    )
