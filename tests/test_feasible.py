import numpy as np
import pytest

from mairl.equilibrium import nash_gap
from mairl.errors import NotFeasibleError, OutOfRangeError
from mairl.experiment import sample_reward_family
from mairl.feasible import (
    FeasibleParams,
    check_implicit,
    construct_reward,
    decompose_reward,
    deviation_gain,
    error_propagation_bound,
    event_mask,
    nash_gap_bound,
    witness_reward_tables,
)
from mairl.games import JointPolicy, JointReward, deterministic_policy
from mairl.synthetic import random_joint_policy, random_markov_game, random_reward

from conftest import make_instance


def test_event_mask_fully_mixed(pennies):
    _, _, uniform = pennies
    assert not event_mask(uniform).any()


def test_event_mask_deterministic_joint():
    policy = deterministic_policy((2, 2), 1, [0, 1])
    mask = event_mask(policy)
    # agent 0: own action 1 never played, opponent action 1 played
    assert mask[0].tolist() == [[False, False, False, True]]
    # agent 1: own action 0 never played, opponent action 0 played
    assert mask[1].tolist() == [[True, False, False, False]]
    assert mask.sum() == 2


def test_event_mask_opponent_zero_conjunct():
    policy = JointPolicy([np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])])
    mask = event_mask(policy)
    # agent 1's unplayed action against a fully supported opponent
    assert mask[1, 0].tolist() == [False, True, False, True]
    # agent 0 has no zero-probability action, so nothing is flagged for it
    assert not mask[0].any()

    # if the opponents assign zero mass to some action, joint actions through
    # it are not flagged either (the second conjunct fails)
    both = JointPolicy([np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])])
    m2 = event_mask(both)
    assert not m2[0, 0, 3]  # own action 1 unplayed, but opponent's 1 has mass 0
    assert m2[0, 0].tolist() == [False, False, True, False]


def test_check_implicit_examples(pd, pennies):
    game, reward, dd, cc = pd
    flat = JointReward(np.full((2, 1, 4), 0.3), rmax=[1.0, 1.0])
    assert check_implicit(game, flat, cc).passed
    assert check_implicit(game, reward, dd).passed
    rep = check_implicit(game, reward, cc)
    assert not rep.passed
    # positive advantage 0.4 at the defect deviation
    vals = [v for (_, _, a, v, _) in rep.violations if a == 1]
    assert any(abs(v - 0.4) < 1e-12 for v in vals)

    mp_game, mp_reward, uniform = pennies
    assert check_implicit(mp_game, mp_reward, uniform).passed


def test_construct_reward_constant_shaping():
    rng = np.random.default_rng(2)
    game = random_markov_game(rng, 3, (2, 2), 0.9)
    policy = random_joint_policy(rng, game)
    params = FeasibleParams(a_fn=np.zeros((2, 3, 4)), v_fn=np.ones((2, 3)))
    reward = construct_reward(game, policy, params, rmax=1.0)
    assert np.allclose(reward.tables, 0.1)
    assert nash_gap(game, reward, random_joint_policy(rng, game)).gap < 1e-9

    zero = construct_reward(
        game, policy, FeasibleParams(np.zeros((2, 3, 4)), np.zeros((2, 3))), rmax=1.0
    )
    assert np.all(zero.tables == 0.0)


@pytest.mark.parametrize(
    "a_fill, v_fill", [(np.nan, 0.0), (-1.0, 0.0), (0.0, np.nan), (0.0, np.inf), (0.0, -np.inf)]
)
def test_feasible_params_reject_nan_penalties_and_non_finite_values(a_fill, v_fill):
    with pytest.raises(ValueError):
        FeasibleParams(a_fn=np.full((1, 1, 2), a_fill), v_fn=np.full((1, 1), v_fill))


def test_construct_reward_single_state_example():
    """Deterministic profile (a0, b0), gamma 0.5, V = 0.4, A = 0.2 on masked
    entries: reward 0.2 on the equilibrium row, 0 on masked deviations."""
    rng = np.random.default_rng(0)
    game = random_markov_game(rng, 1, (2, 2), 0.5)
    policy = deterministic_policy((2, 2), 1, [0, 0])
    mask = event_mask(policy)
    params = FeasibleParams(a_fn=np.where(mask, 0.2, 0.0), v_fn=np.full((2, 1), 0.4))
    reward = construct_reward(game, policy, params, rmax=1.0)
    assert np.allclose(reward.tables[:, 0, 0], 0.2)
    assert abs(reward.tables[0, 0, 2]) < 1e-12  # agent 0's masked deviation row
    assert abs(reward.tables[1, 0, 1]) < 1e-12
    assert nash_gap(game, reward, policy).gap < 1e-9


def test_construct_reward_rejects_out_of_range():
    rng = np.random.default_rng(4)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    policy = random_joint_policy(rng, game)
    params = FeasibleParams(a_fn=np.zeros((2, 2, 4)), v_fn=np.full((2, 2), 5.0))
    with pytest.raises(OutOfRangeError):
        construct_reward(game, policy, params, rmax=1.0)


def test_decompose_constant_reward():
    rng = np.random.default_rng(6)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    policy = random_joint_policy(rng, game)
    reward = JointReward(np.full((2, 2, 4), 0.3), rmax=[1.0, 1.0])
    params = decompose_reward(game, policy, reward)
    assert np.allclose(params.v_fn, 0.6)
    assert np.abs(params.a_fn).max() < 1e-12


def test_decompose_pd_penalty(pd):
    game, reward, dd, _ = pd
    params = decompose_reward(game, dd, reward)
    # A(s, (C, D)) = V - Q(C, D) = 0.4 - 0.2 for agent 0
    assert abs(params.a_fn[0, 0, 1] - 0.2) < 1e-12


def test_decompose_requires_feasibility(pd):
    game, reward, _, cc = pd
    with pytest.raises(NotFeasibleError):
        decompose_reward(game, cc, reward)


def test_round_trip_contract_on_pd(pd):
    """Exact on masked and equilibrium-support entries; elsewhere the
    reconstruction is a feasible completion."""
    game, reward, dd, _ = pd
    params = decompose_reward(game, dd, reward)
    back = construct_reward(game, dd, params, rmax=1.0)
    pinned = event_mask(dd) | (dd.joint_table() > 0)[None, :, :]
    err = np.abs(back.tables - reward.tables)
    assert err[pinned].max() <= 1e-12
    assert check_implicit(game, back, dd).passed
    assert nash_gap(game, back, dd).gap <= 1e-9


def test_round_trip_on_constructed_instances():
    for seed in range(20):
        game, policy = make_instance(seed, n_states=3, gamma=0.6)
        reward = sample_reward_family(game, policy, 1.0, 1, seed=seed)[0]
        params = decompose_reward(game, policy, reward)
        back = construct_reward(game, policy, params, rmax=1.0)
        assert np.abs(back.tables - reward.tables).max() <= 1e-8


def test_error_propagation_trivial_and_factored():
    rng = np.random.default_rng(8)
    game = random_markov_game(rng, 3, (2, 2), 0.6)
    policy = random_joint_policy(rng, game)
    reward = sample_reward_family(game, policy, 1.0, 1, seed=1)[0]
    params = decompose_reward(game, policy, reward)
    mask = event_mask(policy)
    zero = error_propagation_bound(params, mask, mask, game.transitions, game.transitions)
    assert np.abs(zero).max() < 1e-15

    p_hat = rng.dirichlet(np.ones(3), size=(3, 4))
    const = FeasibleParams(a_fn=params.a_fn, v_fn=np.full((2, 3), 0.7))
    bound = error_propagation_bound(const, mask, mask, game.transitions, p_hat)
    l1 = np.abs(game.transitions - p_hat).sum(-1)
    assert np.allclose(bound, 0.7 * l1[None, :, :])


def test_error_propagation_witness_realizability():
    for seed in range(20):
        game, policy = make_instance(seed, n_states=3, gamma=0.6)
        reward = sample_reward_family(game, policy, 1.0, 1, seed=seed)[0]
        params = decompose_reward(game, policy, reward)
        rng = np.random.default_rng(seed + 10_000)
        p_hat = game.transitions + 0.05 * rng.random(game.transitions.shape)
        p_hat = p_hat / p_hat.sum(-1, keepdims=True)
        _, policy_hat = make_instance(seed + 5_000, n_states=3, gamma=0.6)
        bound = error_propagation_bound(
            params, event_mask(policy), event_mask(policy_hat), game.transitions, p_hat
        )
        r_true = witness_reward_tables(game, policy, params)
        r_hat = witness_reward_tables(game.with_transitions(p_hat), policy_hat, params)
        assert np.all(np.abs(r_true - r_hat) <= bound + 1e-10)


def test_nash_gap_bound_examples(pd):
    game, reward, dd, cc = pd
    bound = nash_gap_bound(game, game, reward, reward, dd, cc)
    assert bound >= 0.0
    assert deviation_gain(game, reward, dd, cc, 0) <= 1e-10

    shifted = JointReward(reward.tables + 0.1, reward.rmax + 0.1)
    bound = nash_gap_bound(game, game, reward, shifted, dd, cc)
    assert abs(bound - 2 * 0.1 / (1 - 0.5)) < 1e-12

    with pytest.raises(NotFeasibleError):
        nash_gap_bound(game, game, reward, reward, cc, dd)  # (C,C) is no equilibrium


def test_nash_gap_bound_dominates_direct():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        game = random_markov_game(rng, 3, (2, 2), 0.6)
        expert = random_joint_policy(np.random.default_rng(seed + 5), game, deterministic=True)
        reward = sample_reward_family(game, expert, 1.0, 1, seed=seed)[0]
        p_hat = game.transitions + 0.03 * rng.random(game.transitions.shape)
        p_hat = p_hat / p_hat.sum(-1, keepdims=True)
        game_hat = game.with_transitions(p_hat)
        reward_hat = sample_reward_family(game_hat, expert, 1.0, 1, seed=seed)[0]
        deviator = random_joint_policy(rng, game)
        bound = nash_gap_bound(game, game_hat, reward, reward_hat, expert, deviator)
        direct = max(deviation_gain(game, reward, expert, deviator, i) for i in range(2))
        assert bound >= direct - 1e-9


def test_implicit_iff_nash_gap():
    """check_implicit passes exactly when the policy is an equilibrium."""
    for seed in range(15):
        game, policy = make_instance(seed, n_states=3, gamma=0.6)
        feasible = sample_reward_family(game, policy, 1.0, 1, seed=seed)[0]
        assert check_implicit(game, feasible, policy, tol=1e-8).passed
        assert nash_gap(game, feasible, policy).gap <= 1e-8 / (1 - game.gamma)
        rng = np.random.default_rng(seed + 999)
        arbitrary = random_reward(rng, game)
        ok = check_implicit(game, arbitrary, policy, tol=1e-6).passed
        gap_small = nash_gap(game, arbitrary, policy).gap <= 1e-6 / (1 - game.gamma)
        assert ok == gap_small
