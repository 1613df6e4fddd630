import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mairl.equilibrium
from mairl.dp import (
    _reply_kernel,
    _reply_weights,
    expected_advantage_table,
    own_action_marginal,
    policy_evaluation,
)
from mairl.errors import DimensionMismatchError
from mairl.equilibrium import (
    best_response,
    bimatrix_nash,
    matrix_ne_check,
    nash_gap,
    nash_value_iteration,
)
from mairl.games import JointPolicy, JointReward, deterministic_policy
from mairl.gridworld import GridGameSpec, build_grid_game
from mairl.synthetic import (
    random_joint_policy,
    random_markov_game,
    random_reward,
    single_state_game,
)

from conftest import grid_setup


def test_negative_agent_reads_the_last_agent():
    """Agent -1 is agent n - 1, as in `per_agent`, `reward.tables` and
    `game.agent_actions`; its opponents are not every agent."""
    rng = np.random.default_rng(0)
    game = random_markov_game(rng, 3, (2, 3), 0.8)
    reward = random_reward(rng, game)
    policy = random_joint_policy(rng, game)
    last = game.n_agents - 1
    assert policy.opponent_table(-1).tobytes() == policy.opponent_table(last).tobytes()
    neg, pos = best_response(game, reward, policy, -1), best_response(game, reward, policy, last)
    assert neg.actions.tolist() == pos.actions.tolist() == [1, 0, 2]
    assert neg.value.tobytes() == pos.value.tobytes()
    assert neg.gap_per_state.tobytes() == pos.gap_per_state.tobytes()
    values = policy_evaluation(game, reward, policy)
    table = reward.tables[last]
    for got, want in [
        (expected_advantage_table(game, policy, values, -1),
         expected_advantage_table(game, policy, values, last)),
        (own_action_marginal(game, policy, -1, table),
         own_action_marginal(game, policy, last, table)),
        (_reply_weights(game, policy, -1, 1), _reply_weights(game, policy, last, 1)),
        (_reply_kernel(game, policy, -1, 1), _reply_kernel(game, policy, last, 1)),
    ]:
        assert got.tobytes() == want.tobytes()
    for agent in (game.n_agents, -game.n_agents - 1):
        with pytest.raises(IndexError):
            policy.opponent_table(agent)


def test_best_response_pd(pd):
    game, reward, _, cc = pd
    br = best_response(game, reward, cc, agent=0)
    assert br.actions.tolist() == [1]
    assert abs(br.value[0] - 2.0) < 1e-12
    assert br.gap_per_state.min() >= -1e-10


def test_best_response_tie_breaks_low(pd):
    game, _, dd, _ = pd
    flat = JointReward(np.full((2, 1, 4), 0.5), rmax=[1.0, 1.0])
    br = best_response(game, flat, dd, agent=0)
    assert br.actions.tolist() == [0]
    assert np.abs(br.gap_per_state).max() < 1e-10


def test_best_response_vs_exhaustive_enumeration():
    """Every deterministic stationary reply is weakly worse than the BR."""
    rng = np.random.default_rng(21)
    game = random_markov_game(rng, 3, (2, 2), 0.75)
    reward = random_reward(rng, game)
    policy = random_joint_policy(rng, game)
    br = best_response(game, reward, policy, agent=0)
    for actions in itertools.product(range(2), repeat=3):
        candidate = JointPolicy(
            [
                deterministic_policy((2,), 3, [list(actions)]).per_agent[0],
                policy.per_agent[1],
            ]
        )
        v = policy_evaluation(game, reward, candidate).v[0]
        assert np.all(v <= br.value + 1e-9)


def test_nash_gap_examples(pd):
    game, reward, dd, cc = pd
    assert nash_gap(game, reward, dd).gap < 1e-10
    rep = nash_gap(game, reward, cc)
    assert abs(rep.gap - 0.8) < 1e-12
    flat = JointReward(np.full((2, 1, 4), 0.1), rmax=[1.0, 1.0])
    assert nash_gap(game, flat, cc).gap < 1e-10
    mu_rep = nash_gap(game, reward, cc, initial_state_mode="mu-weighted")
    assert abs(mu_rep.gap - 0.8) < 1e-12  # single state: both modes agree


def test_nash_gap_evaluates_the_policy_once(monkeypatch):
    """One policy evaluation serves every agent's gap, and each gap has the
    bits of that agent's `best_response` gap, in both modes."""
    rng = np.random.default_rng(4)
    game = random_markov_game(rng, 5, (2, 3), 0.8)
    reward = random_reward(rng, game)
    policy = random_joint_policy(rng, game)
    brs = [best_response(game, reward, policy, i).gap_per_state for i in range(2)]
    calls = []
    evaluate = mairl.equilibrium.policy_evaluation

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(mairl.equilibrium, "policy_evaluation", counting)
    for mode, aggregate in (("max-over-states", np.max), ("mu-weighted", game.mu.__matmul__)):
        calls.clear()
        got = nash_gap(game, reward, policy, initial_state_mode=mode).per_agent_gap
        assert len(calls) == 1
        want = np.maximum([aggregate(gain) for gain in brs], 0.0)
        assert got.tobytes() == want.tobytes()


def test_matrix_ne_check_examples(pd):
    game, reward, dd, cc = pd
    ok = matrix_ne_check(game, reward, dd)
    assert ok.passed and ok.worst_violation <= 1e-12
    bad = matrix_ne_check(game, reward, cc)
    assert not bad.passed
    assert abs(bad.worst_violation - 0.4) < 1e-9


def test_unknown_gap_mode_and_unequal_payoff_shapes_raise(pd):
    game, reward, dd, _ = pd
    with pytest.raises(ValueError, match="unknown initial_state_mode"):
        nash_gap(game, reward, dd, initial_state_mode="other")
    for a, b in ((np.zeros((2, 2)), np.zeros((2, 3))), (np.zeros(4), np.zeros(4))):
        with pytest.raises(DimensionMismatchError, match="payoff shapes"):
            bimatrix_nash(a, b)


def test_matrix_check_agrees_with_nash_gap():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        game = random_markov_game(rng, 3, (2, 2), 0.6)
        reward = random_reward(rng, game)
        policy = random_joint_policy(rng, game, deterministic=bool(seed % 2))
        tol = 1e-6
        check = matrix_ne_check(game, reward, policy, tol=tol)
        gap = nash_gap(game, reward, policy).gap
        assert check.passed == (gap <= tol / (1 - game.gamma))


def test_bimatrix_examples():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    eq = bimatrix_nash(a, 1 - a)
    assert np.allclose(eq.row_strategy, [0.5, 0.5])
    assert np.allclose(eq.col_strategy, [0.5, 0.5])

    pd_a = np.array([[0.6, 0.0], [1.0, 0.2]])
    eq = bimatrix_nash(pd_a, pd_a.T)
    assert eq.supports == ((1,), (1,))

    one = bimatrix_nash(np.array([[2.0]]), np.array([[2.0]]))
    assert one.row_strategy.tolist() == [1.0] and one.col_strategy.tolist() == [1.0]

    with pytest.raises(ValueError):
        bimatrix_nash(np.array([[np.inf]]), np.array([[1.0]]))


def test_a_support_whose_clipped_mix_moves_its_payoffs_off_the_value_is_rejected():
    """The row player's indifference solve gives the column mix (1 + e, -e),
    e = 5e-10, inside -_STAGE_TOL, so it is clipped to (1, 0). No row then
    pays more than the value v, but both support rows pay up to 1e-6 less,
    beyond 10 _STAGE_TOL, and the pair is rejected; with the players'
    roles swapped the column side is."""
    tol = mairl.equilibrium._STAGE_TOL
    a = np.array([[1000.0 + 5e-7, 0.0], [1000.0, -1000.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    y, v = mairl.equilibrium._indifferent_mix(a, (0, 1), 2)
    assert y.tolist() == [1.0, 0.0]
    assert np.max(a @ y) <= v + tol and np.max(np.abs(a @ y - v)) > 10 * tol
    assert mairl.equilibrium._try_support(a, b, (0, 1), (0, 1)) is None
    assert mairl.equilibrium._try_support(b.T, a.T, (0, 1), (0, 1)) is None


def test_bimatrix_says_so_when_enumeration_finds_nothing(monkeypatch):
    """Matching pennies has no pure equilibrium; with every larger support
    pair rejected, enumeration runs out and raises rather than return."""
    monkeypatch.setattr(mairl.equilibrium, "_try_support", lambda *args: None)
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(RuntimeError, match="found no equilibrium"):
        bimatrix_nash(a, 1 - a)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bimatrix_no_profitable_deviation(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    a = rng.normal(size=(m, n))
    b = rng.normal(size=(m, n))
    eq = bimatrix_nash(a, b)
    row_val = eq.row_strategy @ a @ eq.col_strategy
    col_val = eq.row_strategy @ b @ eq.col_strategy
    assert np.max(a @ eq.col_strategy) <= row_val + 1e-9
    assert np.max(eq.row_strategy @ b) <= col_val + 1e-9


@st.composite
def _stage_games(draw):
    """(a, b) of shape 1-4 x 1-4, with float payoffs or tied payoffs in {0, 1, 2}."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    entries = draw(st.sampled_from([floats, st.sampled_from([0.0, 1.0, 2.0])]))
    a, b = (np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n))) for _ in "ab")
    return a.reshape(m, n), b.reshape(m, n)


@settings(max_examples=200, deadline=None)
@given(game=_stage_games())
def test_bimatrix_selects_the_first_pure_equilibrium(game):
    a, b = game
    m, n = a.shape
    # a pure equilibrium: neither player gains more than tol by a pure deviation
    pure = [
        (i, j)
        for i in range(m)
        for j in range(n)
        if a[:, j].max() <= a[i, j] + 1e-9 and b[i, :].max() <= b[i, j] + 1e-9
    ]
    eq = bimatrix_nash(a, b)
    if not pure:
        assert min(len(eq.supports[0]), len(eq.supports[1])) >= 2
        return
    _assert_pure_profile(eq, a, b, *pure[0])


def _assert_pure_profile(eq, a, b, i, j):
    assert eq.supports == ((i,), (j,))
    assert eq.row_strategy.tolist() == np.eye(a.shape[0])[i].tolist()
    assert eq.col_strategy.tolist() == np.eye(a.shape[1])[j].tolist()
    assert eq.payoffs == (a[i, j], b[i, j])


def test_nash_value_iteration_pd(pd):
    game, reward, _, _ = pd
    res = nash_value_iteration(game, reward)
    assert res.converged
    assert np.allclose(res.policy.per_agent[0], [[0.0, 1.0]])
    assert np.allclose(res.policy.per_agent[1], [[0.0, 1.0]])


def test_nash_value_iteration_warning_reports_last_delta(pd):
    game, reward, _, _ = pd
    # the first backup from Q = 0 moves Q by the largest reward, 1.0
    with pytest.warns(RuntimeWarning, match=r"last delta 1\.000e\+00, tolerance 1e-08"):
        res = nash_value_iteration(game, reward, max_iters=1)
    assert not res.converged


def test_nash_value_iteration_zero_reward():
    game = single_state_game((2, 2), 0.9)
    reward = JointReward(np.zeros((2, 1, 4)), rmax=[1.0, 1.0])
    res = nash_value_iteration(game, reward)
    assert nash_gap(game, reward, res.policy).gap < 1e-12


def test_nash_value_iteration_grid_expert():
    game, reward, index = build_grid_game(GridGameSpec())
    res = nash_value_iteration(game, reward)
    assert res.converged
    assert nash_gap(game, reward, res.policy).gap <= 1e-6
    # both agents reach their goals from the start
    assert abs(res.values[0, index.start_state] - 0.9**3) < 1e-9
    assert abs(res.values[1, index.start_state] - 0.9**3) < 1e-9


def test_nash_q_learning_requires_two_agents():
    rng = np.random.default_rng(0)
    game = random_markov_game(rng, 2, (2, 2, 2), 0.5)
    reward = random_reward(rng, game)
    with pytest.raises(ValueError):
        nash_value_iteration(game, reward)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 72, 15), (3, 72, 16)])
def test_reward_that_is_not_the_games_shape_is_rejected(shape):
    # a (1, 1, 1) table would broadcast through the NashQ backup and converge
    game = grid_setup().game
    bad = JointReward(np.zeros(shape), rmax=np.ones(shape[0]))
    policy = deterministic_policy(game.action_counts, game.n_states, [0, 0])
    with pytest.raises(DimensionMismatchError):
        nash_value_iteration(game, bad)
    for agent in range(2):
        with pytest.raises(DimensionMismatchError):
            best_response(game, bad, policy, agent)
    with pytest.raises(DimensionMismatchError):
        nash_gap(game, bad, policy)
