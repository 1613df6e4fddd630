import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mairl.reward_select
import mairl.simplex
from mairl.equilibrium import matrix_ne_check, nash_gap
from mairl.errors import DimensionMismatchError, NotFeasibleError
from mairl.estimation import CountBook, estimate
from mairl.feasible import ImplicitCheckReport, check_implicit
from mairl.games import JointReward
from mairl.gridworld import GridGameSpec
from mairl.reward_select import (
    _advantage_rows,
    _antipodal_rows,
    _dual_margin_lp,
    _lexicographic_margin,
    _margin_lp,
    _primal_margin_lp,
    behavior_cloning,
    max_gap_reward,
)
from mairl.synthetic import random_joint_policy, random_markov_game

from conftest import grid_setup, make_instance, one_round_estimate
from test_projection_reference import assert_matches_reference, random_problem


def dense_advantage_rows(game, policy, agent, reward_class):
    """Reference rows from the stacked (S*A) x (S*A) system Q = (I - gamma P pi)^{-1} R:
    row (s, d) is (e_dev(s, d) - e_pi(s)) applied to that inverse, lifted onto
    per-state rewards for the "state" class."""
    S, A = game.n_states, game.n_joint_actions
    n_own = game.action_counts[agent]
    joint = policy.joint_table()
    pi_op = np.zeros((S, S * A))
    idx = np.arange(S)[:, None] * A + np.arange(A)[None, :]
    pi_op[np.repeat(np.arange(S), A), idx.ravel()] = joint.ravel()
    M = np.eye(S * A) - game.gamma * game.transitions.reshape(S * A, S) @ pi_op
    opp = policy.opponent_table(agent)
    own = game.agent_actions[agent]
    W = np.zeros((S * n_own, S * A))
    cols = np.arange(A)
    for s in range(S):
        for d in range(n_own):
            row = W[s * n_own + d]
            sel = own == d
            row[s * A + cols[sel]] = opp[s, sel]
            row[s * A + cols] -= joint[s]
    U = np.linalg.solve(M.T, W.T).T
    if reward_class == "state":
        lift = np.zeros((S * A, S))
        for s in range(S):
            lift[s * A : (s + 1) * A, s] = 1.0
        U = U @ lift
    return U


def advantage_row_cases():
    for seed in range(6):
        counts = (2, 3) if seed % 2 else (2, 2, 3)
        yield make_instance(500 + seed, n_states=4, action_counts=counts, gamma=0.8)
    board = grid_setup()
    yield board.game, board.expert


@pytest.mark.parametrize("reward_class", ["state-action", "state"])
def test_advantage_rows_match_dense_system(reward_class):
    rng = np.random.default_rng(0)
    for game, policy in advantage_row_cases():
        S, A = game.n_states, game.n_joint_actions
        rows = []
        tables = np.zeros((game.n_agents, S, A))
        for i in range(game.n_agents):
            U = _advantage_rows(game, policy, i, reward_class)
            np.testing.assert_allclose(
                U, dense_advantage_rows(game, policy, i, reward_class), rtol=0, atol=1e-12
            )
            x = rng.uniform(size=U.shape[1])
            tables[i] = x.reshape(S, -1)
            rows.append(U @ x)
        worst = matrix_ne_check(game, JointReward(tables, 1.0), policy).worst_violation
        assert abs(max(float(r.max()) for r in rows) - worst) <= 1e-12


def test_lp_iterations_count_every_lexicographic_round(monkeypatch):
    pivots = []
    solve_lp = mairl.reward_select.solve_lp

    def counting(lp):
        sol = solve_lp(lp)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(mairl.reward_select, "solve_lp", counting)
    # one group, so every LP runs in this process, where the recorder sees it
    monkeypatch.setattr(mairl.reward_select, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(0)
    game = random_markov_game(rng, 4, (2, 2), 0.6)
    policy = random_joint_policy(rng, game, deterministic=True)
    res = max_gap_reward(game, policy, rmax=1.0, reward_class="state")
    assert len(pivots) > game.n_agents  # some agent needed a second round
    assert res.lp_iterations == sum(pivots)


def recorded_cores(monkeypatch):
    """Shapes of the constraint matrices the simplex core starts on, and its runs."""
    shapes, runs = [], []
    start, run = mairl.simplex._BoundedSimplex.start, mairl.simplex._BoundedSimplex.run

    def recording_start(self, *args):
        shapes.append(self.A.shape)
        return start(self, *args)

    def recording_run(self, objective):
        runs.append(objective)
        return run(self, objective)

    monkeypatch.setattr(mairl.simplex._BoundedSimplex, "start", recording_start)
    monkeypatch.setattr(mairl.simplex._BoundedSimplex, "run", recording_run)
    return shapes, runs


def test_grid_margin_lp_starts_feasible(monkeypatch):
    # the state-action class keeps the primal: -U x - t m >= 0 holds at x = 0,
    # t = 0, so the slack basis is feasible and phase 1 is skipped: one run of
    # the core, for phase 2, on one row per deviation
    board = grid_setup()
    game, policy = board.game, board.expert
    shapes, runs = recorded_cores(monkeypatch)
    U = _advantage_rows(game, policy, 0, "state-action")
    mask = (policy.per_agent[0] == 0.0).ravel()
    _margin_lp(U, mask, 1.0, game.gamma)
    assert [shape[0] for shape in shapes] == [U.shape[0]]
    assert len(runs) == 1


def test_state_class_margin_lp_solves_the_dual(monkeypatch):
    # n + 1 rows U^T y + z >= 0, 1_margin^T y + w >= 1; only the last row's
    # slack cannot carry the start residual 1, so one artificial and phase 1
    board = grid_setup()
    game, policy = board.game, board.expert
    shapes, runs = recorded_cores(monkeypatch)
    U = _advantage_rows(game, policy, 0, "state")
    m, S = U.shape
    mask = (policy.per_agent[0] == 0.0).ravel()
    _margin_lp(U, mask, 1.0, game.gamma)
    structural, slacks, artificials = m + S + 1, S + 1, 1
    assert shapes == [(S + 1, structural + slacks + artificials)]
    assert len(runs) == 2


def assert_margin_optimal(U, margin_rows, rmax_i, gamma, x, t, y, tol=1e-9):
    """(x, t) is feasible for the margin LP, y >= 0, and y's dual objective
    equals t, so both are optimal (strong duality)."""
    cap = rmax_i / (1.0 - gamma)
    assert np.max(U @ x + t * margin_rows, initial=-np.inf) <= tol
    assert np.all(x >= -tol) and np.all(x <= rmax_i + tol)
    assert -tol <= t <= cap + tol
    assert np.all(y >= -tol)
    y = np.maximum(y, 0.0)
    dual_value = rmax_i * np.maximum(-U.T @ y, 0.0).sum() + cap * max(1.0 - margin_rows @ y, 0.0)
    assert abs(dual_value - t) <= tol


def lexicographic_rounds(U, mask, live, rmax_i, gamma, margin_lp):
    """`_lexicographic_margin` with `margin_lp` as its LP; also returns every
    round's (margin rows, x, t, y)."""
    rounds = []

    def recording(U, margin_rows, rmax_i, gamma):
        x, t, y, pivots = margin_lp(U, margin_rows, rmax_i, gamma)
        rounds.append((margin_rows, x, t, y))
        return x, t, y, pivots

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mairl.reward_select, "_margin_lp", recording)
        x, t, margin_rows, _ = _lexicographic_margin(U, mask, live, rmax_i, gamma)
    return x, t, margin_rows, rounds


# the primal's lexicographic (margin, pinned count) per agent on the 4x4
# expert, where it takes ~13 s against the dual's ~0.4 s
PRIMAL_4X4 = [(0.3913043478260855, 8), (0.3131868131868113, 3)]


@pytest.mark.parametrize("width, height", [(3, 3), (4, 3), (4, 4)])
def test_dual_margin_lp_matches_primal_on_grid_experts(width, height):
    board = grid_setup(GridGameSpec(width=width, height=height))
    game, policy = board.game, board.expert
    for agent in range(game.n_agents):
        U = _advantage_rows(game, policy, agent, "state")
        assert U.shape[0] > U.shape[1] + 1  # the state class takes the dual
        mask = (policy.per_agent[agent] == 0.0).ravel()
        live = np.linalg.norm(U, axis=1) > mairl.reward_select._DEAD_ROW
        x, t, margin_rows, rounds = lexicographic_rounds(
            U, mask, live, 1.0, game.gamma, _margin_lp
        )
        for rows, x_k, t_k, y_k in rounds:
            assert_margin_optimal(U, rows, 1.0, game.gamma, x_k, t_k, y_k)
        pinned = int(np.sum(mask & live & ~margin_rows))
        margin = -float((U @ x)[margin_rows].max())
        assert abs(margin - t) <= 1e-9
        if (width, height) == (4, 4):
            want_margin, want_pinned = PRIMAL_4X4[agent]
        else:
            _, want_margin, want_rows, want_rounds = lexicographic_rounds(
                U, mask, live, 1.0, game.gamma, _primal_margin_lp
            )
            want_pinned = int(np.sum(mask & live & ~want_rows))
            assert len(rounds) == len(want_rounds)
        assert abs(margin - want_margin) <= 1e-9
        assert pinned == want_pinned


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=14),
    n=st.integers(min_value=1, max_value=5),
    levels=st.sampled_from([1, 2, 8]),
)
def test_dual_margin_lp_matches_primal_on_random_rows(seed, m, n, levels):
    # entries on a coarse grid make ties, zero margins and tied certificates
    rng = np.random.default_rng(seed)
    U = rng.integers(-levels, levels + 1, size=(m, n)) / levels
    mask = rng.random(m) < 0.6
    live = np.linalg.norm(U, axis=1) > mairl.reward_select._DEAD_ROW
    rmax_i, gamma = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 0.95))
    rows = mask & live
    primal = _primal_margin_lp(U, rows, rmax_i, gamma)
    dual = _dual_margin_lp(U, rows, rmax_i, gamma)
    for x, t, y, _ in (primal, dual):
        assert_margin_optimal(U, rows, rmax_i, gamma, x, t, y)
    assert abs(dual[1] - primal[1]) <= 1e-9
    # the pinned rows are the margin rows that are zero at every feasible
    # point, so both forms pin the same rows and end on the same margin
    _, t_dual, rows_dual, _ = lexicographic_rounds(U, mask, live, rmax_i, gamma, _dual_margin_lp)
    _, t_primal, rows_primal, _ = lexicographic_rounds(
        U, mask, live, rmax_i, gamma, _primal_margin_lp
    )
    assert abs(t_dual - t_primal) <= 1e-9
    assert np.array_equal(rows_dual, rows_primal)


@pytest.mark.parametrize("width, height", [(3, 3), (4, 3), (4, 4)])
def test_pre_pinned_pairs_leave_the_loop_one_margin_lp(width, height, monkeypatch):
    # the loop alone is the oracle: pinning the antipodal pairs first pins the
    # same rows and ends on the same LP, so x and t keep their bits
    spec = GridGameSpec(width=width, height=height)
    board = grid_setup(spec)
    cases = [(board.game, board.expert), one_round_estimate(spec)]
    for game, policy in cases:
        for agent in range(game.n_agents):
            U = _advantage_rows(game, policy, agent, "state")
            mask = (policy.per_agent[agent] == 0.0).ravel()
            norms = np.linalg.norm(U, axis=1)
            live = norms > mairl.reward_select._DEAD_ROW
            x, t, margin_rows, _ = lexicographic_rounds(U, mask, live, 1.0, game.gamma, _margin_lp)
            pairs = _antipodal_rows(U, mask & live, norms)
            x_pre, t_pre, rows_pre, rounds = lexicographic_rounds(
                U, mask & ~pairs, live, 1.0, game.gamma, _margin_lp
            )
            # on the grids the loop pins exactly the pairs
            assert np.array_equal(pairs, mask & live & ~margin_rows)
            assert np.array_equal(rows_pre, margin_rows)
            assert x_pre.tobytes() == x.tobytes() and t_pre == t
            assert len(rounds) == 1
    # and through max_gap_reward, one margin LP per agent
    calls = []
    margin_lp = mairl.reward_select._margin_lp

    def counting(*args):
        calls.append(args)
        return margin_lp(*args)

    monkeypatch.setattr(mairl.reward_select, "_margin_lp", counting)
    # one group, so every LP runs in this process, where the counter sees it
    monkeypatch.setattr(mairl.reward_select, "_usable_cpus", lambda: 1)
    for game, policy in cases:
        calls.clear()
        max_gap_reward(game, policy, 1.0, reward_class="state")
        assert len(calls) == game.n_agents


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=14),
    n=st.integers(min_value=1, max_value=5),
    levels=st.sampled_from([1, 2, 8]),
    planted=st.lists(
        st.tuples(st.integers(min_value=0, max_value=13), st.sampled_from([-3.0, -1.0, -0.5, 2.0])),
        max_size=6,
    ),
    rows=st.none(),
)
# the second row is -2 times the first; its zero is -0.0 where the first
# row's negation has 0.0, so only the rounding's + 0.0 lets their bytes match
@example(seed=0, m=2, n=2, levels=1, planted=[], rows=[[1.0, 0.0], [-2.0, -0.0]])
def test_pre_pinned_rows_are_antipodal_pairs(seed, m, n, levels, planted, rows):
    # integer-grid rows as in the test above, plus negated and scaled copies
    # of some of them, whose zeros are -0.0 where the scale is negative
    rng = np.random.default_rng(seed)
    if rows is None:
        U = rng.integers(-levels, levels + 1, size=(m, n)) / levels
        copies = [U[r % m] * c for r, c in planted]
        U = np.vstack([U, *copies])[rng.permutation(m + len(copies))]
        mask = rng.random(len(U)) < 0.6
    else:
        U = np.array(rows)
        mask = np.ones(len(U), dtype=bool)
    norms = np.linalg.norm(U, axis=1)
    live = norms > mairl.reward_select._DEAD_ROW
    rmax_i, gamma = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 0.95))
    pairs = _antipodal_rows(U, mask & live, norms)
    assert not np.any(pairs & ~(mask & live))
    unit = U / np.where(live, norms, 1.0)[:, None]
    for r1 in np.flatnonzero(pairs):
        partners = [r2 for r2 in np.flatnonzero(pairs) if np.allclose(unit[r1], -unit[r2])]
        assert partners  # U[r1] = -c U[r2] with c = norms[r1] / norms[r2] > 0
        only_pair = np.zeros_like(mask)
        only_pair[[r1, partners[0]]] = True
        assert _margin_lp(U, only_pair, rmax_i, gamma)[1] <= 1e-9
    _, t, _, _ = _lexicographic_margin(U, mask, live, rmax_i, gamma)
    _, t_pre, _, _ = _lexicographic_margin(U, mask & ~pairs, live, rmax_i, gamma)
    assert abs(t_pre - t) <= 1e-9
    if rows is not None:
        assert pairs.all()


def state_action_cases():
    """The advantage-row cases (the 3x3 expert among them), the 3x3 one-round
    estimate, the 4x3 expert, and the random games the tests above build."""
    yield from advantage_row_cases()
    yield one_round_estimate(GridGameSpec())
    board = grid_setup(GridGameSpec(width=4, height=3))
    yield board.game, board.expert
    for seed in [*range(8), 12]:
        yield make_instance(seed, n_states=3, gamma=0.7)
    rng = np.random.default_rng(3)
    game = random_markov_game(rng, 4, (2, 2), 0.6)
    yield game, random_joint_policy(rng, game, deterministic=True)


def test_state_action_selection_skips_the_pair_search(monkeypatch):
    # the former selection pinned `_antipodal_rows` first in both classes; in
    # the state-action class it finds no pair on these games, so the loop
    # gets the rows it got then and returns the same rows, x and t
    loops = []
    loop = mairl.reward_select._lexicographic_margin

    def recording(U, mask, live, rmax_i, gamma):
        loops.append((mask, loop(U, mask, live, rmax_i, gamma)))
        return loops[-1][1]

    def searching(*args):
        raise AssertionError("the state-action class searched for antipodal pairs")

    monkeypatch.setattr(mairl.reward_select, "_lexicographic_margin", recording)
    for game, policy in state_action_cases():
        for agent in range(game.n_agents):
            U = _advantage_rows(game, policy, agent, "state-action")
            mask = (policy.per_agent[agent] == 0.0).ravel()
            norms = np.linalg.norm(U, axis=1)
            live = norms > mairl.reward_select._DEAD_ROW
            pairs = _antipodal_rows(U, mask & live, norms)
            assert not pairs.any()
            with monkeypatch.context() as patch:
                patch.setattr(mairl.reward_select, "_antipodal_rows", searching)
                x, _, _, pinned, _, _ = mairl.reward_select._select_agent(
                    game, policy, np.ones(game.n_agents), "state-action", None, agent
                )
            given, (x_loop, _, margin_rows, _) = loops.pop()
            assert np.array_equal(given, mask & ~pairs)
            assert x.tobytes() == x_loop.tobytes()
            assert pinned == int(np.sum(mask & live & ~margin_rows))


@pytest.mark.parametrize(
    "reward_class, expected",
    [
        # margins of the all-artificial start; the slack start must reproduce them
        ("state", [0.4072398190045177, 0.4090909090908768]),
        ("state-action", [0.9999999999999666, 0.9999999999998361]),
    ],
)
def test_grid_margins_match_artificial_start(reward_class, expected):
    board = grid_setup()
    res = max_gap_reward(board.game, board.expert, rmax=1.0, reward_class=reward_class)
    np.testing.assert_allclose(res.margins, expected, rtol=0, atol=1e-9)


def test_pd_max_margin(pd):
    game, _, dd, _ = pd
    res = max_gap_reward(game, dd, rmax=1.0)
    assert np.allclose(res.margins, 1.0)
    # the margin-1 extractor pays exactly the equilibrium joint action
    assert np.allclose(res.reward.tables[:, 0, 3], 1.0)
    assert np.abs(res.reward.tables[:, 0, :3]).max() < 1e-9
    assert nash_gap(game, res.reward, dd).gap < 1e-9
    assert check_implicit(game, res.reward, dd, tol=1e-8).passed


def test_fully_mixed_expert_caps_margin(pennies):
    game, _, uniform = pennies
    res = max_gap_reward(game, uniform, rmax=1.0)
    assert np.allclose(res.margins, 1.0 / (1.0 - game.gamma))
    assert check_implicit(game, res.reward, uniform, tol=1e-8).passed


def test_margin_monotone_in_rmax(pd):
    game, _, dd, _ = pd
    small = max_gap_reward(game, dd, rmax=1.0)
    large = max_gap_reward(game, dd, rmax=2.0)
    assert np.all(large.margins >= small.margins - 1e-10)


def test_scaling_covariance(pd):
    game, _, dd, _ = pd
    base = max_gap_reward(game, dd, rmax=1.0)
    scaled = max_gap_reward(game, dd, rmax=3.0)
    assert np.all(scaled.margins >= 3.0 * base.margins - 1e-8)
    assert check_implicit(game, scaled.reward, dd, tol=1e-8).passed


def test_distance_mode_seeded_and_feasible(pd):
    game, _, dd, _ = pd
    a = max_gap_reward(game, dd, rmax=1.0, mode="distance-to-random", seed=5)
    b = max_gap_reward(game, dd, rmax=1.0, mode="distance-to-random", seed=5)
    assert np.array_equal(a.reward.tables, b.reward.tables)
    assert a.projection_paths == b.projection_paths
    assert len(a.projection_paths) == game.n_agents
    assert max_gap_reward(game, dd, rmax=1.0).projection_paths == ()
    assert np.all(a.margins >= 1.0 - 1e-6 - 1e-9)
    assert check_implicit(game, a.reward, dd, tol=1e-8).passed
    with pytest.raises(ValueError):
        max_gap_reward(game, dd, rmax=1.0, mode="distance-to-random")


def test_mismatched_policy_and_rmax_raise_before_any_lp(pd, monkeypatch):
    game, _, dd, _ = pd
    calls = []
    monkeypatch.setattr(mairl.reward_select, "_lexicographic_margin", lambda *a: calls.append(a))
    _, wider = make_instance(0, n_states=1, action_counts=(2, 3))
    _, longer = make_instance(0, n_states=2, action_counts=(2, 2))
    for policy, rmax in ((wider, 1.0), (longer, 1.0), (dd, [1.0, 1.0, 1.0]), (dd, [[1.0, 1.0]])):
        with pytest.raises(DimensionMismatchError):
            max_gap_reward(game, policy, rmax=rmax)
    for rmax in (0.0, np.nan, np.inf, [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="rmax"):
            max_gap_reward(game, dd, rmax=rmax)
    with pytest.raises(ValueError, match="unknown mode"):
        max_gap_reward(game, dd, rmax=1.0, mode="other", seed=0)
    with pytest.raises(ValueError, match="unknown reward class"):
        max_gap_reward(game, dd, rmax=1.0, reward_class="other")
    assert calls == []


def test_selected_reward_that_fails_the_check_raises(pd, monkeypatch):
    game, _, dd, _ = pd
    failing = ImplicitCheckReport(passed=False, max_violation=1.0)
    monkeypatch.setattr(mairl.reward_select, "check_implicit", lambda *args, **kwargs: failing)
    # one group, so the check runs in this process after an in-process selection
    monkeypatch.setattr(mairl.reward_select, "_usable_cpus", lambda: 1)
    with pytest.raises(NotFeasibleError, match="fails the feasibility check"):
        max_gap_reward(game, dd, rmax=1.0)


def test_feasibility_never_empty_on_random_instances():
    for seed in range(8):
        game, policy = make_instance(seed, n_states=3, gamma=0.7)
        res = max_gap_reward(game, policy, rmax=1.0)
        assert check_implicit(game, res.reward, policy, tol=1e-8).passed
        assert np.all(res.margins >= -1e-10)


def test_distance_mode_on_mixed_estimated_policy():
    """Estimated experts carry mixed rows; the projection must stay feasible."""
    game, policy = make_instance(12, n_states=3, gamma=0.7)
    res = max_gap_reward(game, policy, rmax=1.0, mode="distance-to-random", seed=2)
    assert check_implicit(game, res.reward, policy, tol=1e-8).passed


def test_projection_fallback_is_reported(monkeypatch):
    monkeypatch.setattr(mairl.reward_select, "_polish_projection", lambda *args: None)
    game, policy = make_instance(12, n_states=3, gamma=0.7)
    res = max_gap_reward(game, policy, rmax=1.0, mode="distance-to-random", seed=2)
    assert len(res.projection_paths) == game.n_agents
    assert set(res.projection_paths) <= {"blended", "vertex"}
    assert check_implicit(game, res.reward, policy, tol=1e-8).passed


def test_state_class_on_single_state_games(pd):
    game, _, dd, _ = pd
    res = max_gap_reward(game, dd, rmax=1.0, reward_class="state")
    # one state: state-only rewards cannot separate any deviation, so every
    # advantage row is dead and the margin caps out
    assert np.allclose(res.margins, 1.0 / (1.0 - game.gamma))
    # the reward is constant over joint actions
    assert np.ptp(res.reward.tables, axis=2).max() < 1e-12


def test_state_class_multistate_positive_margin():
    rng = np.random.default_rng(3)
    game = random_markov_game(rng, 4, (2, 2), 0.6)
    policy = random_joint_policy(rng, game, deterministic=True)
    res = max_gap_reward(game, policy, rmax=1.0, reward_class="state")
    assert check_implicit(game, res.reward, policy, tol=1e-8).passed
    assert np.ptp(res.reward.tables, axis=2).max() < 1e-12
    dist = max_gap_reward(game, policy, rmax=1.0, reward_class="state",
                          mode="distance-to-random", seed=7)
    assert check_implicit(game, dist.reward, policy, tol=1e-8).passed
    assert np.all(dist.margins >= res.margins - 1e-6 - 1e-8)


def test_behavior_cloning_identity_and_fallback():
    counts = CountBook(2, (2, 2))
    prob = estimate(counts)
    cloned = behavior_cloning(prob.pi_hat)
    assert cloned is prob.pi_hat
    # with no observations, cloning returns the uniform fallback policy
    assert np.allclose(cloned.per_agent[0], 0.5)


@pytest.mark.parametrize("first_cap", [300, "MAX_SWEEPS"])
def test_momentum_coefficients_follow_the_sweep_cap(first_cap, monkeypatch):
    """The projection's momentum coefficients are computed once per process.
    A table kept from the first call's cap would cut a later run at a
    larger cap short, or carry one at a smaller cap past it. The problem
    here stops at a check between the caps: cut at 300 sweeps it ends on
    the vertex, and under MAX_SWEEPS it stops after 375 and polishes. A cap
    of 310, no multiple of CHECK_EVERY, ends on a last block of 10 sweeps
    with no check after the one at 300, so it too ends on the vertex. In
    either order every run matches `reference_distance_project` bit for bit."""
    real_cap = mairl.reward_select.MAX_SWEEPS
    caps = [300, 310, real_cap] if first_cap == 300 else [real_cap, 310, 300]
    rng = np.random.default_rng(110)
    random_problem(rng, 4, 3, loose=False)
    problem = random_problem(rng, 6, 4, loose=False)
    mairl.reward_select._momentum.cache_clear()
    ends = {}
    for cap in caps:
        monkeypatch.setattr(mairl.reward_select, "MAX_SWEEPS", cap)
        [(_, sweeps, path)] = assert_matches_reference([problem])
        ends[cap] = (sweeps, path)
    assert ends == {300: (300, "vertex"), 310: (310, "vertex"), real_cap: (375, "polished")}
