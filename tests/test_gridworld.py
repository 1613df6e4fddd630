"""The grid games: layout, variants, moves, rewards, and the array build
against `reference_build_grid_game`, the former loop over every (state,
joint action) row, kept here as the test oracle."""

import itertools

import numpy as np
import pytest

from mairl.games import JointReward, MarkovGame
from mairl.gridworld import (
    GOAL_REWARD,
    VARIANTS,
    GridGameSpec,
    GridIndex,
    _move_outcomes,
    build_grid_game,
    variant_spec,
)


def reference_build_grid_game(spec):
    cells = list(itertools.product(range(spec.width), range(spec.height)))
    states = tuple((p0, p1) for p0 in cells for p1 in cells if p0 != p1)
    index = GridIndex(spec, states, {st: i for i, st in enumerate(states)})
    S = len(index.states)
    A = 16
    rows = []  # per (state, joint action): {next state: probability}
    R = np.zeros((2, S, A))
    goals = tuple(tuple(g) for g in spec.goal_positions)
    # per agent, {(cell, action): outcomes}
    moves = [
        {(pos, a): _move_outcomes(spec, i, pos, a) for pos in cells for a in range(4)}
        for i in range(2)
    ]

    for s, (p0, p1) in enumerate(index.states):
        for a0 in range(4):
            for a1 in range(4):
                flat = a0 * 4 + a1
                row = {}
                for (w0, q0), (w1, q1) in itertools.product(moves[0][p0, a0], moves[1][p1, a1]):
                    w = w0 * w1
                    if q0 == q1:
                        q0, q1 = p0, p1
                    t = index.state_of[(q0, q1)]
                    row[t] = row.get(t, 0.0) + w
                    if q0 == goals[0] and p0 != goals[0]:
                        R[0, s, flat] += w * GOAL_REWARD
                    if q1 == goals[1] and p1 != goals[1]:
                        R[1, s, flat] += w * GOAL_REWARD
                rows.append(sorted(row.items()))

    width = max(len(row) for row in rows)
    successors = np.zeros((S * A, width), dtype=np.intp)
    probs = np.zeros((S * A, width))
    for r, row in enumerate(rows):
        for slot, (t, w) in enumerate(row):
            successors[r, slot] = t
            probs[r, slot] = w

    mu = np.zeros(S)
    mu[index.start_state] = 1.0
    game = MarkovGame.from_successors(
        successors.reshape(S, A, width), probs.reshape(S, A, width), spec.gamma, mu, (4, 4)
    )
    reward = JointReward(R, rmax=[spec.rmax, spec.rmax])
    return game, reward, index


def assert_builds_like_reference(spec):
    game, reward, index = build_grid_game(spec)
    want_game, want_reward, want_index = reference_build_grid_game(spec)
    for name in ("successors", "successor_probs", "mu"):
        got, want = getattr(game, name), getattr(want_game, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert reward.tables.tobytes() == want_reward.tables.tobytes()
    assert np.array_equal(reward.rmax, want_reward.rmax)
    assert (game.gamma, game.action_counts) == (want_game.gamma, want_game.action_counts)
    assert index == want_index


def test_state_count_and_actions():
    game, reward, index = build_grid_game(GridGameSpec())
    assert game.n_states == 72
    assert game.n_joint_actions == 16
    assert reward.tables.shape == (2, 72, 16)
    # closed form on another board size
    g2, _, _ = build_grid_game(GridGameSpec(width=2, height=2))
    assert g2.n_states == (2 * 2) ** 2 - 2 * 2 == 12


@pytest.mark.parametrize("width, height", [(2, 2), (3, 3), (4, 3), (4, 4), (5, 5)])
def test_default_layout_is_the_crossing_goals_board(width, height):
    spec = GridGameSpec(width=width, height=height)
    # starts in the bottom corners, agent 0 on the left
    assert spec.start_positions == ((0, 0), (width - 1, 0))
    # each goal is the top corner diagonally opposite its agent's start
    for (c, r), goal in zip(spec.start_positions, spec.goal_positions):
        assert goal == (width - 1 - c, height - 1 - r)
    _, _, index = build_grid_game(spec)
    assert index.states[index.start_state] == spec.start_positions


def test_default_3x3_spec_is_the_explicit_crossing_board():
    explicit = GridGameSpec(
        width=3, height=3, start_positions=((0, 0), (2, 0)), goal_positions=((2, 2), (0, 2))
    )
    assert GridGameSpec() == explicit
    assert hash(GridGameSpec()) == hash(explicit)
    default_game = build_grid_game(GridGameSpec())[:2]
    explicit_game = build_grid_game(explicit)[:2]
    for got, want in zip(default_game, explicit_game):
        for a, b in zip(vars(got).values(), vars(want).values()):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_variants_keep_the_layout_and_an_explicit_layout_wins():
    derived = GridGameSpec(width=4, height=3)
    for variant in ("stochastic-up", "obstacle-both", "obstacle-one"):
        spec = variant_spec(derived, variant)
        assert (spec.width, spec.height, spec.variant) == (4, 3, variant)
        assert spec.start_positions == ((0, 0), (3, 0))
        assert spec.goal_positions == ((3, 2), (0, 2))
    starts, goals = ((1, 0), (2, 1)), ((3, 0), (0, 2))
    spec = GridGameSpec(width=4, height=3, start_positions=starts, goal_positions=goals)
    assert (spec.start_positions, spec.goal_positions) == (starts, goals)
    assert variant_spec(spec, "obstacle-one").start_positions == starts
    # one side given, the other derived
    only_goals = GridGameSpec(width=4, height=3, goal_positions=goals)
    assert only_goals.start_positions == ((0, 0), (3, 0)) and only_goals.goal_positions == goals


def test_rows_stochastic_all_variants():
    base = GridGameSpec()
    for variant in ("deterministic", "stochastic-up", "obstacle-both", "obstacle-one"):
        game, _, _ = build_grid_game(variant_spec(base, variant))
        assert np.abs(game.transitions.sum(-1) - 1.0).max() <= 1e-12


def test_stochastic_up_row_half_half():
    game, _, index = build_grid_game(variant_spec(GridGameSpec(), "stochastic-up"))
    s = index.state_of[((0, 0), (2, 0))]
    # agent 0 tries up (affected column), agent 1 tries down (wall: stays put)
    flat = 0 * 4 + 1
    row = game.transitions[s, flat]
    advance = index.state_of[((0, 1), (2, 0))]
    stay = index.state_of[((0, 0), (2, 0))]
    assert abs(row[advance] - 0.5) < 1e-15
    assert abs(row[stay] - 0.5) < 1e-15
    assert abs(row.sum() - 1.0) < 1e-15
    assert np.count_nonzero(row) == 2


def test_obstacle_blocks_cell():
    spec = variant_spec(GridGameSpec(), "obstacle-one")
    assert spec.obstacles == ((0, 1),)
    game, _, index = build_grid_game(spec)
    s = index.state_of[((0, 0), (2, 0))]
    flat = 0 * 4 + 1  # agent 0 up into the obstacle, agent 1 down into the wall
    assert game.transitions[s, flat, s] == 1.0
    # no move from outside ever lands an agent on the obstacle cell
    outside = [
        i for i, (p0, p1) in enumerate(index.states) if p0 != (0, 1) and p1 != (0, 1)
    ]
    inside = [
        i for i, (p0, p1) in enumerate(index.states) if p0 == (0, 1) or p1 == (0, 1)
    ]
    assert np.all(game.transitions[np.ix_(outside, range(16), inside)] == 0.0)


def test_obstacle_both_blocks_both_columns():
    spec = variant_spec(GridGameSpec(), "obstacle-both")
    assert spec.obstacles == ((0, 1), (2, 1))


def test_goal_pinning_and_entry_reward():
    game, reward, index = build_grid_game(GridGameSpec())
    both = index.state_of[((2, 2), (0, 2))]
    # both agents at their goals: absorbing, no further reward
    assert np.all(game.transitions[both, :, both] == 1.0)
    assert np.all(reward.tables[:, both, :] == 0.0)
    # entering the own goal pays exactly once
    s = index.state_of[((1, 2), (0, 2))]  # agent 0 one step left of its goal
    flat = 3 * 4 + 0  # right, (pinned agent 1 stays anyway)
    assert reward.tables[0, s, flat] == 1.0
    assert game.transitions[s, flat, both] == 1.0


def test_collision_bounces_both():
    game, _, index = build_grid_game(GridGameSpec())
    s = index.state_of[((0, 0), (2, 0))]
    # both move into (1, 0): agent 0 right, agent 1 left
    flat = 3 * 4 + 2
    assert game.transitions[s, flat, s] == 1.0
    # swaps stay legal: adjacent agents exchanging cells
    s2 = index.state_of[((0, 0), (1, 0))]
    flat_swap = 3 * 4 + 2  # agent 0 right, agent 1 left
    swapped = index.state_of[((1, 0), (0, 0))]
    assert game.transitions[s2, flat_swap, swapped] == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        GridGameSpec(variant="nope")
    with pytest.raises(ValueError):
        GridGameSpec(start_positions=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        GridGameSpec(goal_positions=((5, 5), (0, 2)))
    with pytest.raises(ValueError):
        GridGameSpec(rmax=0.5)  # below the goal reward 1
    with pytest.raises(ValueError, match="share a goal"):
        GridGameSpec(goal_positions=((1, 2), (1, 2)))


def test_mu_is_start_state():
    game, _, index = build_grid_game(GridGameSpec())
    assert game.mu[index.start_state] == 1.0
    assert game.mu.sum() == 1.0


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("height", [2, 3, 4, 5])
@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_build_matches_the_loop_reference(width, height, variant):
    assert_builds_like_reference(GridGameSpec(width=width, height=height, variant=variant))


@pytest.mark.parametrize("variant", VARIANTS)
def test_build_matches_the_loop_reference_on_a_non_crossing_layout(variant):
    """No start in a bottom corner and no goal in a top corner: agent 1
    starts mid-board and heads for the bottom-left corner."""
    spec = GridGameSpec(
        width=4,
        height=3,
        start_positions=((1, 0), (2, 1)),
        goal_positions=((3, 2), (0, 0)),
        variant=variant,
        gamma=0.8,
        rmax=2.0,
    )
    assert_builds_like_reference(spec)
