import numpy as np
import pytest

from mairl.gridworld import GridGameSpec, build_grid_game, variant_spec


def test_state_count_and_actions():
    game, reward, index = build_grid_game(GridGameSpec())
    assert game.n_states == 72 == GridGameSpec().n_states
    assert game.n_joint_actions == 16
    assert reward.tables.shape == (2, 72, 16)
    # closed form on another board size
    spec = GridGameSpec(width=2, height=2, start_positions=((0, 0), (1, 0)),
                        goal_positions=((1, 1), (0, 1)))
    g2, _, _ = build_grid_game(spec)
    assert g2.n_states == (2 * 2) ** 2 - 2 * 2 == 12


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


def test_mu_is_start_state():
    game, _, index = build_grid_game(GridGameSpec())
    assert game.mu[index.start_state] == 1.0
    assert game.mu.sum() == 1.0
