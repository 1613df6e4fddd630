"""NashQ's policy-evaluation jump against plain value iteration.

`plain_nash_value_iteration` is the backup loop without the jump: warm-started
stage passes and full backups until a backup moves no Q entry by 1e-8. It is
kept here as the test oracle. The jump must end on the equilibrium plain
iteration ends on: the same stage supports and policies, and Q within the
plain iteration's own error. On the grids (gamma = 0.9) that is 1e-7; a
backup that moves Q by at most delta leaves Q within gamma delta / (1 - gamma)
of its fixed point, which exceeds 1e-7 once gamma > 0.909, so random games
with a larger gamma are held to that bound.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl import dp, equilibrium
from mairl.experiment import ExperimentConfig, seed_curve
from mairl.games import JointPolicy, _gather
from mairl.gridworld import VARIANTS
from mairl.synthetic import matching_pennies, random_markov_game, random_reward

from conftest import grid_setup
from test_stage_games_reference import BOARDS, _chain_game


def plain_nash_value_iteration(game, reward, max_iters=5000):
    """(policy, q, stage supports, converged, backups) of the loop without the jump."""
    S, A = game.n_states, game.n_joint_actions
    q = np.zeros((2, S, A))
    cache, mixed = np.full(S, -1, dtype=np.int64), {}
    converged = False
    for backups in range(1, max_iters + 1):
        _, _, values = equilibrium._solve_stage_games(game, q, cache, mixed)
        q_next = reward.tables + game.gamma * _gather(
            game.successors, game.successor_probs, values
        )
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta < 1e-8:
            converged = True
            break
    pol1, pol2, _ = equilibrium._solve_stage_games(game, q, cache, mixed)
    supports = equilibrium._stage_supports(cache, mixed, game.action_counts[1])
    return JointPolicy([pol1, pol2]), q, supports, converged, backups


def assert_same_equilibrium(got, game, reward, q_tol=1e-7, plain=None):
    """`plain` is the oracle's result for (game, reward), run here if not given."""
    policy, q, supports, converged, backups = plain or plain_nash_value_iteration(game, reward)
    assert converged and got.converged
    assert got.stage_supports == supports
    for mine, theirs in zip(got.policy.per_agent, policy.per_agent):
        assert mine.tobytes() == theirs.tobytes()
    assert np.max(np.abs(got.q - q)) <= q_tol
    return backups


def assert_backup_count(got, backups, log):
    """Each rejected jump costs one confirming backup; an accepted one ends
    the iteration in place of the plain backups still to come."""
    rejected = log.accepted.count(False)
    if True in log.accepted:
        assert got.iterations <= backups + rejected
    else:
        assert got.iterations == backups + rejected


class JumpLog:
    """Wraps `equilibrium._jump`, recording whether each attempt was accepted."""

    def __init__(self):
        self.accepted = []
        self._inner = equilibrium._jump

    def __call__(self, *args):
        out = self._inner(*args)
        self.accepted.append(out is not None)
        return out


def logged_jumps(monkeypatch):
    log = JumpLog()
    monkeypatch.setattr(equilibrium, "_jump", log)
    return log


@pytest.fixture(scope="module")
def recovered_rewards():
    """The reward recovered at k = 1 for seed 0 on each board, as the
    pipeline selects it (distance-to-random, state class)."""
    config = ExperimentConfig(
        seeds=(0,), k_max=1, eval_points=(1,), mode="distance-to-random", reward_class="state"
    )
    return {
        name: next(seed_curve(grid_setup(spec), config, 0))[0].reward
        for name, spec in BOARDS.items()
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_grid_variants_under_their_true_reward(variant):
    _, game, reward = grid_setup(BOARDS["3x3"], (variant,)).variants[0]
    assert_same_equilibrium(equilibrium.nash_value_iteration(game, reward), game, reward)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("board", sorted(BOARDS))
def test_recovered_reward_transfer(board, variant, recovered_rewards, monkeypatch):
    _, game, _ = grid_setup(BOARDS[board], (variant,)).variants[0]
    reward = recovered_rewards[board]
    log = logged_jumps(monkeypatch)
    got = equilibrium.nash_value_iteration(game, reward)
    backups = assert_same_equilibrium(got, game, reward)
    assert_backup_count(got, backups, log)
    if True in log.accepted:
        # an accepted jump returns the cached one-hot profile's exact Q
        assert log.accepted[-1]
        exact = dp.policy_evaluation(game, reward, got.policy).q
        assert got.q.tobytes() == exact.tobytes()
        assert got.final_delta < 1e-8


def test_transfer_jumps_on_the_deterministic_boards(recovered_rewards):
    """The pipeline's transfer to the unchanged board settles on pure supports
    within a few backups, where plain iteration takes 176."""
    for name, spec in BOARDS.items():
        game = grid_setup(spec).game
        got = equilibrium.nash_value_iteration(game, recovered_rewards[name])
        *_, backups = plain_nash_value_iteration(game, recovered_rewards[name])
        assert backups == 176
        assert got.converged and got.iterations <= 20


def test_mixed_supports_never_jump(monkeypatch):
    game, reward = matching_pennies(0.9)
    log = logged_jumps(monkeypatch)
    got = equilibrium.nash_value_iteration(game, reward)
    *_, backups = plain_nash_value_iteration(game, reward)
    assert log.accepted == []
    assert got.iterations == backups
    assert got.stage_supports == [((0, 1), (0, 1))]
    assert_same_equilibrium(got, game, reward)


def test_confirming_pass_rejects_a_jump_to_a_support_that_fails(monkeypatch):
    """The second backup leaves every support at (0, 0), so the jump is tried
    on that profile; at its Q state 0 prefers to leave (0, 0), the confirming
    pass rejects it, and plain backups continue until (0, 0) fails there too.
    The cache then changes, and the next jump lands on the fixed point."""
    game, reward = _chain_game()
    log = logged_jumps(monkeypatch)
    with pytest.warns(RuntimeWarning):
        early = equilibrium.nash_value_iteration(game, reward, max_iters=3)
    assert log.accepted == [False]
    # the rejected jump counts its confirming backup and leaves Q at the
    # second plain backup, with the cache untouched
    plain_two = plain_nash_value_iteration(game, reward, max_iters=2)
    assert early.iterations == 3 and not early.converged
    assert early.q.tobytes() == plain_two[1].tobytes()
    assert early.stage_supports == [((0,), (0,))] * 3
    log.accepted.clear()
    got = equilibrium.nash_value_iteration(game, reward)
    assert log.accepted == [False, True]
    backups = assert_same_equilibrium(got, game, reward)
    assert_backup_count(got, backups, log)
    assert got.stage_supports[0] != ((0,), (0,))
    assert got.iterations < backups


def test_no_jump_past_max_iters(monkeypatch):
    """A jump whose confirming backup would exceed `max_iters` is not tried."""
    game, reward = _chain_game()
    log = logged_jumps(monkeypatch)
    with pytest.warns(RuntimeWarning):
        capped = equilibrium.nash_value_iteration(game, reward, max_iters=2)
    assert log.accepted == [] and capped.iterations == 2


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_states=st.integers(min_value=1, max_value=4),
    a1=st.integers(min_value=2, max_value=4),
    a2=st.integers(min_value=2, max_value=4),
)
def test_random_games(seed, n_states, a1, a2):
    rng = np.random.default_rng(seed)
    game = random_markov_game(rng, n_states, (a1, a2), float(rng.uniform(0.3, 0.95)))
    reward = random_reward(rng, game)
    with warnings.catch_warnings():
        # general-sum iteration may cycle
        warnings.simplefilter("ignore", RuntimeWarning)
        plain = plain_nash_value_iteration(game, reward)
        got = equilibrium.nash_value_iteration(game, reward)
    if plain[3]:
        q_tol = max(1e-7, 1e-8 * game.gamma / (1.0 - game.gamma))
        assert_same_equilibrium(got, game, reward, q_tol, plain)
    elif got.converged:
        # plain iteration cycles; a jump accepted on the way is a fixed point
        again = reward.tables + game.gamma * _gather(
            game.successors, game.successor_probs, got.values
        )
        assert np.max(np.abs(again - got.q)) < 1e-8
