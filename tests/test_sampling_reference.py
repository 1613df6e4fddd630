"""Bit-equality of the sampling layer against reference draws and loops.

`reference_round_samples` draws one round k with numpy's own generator:
`Generator(Philox(key=SeedSequence(seed).generate_state(2, np.uint64),
counter=(k - 1) B))`, B = ceil(S (A + n) / 4) blocks per round, read state
by state, A uniforms through the dense normalised CDF (`_inverse_cdf`) for
next states, then one `rng.choice` per agent for expert actions.
`reference_uniform_sampling` is the former per-round loop that re-ran
`estimate` and `uncertainty` after every round to find tau. They are kept
here as test oracles for the jump-table draw, the batched
`GenerativeOracle.round_samples`, `sample_round` and `uniform_sampling`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl import equilibrium, gridworld
from mairl.estimation import (
    ConfidenceParams,
    CountBook,
    GenerativeOracle,
    _cdf,
    _draw,
    _jump_table,
    estimate,
    sample_round,
    uncertainty,
    uniform_sampling,
)
from mairl.games import JointPolicy, MarkovGame
from mairl.synthetic import random_markov_game

from conftest import make_instance


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of CDF entries <= u on the last axis (`searchsorted(side="right")`);
    a normalised CDF ends at 1 > u, so the last positive-mass outcome caps it."""
    return (u[..., None] >= cdf).sum(axis=-1)


def reference_round_samples(oracle: GenerativeOracle, k: int):
    game = oracle.game
    S, A = game.n_states, game.n_joint_actions
    key = np.random.SeedSequence(oracle.seed).generate_state(2, np.uint64)
    blocks = -(-S * (A + game.n_agents) // 4)
    rng = np.random.Generator(np.random.Philox(key=key, counter=(k - 1) * blocks))
    next_states = np.empty((S, A), dtype=np.intp)
    expert_actions = np.empty((S, game.n_agents), dtype=np.intp)
    for s in range(S):
        next_states[s] = _inverse_cdf(_cdf(game.transitions[s]), rng.random(A))
        for i in range(game.n_agents):
            expert_actions[s, i] = rng.choice(
                game.action_counts[i], p=oracle.expert.per_agent[i][s]
            )
    return next_states, expert_actions


def reference_uniform_sampling(oracle, params, epsilon_target, k_max):
    game = oracle.game
    counts = CountBook(game.n_states, game.action_counts)
    history = []
    problem = estimate(counts)
    unc = uncertainty(counts, params)
    converged = False
    for k in range(1, int(k_max) + 1):
        sample_round(oracle, counts)
        problem = estimate(counts)
        unc = uncertainty(counts, params)
        history.append(
            (
                k,
                unc.epsilon_k,
                float(unc.c.max()),
                unc.max_transition_radius,
                int(unc.indicator.sum()),
            )
        )
        if unc.epsilon_k <= epsilon_target / 2.0:
            converged = True
            break
    return problem, unc, counts.iteration, converged, history


def _board(width, height, variant="deterministic"):
    return gridworld.GridGameSpec(
        width=width,
        height=height,
        start_positions=((0, 0), (width - 1, 0)),
        goal_positions=((width - 1, height - 1), (0, height - 1)),
        variant=variant,
    )


def _nashq_expert(width, height):
    game, reward, _ = gridworld.build_grid_game(_board(width, height))
    return game, equilibrium.nash_value_iteration(game, reward).policy


def _grid_oracles():
    """The NashQ experts of the 3x3 and 4x3 boards, and a mixed expert on the
    3x3 board with stochastic up-moves."""
    oracles = [GenerativeOracle(*_nashq_expert(w, h), seed=3) for w, h in ((3, 3), (4, 3))]
    game, _, _ = gridworld.build_grid_game(_board(3, 3, "stochastic-up"))
    rng = np.random.default_rng(5)
    mixed = JointPolicy([rng.dirichlet(np.ones(c), game.n_states) for c in game.action_counts])
    oracles.append(GenerativeOracle(game, mixed, seed=4))
    return oracles


def _random_oracles(count=24):
    oracles = []
    for seed in range(count):
        rng = np.random.default_rng(100 + seed)
        n_states = int(rng.integers(2, 7))
        action_counts = tuple(int(c) for c in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        game, policy = make_instance(seed, n_states, action_counts, gamma=0.7)
        oracles.append(GenerativeOracle(game, policy, seed=seed))
    return oracles


@pytest.mark.parametrize("k", [1, 2, 50])
def test_round_samples_match_reference_on_grids_and_random_games(k):
    for oracle in _grid_oracles() + _random_oracles():
        next_states, expert_actions = oracle.round_samples(k)
        ref_states, ref_actions = reference_round_samples(oracle, k)
        assert next_states.dtype == ref_states.dtype and expert_actions.dtype == ref_actions.dtype
        assert np.array_equal(next_states, ref_states[None])
        assert np.array_equal(expert_actions, ref_actions[None])


def test_nashq_grid_draws_do_not_depend_on_the_seed():
    # every row of the deterministic grids and their pure NashQ experts has
    # one outcome (jump-table width 1), so no draw reads its uniform and the
    # grid results stay the same under any change of stream layout
    for width, height in ((3, 3), (4, 3), (4, 4)):
        game, expert = _nashq_expert(width, height)
        oracles = [GenerativeOracle(game, expert, seed=seed) for seed in (0, 1)]
        draws = [oracle.round_samples(1, 5) for oracle in oracles]
        assert np.array_equal(draws[0][0], draws[1][0])
        assert np.array_equal(draws[0][1], draws[1][1])


def test_inverse_cdf_caps_a_short_row_at_its_last_positive_mass_state():
    # the row sums to 1 - 4e-13, inside the probability tolerance; an
    # unnormalised CDF sends u >= 1 - 4e-13 to argmax(all False) = state 0
    row = np.array([0.5, 0.5 - 4e-13, 0.0])
    u = np.array([1.0 - 1e-13, 0.25, 0.75, 0.0])
    assert _inverse_cdf(_cdf(row), u).tolist() == [1, 0, 1, 0]
    cum = np.cumsum(row)
    assert int(np.argmax(u[0] < cum)) == 0  # the former rule's draw
    # vectorised over leading axes: one row per state
    table = np.stack([row, np.array([0.0, 0.0, 1.0])])
    assert _inverse_cdf(_cdf(table), np.array([1.0 - 1e-13, 0.3])).tolist() == [1, 2]


def test_out_of_range_seed_and_round_index_raise():
    game, policy = make_instance(0)
    with pytest.raises(ValueError):
        GenerativeOracle(game, policy, seed=-1)  # at construction, not at the first draw
    oracle = GenerativeOracle(game, policy, seed=0)
    for k in (-1, 0):
        with pytest.raises(ValueError):
            oracle.round_samples(k)
    # rounds are not bounded above: round k starts at counter (k - 1) B
    next_states, _ = oracle.round_samples(2**40, 2)
    assert next_states.shape == (2, game.n_states, game.n_joint_actions)
    assert np.array_equal(next_states[1], reference_round_samples(oracle, 2**40 + 1)[0])


_MASS = st.one_of(st.just(0.0), st.just(1e-17), st.floats(min_value=1e-300, max_value=1.0))


@st.composite
def _probability_tables(draw):
    """Rows of one width with exact zeros, tiny masses and a zero-mass tail."""
    n = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(_MASS, min_size=n, max_size=n).filter(lambda r: sum(r) > 0)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    tail = draw(st.integers(min_value=0, max_value=3))
    return np.hstack([np.array(rows), np.zeros((len(rows), tail))])


@settings(max_examples=200, deadline=None)
@given(table=_probability_tables(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_jump_table_draw_matches_dense_cdf_draw(table, seed):
    cdf = _cdf(table)
    # random uniforms plus every CDF value below 1, where ties decide the draw
    u = np.random.default_rng(seed).random((7, table.shape[0]))
    ties = np.where(cdf < 1.0, cdf, 0.0).T
    u = np.vstack([u, ties, np.nextafter(ties, 0.0)])
    draws = _draw(_jump_table(table), u)
    assert draws.dtype == np.intp
    assert np.array_equal(draws, _inverse_cdf(cdf, u))


def test_jump_table_caps_a_short_row_at_its_last_positive_mass_state():
    # the row of the dense-CDF test above, summing to 1 - 4e-13
    table = np.stack([np.array([0.5, 0.5 - 4e-13, 0.0]), np.array([0.0, 0.0, 1.0])])
    positions, values = _jump_table(table)
    assert positions.tolist() == [[0, 1], [2, 0]]
    assert values[1, 1] == np.inf
    u = np.array([[1.0 - 1e-13, 0.3], [0.25, 0.0], [0.75, 1.0 - 1e-13]])
    assert _draw((positions, values), u).tolist() == [[1, 2], [0, 2], [1, 2]]
    assert np.array_equal(_draw((positions, values), u), _inverse_cdf(_cdf(table), u))


def test_batched_sample_round_matches_single_rounds_across_chunks():
    game, policy = make_instance(3, n_states=4, action_counts=(2, 3))
    batched, single = GenerativeOracle(game, policy, seed=11), GenerativeOracle(game, policy, seed=11)
    batched._chunk_rounds = 3  # after 2 rounds, rounds 3..12 span chunks of 3, 3, 3, 1
    counts, ref = CountBook(4, (2, 3)), CountBook(4, (2, 3))
    sample_round(batched, counts, 2)
    sample_round(batched, counts, 10)
    for _ in range(12):
        sample_round(single, ref)
    assert counts.iteration == ref.iteration == 12
    assert np.array_equal(counts.n_sas, ref.n_sas)
    for mine, theirs in zip(counts.n_i_sa, ref.n_i_sa):
        assert np.array_equal(mine, theirs)
    next_states, expert_actions = batched.round_samples(3, 10)
    for i, k in enumerate(range(3, 13)):
        ref_states, ref_actions = reference_round_samples(single, k)
        assert np.array_equal(next_states[i], ref_states)
        assert np.array_equal(expert_actions[i], ref_actions)


def _toy_problem():
    rng = np.random.default_rng(42)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    expert = JointPolicy([np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.4, 0.6]])])
    params = ConfidenceParams(delta=0.1, pi_min=0.4, rmax=2.0, gamma=0.5)
    return GenerativeOracle(game, expert, seed=7), params


def _det_problem():
    P = np.zeros((2, 4, 2))
    P[:, :, 1] = 1.0
    game = MarkovGame(P, 0.1, [1.0, 0.0], (2, 2))
    expert = JointPolicy([np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[1.0, 0.0], [0.5, 0.5]])])
    params = ConfidenceParams(delta=0.1, pi_min=1.0, rmax=1.0, gamma=0.9)
    return GenerativeOracle(game, expert, seed=4), params


@pytest.mark.parametrize(
    "problem, epsilon, k_max, converged",
    [
        (_det_problem, np.inf, 10, True),  # immediate stop at k = 1
        (_toy_problem, 2.0, 20_000, True),  # converged run, indicator active early
        (_det_problem, 1e-3, 40, False),  # budget exhaustion
        (_toy_problem, 0.5, 0, False),  # no budget at all
    ],
)
def test_uniform_sampling_matches_per_round_reference(problem, epsilon, k_max, converged):
    oracle, params = problem()
    run = uniform_sampling(oracle, params, epsilon, k_max)
    ref_problem, ref_unc, ref_tau, ref_converged, ref_history = reference_uniform_sampling(
        oracle, params, epsilon, k_max
    )
    assert (run.tau, run.converged) == (ref_tau, ref_converged)
    assert run.converged == converged
    assert [row[:-1] for row in run.history] == ref_history
    for row, ref in zip(run.history, ref_history):
        assert [type(v) for v in row[:-1]] == [type(v) for v in ref]
    assert run.problem.p_hat.tobytes() == ref_problem.p_hat.tobytes()
    for mine, ref in zip(run.problem.pi_hat.per_agent, ref_problem.pi_hat.per_agent):
        assert mine.tobytes() == ref.tobytes()
    assert run.problem.k == ref_problem.k == ref_tau
    assert run.uncertainty.c.tobytes() == ref_unc.c.tobytes()
    assert run.uncertainty.indicator.tobytes() == ref_unc.indicator.tobytes()
    assert run.uncertainty.epsilon_k == ref_unc.epsilon_k
    assert run.uncertainty.max_transition_radius == ref_unc.max_transition_radius
