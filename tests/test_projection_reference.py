"""Bit-equality of the one projection loop over all agents against the
per-agent loop it replaced, and of the active-set polish against its
set-based form.

`reference_distance_project` is the former `_distance_project`: accelerated
projected gradient on one agent's dual, then the polish / blend / vertex
ending. It is kept here as the test oracle. `_distance_project` run on
several agents at once must return, per agent, exactly the point, sweep
count and path the oracle returns for that agent alone.

`reference_polish_projection` is the former `_polish_projection`, which kept
its active rows and fixed coordinates as Python index sets grown element by
element. `_polish_projection` keeps them as boolean masks and must return
exactly its point, or None where it does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl import reward_select
from mairl.equilibrium import nash_value_iteration
from mairl.estimation import CountBook, GenerativeOracle, estimate, sample_round
from mairl.gridworld import GridGameSpec, build_grid_game


def _violation(x, U, rhs, rmax_i):
    slack = U @ x - rhs
    return max(float(np.max(slack)), float(np.max(-x)), float(np.max(x - rmax_i)))


def reference_polish_projection(target, x, U, rhs, rmax_i):
    n = x.size
    eps_id = 1e-7 * max(1.0, rmax_i)
    vals = U @ x
    active_rows = set(np.nonzero(vals >= rhs - eps_id)[0].tolist())
    fix_lo = set(np.nonzero(x <= eps_id)[0].tolist())
    fix_hi = set(np.nonzero(x >= rmax_i - eps_id)[0].tolist())
    tol = reward_select.PROJECTION_TOL
    for _ in range(reward_select.POLISH_ROUNDS):
        fixed = np.zeros(n, dtype=bool)
        fixed_vals = np.zeros(n)
        for j in fix_lo:
            fixed[j] = True
        for j in fix_hi:
            fixed[j] = True
            fixed_vals[j] = rmax_i
        free = ~fixed
        rows = sorted(active_rows)
        C = U[rows][:, free]
        d = rhs[rows] - U[rows][:, fixed] @ fixed_vals[fixed]
        z = target[free]
        if rows:
            gram = C @ C.T
            try:
                mu = np.linalg.solve(gram, C @ z - d)
            except np.linalg.LinAlgError:
                mu = np.linalg.lstsq(gram, C @ z - d, rcond=None)[0]
            xf = z - C.T @ mu
        else:
            xf = z
        cand = fixed_vals.copy()
        cand[free] = xf
        vals = U @ cand
        if reward_select._violation(cand, vals - rhs, rmax_i) <= tol:
            return np.clip(cand, 0.0, rmax_i)
        grew = False
        for r in np.nonzero(vals > rhs + tol)[0]:
            if r not in active_rows:
                active_rows.add(int(r))
                grew = True
        for j in np.nonzero(cand < -tol)[0]:
            if j not in fix_lo:
                fix_lo.add(int(j))
                grew = True
        for j in np.nonzero(cand > rmax_i + tol)[0]:
            if j not in fix_hi:
                fix_hi.add(int(j))
                grew = True
        if not grew:
            return None
    return None


def reference_distance_project(target, U, rhs, anchor, rmax_i):
    tol = reward_select.PROJECTION_TOL
    max_iters = reward_select.MAX_SWEEPS
    m = U.shape[0]
    if m == 0:
        return np.clip(target, 0.0, rmax_i), 0, "polished"
    gram_scale = 1.0
    v = np.ones(m) / np.sqrt(m)
    for _ in range(30):
        v = U @ (U.T @ v)
        nv = np.linalg.norm(v)
        if nv == 0:
            break
        gram_scale = nv
        v /= nv
    step = 1.0 / max(gram_scale * 1.01, 1e-12)

    lam = np.zeros(m)
    lam_prev = lam.copy()
    t_acc = 1.0
    x = np.clip(target, 0.0, rmax_i)
    best = x.copy()
    best_viol = _violation(x, U, rhs, rmax_i)
    it = 0
    for it in range(1, max_iters + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        mom = lam + ((t_acc - 1.0) / t_next) * (lam - lam_prev)
        x = np.clip(target - U.T @ mom, 0.0, rmax_i)
        grad = U @ x - rhs
        lam_prev = lam
        lam = np.maximum(mom + step * grad, 0.0)
        t_acc = t_next
        if it % 25 == 0:
            viol = _violation(x, U, rhs, rmax_i)
            if viol < best_viol:
                best_viol = viol
                best = x.copy()
            if viol <= 1e-8:
                break
    polished = reference_polish_projection(target, best, U, rhs, rmax_i)
    if polished is not None:
        return polished, it, "polished"
    excess = np.maximum(U @ best - rhs, 0.0)
    spare = np.maximum(rhs - U @ anchor, 0.0)
    need = excess > 0
    if not need.any():
        return np.clip(best, 0.0, rmax_i), it, "blended"
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_rows = excess[need] / (excess[need] + spare[need])
    theta = float(np.max(theta_rows))
    if theta >= 1.0 or not np.isfinite(theta):
        return anchor, it, "vertex"
    blended = (1.0 - 1.05 * theta) * best + 1.05 * min(theta, 1.0 / 1.05) * anchor
    if _violation(blended, U, rhs, rmax_i) <= tol:
        return np.clip(blended, 0.0, rmax_i), it, "blended"
    return anchor, it, "vertex"


def assert_matches_reference(problems):
    got = reward_select._distance_project(problems)
    assert len(got) == len(problems)
    for (point, sweeps, path), problem in zip(got, problems):
        want_point, want_sweeps, want_path = reference_distance_project(*problem)
        assert point.tobytes() == want_point.tobytes()
        assert sweeps == want_sweeps
        assert path == want_path
    return got


def random_problem(rng, m, n, loose):
    """(target, U, rhs, anchor, rmax) with m rows on n variables. A loose
    problem's rows hold on the whole box, so its first check stops it; the
    others are often infeasible and run to the sweep cap."""
    rmax = float(rng.uniform(0.5, 2.0))
    U = rng.standard_normal((m, n))
    if loose:
        rhs = rmax * np.abs(U).sum(axis=1) + 1.0
    else:
        rhs = rng.uniform(-1.0, 0.5, size=m)
    return rng.uniform(0.0, rmax, size=n), U, rhs, rng.uniform(0.0, rmax, size=n), rmax


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=6),
    agents=st.lists(
        st.tuples(st.integers(min_value=0, max_value=8), st.booleans()), min_size=1, max_size=3
    ),
)
def test_random_problems_match_reference(seed, n, agents):
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng, m, n, loose) for m, loose in agents]
    with pytest.MonkeyPatch.context() as patch:
        # a short cap keeps the runs that never stop cheap; both loops read it
        patch.setattr(reward_select, "MAX_SWEEPS", 300)
        assert_matches_reference(problems)


def test_unequal_rows_an_empty_agent_and_an_early_stop():
    """At the real cap: one agent stops at its first check, one runs all
    MAX_SWEEPS sweeps on more rows, and one has no live row at all."""
    rng = np.random.default_rng(7)
    problems = [
        random_problem(rng, 3, 5, loose=True),
        random_problem(rng, 9, 5, loose=False),
        random_problem(rng, 0, 5, loose=False),
    ]
    got = assert_matches_reference(problems)
    want = [reward_select.CHECK_EVERY, reward_select.MAX_SWEEPS, 0]
    assert [sweeps for _, sweeps, _ in got] == want


def polish_problem(rng, m, n):
    """(target, x, U, rhs, rmax) with m >= 1 rows on n variables. About a
    third of x's coordinates sit at each bound, half the rows are active at
    x, and the target may leave the box, so the polish both fixes and frees
    coordinates."""
    rmax = float(rng.uniform(0.5, 2.0))
    U = rng.standard_normal((m, n))
    kind = rng.integers(0, 3, size=n)
    x = np.where(kind == 0, 0.0, np.where(kind == 1, rmax, rng.uniform(0.0, rmax, size=n)))
    rhs = U @ x + rng.uniform(-0.5, 0.5, size=m) * (rng.random(m) < 0.5)
    return rng.uniform(-0.5 * rmax, 1.5 * rmax, size=n), x, U, rhs, rmax


def assert_polish_matches_reference(problem):
    got = reward_select._polish_projection(*problem)
    want = reference_polish_projection(*problem)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tobytes() == want.tobytes()
    return want


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=1, max_value=7),
    rounds=st.sampled_from([1, 2, 3, 5, reward_select.POLISH_ROUNDS]),
)
def test_polish_matches_reference(seed, m, n, rounds):
    with pytest.MonkeyPatch.context() as patch:
        # a short cap makes runs that use up every round common; both read it
        patch.setattr(reward_select, "POLISH_ROUNDS", rounds)
        assert_polish_matches_reference(polish_problem(np.random.default_rng(seed), m, n))


def test_polish_outcomes_match_reference(monkeypatch):
    """On fixed problems under a cap of 2 rounds, each way the polish ends
    occurs, bit-equal to the reference: a polished point, None once no row
    or bound is left to add, and None after using up POLISH_ROUNDS (the
    reference would go on under a larger cap). `_violation` runs once per
    round, so counting its calls counts rounds."""
    rounds = [0]
    violation = reward_select._violation

    def counting(*args):
        rounds[0] += 1
        return violation(*args)

    def rounds_used(problem, cap):
        monkeypatch.setattr(reward_select, "POLISH_ROUNDS", cap)
        rounds[0] = 0
        reference_polish_projection(*problem)
        return rounds[0]

    monkeypatch.setattr(reward_select, "_violation", counting)
    seen = set()
    for seed in range(150):
        rng = np.random.default_rng(seed)
        problem = polish_problem(rng, int(rng.integers(1, 10)), int(rng.integers(1, 8)))
        monkeypatch.setattr(reward_select, "POLISH_ROUNDS", 2)
        want = assert_polish_matches_reference(problem)
        if want is not None:
            seen.add("polished")
        elif rounds_used(problem, 3) > 2:
            seen.add("rounds used up")
        else:
            seen.add("stuck")
    assert seen == {"polished", "stuck", "rounds used up"}


def test_grid_expert_projection_matches_reference():
    """The 3x3 expert staged as `max_gap_reward` stages it in distance mode."""
    game, reward, _ = build_grid_game(GridGameSpec())
    policy = nash_value_iteration(game, reward).policy
    rng = np.random.default_rng(0)
    problems = []
    for agent in range(game.n_agents):
        U = reward_select._advantage_rows(game, policy, agent, "state")
        mask = (policy.per_agent[agent] == 0.0).ravel()
        live = np.linalg.norm(U, axis=1) > reward_select._DEAD_ROW
        x, t, margin_rows, _ = reward_select._lexicographic_margin(U, mask, live, 1.0, game.gamma)
        rhs = np.where(margin_rows & live, -max(t - 1e-6, 0.0), 0.0)
        target = rng.uniform(0.0, 1.0, size=U.shape[1])
        problems.append((target, U[live], rhs[live], x, 1.0))
    assert problems[0][1].shape[0] != problems[1][1].shape[0]
    got = assert_matches_reference(problems)
    assert [sweeps for _, sweeps, _ in got] == [reward_select.MAX_SWEEPS] * 2


def test_margins_have_the_bits_of_the_full_rows(monkeypatch):
    """`max_gap_reward` keeps only each agent's live rows, yet its margins
    are -(U @ x) over the full U at the carrying rows, bit for bit: on this
    board the product of the live rows alone differs in the last bit."""
    game, reward, _ = build_grid_game(GridGameSpec())
    expert = nash_value_iteration(game, reward).policy
    counts = CountBook(game.n_states, game.action_counts)
    sample_round(GenerativeOracle(game, expert, seed=0), counts)
    problem = estimate(counts)
    est_game = problem.as_game(game.gamma, game.mu)
    points = []
    project = reward_select._distance_project

    def recording(problems):
        out = project(problems)
        points.extend(point for point, _, _ in out)
        return out

    monkeypatch.setattr(reward_select, "_distance_project", recording)
    # one group, so every projection runs in this process, where the recorder sees it
    monkeypatch.setattr(reward_select, "_usable_cpus", lambda: 1)
    res = reward_select.max_gap_reward(
        est_game, problem.pi_hat, 1.0, mode="distance-to-random", seed=1, reward_class="state"
    )
    for agent, x in enumerate(points):
        U = reward_select._advantage_rows(est_game, problem.pi_hat, agent, "state")
        mask = (problem.pi_hat.per_agent[agent] == 0.0).ravel()
        live = np.linalg.norm(U, axis=1) > reward_select._DEAD_ROW
        _, _, margin_rows, _ = reward_select._lexicographic_margin(
            U, mask, live, 1.0, est_game.gamma
        )
        carrying = margin_rows & live
        assert res.margins[agent] == float(-(U @ x)[carrying].max())
