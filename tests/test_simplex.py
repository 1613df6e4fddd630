import numpy as np
import pytest
from scipy import optimize

from mairl import simplex
from mairl.errors import ConvergenceError, InfeasibleLPError, UnboundedLPError
from mairl.simplex import LinearProgram, solve_lp

# row senses of the random cases before they are posed as GE rows
LE, EQ, GE = -1, 0, 1


def test_basic_max():
    # x1 + x2 <= 1
    sol = solve_lp(LinearProgram([1, 1], [[-1, -1]], [-1], [1, 1]))
    assert abs(sol.value - 1.0) < 1e-9


def test_bounds_only():
    sol = solve_lp(LinearProgram([2, -1], np.zeros((0, 2)), [], [3, 5]))
    assert abs(sol.value - 6.0) < 1e-12
    assert np.allclose(sol.x, [3, 0])


def test_equality_row():
    # x1 + x2 = 1 as the GE pair x1 + x2 >= 1, -x1 - x2 >= -1
    sol = solve_lp(LinearProgram([1, 0], [[1, 1], [-1, -1]], [1, -1], [2, 2]))
    assert abs(sol.value - 1.0) < 1e-9
    assert abs(sol.x.sum() - 1.0) < 1e-9


def test_ge_row_degenerate_start():
    # max t subject to x - t >= 0 from the all-zero vertex
    sol = solve_lp(LinearProgram([0, 1], [[1, -1]], [0], [1, 2]))
    assert abs(sol.value - 1.0) < 1e-9
    assert np.allclose(sol.x, [1, 1], atol=1e-9)


def test_infeasible_detected():
    # x >= 2 and x <= 1
    with pytest.raises(InfeasibleLPError):
        solve_lp(LinearProgram([1], [[1], [-1]], [2, -1], [5]))


def test_unbounded_detected():
    with pytest.raises(UnboundedLPError):
        solve_lp(LinearProgram([1], np.zeros((0, 1)), [], [np.inf]))


def test_pivot_budget_exceeded_raises(monkeypatch):
    class NoBudget(simplex._BoundedSimplex):
        def __init__(self, *args):
            super().__init__(*args)
            self.max_pivots = 0

    monkeypatch.setattr(simplex, "_BoundedSimplex", NoBudget)
    # test_basic_max's LP leaves its all-zero start vertex in one pivot
    with pytest.raises(ConvergenceError, match="pivot budget"):
        solve_lp(LinearProgram([1, 1], [[-1, -1]], [-1], [1, 1]))


@pytest.mark.parametrize(
    "rhs, lower, upper",
    [
        ([np.nan], [0], [1]),  # solved to x = 1 and reported optimal
        ([np.inf], [0], [1]),
        ([-np.inf], [0], [1]),
        ([1], [0], [np.nan]),  # solved to x = 0
        ([1], [np.nan], [1]),  # raised InfeasibleLPError
    ],
)
def test_non_finite_rhs_and_nan_bounds_rejected(rhs, lower, upper):
    # x <= rhs and the lower bound x >= lower, posed as two GE rows
    with pytest.raises(ValueError, match="finite|NaN"):
        LinearProgram([1], [[-1], [1]], np.concatenate([np.negative(rhs), lower]), upper)


@pytest.mark.parametrize(
    "objective, rhs, upper, match",
    [
        ([1, 1], [1], [1], "objective length"),
        ([1], [1, 2], [1], "rhs length"),
        ([1], [1], [1, 1], "bounds length"),
        ([1], [1], [-1], "nonnegative"),  # crosses the lower bound 0
        ([1], [1], [np.nan], "nonnegative, not NaN"),
    ],
    ids=["objective", "rhs", "upper", "crossed", "nan-upper"],
)
def test_inconsistent_lengths_and_crossed_bounds_rejected(objective, rhs, upper, match):
    with pytest.raises(ValueError, match=match):
        LinearProgram(objective, [[1.0]], rhs, upper)


def ge_form(A, sense, b):
    """Rows of any sense as L x >= b': an LE row negated, an EQ row as the
    GE pair a x >= b, -a x >= -b."""
    sign = np.where(sense == LE, -1.0, 1.0)
    eq = sense == EQ
    return np.vstack([sign[:, None] * A, -A[eq]]), np.concatenate([sign * b, -b[eq]])


def random_lp_cases():
    """(lhs, rhs, objective, upper) of LPs with GE rows and lower bounds 0."""
    # small dense rows of every sense, posed as GE rows
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.normal(size=n)
        upper = rng.uniform(0.5, 3.0, size=n)
        sense = rng.choice([LE, GE, EQ], size=m, p=[0.5, 0.3, 0.2])
        yield *ge_form(A, sense, b), c, upper
    # margin-LP shape: -U x - t m >= 0 with rhs 0, feasible at the origin,
    # so every row starts on its surplus and no artificial is built
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(5, 41))
        n = int(rng.integers(3, 25))
        U = rng.normal(size=(m, n))
        margin_rows = rng.random(m) < 0.7
        A = np.hstack([-U, -margin_rows[:, None].astype(float)])
        c = np.zeros(n + 1)
        c[-1] = 1.0
        upper = np.concatenate([np.full(n, 1.0), [10.0]])
        yield A, np.zeros(m), c, upper
    # its dual: U^T y + z >= 0, m^T y + w >= 1, minimizing rmax 1^T z + T w;
    # only the last row needs an artificial, and y, z, w have no upper bound
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(5, 41))
        n = int(rng.integers(3, 25))
        U = rng.normal(size=(m, n))
        margin_rows = rng.random(m) < 0.7
        A = np.zeros((n + 1, m + n + 1))
        A[:n, :m] = U.T
        A[:n, m : m + n] = np.eye(n)
        A[n, :m] = margin_rows
        A[n, -1] = 1.0
        c = -np.concatenate([np.zeros(m), np.full(n, 1.0), [10.0]])
        b = np.concatenate([np.zeros(n), [1.0]])
        yield A, b, c, np.full(m + n + 1, np.inf)
    # mixed rows around an interior point, posed as GE rows: the rows with
    # rhs > 0 start on artificials, the other rows on surpluses
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(5, 31))
        n = int(rng.integers(m // 2 + 2, m + 5))
        A = rng.normal(size=(m, n))
        upper = rng.uniform(0.5, 3.0, size=n)
        inside = rng.uniform(0.0, upper)
        sense = rng.choice([LE, GE, EQ], size=m, p=[0.45, 0.45, 0.1])
        b = A @ inside - sense * rng.uniform(0.0, 1.0, size=m)
        yield *ge_form(A, sense, b), rng.normal(size=n), upper


def test_random_lps_match_reference_solver():
    """Cross-check optimal values against an independent LP solver and
    certify the row duals (complementary slackness, signs, reduced costs)."""
    matched = 0
    for A, b, c, upper in random_lp_cases():
        bounds = list(zip(np.zeros(c.size), upper))
        ref = optimize.linprog(-c, A_ub=-A, b_ub=-b, bounds=bounds, method="highs")
        prob = LinearProgram(c, A, b, upper)
        if ref.status == 2:
            with pytest.raises(InfeasibleLPError):
                solve_lp(prob)
            continue
        assert ref.status == 0
        sol = solve_lp(prob)
        assert abs(sol.value - (-ref.fun)) <= 1e-7 * max(1.0, abs(ref.fun))
        # feasibility of our solution
        vals = A @ sol.x
        assert np.all(vals >= b - 1e-7)
        # dual feasibility: y <= 0, and zero on every row with surplus
        y = sol.row_duals
        assert np.all(y <= 1e-9)
        assert np.all(np.abs(y * (vals - b)) <= 1e-7)
        # reduced costs: <= 0 off the upper bound, >= 0 off the lower bound
        reduced = c - y @ A
        assert np.all(reduced[sol.x < upper - 1e-9] <= 1e-7)
        assert np.all(reduced[sol.x > 1e-9] >= -1e-7)
        matched += 1
    assert matched >= 40  # most random instances are feasible


def test_row_duals_certify_optimality():
    # x1 + x2 <= 2, x1 <= 1
    prob = LinearProgram([1, 2], [[-1, -1], [-1, 0]], [-2, -1], [10, 10])
    sol = solve_lp(prob)
    assert abs(sol.value - 4.0) < 1e-9
    # dual feasibility: c - y A <= 0 on structural columns at the optimum
    reduced = prob.objective - sol.row_duals @ prob.lhs
    assert np.all(reduced <= 1e-9)
