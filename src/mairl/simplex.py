"""Dense two-phase simplex for small LPs with per-variable bounds.

maximize c^T x  subject to  L x (<=,=,>=) b,  lo <= x <= hi.

Inequalities get slack variables. The start puts every structural variable
at a finite bound (the lower one first) and takes the start residual
rhs - L x of each row. A row whose slack can carry that residual (an LE row
with residual >= 0, a GE row with residual <= 0) starts with its slack
basic; only the other rows (EQ rows and rows whose residual has the wrong
sign) get an artificial column, and phase 1 drives those to zero. With no
artificial column (e.g. L x >= 0 with x at its lower bounds 0, as in reward
selection's primal margin LP) phase 1 is skipped and the start basis is
already feasible for phase 2; its dual, which the state reward class
solves, needs one artificial.

Pricing is Dantzig's rule until a run of degenerate pivots, then Bland's
rule (smallest index) until the objective moves again, which rules out
cycling. The m x m basis inverse is kept explicitly, so a caller with a
choice poses the form with fewer rows (reward selection solves the state
class's margin LP through its (S + 1)-row dual). Each pivot costs O(m^2)
plus one pricing pass over the columns: the basic values move by the
ratio-test step and the inverse by an in-place rank-1 update. Every 64
pivots (or at a tiny pivot element) the inverse is refactorized and the
basic values are recomputed from the nonbasic ones, which bounds the drift
of both.

Pricing and the ratio test use a fixed tolerance of 1e-9; phase 1 reports
infeasibility when more than 1e-7 * max(1, |b|_inf) artificial mass remains.
A solve that takes more than 200 (m + 1) + 20 n + 2000 pivots, with n the
column count including slacks and artificials, raises ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleLPError, UnboundedLPError

LE, EQ, GE = -1, 0, 1

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass
class LinearProgram:
    """Dense LP data; `sense` entries are -1 (<=), 0 (=), +1 (>=). Every
    coefficient and right-hand side is finite; a bound may be infinite, not NaN."""

    objective: np.ndarray
    lhs: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.lhs = np.asarray(self.lhs, dtype=np.float64)
        self.sense = np.asarray(self.sense, dtype=np.int64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        m, n = self.lhs.shape if self.lhs.size else (0, self.objective.size)
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match constraint columns")
        if self.sense.shape != (m,) or self.rhs.shape != (m,):
            raise ValueError("sense/rhs length does not match constraint rows")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bounds length does not match variable count")
        if not all(np.all(np.isfinite(a)) for a in (self.lhs, self.objective, self.rhs)):
            raise ValueError("coefficients and right-hand sides must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")


@dataclass
class LPSolution:
    x: np.ndarray
    value: float
    iterations: int
    # Simplex multipliers y of the constraint rows, with c - y L the reduced
    # costs: at a maximum, y >= 0 on LE rows and y <= 0 on GE rows, so -y
    # solves the dual of a maximization posed with GE rows.
    row_duals: np.ndarray = None


class _BoundedSimplex:
    def __init__(self, A, b, lo, hi):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.m, self.n = A.shape
        self.max_pivots = 200 * (self.m + 1) + 20 * self.n + 2000
        self.pivots = 0

    def start(self, basis, status, x):
        """`basis[i]` is a slack or artificial column whose one nonzero, +-1,
        sits in row i, so the basis matrix is diagonal with entries +-1 and is
        its own inverse; `x` already holds the basic values."""
        # copies: pivots mutate the basis in place and must not alias caller arrays
        self.basis = np.array(basis, dtype=np.int64)
        self.status = np.array(status, dtype=np.int64)
        self.x = np.array(x, dtype=np.float64)
        self.binv = np.diag(self.A[np.arange(self.m), self.basis])
        self._since_refactor = 0

    def _refactor(self):
        self.binv = np.linalg.inv(self.A[:, self.basis])
        self._since_refactor = 0
        self.x[self.basis] = self._basic_values()

    def _basic_values(self):
        nonbasic = self.status != _BASIC
        rhs = self.b - self.A[:, nonbasic] @ self.x[nonbasic]
        return self.binv @ rhs

    def run(self, objective):
        tol = 1e-9
        bland = False
        stall = 0
        while True:
            if self.pivots > self.max_pivots:
                raise ConvergenceError("simplex exceeded its pivot budget")
            y = objective[self.basis] @ self.binv
            reduced = objective - y @ self.A
            at_lo = (self.status == _AT_LOWER) & (reduced > tol) & (self.hi > self.lo)
            at_hi = (self.status == _AT_UPPER) & (reduced < -tol) & (self.hi > self.lo)
            candidates = np.nonzero(at_lo | at_hi)[0]
            if candidates.size == 0:
                return
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmax(np.abs(reduced[candidates]))])
            sigma = 1.0 if self.status[j] == _AT_LOWER else -1.0
            w = self.binv @ self.A[:, j]

            xb = self.x[self.basis]
            step = np.inf
            leave_pos = -1
            leave_to = _AT_LOWER
            dirn = sigma * w
            with np.errstate(divide="ignore", invalid="ignore"):
                drop = np.where(dirn > tol, (xb - self.lo[self.basis]) / dirn, np.inf)
                rise = np.where(dirn < -tol, (xb - self.hi[self.basis]) / dirn, np.inf)
            ratios = np.minimum(drop, rise)
            ratios[~np.isfinite(ratios)] = np.inf
            ratios = np.maximum(ratios, 0.0)
            if ratios.size:
                if bland:
                    best = np.min(ratios)
                    tied = np.nonzero(ratios <= best + 1e-15)[0]
                    leave_pos = int(tied[np.argmin(self.basis[tied])])
                else:
                    leave_pos = int(np.argmin(ratios))
                step = float(ratios[leave_pos])
                leave_to = _AT_LOWER if drop[leave_pos] <= rise[leave_pos] else _AT_UPPER
            own_range = self.hi[j] - self.lo[j]
            bound_switch = own_range < step
            if bound_switch:
                step = own_range
            if not np.isfinite(step):
                raise UnboundedLPError("objective is unbounded along an improving ray")

            # apply the move
            self.x[self.basis] = xb - step * dirn
            if bound_switch:
                self.status[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
                self.x[j] = self.hi[j] if sigma > 0 else self.lo[j]
            else:
                out = self.basis[leave_pos]
                self.status[out] = leave_to
                self.x[out] = self.lo[out] if leave_to == _AT_LOWER else self.hi[out]
                self.x[j] += sigma * step
                self.status[j] = _BASIC
                self.basis[leave_pos] = j
                piv = w[leave_pos]
                if abs(piv) < 1e-12:
                    self._refactor()
                else:
                    row = self.binv[leave_pos] / piv
                    self.binv -= np.outer(w, row)
                    self.binv[leave_pos] = row
                    self._since_refactor += 1
                    if self._since_refactor >= 64:
                        self._refactor()

            self.pivots += 1
            if step <= tol:
                stall += 1
                if stall >= 2 * (self.m + 1):
                    bland = True
            else:
                stall = 0
                bland = False


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve a bounded LP; raises InfeasibleLPError / UnboundedLPError."""
    m = lp.lhs.shape[0] if lp.lhs.size else 0
    n = lp.objective.size
    if np.any(~np.isfinite(lp.lower) & ~np.isfinite(lp.upper)):
        raise ValueError("free variables are not supported; give each a finite bound")

    # start: every structural variable at its finite bound (lower first)
    x_struct = np.where(np.isfinite(lp.lower), lp.lower, lp.upper)
    residual = lp.rhs - lp.lhs @ x_struct if m else np.zeros(0)
    slack_rows = np.nonzero(lp.sense != EQ)[0]
    slack_sign = -lp.sense[slack_rows].astype(np.float64)  # +1 on LE rows, -1 on GE rows
    slack_value = slack_sign * residual[slack_rows]
    carries = slack_value >= 0
    art_rows = np.setdiff1d(np.arange(m), slack_rows[carries])
    n_slack, n_art = slack_rows.size, art_rows.size
    total = n + n_slack + n_art
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)

    A = np.zeros((m, total))
    if m:
        A[:, :n] = lp.lhs
    A[slack_rows, slack_cols] = slack_sign
    A[art_rows, art_cols] = np.where(residual[art_rows] >= 0, 1.0, -1.0)
    lo = np.concatenate([lp.lower, np.zeros(n_slack + n_art)])
    hi = np.concatenate([lp.upper, np.full(n_slack + n_art, np.inf)])
    x = np.concatenate([x_struct, np.where(carries, slack_value, 0.0), np.abs(residual[art_rows])])

    # basis position i holds the column with the unit entry in row i
    basis = np.empty(m, dtype=np.int64)
    basis[slack_rows[carries]] = slack_cols[carries]
    basis[art_rows] = art_cols
    status = np.full(total, _AT_LOWER, dtype=np.int64)
    status[:n][~np.isfinite(lp.lower)] = _AT_UPPER
    status[basis] = _BASIC

    core = _BoundedSimplex(A, lp.rhs, lo, hi)
    core.start(basis, status, x)

    if n_art:
        phase1 = np.zeros(total)
        phase1[art_cols] = -1.0
        core.run(phase1)
        if float(phase1 @ core.x) < -1e-7 * max(1.0, np.abs(lp.rhs).max()):
            raise InfeasibleLPError(
                f"phase 1 left artificial mass {-float(phase1 @ core.x):.3e}"
            )
        # freeze artificials at zero for phase 2
        core.hi[art_cols] = 0.0
        core.x[art_cols] = np.minimum(core.x[art_cols], 0.0)

    phase2 = np.zeros(total)
    phase2[:n] = lp.objective
    core.run(phase2)

    x_out = core.x[:n].copy()
    duals = phase2[core.basis] @ core.binv if m else np.zeros(0)
    return LPSolution(
        x=x_out,
        value=float(lp.objective @ x_out),
        iterations=core.pivots,
        row_duals=duals,
    )
