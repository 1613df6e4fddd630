"""Dense two-phase simplex for small LPs in one form:

maximize c^T x  subject to  L x >= b,  0 <= x <= u,

where an upper bound u_j may be infinite. Each row gets a surplus column
-e_i, and the start is x = 0, where row i's surplus is -b_i. A row with
b_i <= 0 starts with its surplus basic at -b_i; each row with b_i > 0 gets
an artificial column +e_i that carries b_i, and phase 1 drives those to
zero. The columns are laid out as [L | -I | artificials]. With no
artificial column (L x >= 0, as in reward selection's primal margin LP)
phase 1 is skipped and the start basis is already feasible for phase 2;
its dual, which the state reward class solves, needs one artificial.

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
column count including surplus and artificial columns, raises
ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleLPError, UnboundedLPError

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass
class LinearProgram:
    """maximize objective^T x s.t. lhs x >= rhs, 0 <= x <= upper. Every
    coefficient and right-hand side is finite; an upper bound may be
    infinite, but not NaN or negative."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.lhs = np.asarray(self.lhs, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        m, n = self.lhs.shape if self.lhs.size else (0, self.objective.size)
        self.lhs = self.lhs.reshape(m, n)
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match constraint columns")
        if self.rhs.shape != (m,):
            raise ValueError("rhs length does not match constraint rows")
        if self.upper.shape != (n,):
            raise ValueError("bounds length does not match variable count")
        if not all(np.all(np.isfinite(a)) for a in (self.lhs, self.objective, self.rhs)):
            raise ValueError("coefficients and right-hand sides must be finite")
        if not np.all(self.upper >= 0):
            raise ValueError("upper bounds must be nonnegative, not NaN")


@dataclass
class LPSolution:
    x: np.ndarray
    value: float
    iterations: int
    # Simplex multipliers y <= 0 of the rows, with c - y L the reduced
    # costs: -y solves the LP's dual.
    row_duals: np.ndarray


class _BoundedSimplex:
    """The simplex on A x = b, 0 <= x <= hi."""

    def __init__(self, A, b, hi):
        self.A = A
        self.b = b
        self.hi = hi
        self.m, self.n = A.shape
        self.max_pivots = 200 * (self.m + 1) + 20 * self.n + 2000
        self.pivots = 0

    def start(self, basis, status, x):
        """`basis[i]` is a surplus or artificial column whose one nonzero, +-1,
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
            at_lo = (self.status == _AT_LOWER) & (reduced > tol) & (self.hi > 0)
            at_hi = (self.status == _AT_UPPER) & (reduced < -tol) & (self.hi > 0)
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
                drop = np.where(dirn > tol, xb / dirn, np.inf)
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
            bound_switch = self.hi[j] < step
            if bound_switch:
                step = self.hi[j]
            if not np.isfinite(step):
                raise UnboundedLPError("objective is unbounded along an improving ray")

            # apply the move
            self.x[self.basis] = xb - step * dirn
            if bound_switch:
                self.status[j] = _AT_UPPER if sigma > 0 else _AT_LOWER
                self.x[j] = self.hi[j] if sigma > 0 else 0.0
            else:
                out = self.basis[leave_pos]
                self.status[out] = leave_to
                self.x[out] = 0.0 if leave_to == _AT_LOWER else self.hi[out]
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
    """Solve the LP; raises InfeasibleLPError / UnboundedLPError."""
    m, n = lp.lhs.shape
    # start at x = 0: row i's surplus -rhs[i] is basic where it is >= 0, and
    # an artificial carries rhs[i] on every other row
    surplus = -lp.rhs
    carries = surplus >= 0
    art_rows = np.flatnonzero(~carries)
    n_art = art_rows.size
    total = n + m + n_art
    art_cols = n + m + np.arange(n_art)

    A = np.zeros((m, total))
    A[:, :n] = lp.lhs
    A[np.arange(m), n + np.arange(m)] = -1.0
    A[art_rows, art_cols] = 1.0
    hi = np.concatenate([lp.upper, np.full(m + n_art, np.inf)])
    x = np.concatenate([np.zeros(n), np.where(carries, surplus, 0.0), lp.rhs[art_rows]])

    # basis position i holds the column with the unit entry in row i
    basis = n + np.arange(m)
    basis[art_rows] = art_cols
    status = np.full(total, _AT_LOWER, dtype=np.int64)
    status[basis] = _BASIC

    core = _BoundedSimplex(A, lp.rhs, hi)
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
    return LPSolution(
        x=x_out,
        value=float(lp.objective @ x_out),
        iterations=core.pivots,
        row_duals=phase2[core.basis] @ core.binv,
    )
