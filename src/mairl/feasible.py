"""Characterizations of the rewards under which a joint policy is a Nash
equilibrium: the implicit advantage conditions, the explicit (A, V)
parameterization with its event mask (an (n, S, A) bool array), the
model-estimation error bound, and the two-sided deviation-gain bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dp import expected_advantage_table, occupancy, policy_evaluation, shaping
from .equilibrium import nash_gap
from .errors import DimensionMismatchError, NotFeasibleError, OutOfRangeError
from .games import JointPolicy, JointReward, MarkovGame, per_agent_rmax


@dataclass(frozen=True)
class FeasibleParams:
    """Explicit parameters: deviation penalties a_fn >= 0 (n, S, A) and
    finite shaping values v_fn (n, S). A NaN penalty or a non-finite value
    raises ValueError."""

    a_fn: np.ndarray
    v_fn: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_fn, dtype=np.float64)
        v = np.asarray(self.v_fn, dtype=np.float64)
        if a.ndim != 3 or v.ndim != 2 or a.shape[:2] != v.shape:
            raise DimensionMismatchError(
                f"a_fn shape {a.shape} and v_fn shape {v.shape} do not align"
            )
        if not np.all(a >= 0):
            raise ValueError("a_fn must be nonnegative everywhere")
        if not np.all(np.isfinite(v)):
            raise ValueError("v_fn must be finite everywhere")
        object.__setattr__(self, "a_fn", a)
        object.__setattr__(self, "v_fn", v)


@dataclass(frozen=True)
class ImplicitCheckReport:
    passed: bool
    max_violation: float
    violations: list = field(default_factory=list)  # (agent, state, action, value, kind)


def event_mask(policy: JointPolicy) -> np.ndarray:
    """(n, S, A) bool array: [i, s, a] is True iff agent i's own action in the
    joint action a has stored probability exactly 0 at s while the opponents'
    joint action has positive probability."""
    n = policy.n_agents
    agent_actions = policy.agent_actions
    A = agent_actions.shape[1]
    S = policy.n_states
    mask = np.zeros((n, S, A), dtype=bool)
    for i in range(n):
        own_zero = policy.per_agent[i][:, agent_actions[i]] == 0.0
        opp_pos = np.ones((S, A), dtype=bool)
        for j in range(n):
            if j != i:
                opp_pos &= policy.per_agent[j][:, agent_actions[j]] > 0.0
        mask[i] = own_zero & opp_pos
    return mask


def check_implicit(
    game: MarkovGame,
    reward: JointReward,
    policy: JointPolicy,
    tol: float = 1e-8,
) -> ImplicitCheckReport:
    """Advantage conditions for the policy to be an equilibrium under `reward`.

    For each agent, state and own action, the opponent-expected advantage must
    vanish (within tol) on the policy's support and be <= tol off it. Returns
    every violating triple.
    """
    values = policy_evaluation(game, reward, policy)
    return _implicit_report(game, policy, values, tol)


def _implicit_report(game, policy, values, tol) -> ImplicitCheckReport:
    """`check_implicit` on the policy's value bundle `values`."""
    violations = []
    worst = 0.0
    for i in range(game.n_agents):
        adv = expected_advantage_table(game, policy, values, i)
        support = policy.support(i)
        for s, a in zip(*np.nonzero(support & (np.abs(adv) > tol))):
            violations.append((i, int(s), int(a), float(adv[s, a]), "support-nonzero"))
            worst = max(worst, abs(float(adv[s, a])))
        for s, a in zip(*np.nonzero(~support & (adv > tol))):
            violations.append((i, int(s), int(a), float(adv[s, a]), "off-support-positive"))
            worst = max(worst, float(adv[s, a]))
    return ImplicitCheckReport(passed=not violations, max_violation=worst, violations=violations)


def construct_reward(
    game: MarkovGame,
    policy: JointPolicy,
    params: FeasibleParams,
    rmax,
) -> JointReward:
    """Reward from the explicit form R^i = -A^i 1_E + V^i - gamma P V^i.

    Entries must land in [0, rmax_i]; out-of-range parameterizations are
    rejected rather than clamped, since clamping silently breaks feasibility;
    entries within 1e-9 of the range are clipped into it. The result must pass
    its own feasibility check at tol 1e-9.
    """
    n, S, A = game.n_agents, game.n_states, game.n_joint_actions
    if params.a_fn.shape != (n, S, A) or params.v_fn.shape != (n, S):
        raise DimensionMismatchError("params shapes do not match the game")
    r = per_agent_rmax(rmax, n)
    tables = witness_reward_tables(game, policy, params)
    lo = tables.min()
    hi = float((tables - r[:, None, None]).max())
    if lo < -1e-9 or hi > 1e-9:
        raise OutOfRangeError(
            f"constructed reward leaves [0, rmax]: min {lo:.3e}, rmax overshoot {hi:.3e}"
        )
    tables = np.clip(tables, 0.0, r[:, None, None])
    out = JointReward(tables, r)
    report = check_implicit(game, out, policy, tol=1e-9)
    if not report.passed:
        raise NotFeasibleError(
            f"constructed reward fails its own feasibility check "
            f"(max violation {report.max_violation:.3e}); this is a bug"
        )
    return out


def decompose_reward(
    game: MarkovGame,
    policy: JointPolicy,
    reward: JointReward,
    tol: float = 1e-8,
) -> FeasibleParams:
    """Canonical explicit parameters of a feasible reward.

    V^i is the policy's value and A^i = max(V^i - Q^i, 0) entrywise. For
    rewards produced by :func:`construct_reward` the round trip is exact; for
    other feasible rewards the reconstruction is a feasible completion that
    agrees on masked entries wherever V >= Q.
    """
    values = policy_evaluation(game, reward, policy)
    report = _implicit_report(game, policy, values, tol)
    if not report.passed:
        raise NotFeasibleError(
            f"reward is not feasible for this policy (max violation "
            f"{report.max_violation:.3e} > tol {tol:.3e})"
        )
    a_fn = np.maximum(values.v[:, :, None] - values.q, 0.0)
    return FeasibleParams(a_fn=a_fn, v_fn=values.v)


def error_propagation_bound(
    params: FeasibleParams,
    mask_true: np.ndarray,
    mask_est: np.ndarray,
    transitions,
    transitions_hat,
) -> np.ndarray:
    """Entrywise reward-recovery bound under model/policy estimation error.

    bound[i,s,a] = A^i(s,a) |1_E - 1_Ehat| + gamma-free transition part
    sum_{s'} |V^i(s')| |P - Phat|(s'|s,a), scaled by gamma. Reusing (A, V)
    under (Phat, Ehat) realizes the bound: that witness reward differs from
    the original by at most bound, entrywise.
    """
    P = np.asarray(transitions, dtype=np.float64)
    Phat = np.asarray(transitions_hat, dtype=np.float64)
    if P.shape != Phat.shape:
        raise DimensionMismatchError("transition tables differ in shape")
    gamma_free = np.abs(P - Phat) @ np.abs(params.v_fn).T  # (S, A, n)
    mask_term = params.a_fn * (mask_true != mask_est)
    return mask_term + np.moveaxis(gamma_free, -1, 0)


def witness_reward_tables(
    game_hat: MarkovGame, policy_hat: JointPolicy, params: FeasibleParams
) -> np.ndarray:
    """Raw witness tables -A 1_Ehat + V - gamma Phat V (no range validation)."""
    mask = event_mask(policy_hat)
    return -params.a_fn * mask + shaping(game_hat, params.v_fn)


def _deviator_profile(policy_hat: JointPolicy, deviator_policy: JointPolicy, agent: int):
    """The profile (deviator^agent, policy_hat^{-agent})."""
    tables = list(policy_hat.per_agent)
    tables[agent] = deviator_policy.per_agent[agent]
    return JointPolicy(tables)


def nash_gap_bound(
    game_true: MarkovGame,
    game_est: MarkovGame,
    reward: JointReward,
    reward_hat: JointReward,
    policy_hat: JointPolicy,
    deviator_policy: JointPolicy,
) -> float:
    """Two-sided simulation bound on the deviation gain of an estimated
    equilibrium when it is transported to the true problem.

    For each agent i, with the mixed profile pi~ = (deviator^i, policy_hat^{-i}),

        V^i(pi~) - V^i(policy_hat)
          <= sum_{s,a} w_hat^{pi~}(s,a) [ |R - Rhat| + gamma |(Phat - P) V^{i,pi~}| ]
           + sum_{s,a} w_hat^{hat}(s,a) [ |R - Rhat| + gamma |(Phat - P) V^{i,hat}| ],

    where both visitations are taken in the estimated model from mu and the
    values are true-problem values. Requires policy_hat to be an equilibrium
    of the estimated problem within 1e-6; returns the max over agents.
    """
    report = nash_gap(game_est, reward_hat, policy_hat)
    if report.gap > 1e-6:
        raise NotFeasibleError(
            f"policy_hat is not an equilibrium of the estimated problem "
            f"(gap {report.gap:.3e} > 1e-6)"
        )
    dr = np.abs(reward.tables - reward_hat.tables)
    dp = game_est.transitions - game_true.transitions
    bounds = np.zeros(game_true.n_agents)
    w_hat = occupancy(game_est, policy_hat)
    v_hat_side = policy_evaluation(game_true, reward, policy_hat).v
    for i in range(game_true.n_agents):
        tilde = _deviator_profile(policy_hat, deviator_policy, i)
        w_tilde = occupancy(game_est, tilde)
        v_tilde = policy_evaluation(game_true, reward, tilde).v[i]
        term_tilde = dr[i] + game_true.gamma * np.abs(dp @ v_tilde)
        term_hat = dr[i] + game_true.gamma * np.abs(dp @ v_hat_side[i])
        bounds[i] = float((w_tilde * term_tilde).sum() + (w_hat * term_hat).sum())
    return float(bounds.max())


def deviation_gain(
    game: MarkovGame,
    reward: JointReward,
    policy_hat: JointPolicy,
    deviator_policy: JointPolicy,
    agent: int,
) -> float:
    """mu-weighted V^i(deviator^i, policy_hat^{-i}) - V^i(policy_hat) in the true game."""
    tilde = _deviator_profile(policy_hat, deviator_policy, agent)
    v_tilde = policy_evaluation(game, reward, tilde).v[agent]
    v_hat = policy_evaluation(game, reward, policy_hat).v[agent]
    return float(game.mu @ (v_tilde - v_hat))
