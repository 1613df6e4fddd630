"""End-to-end pipeline: expert synthesis, sampling, recovery, transfer,
and the sup-inf optimality check over sampled reward families.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .dp import shaping
from .equilibrium import nash_gap, nash_value_iteration
from .errors import ConfigError, ConvergenceError, MairlError, OutOfRangeError
from .estimation import (
    ConfidenceParams,
    CountBook,
    GenerativeOracle,
    estimate,
    sample_round,
    stopping_time,
    theoretical_sample_bound,
    uncertainty,
)
from .feasible import FeasibleParams, check_implicit, construct_reward, event_mask
from .games import JointPolicy, MarkovGame
from .gridworld import VARIANTS, GridGameSpec, build_grid_game, variant_spec
from .reward_select import (
    DISTANCE_TO_RANDOM,
    MAX_MARGIN,
    STATE_ACTION_CLASS,
    STATE_CLASS,
    behavior_cloning,
    max_gap_reward,
)

CURVE_COLUMNS = (
    "seed",
    "variant",
    "k",
    "samples_total",
    "nash_gap_mairl",
    "nash_gap_bc",
    "epsilon_k",
)
BOUND_COLUMNS = (
    "S",
    "n_agents",
    "joint_actions",
    "gamma",
    "rmax",
    "epsilon",
    "delta",
    "pi_min",
    "theoretical_bound",
    "empirical_tau",
)
SUMMARY_COLUMNS = (
    "variant",
    "k",
    "mean_gap_mairl",
    "lo_gap_mairl",
    "hi_gap_mairl",
    "mean_gap_bc",
    "lo_gap_bc",
    "hi_gap_bc",
)


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    epsilon: float = 1.0
    delta: float = 0.1
    pi_min: float = 1.0
    k_max: int = 500
    variants: tuple[str, ...] = ("deterministic", "stochastic-up", "obstacle-one")
    eval_points: tuple[int, ...] = (1, 50, 500)
    gamma: float = 0.9
    rmax: float = 1.0
    mode: str = DISTANCE_TO_RANDOM
    reward_class: str = STATE_CLASS
    out_dir: str = "results"

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not self.epsilon > 0 or not 0 < self.delta < 1 or not 0 < self.pi_min <= 1:
            raise ConfigError("epsilon must be > 0, delta in (0,1), pi_min in (0,1]")
        if not 0 <= self.gamma < 1:
            raise ConfigError("gamma must lie in [0, 1)")
        if not self.rmax >= GridGameSpec.goal_reward:
            raise ConfigError(f"rmax must be >= the grid's goal reward {GridGameSpec.goal_reward}")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ConfigError(f"unknown variants {sorted(unknown)}; choose from {VARIANTS}")
        if self.mode not in (MAX_MARGIN, DISTANCE_TO_RANDOM):
            raise ConfigError(f"unknown recovery mode {self.mode!r}")
        if self.reward_class not in (STATE_ACTION_CLASS, STATE_CLASS):
            raise ConfigError(f"unknown reward class {self.reward_class!r}")
        if not self.eval_points:
            raise ConfigError("need at least one eval point")
        if any(k < 1 for k in self.eval_points) or self.k_max < max(self.eval_points):
            raise ConfigError("eval points must be >= 1 and <= k_max")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError("seeds must be non-negative")

    def confidence_params(self) -> ConfidenceParams:
        """The sampling layer's confidence parameters under this config."""
        return ConfidenceParams(
            delta=self.delta, pi_min=self.pi_min, rmax=self.rmax, gamma=self.gamma
        )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Reward families for the sup-inf optimality criterion
# ---------------------------------------------------------------------------


def sample_reward_family(
    game: MarkovGame,
    policy: JointPolicy,
    rmax: float,
    size: int,
    seed: int,
    v_range=None,
    penalty_range=(0.0, 1.0),
):
    """`size` feasible rewards from seeded (A, V) draws, rejected until in range.

    V is drawn uniformly in `v_range`, defaulting to [gamma*M, M] with
    M = rmax/(1-gamma^2), which keeps the shaping part inside [0, rmax] for
    any kernel; deviation penalties take a uniform fraction (drawn from
    `penalty_range`) of the available headroom on masked entries. Each member
    gets 200 draws before ConvergenceError is raised.
    """
    if size < 1:
        raise ValueError("family size must be positive")
    rng = np.random.default_rng(seed)
    mask = event_mask(policy, game.agent_actions).mask
    if v_range is None:
        scale = rmax / (1.0 - game.gamma**2)
        v_range = (game.gamma * scale, scale)
    members = []
    for _ in range(size):
        for _try in range(200):
            v = rng.uniform(v_range[0], v_range[1], size=(game.n_agents, game.n_states))
            shaped = shaping(game, v)
            frac = rng.uniform(*penalty_range, size=shaped.shape)
            a = np.where(mask, frac * np.maximum(shaped, 0.0), 0.0)
            try:
                members.append(
                    construct_reward(game, policy, FeasibleParams(a_fn=a, v_fn=v), rmax)
                )
                break
            except OutOfRangeError:
                continue
        else:
            raise ConvergenceError(
                "could not sample an in-range feasible reward in 200 tries"
            )
    return members


@dataclass(frozen=True)
class OptimalityReport:
    supinf_1: float
    supinf_2: float
    passed: bool
    gap_matrix: np.ndarray  # [true member, recovered member]


def optimality_check(
    true_problem,
    recovered_problem,
    family_true,
    family_recovered,
    epsilon: float,
) -> OptimalityReport:
    """Sup-inf equilibrium-transport distances between two reward families.

    `true_problem` and `recovered_problem` are (game, policy) pairs. For each
    recovered reward, its equilibrium policy is recomputed by Nash value
    iteration in the recovered model; the entry (a, b) of the gap matrix
    scores that policy in the true game under true reward a. The check passes
    iff both sup-inf quantities stay at or below epsilon. Every family member
    must first pass `check_implicit` on its own problem at tol 1e-6.
    """
    game_true, policy_true = true_problem
    game_rec, policy_rec = recovered_problem
    if not family_true or not family_recovered:
        raise ValueError("reward families must be nonempty")
    for reward in family_true:
        report = check_implicit(game_true, reward, policy_true, tol=1e-6)
        if not report.passed:
            raise ValueError("a true-family member is not feasible for the true problem")
    for reward in family_recovered:
        report = check_implicit(game_rec, reward, policy_rec, tol=1e-6)
        if not report.passed:
            raise ValueError("a recovered-family member is not feasible for its problem")

    policies = [nash_value_iteration(game_rec, r).policy for r in family_recovered]
    gaps = np.zeros((len(family_true), len(family_recovered)))
    for a, reward in enumerate(family_true):
        for b, pol in enumerate(policies):
            gaps[a, b] = nash_gap(game_true, reward, pol).gap
    supinf_1 = float(gaps.min(axis=1).max())
    supinf_2 = float(gaps.min(axis=0).max())
    return OptimalityReport(
        supinf_1=supinf_1,
        supinf_2=supinf_2,
        passed=supinf_1 <= epsilon and supinf_2 <= epsilon,
        gap_matrix=gaps,
    )


# ---------------------------------------------------------------------------
# Grid transfer experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    curve_rows: list
    bound_row: tuple
    errors: list = field(default_factory=list)
    paths: dict = field(default_factory=dict)


def synthesize_expert(config: ExperimentConfig):
    """The deterministic grid under `config`, its reward and its NashQ expert.

    Returns (spec, game, reward, NashQResult); raises ConvergenceError when
    Nash value iteration does not converge.
    """
    spec = GridGameSpec(variant="deterministic", gamma=config.gamma, rmax=config.rmax)
    game, reward, _ = build_grid_game(spec)
    result = nash_value_iteration(game, reward)
    if not result.converged:
        raise ConvergenceError("expert synthesis did not converge on the deterministic grid")
    return spec, game, reward, result


def bound_row(config: ExperimentConfig, game: MarkovGame) -> tuple:
    """The `bound.csv` row (BOUND_COLUMNS) of `game`: the theoretical sample
    bound and the deterministic stopping round (-1 when none is reached)."""
    params = config.confidence_params()
    bound = theoretical_sample_bound(
        params, game.n_states, game.action_counts, game.n_agents, config.epsilon
    )
    tau = stopping_time(params, game.n_states, game.action_counts, game.n_agents, config.epsilon)
    return (
        game.n_states,
        game.n_agents,
        game.n_joint_actions,
        config.gamma,
        config.rmax,
        config.epsilon,
        config.delta,
        config.pi_min,
        bound.total,
        -1 if tau is None else tau,
    )


def recover_reward(config: ExperimentConfig, counts: CountBook, mu, seed: int):
    """Estimate the problem from `counts` (discount config.gamma, start `mu`)
    and select a reward on it in the config's mode and reward class.

    Returns (EstimatedProblem, MaxGapResult).
    """
    problem = estimate(counts)
    recovered = max_gap_reward(
        problem.as_game(config.gamma, mu),
        problem.pi_hat,
        config.rmax,
        mode=config.mode,
        seed=seed if config.mode == DISTANCE_TO_RANDOM else None,
        reward_class=config.reward_class,
    )
    return problem, recovered


def transfer_variants(base: GridGameSpec, variants) -> list:
    """(name, game, true reward) of each named variant of the board `base`, in order."""
    out = []
    for name in variants:
        game, reward, _ = build_grid_game(variant_spec(base, name))
        out.append((name, game, reward))
    return out


def transfer_gaps(altered, reward, bc_policy):
    """Yield (name, MAIRL gap, cloning gap) per (name, game, true reward) in
    `altered`: the equilibrium of the recovered `reward`, recomputed by Nash
    value iteration in that game, and `bc_policy` are both scored by
    `nash_gap` under the variant's true reward."""
    for name, alt_game, alt_reward in altered:
        transferred = nash_value_iteration(alt_game, reward).policy
        gap_mairl = nash_gap(alt_game, alt_reward, transferred).gap
        gap_bc = nash_gap(alt_game, alt_reward, bc_policy).gap
        yield name, gap_mairl, gap_bc


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Synthesize the expert on the deterministic grid, sample, recover,
    transfer to each altered variant, and emit curve/bound/summary CSVs.

    Per seed and eval point, the recovered reward (max-gap selection on the
    estimated problem) is transported to each variant by recomputing its
    equilibrium there, and both it and behavior cloning are scored by the
    equilibrium gap under the true reward of that variant. The rounds between
    consecutive eval points are drawn in one `sample_round` call. Package errors
    (MairlError) and singular linear systems are recorded per seed and the
    run continues; any other exception propagates.
    """
    base, det_game, _, expert_result = synthesize_expert(config)
    expert = expert_result.policy

    altered = transfer_variants(base, config.variants)

    params = config.confidence_params()
    curve_rows = []
    errors = []
    eval_points = sorted(set(config.eval_points))
    for seed in config.seeds:
        oracle = GenerativeOracle(det_game, expert, seed=seed)
        counts = CountBook(det_game.n_states, det_game.action_counts)
        try:
            for k in eval_points:
                sample_round(oracle, counts, k - counts.iteration)
                problem, recovered = recover_reward(config, counts, det_game.mu, seed)
                unc = uncertainty(counts, params)
                bc_policy = behavior_cloning(problem.pi_hat)
                samples_total = k * det_game.n_states * (det_game.n_joint_actions + 1)
                for name, gap_mairl, gap_bc in transfer_gaps(
                    altered, recovered.reward, bc_policy
                ):
                    curve_rows.append(
                        (seed, name, k, samples_total, gap_mairl, gap_bc, unc.epsilon_k)
                    )
        except (MairlError, np.linalg.LinAlgError) as exc:
            errors.append((seed, repr(exc)))

    result = ExperimentResult(
        curve_rows=curve_rows,
        bound_row=bound_row(config, det_game),
        errors=errors,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    curve_path = os.path.join(config.out_dir, "curve.csv")
    bound_path = os.path.join(config.out_dir, "bound.csv")
    summary_path = os.path.join(config.out_dir, "summary.csv")
    write_csv(curve_path, CURVE_COLUMNS, curve_rows)
    write_csv(bound_path, BOUND_COLUMNS, [result.bound_row])
    write_csv(summary_path, SUMMARY_COLUMNS, _summarize(curve_rows, config))
    result.paths = {"curve": curve_path, "bound": bound_path, "summary": summary_path}
    if errors:
        err_path = os.path.join(config.out_dir, "errors.csv")
        write_csv(err_path, ("seed", "error"), errors)
        result.paths["errors"] = err_path
    return result


def _summarize(curve_rows, config: ExperimentConfig):
    """Per (variant, k) mean and 2-sigma band across seeds; lower band clipped at 0."""
    rows = []
    for name in config.variants:
        for k in sorted(set(config.eval_points)):
            mairl = [r[4] for r in curve_rows if r[1] == name and r[2] == k]
            bc = [r[5] for r in curve_rows if r[1] == name and r[2] == k]
            if not mairl:
                continue
            m_mean, m_std = float(np.mean(mairl)), float(np.std(mairl))
            b_mean, b_std = float(np.mean(bc)), float(np.std(bc))
            rows.append(
                (
                    name,
                    k,
                    m_mean,
                    max(0.0, m_mean - 2 * m_std),
                    m_mean + 2 * m_std,
                    b_mean,
                    max(0.0, b_mean - 2 * b_std),
                    b_mean + 2 * b_std,
                )
            )
    return rows
