"""End-to-end pipeline: expert synthesis, sampling, recovery, transfer,
and the sup-inf optimality check over sampled reward families.

The grid pipeline has two pieces. `set_up` takes the board as a
`GridGameSpec` argument and builds its game, its NashQ expert and the named
transfer variants. `seed_curve` runs one seed on that set-up: it samples up
to each eval point, estimates, selects a reward and yields the seed's curve
rows. `run_experiment` and every `mairl` subcommand call them on the 3x3
board of `ExperimentConfig.grid_spec()`; a w x h crossing-goals board is
`set_up(GridGameSpec(width=w, height=h), variants)`, whose gamma and rmax
must be the config's.
"""

from __future__ import annotations

import numbers
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
from .games import JointPolicy, JointReward, MarkovGame
from .gridworld import GridGameSpec, build_grid_game, variant_spec
from .reward_select import (
    DISTANCE_TO_RANDOM,
    MODES,
    REWARD_CLASSES,
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
    """The grid transfer experiment's settings, checked on construction.

    The config checks itself only what no cheap object owns: seeds, variants
    and eval points are non-empty, seeds and variants do not repeat, seeds,
    k_max and eval points are integers, seeds are >= 0, eval points lie in
    [1, k_max], epsilon is > 0, and mode and reward_class are among
    `reward_select`'s MODES and REWARD_CLASSES. The rest is checked by
    building the objects the config makes: `confidence_params()` checks
    delta, pi_min, gamma and rmax, and `grid_spec()` with each variant (by
    `variant_spec`) checks rmax against the goal reward and the variant
    names; the config re-raises their ValueError as ConfigError. Every check
    runs before any expert synthesis.
    """

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
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0")
        if not self.variants:
            raise ConfigError("need at least one variant")
        # the sampling parameters and the board check their own fields
        try:
            self.confidence_params()
            board = self.grid_spec()
            for name in self.variants:
                variant_spec(board, name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.mode not in MODES:
            raise ConfigError(f"unknown recovery mode {self.mode!r}")
        if self.reward_class not in REWARD_CLASSES:
            raise ConfigError(f"unknown reward class {self.reward_class!r}")
        if not self.eval_points:
            raise ConfigError("need at least one eval point")
        # a float seed would draw its int's stream under its own label
        if not all(
            isinstance(v, numbers.Integral) for v in (*self.seeds, self.k_max, *self.eval_points)
        ):
            raise ConfigError("seeds, k_max and eval points must be integers")
        if any(k < 1 for k in self.eval_points) or self.k_max < max(self.eval_points):
            raise ConfigError("eval points must be >= 1 and <= k_max")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if len(set(self.seeds)) < len(self.seeds) or len(set(self.variants)) < len(self.variants):
            raise ConfigError("seeds and variants must not repeat")

    def confidence_params(self) -> ConfidenceParams:
        """The sampling layer's confidence parameters under this config."""
        return ConfidenceParams(
            delta=self.delta, pi_min=self.pi_min, rmax=self.rmax, gamma=self.gamma
        )

    def grid_spec(self) -> GridGameSpec:
        """The deterministic 3x3 board under this config's gamma and rmax."""
        return GridGameSpec(variant="deterministic", gamma=self.gamma, rmax=self.rmax)


def _conversion(kind: type) -> str:
    """The %-conversion of `fmt`'s rule for values of type `kind`."""
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, float):
        return "%.17g"
    return "%s"


def fmt(x) -> str:
    """The one number format of every output file: an integer as itself, a
    float with 17 significant digits (which round-trips IEEE doubles
    bit-exactly), anything else by str."""
    return _conversion(type(x)) % (x,)


def output_path(config: ExperimentConfig, name: str) -> str:
    """The path of file `name` in config.out_dir, creating the directory."""
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def write_csv(path, columns, rows) -> None:
    """Write `columns` and then `rows`, each value in `fmt`'s format. A row
    is formatted by one %-format string, built once per tuple of value types."""
    formats = {}
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            line = formats.get(kinds)
            if line is None:
                line = formats[kinds] = ",".join(map(_conversion, kinds)) + "\n"
            fh.write(line % row)


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
    mask = event_mask(policy)
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


@dataclass(frozen=True)
class GridSetup:
    """A board's game and true reward, its NashQ expert, and (name, game,
    true reward) of each transfer variant."""

    game: MarkovGame
    reward: JointReward
    expert: JointPolicy
    variants: tuple


def set_up(spec: GridGameSpec, variants=()) -> GridSetup:
    """Build the board `spec`, synthesize its NashQ expert, then build each
    named variant of the board, in order.

    Raises ConvergenceError when Nash value iteration does not converge.
    """
    game, reward, _ = build_grid_game(spec)
    result = nash_value_iteration(game, reward)
    if not result.converged:
        board = f"{spec.width}x{spec.height} {spec.variant} board"
        raise ConvergenceError(f"expert synthesis did not converge on the {board}")
    altered = []
    for name in variants:
        alt_game, alt_reward, _ = build_grid_game(variant_spec(spec, name))
        altered.append((name, alt_game, alt_reward))
    return GridSetup(game, reward, result.policy, tuple(altered))


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


def seed_curve(setup: GridSetup, config: ExperimentConfig, seed: int):
    """One seed of the experiment on `setup`: per eval point of `config`, in
    increasing order, yield (MaxGapResult, curve rows).

    The rounds since the previous eval point are drawn in one `sample_round`
    call from the expert's generative oracle. The estimated problem
    (discount config.gamma) gets a reward selected in the config's mode and
    reward class; that reward and behavior cloning are scored on each of
    `setup.variants` by `transfer_gaps`, one CURVE_COLUMNS row per variant.
    The rows of an eval point are yielded together once all are scored. A
    board whose gamma or rmax differs from the config's raises ConfigError
    before any round is drawn.
    """
    game = setup.game
    if game.gamma != config.gamma or np.any(setup.reward.rmax != config.rmax):
        raise ConfigError(
            f"the board has gamma {game.gamma} and rmax {setup.reward.rmax.tolist()}, "
            f"the config gamma {config.gamma} and rmax {config.rmax}"
        )
    oracle = GenerativeOracle(game, setup.expert, seed=seed)
    counts = CountBook(game.n_states, game.action_counts)
    params = config.confidence_params()
    for k in sorted(set(config.eval_points)):
        sample_round(oracle, counts, k - counts.iteration)
        problem = estimate(counts)
        recovered = max_gap_reward(
            problem.as_game(config.gamma, game.mu),
            problem.pi_hat,
            config.rmax,
            mode=config.mode,
            seed=seed,
            reward_class=config.reward_class,
        )
        epsilon_k = uncertainty(counts, params).epsilon_k
        samples_total = k * game.n_states * (game.n_joint_actions + 1)
        gaps = transfer_gaps(setup.variants, recovered.reward, behavior_cloning(problem.pi_hat))
        yield recovered, [
            (seed, name, k, samples_total, gap_mairl, gap_bc, epsilon_k)
            for name, gap_mairl, gap_bc in gaps
        ]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run `seed_curve` for every seed of `config` on the 3x3 board
    (`config.grid_spec()`) and its variants, and write curve/bound/summary CSVs.

    Package errors (MairlError) and singular linear systems are recorded per
    seed and the run goes on to the next seed, keeping the rows of the eval
    points the failed seed finished; any other exception propagates.
    """
    setup = set_up(config.grid_spec(), config.variants)
    curve_rows = []
    errors = []
    for seed in config.seeds:
        try:
            for _, rows in seed_curve(setup, config, seed):
                curve_rows.extend(rows)
        except (MairlError, np.linalg.LinAlgError) as exc:
            errors.append((seed, repr(exc)))

    result = ExperimentResult(curve_rows, bound_row(config, setup.game), errors)
    tables = {
        "curve": (CURVE_COLUMNS, curve_rows),
        "bound": (BOUND_COLUMNS, [result.bound_row]),
        "summary": (SUMMARY_COLUMNS, _summarize(curve_rows, config)),
    }
    if errors:
        tables["errors"] = (("seed", "error"), errors)
    for name, (columns, rows) in tables.items():
        result.paths[name] = output_path(config, f"{name}.csv")
        write_csv(result.paths[name], columns, rows)
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
