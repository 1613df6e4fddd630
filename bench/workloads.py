"""The benchmark's three workloads: set-up, one op, and the op's output checks.

All use gamma = 0.9, rmax = 1, delta = 0.1, pi_min = 1. Op i of a run uses
seed workload_seed + i. Package functions are looked up on their module at
call time, so the wrappers installed by `spans.traced` see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mairl import dp, equilibrium, estimation, experiment, gridworld, reward_select
from mairl.errors import ConvergenceError

GAMMA, RMAX, DELTA, PI_MIN = 0.9, 1.0, 0.1, 1.0
TRANSFER_VARIANTS = ("deterministic", "obstacle-one")
# cloning's gap on obstacle-one: the best-response value 0.9^3 of the agent
# whose cloned path is blocked (agent 0 on 3x3, as in criterion 8 of the
# acceptance suite; agent 1 on 4x3)
CLONING_GAP = 0.729
CERTIFY_EPSILON = 100.0
CERTIFY_K_MAX = 500
PARAMS = estimation.ConfidenceParams(delta=DELTA, pi_min=PI_MIN, rmax=RMAX, gamma=GAMMA)


def board(width: int, height: int) -> gridworld.GridGameSpec:
    """Crossing-goals board: starts in the bottom corners, goals diagonally opposite."""
    return gridworld.GridGameSpec(
        width=width,
        height=height,
        start_positions=((0, 0), (width - 1, 0)),
        goal_positions=((width - 1, height - 1), (0, height - 1)),
        gamma=GAMMA,
        rmax=RMAX,
    )


def pipeline_config(seed: int, k: int, out_dir: str) -> experiment.ExperimentConfig:
    """Criterion-8 settings for one seed with a single eval point k."""
    return experiment.ExperimentConfig(
        seeds=(seed,),
        epsilon=1.0,
        delta=DELTA,
        pi_min=PI_MIN,
        k_max=k,
        eval_points=(k,),
        variants=TRANSFER_VARIANTS,
        gamma=GAMMA,
        rmax=RMAX,
        mode=reward_select.DISTANCE_TO_RANDOM,
        reward_class=reward_select.STATE_CLASS,
        out_dir=out_dir,
    )


@dataclass
class Problem:
    """Deterministic board, its NashQ expert and the transfer variants."""

    game: object
    reward: object
    expert: object
    altered: dict


def build_problem(spec, variants) -> Problem:
    """Grid builds and expert synthesis, in `run_experiment`'s order."""
    game, reward, _ = gridworld.build_grid_game(spec)
    synthesis = equilibrium.nash_value_iteration(game, reward)
    if not synthesis.converged:
        raise ConvergenceError("expert synthesis did not converge")
    altered = {}
    for name in variants:
        alt_game, alt_reward, _ = gridworld.build_grid_game(gridworld.variant_spec(spec, name))
        altered[name] = (alt_game, alt_reward)
    return Problem(game, reward, synthesis.policy, altered)


def pipeline_rows(problem: Problem, config: experiment.ExperimentConfig, seed: int):
    """Curve rows of one seed: the per-seed body of `run_experiment`, composed
    from the same public calls, on a prebuilt problem."""
    game = problem.game
    params = estimation.ConfidenceParams(
        delta=config.delta, pi_min=config.pi_min, rmax=config.rmax, gamma=config.gamma
    )
    oracle = estimation.GenerativeOracle(game, problem.expert, seed=seed)
    counts = estimation.CountBook(game.n_states, game.action_counts)
    eval_points = sorted(set(config.eval_points))
    rows = []
    for k in range(1, max(eval_points) + 1):
        estimation.sample_round(oracle, counts)
        if k not in eval_points:
            continue
        estimated = estimation.estimate(counts)
        unc = estimation.uncertainty(counts, params)
        est_game = estimated.as_game(config.gamma, game.mu)
        recovered = reward_select.max_gap_reward(
            est_game,
            estimated.pi_hat,
            config.rmax,
            mode=config.mode,
            seed=seed,
            reward_class=config.reward_class,
        )
        bc_policy = reward_select.behavior_cloning(estimated.pi_hat)
        samples_total = k * game.n_states * (game.n_joint_actions + 1)
        for name in config.variants:
            alt_game, alt_reward = problem.altered[name]
            transferred = equilibrium.nash_value_iteration(alt_game, recovered.reward).policy
            gap_mairl = equilibrium.nash_gap(alt_game, alt_reward, transferred).gap
            gap_bc = equilibrium.nash_gap(alt_game, alt_reward, bc_policy).gap
            rows.append((seed, name, k, samples_total, gap_mairl, gap_bc, unc.epsilon_k))
    return rows


def cloning_gap_reference(problem: Problem) -> float:
    """Cloning's gap on obstacle-one, accounted independently as in criterion 8:
    the largest best-response value of an agent over the states where its
    cloned policy earns nothing."""
    alt_game, alt_reward = problem.altered["obstacle-one"]
    clone_values = dp.policy_evaluation(alt_game, alt_reward, problem.expert).v
    best = 0.0
    for agent, clone_value in enumerate(clone_values):
        broken = clone_value <= 1e-9
        if broken.any():
            br = equilibrium.best_response(alt_game, alt_reward, problem.expert, agent=agent)
            best = max(best, float(br.value[broken].max()))
    return best


def check_rows(rows) -> list:
    """Problems found in one seed's curve rows; empty when they pass."""
    by_variant = {row[1]: row for row in rows}
    if len(rows) != len(TRANSFER_VARIANTS) or set(by_variant) != set(TRANSFER_VARIANTS):
        return [f"expected one row per variant {TRANSFER_VARIANTS}, got {len(rows)} rows"]
    problems = []
    for row in rows:
        if not all(math.isfinite(g) and g >= 0.0 for g in row[4:6]):
            problems.append(f"gap not finite and >= 0 in {row}")
    if by_variant["deterministic"][5] > 1e-9:
        problems.append(f"cloning gap {by_variant['deterministic'][5]!r} on deterministic > 1e-9")
    if abs(by_variant["obstacle-one"][5] - CLONING_GAP) > 1e-9:
        problems.append(
            f"cloning gap {by_variant['obstacle-one'][5]!r} on obstacle-one != {CLONING_GAP}"
        )
    return problems


def row_quality(rows) -> dict:
    """Recovered-reward gap on obstacle-one, and whether it beats cloning's."""
    obstacle = next(row for row in rows if row[1] == "obstacle-one")
    return {"gap_mairl": obstacle[4], "win": obstacle[4] < obstacle[5]}


class Workload:
    """One workload: `build` is the timed set-up, `prepare` the untimed
    check references, `op` one timed operation."""

    name = ""
    spec = None
    variants = TRANSFER_VARIANTS

    def build(self) -> Problem:
        return build_problem(self.spec, self.variants)

    def prepare(self, problem: Problem, out_dir: str) -> None:
        self.problem = problem
        self.out_dir = out_dir
        reference = cloning_gap_reference(problem)
        if abs(reference - CLONING_GAP) > 1e-9:
            raise RuntimeError(f"cloning gap reference {reference!r} != {CLONING_GAP}")

    def op(self, seed: int):
        raise NotImplementedError

    def rows(self, out):
        return out

    def check(self, out) -> list:
        return check_rows(self.rows(out))

    def quality(self, out):
        return row_quality(self.rows(out))

    def fingerprint(self, out):
        return tuple(self.rows(out))


class Transfer3x3(Workload):
    """One `run_experiment` call for one seed, criterion-8 configuration."""

    name = "transfer-3x3"
    spec = board(3, 3)

    def op(self, seed):
        return experiment.run_experiment(pipeline_config(seed, 500, self.out_dir))

    def rows(self, out):
        return out.curve_rows

    def check(self, out):
        errors = [f"error row {err!r}" for err in out.errors]
        return errors + super().check(out)

    def fingerprint(self, out):
        return (tuple(out.curve_rows), out.bound_row, tuple(out.errors))


class Select4x3(Workload):
    """The per-seed pipeline for one sampling round on the 4x3 board."""

    name = "select-4x3"
    spec = board(4, 3)

    def op(self, seed):
        return pipeline_rows(self.problem, pipeline_config(seed, 1, self.out_dir), seed)


class Certify4x4(Workload):
    """One `uniform_sampling` run to the stopping rule on the 4x4 expert."""

    name = "certify-4x4"
    spec = board(4, 4)
    variants = ()

    def prepare(self, problem, out_dir):
        self.problem = problem
        game = problem.game
        self.tau = estimation.stopping_time(
            PARAMS, game.n_states, game.action_counts, game.n_agents, CERTIFY_EPSILON
        )

    def op(self, seed):
        oracle = estimation.GenerativeOracle(self.problem.game, self.problem.expert, seed=seed)
        return estimation.uniform_sampling(oracle, PARAMS, CERTIFY_EPSILON, CERTIFY_K_MAX)

    def check(self, out):
        problems = []
        if not out.converged:
            problems.append("uniform sampling did not converge")
        if out.tau != self.tau:
            problems.append(f"tau {out.tau} != stopping_time {self.tau}")
        return problems

    def quality(self, out):
        return None

    def fingerprint(self, out):
        # the history's last column is wall time, which differs between runs
        return (
            out.tau,
            out.converged,
            tuple(row[:-1] for row in out.history),
            out.problem.p_hat.tobytes(),
            tuple(t.tobytes() for t in out.problem.pi_hat.per_agent),
            out.uncertainty.c.tobytes(),
        )


WORKLOADS = {w.name: w for w in (Transfer3x3, Select4x3, Certify4x4)}


def composition_mismatch(out_dir: str) -> list:
    """Self-test: on the 3x3 board with one seed, the composed pipeline that
    `select-4x3` runs returns rows bit-identical to `run_experiment`'s."""
    seed = 0
    config = pipeline_config(seed, 1, out_dir)
    reference = experiment.run_experiment(config)
    composed = pipeline_rows(build_problem(board(3, 3), TRANSFER_VARIANTS), config, seed)
    if reference.errors or composed != reference.curve_rows:
        return [f"composed rows {composed} != run_experiment rows {reference.curve_rows}"]
    return []
