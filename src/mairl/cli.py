"""Command-line pipeline around the grid-game experiment.

Subcommands: gen-expert, sample, recover, evaluate, experiment, bound.
Exit codes: 0 success, 2 configuration error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .equilibrium import nash_gap
from .errors import ConfigError, ConvergenceError, DimensionMismatchError
from .estimation import LOG_COLUMNS, GenerativeOracle, uniform_sampling
from .experiment import (
    BOUND_COLUMNS,
    ExperimentConfig,
    bound_row,
    output_path,
    run_experiment,
    seed_curve,
    set_up,
    transfer_gaps,
    write_csv,
)
from .gridworld import build_grid_game
from .reward_select import behavior_cloning
from .textio import parse_config, read_sections, write_sections

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = parse_config(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if overrides:
        config = replace(config, **overrides)
    return config


def cmd_gen_expert(config: ExperimentConfig) -> int:
    setup = set_up(config.grid_spec())
    path = output_path(config, "expert.txt")
    write_sections(path, game=setup.game, reward=setup.reward, policy=setup.expert)
    gap = nash_gap(setup.game, setup.reward, setup.expert).gap
    print(f"expert written to {path} (equilibrium gap {gap:.3e})")
    return EXIT_OK


def cmd_sample(config: ExperimentConfig) -> int:
    setup = set_up(config.grid_spec())
    game = setup.game
    oracle = GenerativeOracle(game, setup.expert, seed=config.seeds[0])
    log_path = output_path(config, "run_log.csv")
    run = uniform_sampling(oracle, config.confidence_params(), config.epsilon, config.k_max)
    write_csv(log_path, LOG_COLUMNS, run.history)
    est_path = output_path(config, "estimated.txt")
    write_sections(
        est_path,
        game=run.problem.as_game(config.gamma, game.mu),
        policy=run.problem.pi_hat,
    )
    print(f"tau = {run.tau}, converged = {run.converged}; log at {log_path}")
    if not run.converged:
        needed = bound_row(config, game)[-1]
        reach = f"needs {needed} rounds" if needed > 0 else "is met in no round scanned"
        print(f"stopping rule at epsilon = {config.epsilon} {reach}; k_max = {config.k_max}")
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_recover(config: ExperimentConfig) -> int:
    seed = config.seeds[0]
    at_k_max = replace(config, eval_points=(config.k_max,))
    recovered, _ = next(seed_curve(set_up(config.grid_spec()), at_k_max, seed))
    path = output_path(config, "recovered_reward.txt")
    write_sections(
        path,
        reward=recovered.reward,
        provenance={
            "seed": seed,
            "mode": recovered.mode,
            "margin": float(recovered.margins.min()),
            "lp_pivots": recovered.lp_iterations,
            "projection_sweeps": recovered.projection_sweeps,
        },
    )
    paths = ", ".join(recovered.projection_paths) or "none (max-margin)"
    print(f"recovered reward written to {path} (margins {recovered.margins}; projection {paths})")
    return EXIT_OK


def cmd_evaluate(config: ExperimentConfig, reward_path: str | None) -> int:
    setup = set_up(config.grid_spec(), config.variants)
    path = reward_path or os.path.join(config.out_dir, "recovered_reward.txt")
    if not os.path.exists(path):
        raise ConfigError(f"recovered reward not found at {path}; run `recover` first")
    sections = read_sections(path)
    if "reward" not in sections:
        raise ConfigError(f"{path} has no [reward] section")
    recovered = sections["reward"]
    bc_policy = behavior_cloning(setup.expert)
    rows = []
    try:
        for name, gap_mairl, gap_bc in transfer_gaps(setup.variants, recovered, bc_policy):
            rows.append((name, gap_mairl, gap_bc))
            print(f"{name}: mairl gap {gap_mairl:.6g}, bc gap {gap_bc:.6g}")
    except DimensionMismatchError as exc:
        raise ConfigError(f"the reward in {path} does not fit the grid: {exc}") from exc
    out = output_path(config, "evaluate.csv")
    write_csv(out, ("variant", "nash_gap_mairl", "nash_gap_bc"), rows)
    print(f"written to {out}")
    return EXIT_OK


def cmd_experiment(config: ExperimentConfig) -> int:
    result = run_experiment(config)
    print(f"curve: {result.paths['curve']}")
    print(f"bound: {result.paths['bound']}")
    if result.errors:
        print(f"{len(result.errors)} seed(s) failed; see {result.paths['errors']}")
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_bound(config: ExperimentConfig) -> int:
    game, _, _ = build_grid_game(config.grid_spec())
    row = bound_row(config, game)
    path = output_path(config, "bound.csv")
    write_csv(path, BOUND_COLUMNS, [row])
    print(f"theoretical bound {row[-2]:.6g}; empirical tau {row[-1]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mairl", description="Grid-game reward recovery pipeline"
    )
    parser.add_argument("--config", help="experiment config file ([experiment] section)")
    parser.add_argument("--seed", type=int, help="override: run a single seed")
    parser.add_argument("--out-dir", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-expert", help="synthesize and write the grid expert")
    sub.add_parser("sample", help="run uniform sampling until the stopping rule")
    sub.add_parser("recover", help="sample k_max rounds and select a reward")
    eval_p = sub.add_parser("evaluate", help="score a recovered reward across variants")
    eval_p.add_argument("--reward", help="path to a recovered reward file")
    sub.add_parser("experiment", help="full multi-seed transfer experiment")
    sub.add_parser("bound", help="theoretical sample bound vs deterministic stopping round")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        commands = {
            "gen-expert": cmd_gen_expert,
            "sample": cmd_sample,
            "recover": cmd_recover,
            "evaluate": lambda config: cmd_evaluate(config, args.reward),
            "experiment": cmd_experiment,
            "bound": cmd_bound,
        }
        return commands[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
