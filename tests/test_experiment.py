import dataclasses
from pathlib import Path

import numpy as np
import pytest

import mairl.experiment
from mairl.cli import EXIT_OK, main
from mairl.errors import ConfigError, ConvergenceError, NotFeasibleError
from mairl.experiment import (
    ExperimentConfig,
    optimality_check,
    run_experiment,
    sample_reward_family,
    seed_curve,
    set_up,
)
from mairl.feasible import check_implicit
from mairl.gridworld import GridGameSpec
from mairl.synthetic import random_reward

from conftest import grid_setup, make_instance


def test_sample_reward_family_members_feasible():
    game, policy = make_instance(1, n_states=3, gamma=0.6)
    fam = sample_reward_family(game, policy, 1.0, 5, seed=4)
    assert len(fam) == 5
    for member in fam:
        assert member.tables.min() >= 0.0
        assert member.tables.max() <= 1.0
        assert check_implicit(game, member, policy, tol=1e-8).passed
    again = sample_reward_family(game, policy, 1.0, 5, seed=4)
    for a, b in zip(fam, again):
        assert np.array_equal(a.tables, b.tables)


def test_sample_reward_family_gives_up_after_200_draws(pd):
    """The prisoner's dilemma has one state, so a draw's shaped reward is
    (1 - gamma) V >= 5 for V in [10, 20]: no draw is within rmax = 1."""
    game, _, dd, _ = pd
    with pytest.raises(ConvergenceError, match="200 tries"):
        sample_reward_family(game, dd, 1.0, 1, seed=0, v_range=(10.0, 20.0))


def test_optimality_check_identical_families():
    game, policy = make_instance(2, n_states=2, action_counts=(2, 2), gamma=0.5)
    fam = sample_reward_family(game, policy, 1.0, 4, seed=0)
    rep = optimality_check((game, policy), (game, policy), fam, fam, epsilon=0.1)
    assert rep.passed
    assert rep.supinf_1 <= 1e-9 and rep.supinf_2 <= 1e-9
    assert rep.gap_matrix.shape == (4, 4)
    assert np.all(rep.gap_matrix >= 0.0)


def test_optimality_check_validates_inputs():
    game, policy = make_instance(3, n_states=2, action_counts=(2, 2), gamma=0.5)
    fam = sample_reward_family(game, policy, 1.0, 2, seed=0)
    with pytest.raises(ValueError):
        optimality_check((game, policy), (game, policy), [], fam, epsilon=0.5)
    bad = [random_reward(np.random.default_rng(0), game)]
    with pytest.raises(ValueError):
        optimality_check((game, policy), (game, policy), bad, fam, epsilon=0.5)
    with pytest.raises(ValueError, match="recovered-family member"):
        optimality_check((game, policy), (game, policy), fam, bad, epsilon=0.5)
    with pytest.raises(ValueError, match="family size"):
        sample_reward_family(game, policy, 1.0, 0, seed=0)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig(variants=("bogus",))
    with pytest.raises(ConfigError):
        ExperimentConfig(eval_points=(700,), k_max=500)
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="other")
    with pytest.raises(ConfigError):
        ExperimentConfig(reward_class="other")


@pytest.mark.parametrize(
    "field, value",
    [("delta", 0.0), ("delta", 1.0), ("pi_min", 0.0), ("pi_min", 1.5), ("gamma", 1.0),
     ("gamma", -0.1), ("rmax", np.inf), ("variants", ("deterministic", "bogus"))],
)
def test_experiment_config_checks_its_fields_through_the_objects_it_builds(field, value):
    # ConfidenceParams owns the ranges of delta, pi_min, gamma and rmax, and
    # GridGameSpec the variant names; the config re-raises their ValueError
    with pytest.raises(ConfigError, match=field.rstrip("s")) as info:
        ExperimentConfig(**{field: value})
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "repeat", [{"seeds": (0, 0)}, {"variants": ("deterministic", "deterministic")}]
)
def test_experiment_config_rejects_repeated_seeds_and_variants(repeat):
    # a repeated seed would count twice in the summary's mean and 2-sigma band
    with pytest.raises(ConfigError, match="repeat"):
        ExperimentConfig(**repeat)


@pytest.mark.parametrize("rmax", [0.0, -1.0, 0.5, float("nan")])
def test_experiment_config_rejects_rmax_below_the_goal_reward(rmax):
    # the grid's goal reward (1) must fit in [0, rmax]
    with pytest.raises(ConfigError, match="rmax"):
        ExperimentConfig(rmax=rmax)


def test_experiment_config_rejects_empty_eval_points():
    with pytest.raises(ConfigError, match="eval point"):
        ExperimentConfig(eval_points=())


def test_experiment_config_rejects_a_negative_seed():
    # GenerativeOracle rejects it too, but with a bare ValueError after expert synthesis
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig(seeds=(0, -1))


@pytest.mark.parametrize(
    "field", [{"seeds": (0, 0.5)}, {"k_max": 5.5}, {"eval_points": (1, 2.0)}, {"k_max": None}]
)
def test_experiment_config_rejects_a_count_that_is_not_an_integer(field):
    # a seed of 0.5 would draw seed 0's stream; k_max = 5.5 would be written
    # to a config file that parse_config rejects
    with pytest.raises(ConfigError, match="integers"):
        ExperimentConfig(**field)


def test_experiment_config_takes_numpy_integers():
    config = ExperimentConfig(seeds=(np.int64(2),), k_max=np.int32(50), eval_points=(np.uint8(1),))
    assert config.k_max == 50


def test_run_experiment_smoke_and_determinism(tmp_path):
    config = ExperimentConfig(
        seeds=(0, 1),
        k_max=2,
        eval_points=(1,),
        variants=("deterministic",),
        out_dir=str(tmp_path / "a"),
    )
    result = run_experiment(config)
    assert not result.errors
    assert len(result.curve_rows) == 2  # 2 seeds x 1 eval point x 1 variant
    for row in result.curve_rows:
        assert row[5] <= 1e-9  # behavior cloning is exact on the same variant
    curve_a = Path(result.paths["curve"]).read_text()
    bound_a = Path(result.paths["bound"]).read_text()
    assert curve_a.splitlines()[0] == (
        "seed,variant,k,samples_total,nash_gap_mairl,nash_gap_bc,epsilon_k"
    )

    config_b = ExperimentConfig(
        seeds=(0, 1),
        k_max=2,
        eval_points=(1,),
        variants=("deterministic",),
        out_dir=str(tmp_path / "b"),
    )
    result_b = run_experiment(config_b)
    assert Path(result_b.paths["curve"]).read_text() == curve_a
    assert Path(result_b.paths["bound"]).read_text() == bound_a

    summary = Path(result.paths["summary"]).read_text().splitlines()
    assert summary[0].startswith("variant,k,")
    lows = [float(line.split(",")[3]) for line in summary[1:]]
    assert all(v >= 0.0 for v in lows)


def one_seed_config(out_dir):
    return ExperimentConfig(
        seeds=(0,), k_max=1, eval_points=(1,), variants=("deterministic",), out_dir=str(out_dir)
    )


def test_run_experiment_records_package_errors_per_seed(tmp_path, monkeypatch):
    def infeasible(*args, **kwargs):
        raise NotFeasibleError("no feasible reward")

    monkeypatch.setattr(mairl.experiment, "max_gap_reward", infeasible)
    result = run_experiment(one_seed_config(tmp_path))
    assert result.curve_rows == []
    assert result.errors == [(0, "NotFeasibleError('no feasible reward')")]
    assert (tmp_path / "errors.csv").read_text() == (
        "seed,error\n0,NotFeasibleError('no feasible reward')\n"
    )


def test_run_experiment_keeps_the_eval_points_a_failed_seed_finished(tmp_path, monkeypatch):
    select = mairl.experiment.max_gap_reward
    calls = []

    def fails_on_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # seed 0 at k = 2
            raise NotFeasibleError("no feasible reward")
        return select(*args, **kwargs)

    monkeypatch.setattr(mairl.experiment, "max_gap_reward", fails_on_second_call)
    config = ExperimentConfig(
        seeds=(0, 1), k_max=2, eval_points=(1, 2), variants=("deterministic",),
        out_dir=str(tmp_path),
    )
    result = run_experiment(config)
    assert [(row[0], row[2]) for row in result.curve_rows] == [(0, 1), (1, 1), (1, 2)]
    assert result.errors == [(0, "NotFeasibleError('no feasible reward')")]


def test_run_experiment_lets_programming_errors_raise(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(mairl.experiment, "max_gap_reward", broken)
    with pytest.raises(TypeError, match="bug"):
        run_experiment(one_seed_config(tmp_path))


def test_bound_command_matches_run_experiment(tmp_path):
    config = one_seed_config(tmp_path / "experiment")
    (tmp_path / "exp.cfg").write_text(
        "[experiment]\nseeds = 0\nk_max = 1\neval_points = 1\nvariants = deterministic\n"
        f"out_dir = {config.out_dir}\n"
    )
    result = run_experiment(config)
    args = ["--config", str(tmp_path / "exp.cfg"), "--out-dir", str(tmp_path / "cli"), "bound"]
    assert main(args) == EXIT_OK
    cli_bound = (tmp_path / "cli" / "bound.csv").read_bytes()
    assert cli_bound == Path(result.paths["bound"]).read_bytes()


def test_seed_curve_refuses_a_board_that_disagrees_with_the_config(monkeypatch):
    """A board built under another gamma or rmax than the config's raises
    ConfigError naming both, before any sampling round is drawn."""
    draws = []
    monkeypatch.setattr(mairl.experiment, "sample_round", lambda *args: draws.append(args))
    config = one_seed_config("unused")
    boards = {
        "gamma 0.5 and rmax [1.0, 1.0]": GridGameSpec(width=2, height=2, gamma=0.5),
        "gamma 0.9 and rmax [2.0, 2.0]": GridGameSpec(width=2, height=2, rmax=2.0),
    }
    for board_values, board in boards.items():
        with pytest.raises(ConfigError) as caught:
            next(seed_curve(grid_setup(board), config, 0))
        assert str(caught.value) == (
            f"the board has {board_values}, the config gamma 0.9 and rmax 1.0"
        )
    assert draws == []


def test_set_up_names_the_board_whose_expert_did_not_converge(monkeypatch):
    synthesize = mairl.experiment.nash_value_iteration

    def capped(game, reward):
        return dataclasses.replace(synthesize(game, reward, max_iters=1), converged=False)

    monkeypatch.setattr(mairl.experiment, "nash_value_iteration", capped)
    board = GridGameSpec(width=4, height=3, variant="stochastic-up")
    with pytest.warns(RuntimeWarning), pytest.raises(ConvergenceError) as caught:
        set_up(board)
    assert str(caught.value) == "expert synthesis did not converge on the 4x3 stochastic-up board"


def test_seed_curve_on_the_4x3_board():
    """The per-seed pipeline on a board other than the CLI's 3x3, with the
    criterion-8 settings at k = 1. The literals are the rows the benchmark's
    own composition of the pipeline gave on this board; the recovered reward
    beats cloning on obstacle-one (0.19 against 0.9^3)."""
    board = GridGameSpec(width=4, height=3)
    config = ExperimentConfig(
        seeds=(0, 1, 2), epsilon=1.0, delta=0.1, pi_min=1.0, k_max=1, eval_points=(1,),
        gamma=0.9, rmax=1.0, mode="distance-to-random", reward_class="state",
    )
    setup = grid_setup(board, ("deterministic", "obstacle-one"))
    for seed in config.seeds:
        rows = [row for _, rows in seed_curve(setup, config, seed) for row in rows]
        assert rows == [
            (seed, "deterministic", 1, 2244, 2.4671622769447924e-16, 2.4671622769447924e-16,
             448.97070581414664),
            (seed, "obstacle-one", 1, 2244, 0.18999999999999995, 0.7290000000000001,
             448.97070581414664),
        ]
