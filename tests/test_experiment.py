from pathlib import Path

import numpy as np
import pytest

import mairl.experiment
from mairl.cli import EXIT_OK, main
from mairl.errors import ConfigError, NotFeasibleError
from mairl.experiment import (
    ExperimentConfig,
    optimality_check,
    run_experiment,
    sample_reward_family,
)
from mairl.feasible import check_implicit
from mairl.synthetic import random_reward
from mairl.textio import write_config

from conftest import make_instance


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


def test_run_experiment_lets_programming_errors_raise(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(mairl.experiment, "max_gap_reward", broken)
    with pytest.raises(TypeError, match="bug"):
        run_experiment(one_seed_config(tmp_path))


def test_bound_command_matches_run_experiment(tmp_path):
    config = one_seed_config(tmp_path / "experiment")
    write_config(tmp_path / "exp.cfg", config)
    result = run_experiment(config)
    args = ["--config", str(tmp_path / "exp.cfg"), "--out-dir", str(tmp_path / "cli"), "bound"]
    assert main(args) == EXIT_OK
    cli_bound = (tmp_path / "cli" / "bound.csv").read_bytes()
    assert cli_bound == Path(result.paths["bound"]).read_bytes()
