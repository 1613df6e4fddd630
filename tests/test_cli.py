import pytest

from mairl.cli import EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK, main
from mairl.estimation import (
    LOG_COLUMNS,
    ConfidenceParams,
    CountBook,
    GenerativeOracle,
    sample_round,
    uniform_sampling,
)
from mairl.experiment import recover_reward, synthesize_expert
from mairl.gridworld import GridGameSpec, build_grid_game
from mairl.textio import parse_config, read_sections, write_sections


def test_bound_command(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "bound"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "theoretical bound" in out
    lines = (tmp_path / "bound.csv").read_text().splitlines()
    assert lines[0].startswith("S,n_agents,joint_actions,")
    values = lines[1].split(",")
    assert values[0] == "72"


def test_missing_config_is_exit_2(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg"), "bound"])
    assert code == EXIT_CONFIG


def test_bad_config_is_exit_2(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nvariants = bogus\n")
    assert main(["--config", str(cfg), "bound"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "line", ["rmax = 0", "rmax = -1", "rmax = inf", "eval_points =", "variants =", "epsilon = nan"]
)
def test_invalid_experiment_values_are_exit_2(tmp_path, capsys, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\nseeds = 0\n{line}\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "experiment"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_negative_seed_is_exit_2(tmp_path, capsys):
    assert main(["--seed=-1", "--out-dir", str(tmp_path), "recover"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_evaluate_without_reward_is_exit_2(tmp_path):
    assert main(["--out-dir", str(tmp_path), "evaluate"]) == EXIT_CONFIG


def test_evaluate_reward_file_without_reward_section_is_exit_2(tmp_path, capsys):
    path = tmp_path / "reward.txt"
    path.write_text("[provenance]\nseed = 0\n")
    assert main(["--out-dir", str(tmp_path), "evaluate", "--reward", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[reward]\n",
        "[reward]\nscale = 1\n0 0 0 0.5\n",
        "[reward]\nrmax = 1\n0 0 0 0.5\n",  # a (1, 1, 1) reward on the 72-state grid
    ],
    ids=["empty", "no-rmax-line", "one-entry"],
)
def test_evaluate_reward_file_that_does_not_fit_is_exit_2(tmp_path, capsys, text):
    path = tmp_path / "reward.txt"
    path.write_text(text)
    assert main(["--out-dir", str(tmp_path), "evaluate", "--reward", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "evaluate.csv").exists()


def test_evaluate_reward_file_with_a_non_numeric_entry_is_exit_2(tmp_path, capsys):
    path = tmp_path / "reward.txt"
    path.write_text("[reward]\nrmax = 1 1\n0 0 0 0.5\n1 0 0 half\n")
    assert main(["--out-dir", str(tmp_path), "evaluate", "--reward", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[:-1],  # the last entry is missing
        lambda lines: lines + lines[-1:],  # the last entry is given twice
        lambda lines: lines[:2] + ["0 0 0 nan"] + lines[3:],
    ],
    ids=["truncated", "doubled", "nan"],
)
def test_evaluate_reward_file_with_a_bad_table_is_exit_2(tmp_path, capsys, edit):
    _, reward, _ = build_grid_game(GridGameSpec())
    path = tmp_path / "reward.txt"
    write_sections(path, reward=reward)
    lines = path.read_text().splitlines()  # [reward], rmax, then one line per entry
    path.write_text("\n".join(edit(lines)) + "\n")
    assert main(["--out-dir", str(tmp_path), "evaluate", "--reward", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "evaluate.csv").exists()


def test_sample_on_the_default_config_names_the_round_it_needs(tmp_path, capsys):
    # epsilon = 1 on the 3x3 grid needs 2,685,541 rounds; k_max is 500
    assert main(["--out-dir", str(tmp_path), "sample"]) == EXIT_CONVERGENCE
    assert "2685541" in capsys.readouterr().out


def test_gen_expert_writes_bundle(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "gen-expert"])
    assert code == EXIT_OK
    bundle = read_sections(tmp_path / "expert.txt")
    assert bundle["game"].n_states == 72
    assert bundle["policy"].n_agents == 2
    assert "equilibrium gap" in capsys.readouterr().out


def test_sample_writes_one_log_row_per_round(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\nseeds = 3\nepsilon = 100\nout_dir = {tmp_path}\n")
    assert main(["--config", str(cfg), "sample"]) == EXIT_OK
    config = parse_config(str(cfg))
    _, game, _, result = synthesize_expert(config)
    params = ConfidenceParams(
        delta=config.delta, pi_min=config.pi_min, rmax=config.rmax, gamma=config.gamma
    )
    oracle = GenerativeOracle(game, result.policy, seed=3)
    run = uniform_sampling(oracle, params, config.epsilon, config.k_max)
    lines = (tmp_path / "run_log.csv").read_text().splitlines()
    assert lines[0] == ",".join(LOG_COLUMNS)
    assert run.converged and len(lines) == 1 + run.tau
    for line, (k, eps, max_c, radius, active, _) in zip(lines[1:], run.history):
        want = [str(k), f"{eps:.17g}", f"{max_c:.17g}", f"{radius:.17g}", str(active)]
        assert line.split(",")[:5] == want
    # wall_time_ms varies between runs; it is one float per row
    assert all(len(line.split(",")) == len(LOG_COLUMNS) for line in lines)


def test_recover_then_evaluate(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\n"
        "seeds = 0\n"
        "k_max = 3\n"
        "eval_points = 1\n"
        "variants = deterministic\n"
        f"out_dir = {tmp_path}\n"
    )
    assert main(["--config", str(cfg), "recover"]) == EXIT_OK
    assert "projection" in capsys.readouterr().out
    bundle = read_sections(tmp_path / "recovered_reward.txt")
    assert "reward" in bundle and "provenance" in bundle
    provenance = bundle["provenance"]
    assert provenance["mode"] == "distance-to-random"
    # LP pivots and projection sweeps are reported apart, each as the solver counted it
    config = parse_config(str(cfg))
    _, game, _, result = synthesize_expert(config)
    oracle = GenerativeOracle(game, result.policy, seed=0)
    counts = CountBook(game.n_states, game.action_counts)
    for _ in range(config.k_max):
        sample_round(oracle, counts)
    _, recovered = recover_reward(config, counts, game.mu, 0)
    assert int(provenance["lp_pivots"]) == recovered.lp_iterations > 0
    assert int(provenance["projection_sweeps"]) == recovered.projection_sweeps
    assert "solver_iterations" not in provenance
    assert main(["--config", str(cfg), "evaluate"]) == EXIT_OK
    lines = (tmp_path / "evaluate.csv").read_text().splitlines()
    assert lines[0] == "variant,nash_gap_mairl,nash_gap_bc"
    variant, gap_mairl, gap_bc = lines[1].split(",")
    assert variant == "deterministic"
    assert float(gap_bc) <= 1e-9
