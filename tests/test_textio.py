import numpy as np
import pytest

from mairl.errors import ConfigError
from mairl.experiment import ExperimentConfig
from mairl.synthetic import random_joint_policy, random_markov_game, random_reward
from mairl.textio import fmt, parse_config, read_sections, write_config, write_sections


def test_bit_exact_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    game = random_markov_game(rng, 3, (2, 3), 0.875)
    reward = random_reward(rng, game, rmax=[1.0, 0.5])
    policy = random_joint_policy(rng, game)
    path = tmp_path / "bundle.txt"
    write_sections(path, game=game, reward=reward, policy=policy,
                   provenance={"seed": 3, "mode": "max-margin", "margin": 0.125})
    back = read_sections(path)
    g = back["game"]
    assert np.array_equal(g.transitions, game.transitions)
    assert np.array_equal(g.mu, game.mu)
    assert g.gamma == game.gamma and g.action_counts == game.action_counts
    assert np.array_equal(back["reward"].tables, reward.tables)
    assert np.array_equal(back["reward"].rmax, reward.rmax)
    for mine, theirs in zip(policy.per_agent, back["policy"].per_agent):
        assert np.array_equal(mine, theirs)
    assert back["provenance"]["mode"] == "max-margin"
    assert float(back["provenance"]["margin"]) == 0.125


def test_fmt_is_shortest_faithful():
    for x in [1 / 3, 0.1, 1e-17, 123456.789012345678, np.pi]:
        assert float(fmt(x)) == x


def test_config_round_trip(tmp_path):
    config = ExperimentConfig(seeds=(3, 4), epsilon=0.25, k_max=10,
                              eval_points=(1, 10), variants=("deterministic",),
                              out_dir="out")
    path = tmp_path / "exp.cfg"
    write_config(path, config)
    assert parse_config(path) == config


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nunknown_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config(bad)
    bad.write_text("seeds = 1\n")  # content before any section
    with pytest.raises(ConfigError):
        parse_config(bad)
    bad.write_text("[experiment]\nepsilon = not-a-number\n")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_repeated_config_key_is_an_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[experiment]\nseeds = 0 1\nk_max = 10\neval_points = 1\nseeds = 7\n")
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header\n[experiment]\n\nseeds = 1 2  # two seeds\nk_max = 4\neval_points = 1\n")
    config = parse_config(path)
    assert config.seeds == (1, 2) and config.k_max == 4


@pytest.mark.parametrize("section", ["[transitions]", "[reward]", "[policy]"])
def test_missing_or_repeated_table_entry_is_an_error(tmp_path, section):
    rng = np.random.default_rng(1)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    path = tmp_path / "bundle.txt"
    write_sections(path, game=game, reward=random_reward(rng, game),
                   policy=random_joint_policy(rng, game))
    lines = path.read_text().splitlines()
    # the first entry follows the header, or the `rmax` line in [reward]
    first = lines.index(section) + (2 if section == "[reward]" else 1)
    for edited, match in [
        (lines[:first] + lines[first + 1:], "no entry"),
        (lines[:first + 1] + lines[first:], "more than once"),
    ]:
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ConfigError, match=match):
            read_sections(path)


@pytest.mark.parametrize("dropped", ["last agent", "last state"])
def test_policy_that_does_not_fit_the_game_header_is_an_error(tmp_path, dropped):
    rng = np.random.default_rng(2)
    game = random_markov_game(rng, 3, (2, 3), 0.5)
    path = tmp_path / "bundle.txt"
    write_sections(path, game=game, policy=random_joint_policy(rng, game))
    lines = path.read_text().splitlines()
    cut = lines.index("[policy]") + 1
    head, rows = lines[:cut], lines[cut:]
    if dropped == "last agent":
        kept = [row for row in rows if not row.startswith("1 ")]
    else:
        kept = [row for row in rows if row.split()[1] != "2"]
    path.write_text("\n".join(head + kept) + "\n")
    with pytest.raises(ConfigError, match=r"\[policy\] has"):
        read_sections(path)
    # without the [game] header the same rows read as a smaller policy
    path.write_text("\n".join(["[policy]"] + kept) + "\n")
    back = read_sections(path)["policy"]
    assert (back.n_agents, back.n_states) == ((1, 3) if dropped == "last agent" else (2, 2))
