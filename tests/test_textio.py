import numpy as np
import pytest

from mairl.errors import ConfigError
from mairl.experiment import ExperimentConfig, write_csv
from mairl.synthetic import random_joint_policy, random_markov_game, random_reward
from mairl.textio import fmt, parse_config, read_sections, write_sections


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


def test_csv_rows_and_provenance_write_the_same_bytes(tmp_path):
    values = [7, np.int64(7), "text", 0.1, np.float64(0.1), -0.0, 1e-300]
    want = ["7", "7", "text", "0.10000000000000001", "0.10000000000000001", "-0", "1e-300"]
    keys = [f"c{i}" for i in range(len(values))]
    write_csv(tmp_path / "row.csv", keys, [values])
    assert (tmp_path / "row.csv").read_text() == ",".join(keys) + "\n" + ",".join(want) + "\n"
    write_sections(tmp_path / "prov.txt", provenance=dict(zip(keys, values)))
    lines = [f"{key} = {text}" for key, text in zip(keys, want)]
    assert (tmp_path / "prov.txt").read_text() == "\n".join(["[provenance]", *lines]) + "\n"


def _value_by_value_fmt(x) -> str:
    """The output format rule applied to one value at a time."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def test_csv_row_formats_write_the_bytes_of_the_value_by_value_rule(tmp_path):
    mixed = [
        3, np.int64(-4), np.uint8(200), True, np.True_, "a b", np.float32(0.1),
        float("nan"), float("inf"), -float("inf"), -0.0, 1e-310, np.float64(1 / 3), None,
    ]
    rng = np.random.default_rng(0)
    # rows of one type signature, rows of others, and rows of other lengths,
    # interleaved so that each cached format is used more than once
    rows = [mixed, mixed[::-1], (1, 2.5), [np.int32(5), np.float64(-2.0)], mixed[3:9]]
    rows += [tuple(rng.permutation(np.array(mixed, dtype=object))) for _ in range(20)]
    rows += rows[:5] + [(), ("",)]
    write_csv(tmp_path / "rows.csv", ("x", "y"), rows)
    want = "".join(",".join(_value_by_value_fmt(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "rows.csv").read_text() == "x,y\n" + want
    for v in mixed:
        assert fmt(v) == _value_by_value_fmt(v)
    row = ",".join(map(fmt, mixed))
    assert row == (
        "3,-4,200,1,True,a b,0.1,nan,inf,-inf,-0,9.9999999999999694e-311,0.33333333333333331,None"
    )


def test_config_round_trip(tmp_path):
    config = ExperimentConfig(seeds=(3, 4), epsilon=0.25, k_max=10,
                              eval_points=(1, 10), variants=("deterministic",),
                              out_dir="out")
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[experiment]\n"
        "seeds = 3 4\n"
        "epsilon = 0.25\n"
        "delta = 0.1\n"
        "pi_min = 1.0\n"
        "k_max = 10\n"
        "variants = deterministic\n"
        "eval_points = 1 10\n"
        "gamma = 0.9\n"
        "rmax = 1.0\n"
        "mode = distance-to-random\n"
        "reward_class = state\n"
        "out_dir = out\n"
    )
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
    bad.write_text("[experiment]\nseeds 1\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config(bad)
    bad.write_text("[game]\nn = 2\n")
    with pytest.raises(ConfigError, match=r"\[experiment\] section"):
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


def test_malformed_game_and_table_lines_are_errors(tmp_path):
    rng = np.random.default_rng(1)
    game = random_markov_game(rng, 2, (2, 2), 0.5)
    path = tmp_path / "bundle.txt"
    write_sections(path, game=game)
    text = path.read_text()
    first = text.splitlines()[text.splitlines().index("[transitions]") + 1]
    state_0 = "\n".join(line for line in text.splitlines() if not line.startswith("1 "))
    for edited, match in [
        (text.replace("n = 2", "n 2"), "expected key = value"),
        (text.replace("action_counts = 2 2", "action_counts = 4"), "action_counts length"),
        (text.replace(first, "0 0"), "has no value"),
        (text.replace(first, "-1 " + first[2:]), "negative index"),
        (state_0, r"\[transitions\] covers \(1, 4\), expected \(2, 4\)"),
        ("[policy]\n", r"\[policy\] has no entries"),
    ]:
        path.write_text(edited)
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
