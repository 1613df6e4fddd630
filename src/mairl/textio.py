"""Human-readable text format for games, rewards, policies, and configs.

Sections are headed by [game], [transitions], [reward], [policy], and
[provenance]; experiment configs use a single [experiment] section of
key = value lines whose keys are ExperimentConfig's fields. A key may appear
once per section. Floats are written with 17 significant digits, which
round-trips IEEE doubles bit-exactly.
"""

from __future__ import annotations

import dataclasses
import os
import typing

import numpy as np

from .errors import ConfigError
from .experiment import ExperimentConfig
from .games import JointPolicy, JointReward, MarkovGame


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_sections(text: str):
    sections = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError(f"content before any [section] header: {raw!r}")
        sections[current].append(line)
    return sections


def _kv(lines, what: str):
    out = {}
    for line in lines:
        if "=" not in line:
            raise ConfigError(f"expected key = value in [{what}], got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"key {key!r} given more than once in [{what}]")
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Games, rewards, policies
# ---------------------------------------------------------------------------


def write_sections(path, game: MarkovGame | None = None, reward: JointReward | None = None,
                   policy: JointPolicy | None = None, provenance: dict | None = None) -> None:
    lines = []
    if game is not None:
        lines.append("[game]")
        lines.append(f"n = {game.n_agents}")
        lines.append(f"S = {game.n_states}")
        lines.append(f"gamma = {fmt(game.gamma)}")
        lines.append("action_counts = " + " ".join(str(c) for c in game.action_counts))
        lines.append("mu = " + " ".join(fmt(v) for v in game.mu))
        lines.append("[transitions]")
        for s in range(game.n_states):
            for a in range(game.n_joint_actions):
                probs = " ".join(fmt(p) for p in game.transitions[s, a])
                lines.append(f"{s} {a} {probs}")
    if reward is not None:
        lines.append("[reward]")
        lines.append("rmax = " + " ".join(fmt(v) for v in reward.rmax))
        n, S, A = reward.tables.shape
        for i in range(n):
            for s in range(S):
                for a in range(A):
                    lines.append(f"{i} {s} {a} {fmt(reward.tables[i, s, a])}")
    if policy is not None:
        lines.append("[policy]")
        for i, table in enumerate(policy.per_agent):
            for s in range(table.shape[0]):
                probs = " ".join(fmt(p) for p in table[s])
                lines.append(f"{i} {s} {probs}")
    if provenance is not None:
        lines.append("[provenance]")
        for key, value in provenance.items():
            lines.append(f"{key} = {fmt(value) if isinstance(value, float) else value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sections(path):
    """Dict with any of the keys game/reward/policy/provenance found in the
    file. A malformed number or table, a missing key (such as a [reward]
    section that does not start with `rmax = ...`), a table entry that is
    missing or given more than once, or a [policy] whose agents, states or
    action counts differ from the file's [game] raises ConfigError."""
    with open(path) as fh:
        sections = _parse_sections(fh.read())
    try:
        return _build_sections(sections)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} in {path}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed entry in {path}: {exc}") from exc


def _table_rows(lines, n_index: int, what: str):
    """({index: numbers}, shape) from lines of `n_index` nonnegative integers
    followed by numbers. The shape is the largest index plus one on each
    axis, and every index within it must be given exactly once."""
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) <= n_index:
            raise ConfigError(f"[{what}] line {line!r} has no value")
        index = tuple(int(p) for p in parts[:n_index])
        if min(index) < 0:
            raise ConfigError(f"[{what}] entry {index} has a negative index")
        if index in rows:
            raise ConfigError(f"[{what}] entry {index} is given more than once")
        rows[index] = [float(v) for v in parts[n_index:]]
    if not rows:
        raise ConfigError(f"[{what}] has no entries")
    shape = tuple(int(m) + 1 for m in np.max(list(rows), axis=0))
    if len(rows) < np.prod(shape):
        missing = next(index for index in np.ndindex(*shape) if index not in rows)
        raise ConfigError(f"[{what}] has no entry {missing}")
    return rows, shape


def _build_sections(sections):
    out = {}
    if "game" in sections:
        head = _kv(sections["game"], "game")
        n = int(head["n"])
        S = int(head["S"])
        gamma = float(head["gamma"])
        action_counts = tuple(int(c) for c in head["action_counts"].split())
        if len(action_counts) != n:
            raise ConfigError("action_counts length does not match n")
        mu = np.array([float(v) for v in head["mu"].split()])
        A = int(np.prod(action_counts))
        rows, shape = _table_rows(sections.get("transitions", []), 2, "transitions")
        if shape != (S, A):
            raise ConfigError(f"[transitions] covers {shape}, expected {(S, A)}")
        P = np.array([rows[index] for index in np.ndindex(S, A)]).reshape(S, A, S)
        out["game"] = MarkovGame(P, gamma, mu, action_counts)
    if "reward" in sections:
        lines = sections["reward"]
        rmax = np.array([float(v) for v in _kv(lines[:1], "reward")["rmax"].split()])
        rows, shape = _table_rows(lines[1:], 3, "reward")
        # one number per entry, else the reshape fails
        tables = np.array([rows[index] for index in np.ndindex(*shape)]).reshape(shape)
        out["reward"] = JointReward(tables, rmax)
    if "policy" in sections:
        rows, (n, S) = _table_rows(sections["policy"], 2, "policy")
        tables = [np.array([rows[i, s] for s in range(S)]) for i in range(n)]
        policy = JointPolicy(tables)
        shape = (policy.n_agents, policy.n_states, policy.action_counts)
        game = out.get("game")
        if game is not None and shape != (game.n_agents, game.n_states, game.action_counts):
            raise ConfigError(
                f"[policy] has (n, S, action counts) {shape}, [game] has "
                f"{(game.n_agents, game.n_states, game.action_counts)}"
            )
        out["policy"] = policy
    if "provenance" in sections:
        out["provenance"] = _kv(sections["provenance"], "provenance")
    return out


# ---------------------------------------------------------------------------
# Experiment configs
# ---------------------------------------------------------------------------


def _config_fields():
    """(name, type) of every ExperimentConfig field, in declaration order; a
    tuple field's type is tuple[element type, ...]."""
    hints = typing.get_type_hints(ExperimentConfig)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(ExperimentConfig)]


def parse_config(path) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        sections = _parse_sections(fh.read())
    if "experiment" not in sections:
        raise ConfigError("config file must contain an [experiment] section")
    kv = _kv(sections["experiment"], "experiment")
    types = dict(_config_fields())
    kwargs = {}
    try:
        for key, value in kv.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            kind = types[key]
            if typing.get_origin(kind) is tuple:
                element = typing.get_args(kind)[0]
                kwargs[key] = tuple(element(v) for v in value.split())
            else:
                kwargs[key] = kind(value)
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def write_config(path, config: ExperimentConfig) -> None:
    lines = ["[experiment]"]
    for name, kind in _config_fields():
        value = getattr(config, name)
        if typing.get_origin(kind) is tuple:
            value = " ".join(str(v) for v in value)
        elif kind is float:
            value = fmt(value)
        lines.append(f"{name} = {value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
