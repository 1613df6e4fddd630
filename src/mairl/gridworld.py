"""Two-agent grid games with crossing goals.

Cells are (col, row) with row 0 at the bottom; the joint state is the
ordered pair of distinct agent positions, so a w x h board has (wh)^2 - wh
states. Actions are up/down/left/right. Moves off the board or into an
obstacle cell bounce; simultaneous moves into the same cell bounce both
agents (position swaps are allowed, the ordered pair stays valid). An agent
standing on its own goal is pinned there, and the goal reward is paid on
entry only, so values stay within the goal reward.

Variants: "deterministic"; "stochastic-up" (an up move from the agent's own
start column advances only with probability UP_SUCCESS_PROB, else the agent
stays);
"obstacle-one" (the cell above agent 0's start is impassable);
"obstacle-both" (the cells above both starts are impassable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .games import JointReward, MarkovGame

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_DELTAS = {UP: (0, 1), DOWN: (0, -1), LEFT: (-1, 0), RIGHT: (1, 0)}

VARIANTS = ("deterministic", "stochastic-up", "obstacle-both", "obstacle-one")

UP_SUCCESS_PROB = 0.5
GOAL_REWARD = 1.0


@dataclass(frozen=True)
class GridGameSpec:
    width: int = 3
    height: int = 3
    start_positions: tuple = ((0, 0), (2, 0))
    goal_positions: tuple = ((2, 2), (0, 2))
    variant: str = "deterministic"
    gamma: float = 0.9
    rmax: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        for pos in (*self.start_positions, *self.goal_positions):
            c, r = pos
            if not (0 <= c < self.width and 0 <= r < self.height):
                raise ValueError(f"cell {pos} outside the {self.width}x{self.height} board")
        if self.start_positions[0] == self.start_positions[1]:
            raise ValueError("agents cannot share a start cell")
        if self.goal_positions[0] == self.goal_positions[1]:
            raise ValueError("agents cannot share a goal cell")
        if not GOAL_REWARD <= self.rmax:
            raise ValueError(f"rmax must be >= the goal reward {GOAL_REWARD}")

    @property
    def obstacles(self) -> tuple:
        above = tuple((c, r + 1) for c, r in self.start_positions)
        if self.variant == "obstacle-one":
            return (above[0],)
        if self.variant == "obstacle-both":
            return above
        return ()

    @property
    def n_states(self) -> int:
        cells = self.width * self.height
        return cells * cells - cells


@dataclass(frozen=True)
class GridIndex:
    """State/cell bookkeeping for a built grid game."""

    spec: GridGameSpec
    states: tuple = field(default=())  # ordered (pos0, pos1) pairs
    state_of: dict = field(default_factory=dict)

    @classmethod
    def build(cls, spec: GridGameSpec) -> "GridIndex":
        cells = list(itertools.product(range(spec.width), range(spec.height)))
        states = tuple(
            (p0, p1) for p0 in cells for p1 in cells if p0 != p1
        )
        return cls(spec=spec, states=states, state_of={st: i for i, st in enumerate(states)})

    @property
    def start_state(self) -> int:
        return self.state_of[tuple(self.spec.start_positions)]


def _move_outcomes(spec: GridGameSpec, agent: int, pos, action):
    """[(prob, next_pos)] for one agent's move, before collision resolution."""
    if pos == tuple(spec.goal_positions[agent]):
        return [(1.0, pos)]
    dc, dr = _DELTAS[action]
    target = (pos[0] + dc, pos[1] + dr)
    blocked = (
        not (0 <= target[0] < spec.width and 0 <= target[1] < spec.height)
        or target in spec.obstacles
    )
    if blocked:
        return [(1.0, pos)]
    own_start_column = pos[0] == spec.start_positions[agent][0]
    if spec.variant == "stochastic-up" and action == UP and own_start_column:
        return [(UP_SUCCESS_PROB, target), (1.0 - UP_SUCCESS_PROB, pos)]
    return [(1.0, target)]


def build_grid_game(spec: GridGameSpec):
    """Joint transition tensor and entry rewards for a grid-game spec.

    Returns (game, reward, index) with index mapping states to position pairs.
    """
    index = GridIndex.build(spec)
    S = len(index.states)
    A = 16
    P = np.zeros((S, A, S))
    R = np.zeros((2, S, A))
    goals = tuple(tuple(g) for g in spec.goal_positions)

    for s, (p0, p1) in enumerate(index.states):
        for a0 in range(4):
            for a1 in range(4):
                flat = a0 * 4 + a1
                for (w0, q0), (w1, q1) in itertools.product(
                    _move_outcomes(spec, 0, p0, a0), _move_outcomes(spec, 1, p1, a1)
                ):
                    w = w0 * w1
                    if q0 == q1:
                        q0, q1 = p0, p1
                    P[s, flat, index.state_of[(q0, q1)]] += w
                    if q0 == goals[0] and p0 != goals[0]:
                        R[0, s, flat] += w * GOAL_REWARD
                    if q1 == goals[1] and p1 != goals[1]:
                        R[1, s, flat] += w * GOAL_REWARD

    mu = np.zeros(S)
    mu[index.start_state] = 1.0
    game = MarkovGame(P, spec.gamma, mu, (4, 4))
    reward = JointReward(R, rmax=[spec.rmax, spec.rmax])
    return game, reward, index


def variant_spec(base: GridGameSpec, variant: str) -> GridGameSpec:
    """Same board and parameters, different transition variant."""
    return replace(base, variant=variant)
