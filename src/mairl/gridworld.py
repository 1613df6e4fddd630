"""Two-agent grid games with crossing goals.

Cells are (col, row) with row 0 at the bottom. Unless a spec gives its own
layout, agents 0 and 1 start at (0, 0) and (w-1, 0) and head for the top
corners diagonally opposite, (w-1, h-1) and (0, h-1): the crossing-goals
board. The joint state is the ordered pair of distinct agent positions, so a
w x h board has (wh)^2 - wh states. Actions are up/down/left/right. Moves
off the board or into an obstacle cell bounce; simultaneous moves into the
same cell bounce both agents (position swaps are allowed, the ordered pair
stays valid). An agent standing on its own goal is pinned there, and the
goal reward is paid on entry only, so values stay within the goal reward.

Variants: "deterministic"; "stochastic-up" (an up move from the agent's own
start column advances only with probability UP_SUCCESS_PROB, else the agent
stays);
"obstacle-one" (the cell above agent 0's start is impassable);
"obstacle-both" (the cells above both starts are impassable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .games import JointReward, MarkovGame

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_DELTAS = {UP: (0, 1), DOWN: (0, -1), LEFT: (-1, 0), RIGHT: (1, 0)}

VARIANTS = ("deterministic", "stochastic-up", "obstacle-both", "obstacle-one")

UP_SUCCESS_PROB = 0.5
GOAL_REWARD = 1.0


@dataclass(frozen=True)
class GridGameSpec:
    """A w x h board, its layout, its transition variant, gamma and rmax.

    Start and goal positions left as None take the crossing-goals layout of
    this width and height, filled in on construction. A spec therefore
    stores its layout, and `dataclasses.replace` that changes `width` or
    `height` keeps the old board's cells: build a resized board anew,
    `GridGameSpec(width=w, height=h, ...)`. A variant outside VARIANTS, a
    cell off the board, a shared start or goal cell, or an rmax below
    GOAL_REWARD raises ValueError.
    """

    width: int = 3
    height: int = 3
    start_positions: tuple | None = None  # None: the crossing-goals layout
    goal_positions: tuple | None = None
    variant: str = "deterministic"
    gamma: float = 0.9
    rmax: float = 1.0

    def __post_init__(self):
        w, h = self.width, self.height
        if self.start_positions is None:
            object.__setattr__(self, "start_positions", ((0, 0), (w - 1, 0)))
        if self.goal_positions is None:
            object.__setattr__(self, "goal_positions", ((w - 1, h - 1), (0, h - 1)))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        for pos in (*self.start_positions, *self.goal_positions):
            c, r = pos
            if not (0 <= c < w and 0 <= r < h):
                raise ValueError(f"cell {pos} outside the {w}x{h} board")
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


@dataclass(frozen=True)
class GridIndex:
    """State/cell bookkeeping for a built grid game."""

    spec: GridGameSpec
    states: tuple  # ordered (pos0, pos1) pairs
    state_of: dict

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


def _move_table(spec: GridGameSpec, cells):
    """Both agents' moves as (2, cells, 4, K) arrays over (agent, cell,
    action, outcome slot): next cell, probability, and whether the slot is
    listed. Each (cell, action) lists `_move_outcomes` in its order; K is
    the longest such list, and shorter ones leave their last slots unlisted."""
    outcomes = [
        [[_move_outcomes(spec, i, pos, a) for a in range(4)] for pos in cells] for i in range(2)
    ]
    K = max(len(o) for per_agent in outcomes for per_cell in per_agent for o in per_cell)
    cell_of = {pos: c for c, pos in enumerate(cells)}
    nxt = np.zeros((2, len(cells), 4, K), dtype=np.intp)
    prob = np.zeros((2, len(cells), 4, K))
    listed = np.zeros((2, len(cells), 4, K), dtype=bool)
    for i, per_agent in enumerate(outcomes):
        for c, per_cell in enumerate(per_agent):
            for a, moves in enumerate(per_cell):
                for k, (w, q) in enumerate(moves):
                    nxt[i, c, a, k], prob[i, c, a, k], listed[i, c, a, k] = cell_of[q], w, True
    return nxt, prob, listed


def build_grid_game(spec: GridGameSpec):
    """Joint successor-list kernel and entry rewards for a grid-game spec.

    Each (state, joint action) row lists its next states in ascending order;
    outcomes that reach the same next state are summed in the order the
    per-agent outcomes are enumerated. Returns (game, reward, index) with
    index mapping states to position pairs.

    Every (state, a0, a1, outcome0, outcome1) is computed at once: the
    agents' moves come from `_move_table`, a collision sends both agents
    back, and each row's outcomes are sorted stably by next state, so that
    equal next states are summed slot by slot in enumeration order.
    """
    cells = list(itertools.product(range(spec.width), range(spec.height)))
    C = len(cells)
    # the states, distinct ordered cell pairs row-major: their cells, and each pair's state
    distinct = ~np.eye(C, dtype=bool)
    here = np.nonzero(distinct)
    S = here[0].size
    A = 16
    pair_state = np.zeros((C, C), dtype=np.intp)
    pair_state[distinct] = np.arange(S)
    states = tuple((cells[c0], cells[c1]) for c0, c1 in zip(*here))
    index = GridIndex(spec, states, {st: i for i, st in enumerate(states)})

    def spread(table):
        """Each agent's (cell, action, outcome) table at the states' cells,
        over the axes (state, a0, a1, outcome0, outcome1)."""
        return table[0][here[0]][:, :, None, :, None], table[1][here[1]][:, None, :, None, :]

    nxt, prob, listed = _move_table(spec, cells)
    K = nxt.shape[-1]
    q0, q1 = spread(nxt)
    w0, w1 = spread(prob)
    l0, l1 = spread(listed)
    w = w0 * w1
    kept = l0 & l1
    at = [c.reshape(S, 1, 1, 1, 1) for c in here]
    bounce = q0 == q1
    q = (np.where(bounce, at[0], q0), np.where(bounce, at[1], q1))

    R = np.zeros((2, S, A))
    goals = [cells.index(tuple(g)) for g in spec.goal_positions]
    for i in range(2):
        entered = kept & (q[i] == goals[i]) & (at[i] != goals[i])
        pay = np.where(entered, w * GOAL_REWARD, 0.0).reshape(S, A, K * K)
        for k in range(K * K):  # outcome by outcome, in enumeration order
            R[i] += pay[:, :, k]

    # each row's outcomes by next state, unlisted ones (state S) last
    nxt_state = np.where(kept, pair_state[q[0], q[1]], S).reshape(S * A, K * K)
    order = np.argsort(nxt_state, axis=1, kind="stable")
    nxt_state = np.take_along_axis(nxt_state, order, axis=1)
    w = np.take_along_axis(w.reshape(S * A, K * K), order, axis=1)
    first = np.ones(nxt_state.shape, dtype=bool)
    first[:, 1:] = nxt_state[:, 1:] != nxt_state[:, :-1]
    slot = np.cumsum(first, axis=1) - 1
    kept = nxt_state < S
    width = int(slot[kept].max()) + 1
    successors = np.zeros((S * A, width), dtype=np.intp)
    probs = np.zeros((S * A, width))
    for k in range(K * K):
        rows = np.flatnonzero(kept[:, k])
        successors[rows, slot[rows, k]] = nxt_state[rows, k]
        probs[rows, slot[rows, k]] += w[rows, k]

    mu = np.zeros(S)
    mu[index.start_state] = 1.0
    game = MarkovGame.from_successors(
        successors.reshape(S, A, width), probs.reshape(S, A, width), spec.gamma, mu, (4, 4)
    )
    reward = JointReward(R, rmax=[spec.rmax, spec.rmax])
    return game, reward, index


def variant_spec(base: GridGameSpec, variant: str) -> GridGameSpec:
    """Same board and parameters, different transition variant.

    Only the variant is replaced, so a board of another size is built anew
    rather than by replacing `width` or `height` here: `dataclasses.replace`
    keeps `base`'s start and goal cells."""
    return replace(base, variant=variant)
