"""Joint-action indexing.

Joint actions are ranked lexicographically with agent 0 most significant and
the last agent fastest-varying, i.e. the C-order flattening of the
(|A^0|, ..., |A^{n-1}|) index grid. All tables over joint actions in this
package use this ordering. A joint action is a plain int (its rank) or a
tuple of per-agent actions; `flat_of` and `split_of` convert between them.
"""

from __future__ import annotations

import math

import numpy as np


def joint_action_count(action_counts) -> int:
    return math.prod(map(int, action_counts))


def flat_of(action_counts, per_agent) -> int:
    """Rank of a per-agent action tuple in the fixed lexicographic order."""
    return int(np.ravel_multi_index(tuple(int(a) for a in per_agent), tuple(action_counts)))


def split_of(action_counts, flat_index: int):
    """Inverse of :func:`flat_of`."""
    return tuple(int(a) for a in np.unravel_index(int(flat_index), tuple(action_counts)))


def agent_action_table(action_counts) -> np.ndarray:
    """Array of shape (n_agents, n_joint) with entry [i, f] = agent i's action in joint action f."""
    counts = tuple(action_counts)
    flats = np.arange(joint_action_count(counts))
    return np.asarray(np.unravel_index(flats, counts), dtype=np.int64)
