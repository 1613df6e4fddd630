"""Joint-action indexing.

Joint actions are ranked lexicographically with agent 0 most significant and
the last agent fastest-varying, i.e. the C-order flattening of the
(|A^0|, ..., |A^{n-1}|) index grid. All tables over joint actions in this
package use this ordering; `agent_action_table` gives every rank's per-agent
actions.
"""

from __future__ import annotations

import math

import numpy as np


def joint_action_count(action_counts) -> int:
    return math.prod(map(int, action_counts))


def agent_action_table(action_counts) -> np.ndarray:
    """Array of shape (n_agents, n_joint) with entry [i, f] = agent i's action in joint action f."""
    counts = tuple(action_counts)
    flats = np.arange(joint_action_count(counts))
    return np.asarray(np.unravel_index(flats, counts), dtype=np.int64)
