import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mairl.joint import agent_action_table, joint_action_count


def test_lexicographic_order_agent0_most_significant():
    counts = (2, 3)
    # agent 1 (last) varies fastest
    assert agent_action_table(counts).T.tolist() == [
        [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]
    ]


def test_agent_action_table():
    table = agent_action_table((2, 2))
    assert table.shape == (2, 4)
    assert table[0].tolist() == [0, 0, 1, 1]
    assert table[1].tolist() == [0, 1, 0, 1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10**9),
)
def test_round_trip_bijection(counts, raw):
    total = joint_action_count(counts)
    if total > 10_000:
        return
    ranks = np.ravel_multi_index(tuple(agent_action_table(counts)), counts)
    assert np.array_equal(ranks, np.arange(total))
