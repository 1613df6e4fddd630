"""Feasible reward sets for equilibrium experts, on two classic games.

Walks through: exact policy evaluation, opponent-expected advantages, the
implicit equilibrium conditions, the explicit (A, V) parameterization with
its round trip, and max-gap reward extraction.
"""

import numpy as np

import mairl
from mairl.games import deterministic_policy
from mairl.synthetic import matching_pennies, prisoners_dilemma


def main():
    print("=== Prisoner's dilemma, gamma = 0.5 ===")
    game, reward = prisoners_dilemma(0.5)
    defect = deterministic_policy((2, 2), 1, [1, 1])
    cooperate = deterministic_policy((2, 2), 1, [0, 0])

    values = mairl.policy_evaluation(game, reward, defect)
    print(f"value of mutual defection: {values.v[0, 0]:.3f} (= 0.2 / (1 - 0.5))")
    adv = mairl.expected_advantage_table(game, defect, values, agent=0)[0, 0]
    print(f"advantage of cooperating against (D, D): {adv:+.3f}  -> deviating is bad")

    print(f"equilibrium gap of (D, D): {mairl.nash_gap(game, reward, defect).gap:.3f}")
    print(f"equilibrium gap of (C, C): {mairl.nash_gap(game, reward, cooperate).gap:.3f}")
    print(f"implicit conditions at (D, D): {mairl.check_implicit(game, reward, defect).passed}")
    print(f"stacked-operator check at (C, C): {mairl.matrix_ne_check(game, reward, cooperate)}")

    print("\n--- explicit parameterization round trip ---")
    params = mairl.decompose_reward(game, defect, reward)
    print(f"canonical V: {params.v_fn[:, 0]}, penalty on (C, D) for agent 0: "
          f"{params.a_fn[0, 0, 1]:.3f}")
    back = mairl.construct_reward(game, defect, params, rmax=1.0)
    mask = mairl.event_mask(defect)
    support = defect.joint_table() > 0  # the (D, D) column
    pinned = mask | support[None, :, :]
    err = np.abs(back.tables - reward.tables)
    print(f"exact on masked and equilibrium-support entries: {err[pinned].max():.2e}")
    print(f"off-support entries get a feasible completion (difference "
          f"{err[~pinned].max():.2f}); the rebuilt reward still has gap "
          f"{mairl.nash_gap(game, back, defect).gap:.1e}")

    print("\n--- max-gap extraction ---")
    picked = mairl.max_gap_reward(game, defect, rmax=1.0)
    print(f"max-margin reward (agent 0): {picked.reward.tables[0, 0]}, "
          f"margin {picked.margins[0]:.3f}")
    seeded = mairl.max_gap_reward(game, defect, rmax=1.0,
                                  mode="distance-to-random", seed=3)
    print(f"distance-to-random reward (agent 0): {np.round(seeded.reward.tables[0, 0], 3)}")
    print(f"both make (D, D) an equilibrium: "
          f"{mairl.nash_gap(game, picked.reward, defect).gap:.1e}, "
          f"{mairl.nash_gap(game, seeded.reward, defect).gap:.1e}")

    print("\n=== Matching pennies, gamma = 0.9 ===")
    mp_game, mp_reward = matching_pennies(0.9)
    uniform = mairl.JointPolicy([np.full((1, 2), 0.5), np.full((1, 2), 0.5)])
    print(f"uniform play is an equilibrium: "
          f"gap = {mairl.nash_gap(mp_game, mp_reward, uniform).gap:.1e}")
    print(f"implicit conditions: {mairl.check_implicit(mp_game, mp_reward, uniform).passed}")
    capped = mairl.max_gap_reward(mp_game, uniform, rmax=1.0)
    print(f"fully mixed expert: no deviation rows, margin caps at "
          f"rmax/(1-gamma) = {capped.margins[0]:.1f}")


if __name__ == "__main__":
    main()
