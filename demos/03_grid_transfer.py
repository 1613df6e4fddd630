"""Grid-game transfer: recovered rewards re-plan, cloned policies cannot.

Synthesizes a NashQ expert on the deterministic 3x3 grid, recovers a reward
from generative samples, then transports both the reward (by recomputing
its equilibrium) and the cloned policy to altered dynamics and scores them
under the true reward of each variant. The walk-through is one seed of the
experiment pipeline (`experiment.set_up`, then `experiment.seed_curve`).
"""

import dataclasses

import numpy as np

import mairl
from mairl import experiment
from mairl.gridworld import build_grid_game, variant_spec

ACTIONS = ["up", "down", "left", "right"]


def show_path(game, index, policy, steps=6):
    s = index.start_state
    for t in range(steps):
        p0, p1 = index.states[s]
        a0 = int(np.argmax(policy.per_agent[0][s]))
        a1 = int(np.argmax(policy.per_agent[1][s]))
        print(f"  t={t}: agent0 at {p0} plays {ACTIONS[a0]:5s} "
              f"agent1 at {p1} plays {ACTIONS[a1]}")
        s = int(np.argmax(game.transitions[s, a0 * 4 + a1]))
        if (index.states[s][0] == (2, 2)) and (index.states[s][1] == (0, 2)):
            print("  both goals reached")
            break


def main():
    config = mairl.ExperimentConfig(
        seeds=(0, 1, 2), k_max=500, eval_points=(500,),
        variants=("deterministic", "stochastic-up", "obstacle-one"),
        reward_class="state", out_dir="demo_results",
    )
    spec = config.grid_spec()
    setup = experiment.set_up(spec, config.variants)
    game, reward, expert = setup.game, setup.reward, setup.expert
    print(f"board: {game.n_states} states, {game.n_joint_actions} joint actions")
    print(f"expert synthesized by NashQ; gap = {mairl.nash_gap(game, reward, expert).gap:.1e}")
    show_path(game, build_grid_game(spec)[2], expert)

    print("\nrecovering a reward from 500 sampling rounds (state reward class) ...")
    recovered, rows = next(experiment.seed_curve(setup, config, seed=0))
    print(f"margins per agent: {np.round(recovered.margins, 3)} "
          f"(structurally tied deviation rows pinned: {recovered.pinned_rows})")

    for _, variant, _, _, gap_mairl, gap_bc, _ in rows:
        print(f"\n[{variant}] recovered-reward gap {gap_mairl:.3f} vs cloning {gap_bc:.3f}")
    alt_game, _, alt_index = build_grid_game(variant_spec(spec, "obstacle-one"))
    transported = mairl.nash_value_iteration(alt_game, recovered.reward).policy
    print("  cloned agent 0 walks into the obstacle forever; "
          "the recovered reward re-plans:")
    show_path(alt_game, alt_index, transported)

    print("\nfull multi-seed experiment (writes curve.csv / bound.csv / summary.csv):")
    config = dataclasses.replace(config, variants=("deterministic", "obstacle-one"))
    result = mairl.run_experiment(config)
    for name, path in result.paths.items():
        print(f"  {name}: {path}")


if __name__ == "__main__":
    main()
