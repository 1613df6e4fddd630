"""Generative-model estimation with a stopping rule and sup-inf certificates.

A two-state stochastic game with a partially mixed equilibrium expert is
sampled uniformly until the reward-uncertainty rule fires; the recovered
problem is then certified by the sup-inf check over sampled reward
families, and an intentionally under-sampled control shows the check
failing.
"""

import numpy as np

import mairl
from mairl.estimation import CountBook, estimate, sample_round
from mairl.games import JointPolicy
from mairl.synthetic import random_markov_game

FAMILY = dict(v_range=(2.2, 2.4), penalty_range=(0.9, 1.0))


def main():
    rng = np.random.default_rng(42)
    game = random_markov_game(rng, 2, (2, 2), gamma=0.5)
    expert = JointPolicy([
        np.array([[0.5, 0.5], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.4, 0.6]]),
    ])
    params = mairl.ConfidenceParams(delta=0.1, pi_min=0.4, rmax=2.0, gamma=0.5)
    oracle = mairl.GenerativeOracle(game, expert, seed=7)

    print("sampling one round per (state, joint action) until epsilon_k <= eps/2 ...")
    run = mairl.uniform_sampling(oracle, params, epsilon_target=0.5, k_max=20_000)
    print(f"stopped at tau = {run.tau} (converged: {run.converged})")
    k0, eps0 = run.history[0][0], run.history[0][1]
    print(f"uncertainty trace: eps_{k0} = {eps0:.1f} -> eps_tau = {run.uncertainty.epsilon_k:.4f}")

    scan = mairl.stopping_time(params, 2, (2, 2), 2, epsilon=0.5)
    print(f"count-schedule scan reproduces tau deterministically: {scan}")
    bound = mairl.theoretical_sample_bound(params, 2, (2, 2), 2, epsilon=0.5)
    print(f"closed-form bound {bound.total:.3g} >= tau * S * A = {run.tau * 8}")

    print(f"\nestimation error: |P - Phat| = "
          f"{np.abs(run.problem.p_hat - game.transitions).max():.4f}, "
          f"masks recovered exactly: "
          f"{np.array_equal(mairl.event_mask(run.problem.pi_hat), mairl.event_mask(expert))}")

    print("\n--- sup-inf optimality certificate (20-member families) ---")
    est_game = run.problem.as_game(game.gamma, game.mu)
    fam_true = mairl.sample_reward_family(game, expert, 2.0, 20, seed=5, **FAMILY)
    fam_rec = mairl.sample_reward_family(est_game, run.problem.pi_hat, 2.0, 20, seed=5, **FAMILY)
    rep = mairl.optimality_check((game, expert), (est_game, run.problem.pi_hat),
                                 fam_true, fam_rec, epsilon=0.5)
    print(f"converged run: sup-infs ({rep.supinf_1:.4f}, {rep.supinf_2:.4f}) "
          f"-> passed = {rep.passed}")

    counts = CountBook(2, (2, 2))
    sample_round(oracle, counts)
    prob1 = estimate(counts)
    est1 = prob1.as_game(game.gamma, game.mu)
    fam1 = mairl.sample_reward_family(est1, prob1.pi_hat, 2.0, 20, seed=5, **FAMILY)
    control = mairl.optimality_check((game, expert), (est1, prob1.pi_hat),
                                     fam_true, fam1, epsilon=0.5)
    print(f"k = 1 control: sup-infs ({control.supinf_1:.4f}, {control.supinf_2:.4f}) "
          f"-> passed = {control.passed}")
    print("(one round makes the mixed expert look deterministic; equilibria of the")
    print(" recovered rewards then play actions the true expert never plays)")


if __name__ == "__main__":
    main()
