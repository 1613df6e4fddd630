"""Inverse reinforcement learning for Nash experts in finite Markov games.

The package recovers and certifies the set of reward functions under which
an observed joint policy is a Nash equilibrium: exact dynamic programming
and equilibrium computation, implicit/explicit feasible-set checks,
generative-model estimation with a stopping rule and sample bounds, max-gap
reward selection, and grid-game transfer experiments.
"""

from .dp import (
    ValueBundle,
    expected_advantage_table,
    occupancy,
    policy_evaluation,
    simulation_decomposition,
)
from .equilibrium import (
    BestResponseResult,
    BimatrixEquilibrium,
    MatrixNECheck,
    NashGapReport,
    NashQResult,
    best_response,
    bimatrix_nash,
    matrix_ne_check,
    nash_gap,
    nash_value_iteration,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionMismatchError,
    InfeasibleLPError,
    MairlError,
    NotFeasibleError,
    OutOfRangeError,
    StaleValuesError,
    StochasticityError,
    UnboundedLPError,
)
from .estimation import (
    ConfidenceParams,
    CountBook,
    EstimatedProblem,
    GenerativeOracle,
    SampleBound,
    UncertaintyTable,
    UniformSamplingResult,
    estimate,
    good_event_inequalities,
    policy_estimation_threshold,
    sample_round,
    stopping_time,
    theoretical_sample_bound,
    transition_radius,
    uncertainty,
    uniform_sampling,
    xi_threshold,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    OptimalityReport,
    optimality_check,
    run_experiment,
    sample_reward_family,
)
from .feasible import (
    FeasibleParams,
    ImplicitCheckReport,
    check_implicit,
    construct_reward,
    decompose_reward,
    deviation_gain,
    error_propagation_bound,
    event_mask,
    nash_gap_bound,
    witness_reward_tables,
)
from .games import JointPolicy, JointReward, MarkovGame, deterministic_policy
from .gridworld import GridGameSpec, GridIndex, build_grid_game, variant_spec
from .joint import flat_of, joint_action_count, split_of
from .reward_select import MaxGapResult, behavior_cloning, max_gap_reward
from .simplex import LinearProgram, LPSolution, solve_lp

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
