"""Fairly constricted multi-objective particle swarm optimization.

Three speed-constrained solvers over one loop: the inertial baseline
("smpso"), its naive momentum extension ("em-smpso"), and the fairly
constricted momentum variant ("fcpso"), together with the activation
probability calculus that separates them, benchmark problem suites and
quality indicators.
"""

from .archive import ExternalArchive, crowding_distance, non_dominated_mask
from .constriction import (
    PHI_MAX,
    EigenPair,
    activation_event,
    activation_threshold,
    chi_momentum,
    chi_vanilla,
    eigenvalues,
    evolution_matrix,
    lambda_max,
)
from .fairness import (
    FAIR_PHI2,
    FairnessReport,
    ParameterScheme,
    UnreachableUnfairnessError,
    activation_probability,
    monte_carlo_activation,
    scheme_for_unfairness,
    solve_fair_phi2,
    unfairness,
    unfairness_restricted,
)
from .indicators import HvTrace, additive_epsilon, hypervolume, igd, spacing
from .mutation import MutationConfig, apply_turbulence, polynomial_mutate
from .optimizer import RunConfig, RunResult, run
from .problems import ProblemInstance, available_problems, get_problem
from .swarm import (
    BoxBounds,
    DynamicsConfig,
    Swarm,
    compute_speed_em,
    compute_speed_smpso,
    draw_coefficients,
    initialize_swarm,
    update_pbest,
    update_position,
)

__version__ = "0.1.0"
