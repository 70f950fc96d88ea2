"""Freshness-aware patrol trajectories on mobility graphs.

A single mobile agent walks a constrained graph to keep information at a
hub fresh (gathering) or to deliver queued updates to terminals
(dissemination).  The package provides graph generators, exact
Markov-chain age analytics, two trajectory designers (Metropolis-
Hastings and a fastest-mixing spectral optimizer), a greedy age-driven
walker, discrete-time simulators for both directions of traffic, and a
CLI for experiment sweeps.
"""

from .aoi_analysis import AgeReport, analytic_ages, average_age_lower_bound, peak_optimal_value
from .constants import TOL, Tolerances
from .dissemination import (DiscreteLaw, DisseminationPolicy, QueueModelParams,
                            VacationQueueStats, berg1_vacation_peak_age, dissemination_report,
                            policy_from_design, separation_policy, simulate_berg1_vacation,
                            simulate_dissemination, terminal_age_upper_bound)
from .errors import (DisconnectedGraphError, GraphValidationError, NumericalError,
                     PeriodicityWarning, QueueBacklogWarning, ReducibleChainError,
                     SolverError, StabilityError)
from .graphs import (MobilityGraph, assign_weights, generate_grid_diag,
                     generate_random_geometric, generate_ring_k, load_graph, save_graph)
from .markov import (ChainAnalysis, TransitionMatrix, analyze, check_irreducible,
                     fundamental_matrix, slem, stationary_distribution)
from .simulation import (AgeStats, AgeTrace, periodic_exact_ages, simulate_age_based,
                         simulate_periodic, simulate_randomized)
from .trajectory_design import (DesignResult, SolverOptions, build_fastest_mixing,
                                build_mh, design_objective, target_distribution,
                                validate_design)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
