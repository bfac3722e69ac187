"""Sampling best-response and logit dynamics for coordination games."""

from .games import (
    CoordinationGame,
    DominanceProfile,
    HawkDoveGame,
    NormalizationError,
    OriginalGameMatrix,
    canonicalize,
    from_dominance,
    normalize_general,
    normalize_hawk_dove,
    normalize_symmetric,
    to_dominance,
)
from .dynamics import (
    Environment,
    LogitResponse,
    ResponsePair,
    SampleSizeDistribution,
    SamplingResponse,
    TieBreak,
    binomial_tail,
    binomial_tail_derivative,
    sampling_threshold,
    truncated_expectation,
)
from .analysis import (
    PureStateClassification,
    Stability,
    StationaryAnalysis,
    StationaryState,
    StableInteriorSearch,
    TheoremReport,
    Verdict,
    check_homogeneous_uniqueness,
    check_theorem3,
    check_theorem4,
    classify_pure_states,
    find_stationary_one_pop,
    find_stationary_two_pop,
    miscoordination_probability,
    payoff_efficiency,
    stable_interior_search,
)
from .flow import (
    BasinGrid,
    NumericError,
    Trajectory,
    convergence_limit,
    estimate_basins,
    integrate,
    label_basins,
)
from .extensions import (
    ContractTieRule,
    ContractingGame,
    MinEffortGame,
    MinEffortResponse,
    Observation,
    contracting_best_response,
    contracting_pure_stability,
    contracting_response_vector,
    integrate_contracting,
    mineffort_pure_stability,
    mineffort_stable_interior,
)
from .oracle import EmpiricalTrajectory, empirical_response, simulate_population

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
