"""Sampling best-response and logit dynamics for coordination games.

The package's API is the names below, by the module that defines them:
every name in double backquotes here is exported, and every export is
named here.  The commands of the cli module run all of them but the last
group.

- games: ``CoordinationGame``, ``DominanceProfile``, ``HawkDoveGame``,
  ``NormalizationError``, ``OriginalGameMatrix``, ``canonicalize``,
  ``normalize_general``, ``normalize_hawk_dove``, ``normalize_symmetric``,
  ``to_dominance``.
- dynamics: ``Environment``, ``LogitResponse``, ``SampleSizeDistribution``,
  ``SamplingResponse``, ``TieBreak``, ``sampling_threshold``,
  ``truncated_expectation``.
- analysis: ``PureStateClassification``, ``Stability``,
  ``StationaryAnalysis``, ``StationaryState``, ``StableInteriorSearch``,
  ``TheoremReport``, ``Verdict``, ``check_homogeneous_uniqueness``,
  ``check_theorem3``, ``check_theorem4``, ``classify_pure_states``,
  ``find_stationary_one_pop``, ``find_stationary_two_pop``,
  ``miscoordination_probability``, ``stable_interior_search``.
- flow: ``BasinGrid``, ``NumericError``, ``Trajectory``, ``integrate``,
  ``label_basins``.
- extensions: ``ContractingGame``, ``MinEffortGame``,
  ``MinEffortResponse``, ``Observation``, ``contracting_pure_stability``.
- oracle: ``EmpiricalTrajectory``, ``empirical_response``,
  ``simulate_population``.

No command runs these, and each stays for a reason:

- ``ResponsePair``: the value of ``Environment.pair()``, two responses
  that ``System.of`` resolves as the two-population dynamics; the
  commands build a System from the config instead, and perfbench's
  tracer test and set-up probe call ``Environment.pair()``;
- ``binomial_tail``, ``contracting_response_vector`` (with its
  ``ContractTieRule``), ``integrate_contracting`` and ``estimate_basins``:
  perfbench's tracer patches them by name, as it patches the response
  classes' inverse methods, and perfbench/test_tracer.py asserts that the
  cli module's estimate_basins is the flow module's;
- ``mineffort_stable_interior``: the paper's minimum-effort mixture
  search, which analyze will report once it reports the exact mixture
  window that ROADMAP.md plans.
"""

from .games import (
    CoordinationGame,
    DominanceProfile,
    HawkDoveGame,
    NormalizationError,
    OriginalGameMatrix,
    canonicalize,
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
    stable_interior_search,
)
from .flow import (
    BasinGrid,
    NumericError,
    Trajectory,
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
    contracting_pure_stability,
    contracting_response_vector,
    integrate_contracting,
    mineffort_stable_interior,
)
from .oracle import EmpiricalTrajectory, empirical_response, simulate_population

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
