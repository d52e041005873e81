"""Breakable-membrane measurement model on the simplex.

A measurement stretches an elastic structure over the simplex of
outcome weights; it breaks at a random point and collapses the state to
a vertex. The package computes collapse probabilities for a family of
breaking-point densities, verifies by exact enumeration that the
uniform average over all cellular structures reproduces the uniform
(Born-rule) measurement, and measures how controlled measurements
respond to state perturbations.
"""

from .density import (
    BallComplement,
    Cellular1DDensity,
    CellularGridDensity,
    CellularMask,
    CentroidNeighborhood,
    ControlRegion,
    Density,
    DiracMixtureDensity,
    IntervalControl,
    IntervalDensity,
    NotAnalyticError,
    TruncatedUniformDensity,
    UniformDensity,
    cellular_approximation,
    density_from_spec,
    truncate,
)
from .montecarlo import (
    TransitionEstimate,
    estimate,
    estimate_universal,
    substream,
    wilson_interval,
)
from .quantum import QuantumState, to_simplex_state
from .robustness import (
    DiracLimitReport,
    RobustnessReport,
    dirac_limit_demo,
    perturb_state,
    robustness_sweep,
)
from .simplex import (
    BarycentricState,
    RegionLabel,
    classify_batch,
    region_of,
    simplex_measure,
    to_internal_coords,
)
from .universal import (
    RecurrenceReport,
    binomial_identity_a,
    binomial_identity_b,
    identity_report,
    recurrence_step_check,
    theorem_report,
    universal_average_1d,
    universal_average_abstract,
)

__version__ = "0.1.0"

__all__ = [
    "BallComplement",
    "BarycentricState",
    "Cellular1DDensity",
    "CellularGridDensity",
    "CellularMask",
    "CentroidNeighborhood",
    "ControlRegion",
    "Density",
    "DiracLimitReport",
    "DiracMixtureDensity",
    "IntervalControl",
    "IntervalDensity",
    "NotAnalyticError",
    "QuantumState",
    "RecurrenceReport",
    "RegionLabel",
    "RobustnessReport",
    "TransitionEstimate",
    "TruncatedUniformDensity",
    "UniformDensity",
    "binomial_identity_a",
    "binomial_identity_b",
    "cellular_approximation",
    "classify_batch",
    "density_from_spec",
    "dirac_limit_demo",
    "estimate",
    "estimate_universal",
    "identity_report",
    "perturb_state",
    "recurrence_step_check",
    "region_of",
    "robustness_sweep",
    "simplex_measure",
    "substream",
    "theorem_report",
    "to_internal_coords",
    "to_simplex_state",
    "truncate",
    "universal_average_1d",
    "universal_average_abstract",
    "wilson_interval",
    "__version__",
]
