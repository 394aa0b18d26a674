"""Pair outage probability of a two-user downlink NOMA pair with imperfect SIC.

Closed-form evaluation, power-split optimization, and seeded Monte Carlo
validation, plus a CLI experiment runner (`noma-pop`).
"""

__version__ = "0.1.0"

from .model import (
    Breakpoints,
    DerivedParams,
    SinrTuple,
    SystemConfig,
    ZetaTuple,
    breakpoints,
    db_to_linear,
    mean_gain,
    reference_config,
    sinr_threshold,
    sinrs,
    zetas,
)
from .analytic import (
    Case,
    CaseRegion,
    NotDifferentiableError,
    PopValue,
    classify_case,
    dpop_dalpha,
    pop,
    pop_curve,
    pop_value,
)
from .optimizer import (
    Candidate,
    CandidateSet,
    NoFeasibleAllocationError,
    QuadraticCoefficients,
    candidate_set,
    case2_coefficients,
    case2_roots,
    case3_coefficients,
    case3_roots,
    corner_candidates,
    grid_oracle,
    optimize,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    ValidationRow,
    binomial_z,
    pop_estimate,
    sample_gains,
    validate,
)

__all__ = [
    "__version__",
    "Breakpoints", "DerivedParams", "SinrTuple", "SystemConfig", "ZetaTuple",
    "breakpoints", "db_to_linear", "mean_gain", "reference_config",
    "sinr_threshold", "sinrs", "zetas",
    "Case", "CaseRegion", "NotDifferentiableError", "PopValue",
    "classify_case", "dpop_dalpha", "pop", "pop_curve", "pop_value",
    "Candidate", "CandidateSet", "NoFeasibleAllocationError",
    "QuadraticCoefficients", "candidate_set", "case2_coefficients",
    "case2_roots", "case3_coefficients", "case3_roots", "corner_candidates",
    "grid_oracle", "optimize",
    "McConfig", "McEstimate", "ValidationRow", "binomial_z", "pop_estimate",
    "sample_gains", "validate",
]
