"""Pair outage probability of a two-user downlink NOMA pair with imperfect SIC.

Closed-form evaluation, power-split optimization, and seeded Monte Carlo
validation, plus a CLI experiment runner (`noma-pop`).
"""

__version__ = "0.1.0"

from .model import (
    Breakpoints,
    DerivedParams,
    SystemConfig,
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
    NotDifferentiableError,
    classify_case,
    dpop_dalpha,
    pop,
    pop_curve,
    pop_value,
)
from .optimizer import (
    Candidate,
    NoFeasibleAllocationError,
    candidate_set,
    grid_oracle,
    optimize,
    stationary_roots,
)
from .montecarlo import (
    McConfig,
    ValidationRow,
    binomial_z,
    pop_estimate,
    sample_gains,
    validate,
)

__all__ = [
    "__version__",
    "Breakpoints", "DerivedParams", "SystemConfig", "breakpoints",
    "db_to_linear", "mean_gain", "reference_config", "sinr_threshold",
    "sinrs", "zetas",
    "Case", "NotDifferentiableError", "classify_case", "dpop_dalpha", "pop",
    "pop_curve", "pop_value",
    "Candidate", "NoFeasibleAllocationError", "candidate_set", "grid_oracle",
    "optimize", "stationary_roots",
    "McConfig", "ValidationRow", "binomial_z", "pop_estimate", "sample_gains",
    "validate",
]
