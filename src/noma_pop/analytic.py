"""Closed-form pair outage probability (POP) of the two-user NOMA pair.

The outage event is "any of the four decode conditions fails". With
independent exponential gains the non-outage probability factors into two
CCDFs evaluated at the per-user binding thresholds, which yields a five-case
piecewise expression in the power split alpha: four open intervals where a
specific (zeta_i, zeta_j) pair is binding, and "everything else" where outage
is certain. This module classifies the active case, evaluates POP, and
provides the per-case closed-form derivative dPOP/dalpha.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, zetas

# exponent clamp: zeta/lambda can reach 1e8 near the infeasible edges where
# the true CCDF is indistinguishable from 0; keep exp() out of subnormals
MAX_EXPONENT = 700.0


class Case(enum.IntEnum):
    """Which branch of the piecewise POP is active."""

    CASE1 = 1  # binding pair (zeta1, zeta3)
    CASE2 = 2  # binding pair (zeta1, zeta4)
    CASE3 = 3  # binding pair (zeta2, zeta3)
    CASE4 = 4  # binding pair (zeta2, zeta4)
    CASE5 = 5  # outage certain

    @property
    def label(self) -> str:
        return f"Case{int(self)}"


@dataclass(frozen=True)
class CaseRegion:
    """A case label together with its active alpha interval (possibly empty).

    For the certain-outage case the complement of the other intervals is not
    a single interval, so active_interval spans the whole (0, 1) domain.
    """

    label: Case
    active_interval: tuple[float, float]


class NotDifferentiableError(ValueError):
    """POP has no classical derivative at this split (Case 5 or a breakpoint)."""


def case_intervals(derived: DerivedParams) -> dict[Case, tuple[float, float]]:
    """Active interval of each non-trivial case, as (lower, upper).

    Case 1 pairs the zeta1 branch of the near-user CCDF with the zeta3 branch
    of the far-user CCDF, so its interval is the intersection of the two
    branch intervals; likewise for the other three cases. Intervals may be
    empty (lower >= upper) for a given parameter set.
    """
    bp = derived.breakpoints
    return {
        Case.CASE1: (bp.alpha4, min(bp.alpha2, bp.alpha5)),
        Case.CASE2: (max(bp.alpha1, bp.alpha5), min(bp.alpha2, bp.alpha6)),
        Case.CASE3: (max(bp.alpha2, bp.alpha4), min(bp.alpha3, bp.alpha5)),
        Case.CASE4: (max(bp.alpha2, bp.alpha5), min(bp.alpha3, bp.alpha6)),
    }


def classify_case(alpha: float, derived: DerivedParams) -> CaseRegion:
    """The unique case active at alpha.

    Interval membership is half-open [lower, upper): at a shared breakpoint
    the right-hand case applies. POP is continuous across such boundaries
    (the binding thresholds coincide there), so the tie-break does not change
    the value. Case 5 is returned wherever no case interval contains alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    intervals = case_intervals(derived)
    for case, (lo, hi) in intervals.items():
        if lo < hi and lo <= alpha < hi:
            return CaseRegion(label=case, active_interval=(lo, hi))
    return CaseRegion(label=Case.CASE5, active_interval=(0.0, 1.0))


def gain_ccdf(zeta: float, lam: float) -> float:
    """P(gain > zeta) for an exponential gain with mean lam.

    An infinite threshold (infeasible decode condition) gives 0; a
    nonpositive threshold gives 1.
    """
    if lam <= 0:
        raise ValueError("mean gain must be positive")
    if math.isinf(zeta):
        return 0.0
    if zeta <= 0.0:
        return 1.0
    return float(np.exp(-min(zeta / lam, MAX_EXPONENT)))


@dataclass(frozen=True)
class PopValue:
    """POP at one split: the value, the active case, and the two CCDF factors."""

    value: float
    case: Case
    ccdf1: float
    ccdf2: float


# per-case binding thresholds, as indices into (zeta1, zeta2, zeta3, zeta4)
_CASE_ZETAS = {
    Case.CASE1: (0, 2),
    Case.CASE2: (0, 3),
    Case.CASE3: (1, 2),
    Case.CASE4: (1, 3),
}


def pop(alpha: float, derived: DerivedParams) -> PopValue:
    """Pair outage probability at power split alpha.

    Returns 1 - ccdf1 * ccdf2 where the CCDF factor pair is dictated by the
    active case; Case 5 is certain outage.
    """
    region = classify_case(alpha, derived)
    if region.label is Case.CASE5:
        return PopValue(value=1.0, case=Case.CASE5, ccdf1=0.0, ccdf2=0.0)
    z = zetas(alpha, derived)
    i, j = _CASE_ZETAS[region.label]
    ccdf1 = gain_ccdf(z[i], derived.lambda1)
    ccdf2 = gain_ccdf(z[j], derived.lambda2)
    return PopValue(value=1.0 - ccdf1 * ccdf2, case=region.label,
                    ccdf1=ccdf1, ccdf2=ccdf2)


def pop_value(alpha: float, derived: DerivedParams) -> float:
    """Shorthand for pop(alpha, derived).value."""
    return pop(alpha, derived).value


def pop_curve(alphas,
              derived: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized POP over an array of splits in (0, 1).

    Returns (values, case_indices). Same case logic and formulas as pop();
    used by the grid oracle and the sweep runners where per-point calls would
    be wasteful.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    if a.size and (a.min() <= 0.0 or a.max() >= 1.0):
        raise ValueError("all alphas must lie in (0, 1)")
    pi1, pi2, beta, rho = derived.pi1, derived.pi2, derived.beta, derived.rho_t
    lam1, lam2 = derived.lambda1, derived.lambda2

    def over_mean(pi: float, denom: np.ndarray, lam: float) -> np.ndarray:
        # zeta / lambda with the infeasible (denom <= 0) branch sent to +inf,
        # mirroring the scalar zetas()/gain_ccdf() pair
        with np.errstate(divide="ignore", invalid="ignore"):
            zeta = np.where(denom > 0.0, pi / (denom * rho), np.inf)
        return zeta / lam

    exponents = {
        0: over_mean(pi1, a - beta * (1.0 - a) * pi1, lam1),
        1: over_mean(pi2, 1.0 - a - a * pi2, lam1),
        2: over_mean(pi1, a - (1.0 - a) * pi1, lam2),
        3: over_mean(pi2, 1.0 - a - beta * a * pi2, lam2),
    }

    values = np.ones(a.shape)
    cases = np.full(a.shape, int(Case.CASE5))
    for case, (lo, hi) in case_intervals(derived).items():
        if not lo < hi:
            continue
        mask = (a >= lo) & (a < hi)
        if not mask.any():
            continue
        i, j = _CASE_ZETAS[case]
        e1 = np.minimum(exponents[i][mask], MAX_EXPONENT)
        e2 = np.minimum(exponents[j][mask], MAX_EXPONENT)
        values[mask] = 1.0 - np.exp(-e1) * np.exp(-e2)
        cases[mask] = int(case)
    return values, cases


def dpop_dalpha(alpha: float, derived: DerivedParams) -> float:
    """Closed-form derivative of POP with respect to alpha.

    Only defined strictly inside a case-1..4 interval. The case-1 derivative
    is always negative and the case-4 derivative always positive; cases 2 and
    3 change sign at the stationary points the optimizer solves for.
    """
    region = classify_case(alpha, derived)
    lo, hi = region.active_interval
    if region.label is Case.CASE5:
        raise NotDifferentiableError(
            f"POP is constant 1 around alpha={alpha} (Case5)")
    if not lo < alpha < hi:
        raise NotDifferentiableError(
            f"alpha={alpha} sits on a case boundary; one-sided slopes differ")

    pi1, pi2, beta, rho = derived.pi1, derived.pi2, derived.beta, derived.rho_t
    lam1, lam2 = derived.lambda1, derived.lambda2
    s1 = beta * pi1 + 1.0
    s2 = beta * pi2 + 1.0
    t1 = pi1 + 1.0
    t2 = pi2 + 1.0

    # reciprocal-denominator building blocks; all are positive inside the
    # producing case's interval
    d_z1 = alpha * s1 - beta * pi1      # zeta1 = pi1 / (d_z1 * rho)
    d_z2 = 1.0 - alpha * t2             # zeta2 = pi2 / (d_z2 * rho)
    d_z3 = alpha * t1 - pi1             # zeta3 = pi1 / (d_z3 * rho)
    d_z4 = 1.0 - alpha * s2             # zeta4 = pi2 / (d_z4 * rho)

    if region.label is Case.CASE1:
        bracket = -(pi1 * s1 / (lam1 * rho * d_z1 ** 2)
                    + pi1 * t1 / (lam2 * rho * d_z3 ** 2))
        exponent = (-pi1 / (lam1 * rho * d_z1)
                    - pi1 / (lam2 * rho * d_z3))
    elif region.label is Case.CASE2:
        bracket = (pi2 * s2 / (lam2 * rho * d_z4 ** 2)
                   - pi1 * s1 / (lam1 * rho * d_z1 ** 2))
        exponent = (-pi2 / (lam2 * rho * d_z4)
                    - pi1 / (lam1 * rho * d_z1))
    elif region.label is Case.CASE3:
        bracket = (pi2 * t2 / (lam1 * rho * d_z2 ** 2)
                   - pi1 * t1 / (lam2 * rho * d_z3 ** 2))
        exponent = (-pi2 / (lam1 * rho * d_z2)
                    - pi1 / (lam2 * rho * d_z3))
    else:  # CASE4
        bracket = (pi2 * s2 / (lam2 * rho * d_z4 ** 2)
                   + pi2 * t2 / (lam1 * rho * d_z2 ** 2))
        exponent = (-pi2 / (lam2 * rho * d_z4)
                    - pi2 / (lam1 * rho * d_z2))

    return float(bracket * np.exp(max(exponent, -MAX_EXPONENT)))
