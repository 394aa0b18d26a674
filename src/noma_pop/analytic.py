"""Closed-form pair outage probability (POP) of the two-user NOMA pair.

Outage is "any of the four decode conditions fails". With independent
exponential gains each user succeeds when its gain exceeds the larger of
its two thresholds, so with an infinite zeta meaning certain outage

    POP = 1 - exp(-(max(zeta1, zeta2) / lambda1 + max(zeta3, zeta4) / lambda2)).

It is evaluated once, as -expm1(-exponent), so a tiny POP (high SNR) keeps
its relative accuracy. The paper's five-case table (four alpha intervals
and "certain outage") says which pair binds; it labels each split and
gives the per-case derivative dPOP/dalpha.
"""

from __future__ import annotations

__all__ = ["Case", "NotDifferentiableError", "classify_case", "dpop_dalpha",
           "pop", "pop_curve", "pop_value"]

import enum
import math

import numpy as np

from .model import DerivedParams, ZetaTuple, zetas


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


class NotDifferentiableError(ValueError):
    """POP has no classical derivative at this split (Case 5 or a breakpoint)."""


def case_intervals(derived: DerivedParams) -> dict[Case, tuple[float, float]]:
    """Active interval of each non-trivial case, as (lower, upper).

    Case 1 is where zeta1 binds the near user and zeta3 the far user, so its
    interval is the intersection of those two branch intervals; likewise for
    the other three cases. Intervals may be empty (lower >= upper) for a
    given parameter set.
    """
    bp = derived.breakpoints
    return {
        Case.CASE1: (bp.alpha4, min(bp.alpha2, bp.alpha5)),
        Case.CASE2: (max(bp.alpha1, bp.alpha5), min(bp.alpha2, bp.alpha6)),
        Case.CASE3: (max(bp.alpha2, bp.alpha4), min(bp.alpha3, bp.alpha5)),
        Case.CASE4: (max(bp.alpha2, bp.alpha5), min(bp.alpha3, bp.alpha6)),
    }


def _in_case(alpha, interval: tuple[float, float]):
    """Whether alpha lies in [lower, upper), elementwise on arrays: an empty
    interval holds nothing, and a breakpoint goes to the right-hand case."""
    lo, hi = interval
    return (lo <= alpha) & (alpha < hi)


def classify_case(alpha: float, derived: DerivedParams) -> Case:
    """The unique case active at alpha.

    POP is continuous across case boundaries (the binding thresholds
    coincide there), so the tie-break of ``_in_case`` does not change the
    value. Case 5 is returned wherever no case interval contains alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    for case, interval in case_intervals(derived).items():
        if _in_case(alpha, interval):
            return case
    return Case.CASE5


# per-case binding thresholds, as indices into (zeta1, zeta2, zeta3, zeta4)
_CASE_ZETAS = {Case.CASE1: (0, 2), Case.CASE2: (0, 3),
               Case.CASE3: (1, 2), Case.CASE4: (1, 3)}


def _pop(z: ZetaTuple, derived: DerivedParams):
    """The max-zeta POP, elementwise on float or array thresholds."""
    # dividing before the max (the same value, as division is monotone)
    # lets a huge float zeta overflow to inf in Python, without a warning
    lam1, lam2 = derived.lambda1, derived.lambda2
    exponent = (np.maximum(z.zeta1 / lam1, z.zeta2 / lam1)
                + np.maximum(z.zeta3 / lam2, z.zeta4 / lam2))
    return -np.expm1(-exponent)


def pop(alpha: float, derived: DerivedParams) -> tuple[float, Case]:
    """Pair outage probability at power split alpha, with its case label."""
    return pop_value(alpha, derived), classify_case(alpha, derived)


def pop_value(alpha: float, derived: DerivedParams) -> float:
    """Pair outage probability at power split alpha."""
    return float(_pop(zetas(alpha, derived), derived))


def pop_curve(alphas,
              derived: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized POP over an array of splits in (0, 1).

    Returns (values, case_indices), equal element for element to
    ``pop_value`` and ``classify_case``; used by ``grid_oracle`` and
    ``grid_min_near``, where per-point calls would be wasteful.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    with np.errstate(over="ignore"):  # overflow to inf, quietly as on floats
        values = _pop(zetas(a, derived), derived)
    cases = np.full(a.shape, int(Case.CASE5))
    for case, interval in case_intervals(derived).items():
        cases[_in_case(a, interval)] = int(case)
    return values, cases


def dpop_dalpha(alpha: float, derived: DerivedParams) -> float:
    """Closed-form derivative of POP with respect to alpha.

    Only defined strictly inside a case-1..4 interval, where POP is
    1 - exp(-(zeta_i / lambda1 + zeta_j / lambda2)) for the case's binding
    pair. The case-1 derivative is always negative and the case-4 derivative
    always positive; cases 2 and 3 change sign at the stationary points the
    optimizer solves for.
    """
    case = classify_case(alpha, derived)
    if case is Case.CASE5:
        raise NotDifferentiableError(
            f"POP is constant 1 around alpha={alpha} (Case5)")
    lo, hi = case_intervals(derived)[case]
    if not lo < alpha < hi:
        raise NotDifferentiableError(
            f"alpha={alpha} sits on a case boundary; one-sided slopes differ")
    z = zetas(alpha, derived)
    pi1, pi2, beta = derived.pi1, derived.pi2, derived.beta
    lam1, lam2 = derived.lambda1, derived.lambda2
    # per zeta: (pi, mean of the gain it bounds, D'), where
    # zeta = pi / (D(alpha) * rho) and D is linear in alpha
    terms = ((pi1, lam1, 1.0 + beta * pi1),
             (pi2, lam1, -1.0 - pi2),
             (pi1, lam2, 1.0 + pi1),
             (pi2, lam2, -1.0 - beta * pi2))
    exponent = slope = 0.0
    for k in _CASE_ZETAS[case]:
        pi, lam, d_prime = terms[k]
        exponent += z[k] / lam
        # dzeta/dalpha = -pi * D' / (D^2 * rho) = -rho * zeta^2 * D' / pi
        slope -= derived.rho_t * z[k] ** 2 * d_prime / (pi * lam)
    return slope * math.exp(-exponent)
