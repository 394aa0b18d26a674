"""Closed-form minimization of the pair outage probability over the split.

POP is piecewise in alpha: strictly decreasing on the case-1 interval,
strictly increasing on case 4, and possibly non-monotone on cases 2 and 3.
The global minimizer therefore lives in a six-point candidate set: the two
corner points where the monotone pieces end, plus the stationary points of
the case-2 and case-3 pieces, which are roots of two quadratics. This module
builds that candidate set, filters it for feasibility, and returns the
argmin, with an exhaustive grid search kept alongside as an independent
oracle for tests and validation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import Case, case_intervals, pop_curve, pop_value
from .model import DerivedParams, SystemConfig

# leading coefficient below this (relative to the others) treats the
# quadratic as linear
DEGENERATE_QUADRATIC_RTOL = 1e-12


class NoFeasibleAllocationError(RuntimeError):
    """No split in (0, 1) escapes certain outage for these parameters."""


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Coefficients of a stationary-point quadratic a*x^2 + b*x + c = 0."""

    a: float
    b: float
    c: float
    provenance: Case  # which case's stationarity condition produced them


def case2_coefficients(derived: DerivedParams) -> QuadraticCoefficients:
    """Quadratic whose roots balance the two case-2 exponent slopes."""
    pi1, pi2, beta = derived.pi1, derived.pi2, derived.beta
    lam1, lam2 = derived.lambda1, derived.lambda2
    s1 = beta * pi1 + 1.0
    s2 = beta * pi2 + 1.0
    r1 = pi2 * lam1 * s1 * s2
    r2 = pi1 * lam2 * s1 * s2
    return QuadraticCoefficients(
        a=r1 * s1 - r2 * s2,
        b=2.0 * (r2 - r1 * beta * pi1),
        c=pi1 ** 2 * pi2 * s2 * beta ** 2 * lam1 - pi1 * s1 * lam2,
        provenance=Case.CASE2,
    )


def case3_coefficients(derived: DerivedParams) -> QuadraticCoefficients:
    """Quadratic whose roots balance the two case-3 exponent slopes."""
    pi1, pi2 = derived.pi1, derived.pi2
    lam1, lam2 = derived.lambda1, derived.lambda2
    t1 = pi1 + 1.0
    t2 = pi2 + 1.0
    q1 = pi1 * lam1 * t1 * t2
    q2 = pi2 * lam2 * t1 * t2
    return QuadraticCoefficients(
        a=q2 * t1 - q1 * t2,
        b=2.0 * (q1 - q2 * pi1),
        c=pi1 ** 2 * pi2 * t2 * lam2 - pi1 * t1 * lam1,
        provenance=Case.CASE3,
    )


def _solve_quadratic(coeffs: QuadraticCoefficients) -> tuple[float, ...]:
    """Real roots of the quadratic, in (+discriminant, -discriminant) order.

    Falls back to the linear root -c/b when the leading coefficient is
    negligible next to the others; returns () when no real root exists.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if abs(a) <= DEGENERATE_QUADRATIC_RTOL * max(abs(b), abs(c)):
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    # cancellation-free evaluation of (-b +- sq) / (2a)
    if b >= 0.0:
        minus = (-b - sq) / (2.0 * a)
        plus = c / (a * minus) if minus != 0.0 else (-b + sq) / (2.0 * a)
    else:
        plus = (-b + sq) / (2.0 * a)
        minus = c / (a * plus) if plus != 0.0 else (-b - sq) / (2.0 * a)
    return (plus, minus)


def case2_roots(derived: DerivedParams) -> tuple[float, ...]:
    """Stationary-point candidates of the case-2 piece (0, 1, or 2 roots)."""
    return _solve_quadratic(case2_coefficients(derived))


def case3_roots(derived: DerivedParams) -> tuple[float, ...]:
    """Stationary-point candidates of the case-3 piece (0, 1, or 2 roots)."""
    return _solve_quadratic(case3_coefficients(derived))


def corner_candidates(derived: DerivedParams) -> tuple[float, float]:
    """The corner candidates: end of the decreasing case-1 piece and start of
    the increasing case-4 piece.

    Both corners collapse onto the shared point when alpha5 equals alpha2.
    """
    bp = derived.breakpoints
    if bp.alpha5 < bp.alpha2:
        return bp.alpha5, bp.alpha2
    return bp.alpha2, bp.alpha5


@dataclass(frozen=True)
class Candidate:
    """One candidate split with its provenance and feasibility verdict."""

    name: str
    case: Case
    alpha: float | None  # None when the producing root does not exist
    exists: bool
    feasible: bool
    pop: float | None  # evaluated only for feasible candidates


@dataclass(frozen=True)
class CandidateSet:
    """The six-point candidate set of the closed-form search."""

    alpha_c1: Candidate
    alpha_r1: Candidate
    alpha_r2: Candidate
    alpha_r3: Candidate
    alpha_r4: Candidate
    alpha_c2: Candidate

    def all(self) -> tuple[Candidate, ...]:
        return (self.alpha_c1, self.alpha_r1, self.alpha_r2,
                self.alpha_r3, self.alpha_r4, self.alpha_c2)

    def feasible(self) -> tuple[Candidate, ...]:
        return tuple(c for c in self.all() if c.feasible)


def _corner(name: str, case: Case, alpha: float,
            interval: tuple[float, float], derived: DerivedParams) -> Candidate:
    # a corner is meaningful iff its producing case is active somewhere
    lo, hi = interval
    feasible = lo < hi and 0.0 < alpha < 1.0
    return Candidate(name=name, case=case, alpha=alpha, exists=True,
                     feasible=feasible,
                     pop=pop_value(alpha, derived) if feasible else None)


def _root(name: str, case: Case, roots: tuple[float, ...], index: int,
          interval: tuple[float, float], derived: DerivedParams) -> Candidate:
    if index >= len(roots):
        return Candidate(name=name, case=case, alpha=None, exists=False,
                         feasible=False, pop=None)
    alpha = roots[index]
    lo, hi = interval
    # a stationary point only counts where its case formula is the active one
    feasible = lo < alpha < hi and 0.0 < alpha < 1.0
    return Candidate(name=name, case=case, alpha=alpha, exists=True,
                     feasible=feasible,
                     pop=pop_value(alpha, derived) if feasible else None)


def candidate_set(derived: DerivedParams) -> CandidateSet:
    """Build all six candidates, with POP evaluated at the feasible ones.

    POP at a candidate is always evaluated through the full max-zeta form,
    never a fixed-case formula, so corner points sitting exactly on a
    boundary are valued consistently.
    """
    intervals = case_intervals(derived)
    c1, c2 = corner_candidates(derived)
    roots2 = case2_roots(derived)
    roots3 = case3_roots(derived)
    return CandidateSet(
        alpha_c1=_corner("alpha_c1", Case.CASE1, c1,
                         intervals[Case.CASE1], derived),
        alpha_r1=_root("alpha_r1", Case.CASE2, roots2, 0,
                       intervals[Case.CASE2], derived),
        alpha_r2=_root("alpha_r2", Case.CASE2, roots2, 1,
                       intervals[Case.CASE2], derived),
        alpha_r3=_root("alpha_r3", Case.CASE3, roots3, 0,
                       intervals[Case.CASE3], derived),
        alpha_r4=_root("alpha_r4", Case.CASE3, roots3, 1,
                       intervals[Case.CASE3], derived),
        alpha_c2=_corner("alpha_c2", Case.CASE4, c2,
                         intervals[Case.CASE4], derived),
    )


def optimize(config: SystemConfig) -> tuple[float, float, CandidateSet]:
    """Globally optimal split, its POP, and the candidate set it came from.

    Ties between equal-POP candidates break toward the smallest alpha so the
    result is deterministic and independent of evaluation order.
    """
    derived = DerivedParams.from_config(config)
    candidates = candidate_set(derived)
    feasible = candidates.feasible()
    if not feasible:
        bp = derived.breakpoints
        detail = (f"alpha4={bp.alpha4:.6g} >= alpha3={bp.alpha3:.6g} "
                  f"(pi1*pi2 = {derived.pi1 * derived.pi2:.6g} >= 1)"
                  if bp.alpha4 >= bp.alpha3 else
                  f"all case intervals empty at breakpoints {bp}")
        raise NoFeasibleAllocationError(
            f"every split in (0, 1) gives certain outage: {detail}")
    best = min(feasible, key=lambda c: (c.pop, c.alpha))
    return best.alpha, best.pop, candidates


def grid_oracle(config: SystemConfig,
                step: float = 1e-5) -> tuple[float, float]:
    """Exhaustive POP minimization over the grid {step, 2*step, ...} in (0, 1).

    Independent check of the closed-form search; test/validation fixture, not
    a production path. Ties break toward the smallest alpha.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    derived = DerivedParams.from_config(config)
    ks = np.arange(1, math.ceil(1.0 / step))
    alphas = ks * step
    alphas = alphas[alphas < 1.0]
    values, _ = pop_curve(alphas, derived)
    idx = int(np.argmin(values))  # first minimum = smallest alpha
    return float(alphas[idx]), float(values[idx])


def grid_min_near(config: SystemConfig, alpha: float, grid_pop: float,
                  step: float = 1e-5) -> bool:
    """Whether a ``grid_oracle`` grid point within ``step`` of ``alpha``
    attains the grid minimum ``grid_pop``. Unlike the oracle's argmin, which
    breaks ties toward 0, this holds where POP is flat (saturated at 1)."""
    k = round(alpha / step)
    alphas = np.arange(max(k - 1, 1), k + 2) * step
    alphas = alphas[(np.abs(alphas - alpha) <= step) & (alphas < 1.0)]
    values, _ = pop_curve(alphas, DerivedParams.from_config(config))
    return bool(np.any(values == grid_pop))
