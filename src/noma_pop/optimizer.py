"""Closed-form minimization of the pair outage probability over the split.

POP is piecewise in alpha: strictly decreasing on the case-1 interval,
strictly increasing on case 4, and possibly non-monotone on cases 2 and 3.
The global minimizer therefore lives in the paper's six-point candidate set:
the two corner points where the monotone pieces end, plus two stationary
points each of the case-2 and case-3 pieces. Each piece's slope vanishes
where its two binding exponent terms balance, D_a / D_b = +-r, and each sign
has one closed-form root (``stationary_roots``); in an interval only a few
doubles wide, the best double takes the root's place. ``candidate_set``
builds the six candidates from one table and marks the feasible ones;
``optimize`` returns their argmin. An exhaustive grid search at
``GRID_STEP`` is kept alongside as an independent oracle: ``optimize
--check`` and the tests run it.
"""

from __future__ import annotations

__all__ = ["Candidate", "NoFeasibleAllocationError", "candidate_set",
           "grid_oracle", "optimize", "stationary_roots"]

import math
from typing import NamedTuple

import numpy as np

from . import analytic
from .analytic import Case, case_intervals, pop_curve
from .model import DerivedParams, SystemConfig

GRID_STEP = 1e-5  # resolution of grid_oracle and grid_min_near
# A case-2 or case-3 interval of at most this many doubles is searched double
# by double: there its root can round onto an end or off the best double, and
# all 4,096 POP values cost about 0.2 ms, a few optimize calls. The root's
# rounding moves it a few ulps, so a wider interval keeps the root.
SCAN_DOUBLES = 4_096


class NoFeasibleAllocationError(RuntimeError):
    """No split in (0, 1) escapes certain outage for these parameters."""


def stationary_roots(derived: DerivedParams, case: Case) -> tuple[float, ...]:
    """Stationary points (alpha_plus, alpha_minus) of the case-2 or case-3
    piece; alpha_minus is left out where its denominator is 0.

    The piece's exponent is pi1 / (D_a rho lam_a) + pi2 / (D_b rho lam_b),
    with D_a = alpha (1 + k pi1) - k pi1 and D_b = 1 - alpha (1 + k pi2): the
    zeta1 and zeta4 terms with k = beta in case 2, zeta3 and zeta2 with
    k = 1 in case 3. Its slope vanishes where D_a / D_b = +-r, with
    r = sqrt(pi1 (1 + k pi1) lam_b / (pi2 (1 + k pi2) lam_a)). alpha_plus
    is a positive-weight mediant of the zeros of D_a and D_b, so it lies
    where both thresholds are finite; alpha_minus never does.
    """
    k, lam_a, lam_b = {
        Case.CASE2: (derived.beta, derived.lambda1, derived.lambda2),
        Case.CASE3: (1.0, derived.lambda2, derived.lambda1),
    }[case]
    pi1, pi2 = derived.pi1, derived.pi2
    s_a = 1.0 + k * pi1
    s_b = 1.0 + k * pi2
    r = math.sqrt(pi1 * s_a * lam_b / (pi2 * s_b * lam_a))
    plus = (k * pi1 + r) / (s_a + r * s_b)
    den = s_a - r * s_b
    return (plus,) if den == 0.0 else (plus, (k * pi1 - r) / den)


def _best_double(derived: DerivedParams, interval: tuple[float, float],
                 root: float) -> float:
    """The double of least POP (the smallest on ties) strictly inside
    ``interval`` and (0, 1), where there are 1 to SCAN_DOUBLES of them;
    ``root`` otherwise."""
    # positive doubles order like their bit patterns
    ends = np.array([max(interval[0], 0.0), min(interval[1], 1.0)])
    lo, hi = ends.view(np.int64).tolist()
    if not 0 < hi - lo - 1 <= SCAN_DOUBLES:
        return root
    alphas = np.arange(lo + 1, hi, dtype=np.int64).view(np.float64)
    values, _ = pop_curve(alphas, derived)
    return float(alphas[np.argmin(values)])


class Candidate(NamedTuple):
    """One candidate split with its provenance and feasibility verdict."""

    name: str
    case: Case
    alpha: float | None  # None when the producing root does not exist
    feasible: bool
    pop: float | None  # evaluated only for feasible candidates


def candidate_set(derived: DerivedParams) -> tuple[Candidate, ...]:
    """All six candidates, in the order alpha_c1, alpha_r1..alpha_r4,
    alpha_c2, with POP evaluated at the feasible ones.

    A corner ends a monotone piece (case 1 or 4) and counts where that
    piece's interval is nonempty; a stationary point counts only strictly
    inside its case interval. Both must lie in (0, 1). alpha_r1 (case 2) and
    alpha_r3 (case 3) hold the alpha_plus roots, the only ones that can be
    feasible, or the best double of an interval of at most SCAN_DOUBLES;
    alpha_r2 and alpha_r4 hold alpha_minus, never feasible but kept so the
    table lists the paper's six candidates. POP is evaluated through the
    full max-zeta form, never a fixed-case formula, so a corner sitting
    exactly on a boundary is valued consistently.
    """
    intervals = case_intervals(derived)
    r2 = stationary_roots(derived, Case.CASE2) + (None,)
    r3 = stationary_roots(derived, Case.CASE3) + (None,)
    rows = (("alpha_c1", Case.CASE1, intervals[Case.CASE1][1]),
            ("alpha_r1", Case.CASE2,
             _best_double(derived, intervals[Case.CASE2], r2[0])),
            ("alpha_r2", Case.CASE2, r2[1]),
            ("alpha_r3", Case.CASE3,
             _best_double(derived, intervals[Case.CASE3], r3[0])),
            ("alpha_r4", Case.CASE3, r3[1]),
            ("alpha_c2", Case.CASE4, intervals[Case.CASE4][0]))
    candidates = []
    for name, case, alpha in rows:
        lo, hi = intervals[case]
        feasible = alpha is not None and 0.0 < alpha < 1.0 and (
            lo < hi if case in (Case.CASE1, Case.CASE4) else lo < alpha < hi)
        candidates.append(Candidate(
            name, case, alpha, feasible,
            analytic.pop_value(alpha, derived) if feasible else None))
    return tuple(candidates)


def optimize(config: SystemConfig) -> tuple[float, float,
                                             tuple[Candidate, ...]]:
    """Globally optimal split, its POP, and the candidate set it came from.

    Ties between equal-POP candidates break toward the smallest alpha so the
    result is deterministic and independent of evaluation order.
    """
    derived = DerivedParams.from_config(config)
    candidates = candidate_set(derived)
    feasible = [c for c in candidates if c.feasible]
    product = derived.pi1 * derived.pi2
    # no split escapes outage once pi1 * pi2 >= 1, whatever rounding leaves
    if product >= 1.0 or not feasible:
        bp = derived.breakpoints
        detail = (f"alpha4={bp.alpha4:.6g} >= alpha3={bp.alpha3:.6g} "
                  f"(pi1*pi2 = {product:.6g} >= 1)" if product >= 1.0 else
                  f"all case intervals empty at breakpoints {bp}")
        raise NoFeasibleAllocationError(
            f"every split in (0, 1) gives certain outage: {detail}")
    best = min(feasible, key=lambda c: (c.pop, c.alpha))
    return best.alpha, best.pop, candidates


def grid_oracle(config: SystemConfig) -> tuple[float, float]:
    """Exhaustive POP minimization over the multiples of GRID_STEP in (0, 1).

    Independent check of the closed-form search, run by ``optimize --check``
    and the tests; ``optimize`` itself never uses it. Ties break toward the
    smallest alpha.
    """
    derived = DerivedParams.from_config(config)
    ks = np.arange(1, math.ceil(1.0 / GRID_STEP))
    alphas = ks * GRID_STEP
    alphas = alphas[alphas < 1.0]
    values, _ = pop_curve(alphas, derived)
    idx = int(np.argmin(values))  # first minimum = smallest alpha
    return float(alphas[idx]), float(values[idx])


def grid_min_near(config: SystemConfig, alpha: float,
                  grid_pop: float) -> bool:
    """Whether a ``grid_oracle`` grid point within one step of ``alpha``
    attains the grid minimum ``grid_pop``. Unlike the oracle's argmin, which
    breaks ties toward 0, this holds where POP is flat (saturated at 1)."""
    k = round(alpha / GRID_STEP)
    alphas = np.arange(max(k - 1, 1), k + 2) * GRID_STEP
    alphas = alphas[(np.abs(alphas - alpha) <= GRID_STEP) & (alphas < 1.0)]
    values, _ = pop_curve(alphas, DerivedParams.from_config(config))
    return bool(np.any(values == grid_pop))
