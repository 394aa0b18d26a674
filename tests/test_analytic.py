"""Tests for the piecewise POP: classification, value, and derivative."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from noma_pop import (
    Case,
    DerivedParams,
    NotDifferentiableError,
    classify_case,
    dpop_dalpha,
    reference_config,
    pop,
    pop_curve,
    pop_value,
)
from noma_pop.analytic import case_intervals

from conftest import draw_config, fd_reference, pop_reference


def literal_case(alpha: float, d: DerivedParams) -> Case:
    """Transcription of the published branch-condition table, verbatim.

    Independent of the library's interval-intersection logic; strict
    inequalities exactly as printed, so exact breakpoint hits fall through
    to the certain-outage default here.
    """
    a1, a2, a3, a4, a5, a6 = d.breakpoints
    a = alpha
    if (a4 < a < a5 and a5 < a2) or (a4 < a < a2 and a5 > a2):
        return Case.CASE1
    if ((a5 < a < a6 and a5 > a1 and a6 < a2)
            or (a1 < a < a2 and a5 < a1 and a6 > a2)
            or (a1 < a < a6 and a5 < a1 and a6 < a2)
            or (a5 < a < a2 and a5 > a1 and a6 > a2)):
        return Case.CASE2
    if ((a4 < a < a5 and a4 > a2 and a5 < a3)
            or (a2 < a < a3 and a4 < a2 and a5 > a3)
            or (a2 < a < a5 and a4 < a2 and a5 < a3)
            or (a4 < a < a3 and a4 > a2 and a5 > a3)):
        return Case.CASE3
    if (a2 < a < a3 and a5 < a2) or (a5 < a < a3 and a5 > a2):
        return Case.CASE4
    return Case.CASE5


class TestClassify:
    def test_reference_points(self, ref_derived):
        assert classify_case(0.5, ref_derived).label is Case.CASE3
        assert classify_case(0.01, ref_derived).label is Case.CASE5
        assert classify_case(0.2, ref_derived).label is Case.CASE1

    def test_rejects_boundary_alpha(self, ref_derived):
        with pytest.raises(ValueError):
            classify_case(0.0, ref_derived)
        with pytest.raises(ValueError):
            classify_case(1.0, ref_derived)

    def test_matches_literal_condition_table(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            cfg = draw_config(rng)
            d = DerivedParams.from_config(cfg)
            for alpha in rng.uniform(0.001, 0.999, size=40):
                got = classify_case(float(alpha), d).label
                want = literal_case(float(alpha), d)
                assert got is want, (cfg, alpha)

    def test_unique_assignment(self, ref_derived):
        intervals = case_intervals(ref_derived)
        for alpha in np.linspace(0.001, 0.999, 997):
            hits = [c for c, (lo, hi) in intervals.items()
                    if lo < hi and lo <= alpha < hi]
            assert len(hits) <= 1

    def test_breakpoint_takes_right_hand_case(self, ref_derived):
        bp = ref_derived.breakpoints
        # alpha2 is the case-1/case-3 boundary at the reference parameters
        assert classify_case(bp.alpha2, ref_derived).label is Case.CASE3
        assert classify_case(bp.alpha5, ref_derived).label is Case.CASE4

    def test_case2_empty_at_reference(self, ref_derived):
        lo, hi = case_intervals(ref_derived)[Case.CASE2]
        assert not lo < hi


class TestPop:
    def test_case5_is_one(self, ref_derived):
        assert pop_value(0.01, ref_derived) == 1.0
        assert pop_value(0.99, ref_derived) == 1.0

    def test_reference_value(self, ref_derived):
        got = pop(0.5, ref_derived)
        assert got.case is Case.CASE3
        # frozen against the high-precision oracle
        assert got.value == pytest.approx(0.15968397662611256, rel=1e-13)
        # and equal to the explicit factor product at this case
        from noma_pop import zetas
        z = zetas(0.5, ref_derived)
        expect = 1.0 - (math.exp(-z.zeta2 / ref_derived.lambda1)
                        * math.exp(-z.zeta3 / ref_derived.lambda2))
        assert got.value == pytest.approx(expect, rel=1e-13)

    def test_high_snr_limit(self):
        cfg = dataclasses.replace(reference_config(), rho_t_db=150.0,
                                  pt_dbm=None, noise_dbm=None)
        d = DerivedParams.from_config(cfg)
        assert pop_value(0.5, d) < 1e-8

    def test_range_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            d = DerivedParams.from_config(draw_config(rng))
            vals, _ = pop_curve(rng.uniform(0.001, 0.999, size=50), d)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = DerivedParams.from_config(draw_config(rng))
            for alpha in rng.uniform(0.01, 0.99, size=10):
                want = float(pop_reference(float(alpha), d))
                assert pop_value(float(alpha), d) == pytest.approx(
                    want, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("rho_t_db", [80.0, 100.0, 120.0])
    def test_relative_accuracy_at_high_snr(self, rho_t_db):
        # POP is tiny here; 1 - exp(-x) would lose digits to cancellation
        rng = np.random.default_rng(30)
        for _ in range(20):
            d = DerivedParams.from_config(draw_config(rng, rho_t_db=rho_t_db))
            bp = d.breakpoints
            for alpha in rng.uniform(bp.alpha4, bp.alpha3, size=10):
                want = pop_reference(float(alpha), d)
                got = pop_value(float(alpha), d)
                assert abs(got - want) <= 1e-13 * want, (d, alpha)

    def test_rejects_invalid_alpha(self, ref_derived):
        with pytest.raises(ValueError):
            pop_value(0.0, ref_derived)
        with pytest.raises(ValueError):
            pop_value(1.5, ref_derived)

    def test_curve_matches_scalar(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            d = DerivedParams.from_config(draw_config(rng))
            alphas = rng.uniform(0.001, 0.999, size=200)
            vals, cases = pop_curve(alphas, d)
            for a, v, c in zip(alphas, vals, cases):
                ref = pop(float(a), d)
                assert v == ref.value
                assert c == int(ref.case)


class TestMonotonicity:
    def test_nonincreasing_in_snr(self):
        base = reference_config()
        rng = np.random.default_rng(25)
        for _ in range(100):
            alpha = float(rng.uniform(0.05, 0.95))
            lo_db, hi_db = sorted(rng.uniform(30.0, 90.0, size=2))
            d_lo = DerivedParams.from_config(dataclasses.replace(
                base, rho_t_db=lo_db, pt_dbm=None, noise_dbm=None))
            d_hi = DerivedParams.from_config(dataclasses.replace(
                base, rho_t_db=hi_db, pt_dbm=None, noise_dbm=None))
            assert pop_value(alpha, d_hi) <= pop_value(alpha, d_lo) + 1e-12

    def test_nondecreasing_in_thresholds(self):
        base = reference_config()
        rng = np.random.default_rng(26)
        for _ in range(100):
            alpha = float(rng.uniform(0.05, 0.95))
            r_lo, r_hi = sorted(rng.uniform(0.02, 0.8, size=2))
            for field in ("r1_th", "r2_th"):
                d_lo = DerivedParams.from_config(
                    dataclasses.replace(base, **{field: r_lo}))
                d_hi = DerivedParams.from_config(
                    dataclasses.replace(base, **{field: r_hi}))
                assert pop_value(alpha, d_hi) >= pop_value(alpha, d_lo) - 1e-12

    def test_perfect_sic_dominates(self):
        base = reference_config()
        rng = np.random.default_rng(27)
        for _ in range(100):
            alpha = float(rng.uniform(0.05, 0.95))
            beta = float(rng.uniform(0.05, 1.0))
            d0 = DerivedParams.from_config(
                dataclasses.replace(base, beta=0.0))
            db = DerivedParams.from_config(
                dataclasses.replace(base, beta=beta))
            p0, pb = pop_value(alpha, d0), pop_value(alpha, db)
            if p0 < 1.0 and pb < 1.0:  # both non-Case5
                assert p0 <= pb + 1e-12


class TestContinuityAndEdges:
    def test_continuity_at_interior_breakpoints(self):
        rng = np.random.default_rng(28)
        eps = 1e-8
        checked = 0
        for _ in range(20):
            d = DerivedParams.from_config(draw_config(rng))
            bp = d.breakpoints
            for b in (bp.alpha2, bp.alpha5):
                if not eps < b < 1 - eps:
                    continue
                left = classify_case(b - eps, d).label
                right = classify_case(b + eps, d).label
                if Case.CASE5 in (left, right) or left == right:
                    continue
                jump = abs(pop_value(b - eps, d) - pop_value(b + eps, d))
                assert jump <= 1e-6
                checked += 1
        assert checked >= 10

    def test_tiny_split_overflows_quietly(self):
        # zeta1 = pi1 / (alpha * rho) is finite, but zeta1 / lambda1 is not
        cfg = dataclasses.replace(reference_config(), beta=0.0,
                                  rho_t_db=-60.0, pt_dbm=None, noise_dbm=None)
        assert pop_value(1e-300, DerivedParams.from_config(cfg)) == 1.0

    def test_blows_up_at_feasible_edges(self, ref_derived):
        bp = ref_derived.breakpoints
        # just inside the outage-certain region boundaries the binding
        # threshold diverges and POP saturates at 1
        assert pop_value(bp.alpha4 + 1e-9, ref_derived) > 1 - 1e-9
        assert pop_value(bp.alpha3 - 1e-9, ref_derived) > 1 - 1e-9


class TestDerivative:
    def test_case1_negative(self, ref_derived):
        assert dpop_dalpha(0.2, ref_derived) < 0.0

    def test_case4_positive(self, ref_derived):
        assert dpop_dalpha(0.6, ref_derived) > 0.0

    def test_case3_matches_finite_difference(self, ref_derived):
        closed = dpop_dalpha(0.5, ref_derived)
        fd = float(fd_reference(0.5, ref_derived))
        assert closed == pytest.approx(fd, rel=1e-6)

    def test_random_points_match_finite_difference(self):
        rng = np.random.default_rng(29)
        tested = 0
        while tested < 60:
            d = DerivedParams.from_config(draw_config(rng))
            intervals = [iv for iv in case_intervals(d).values()
                         if iv[0] < iv[1]]
            lo, hi = intervals[rng.integers(len(intervals))]
            a = float(rng.uniform(lo + 0.02 * (hi - lo),
                                  hi - 0.02 * (hi - lo)))
            closed = dpop_dalpha(a, d)
            fd = fd_reference(a, d)
            err = abs(mp.mpf(closed) - fd)
            assert err <= 1e-10 or float(err / abs(fd)) <= 1e-6
            tested += 1

    def test_case5_not_differentiable(self, ref_derived):
        with pytest.raises(NotDifferentiableError):
            dpop_dalpha(0.01, ref_derived)

    def test_breakpoint_not_differentiable(self, ref_derived):
        with pytest.raises(NotDifferentiableError):
            dpop_dalpha(ref_derived.breakpoints.alpha2, ref_derived)
