"""Tests for the piecewise POP: classification, value, and derivative."""

import dataclasses
import math

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
    zetas,
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
        assert classify_case(0.5, ref_derived) is Case.CASE3
        assert classify_case(0.01, ref_derived) is Case.CASE5
        assert classify_case(0.2, ref_derived) is Case.CASE1

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
                got = classify_case(float(alpha), d)
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
        assert classify_case(bp.alpha2, ref_derived) is Case.CASE3
        assert classify_case(bp.alpha5, ref_derived) is Case.CASE4

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


class TestContinuityAndEdges:
    def test_tiny_split_overflows_quietly(self):
        # zeta1 = pi1 / (alpha * rho) is finite, but zeta1 / lambda1 is not
        cfg = dataclasses.replace(reference_config(), beta=0.0,
                                  rho_t_db=-60.0, pt_dbm=None, noise_dbm=None)
        assert pop_value(1e-300, DerivedParams.from_config(cfg)) == 1.0

    def test_tiny_split_curve_matches_scalar_quietly(self):
        # on arrays, both pi1 / (alpha * rho) and zeta1 / lambda1 overflow to
        # the inf the float path gives; under -W error a warning would raise
        cfg = dataclasses.replace(reference_config(), beta=0.0,
                                  rho_t_db=-60.0, pt_dbm=None, noise_dbm=None)
        d = DerivedParams.from_config(cfg)
        splits = [5e-324, 1e-317, 1e-310, 1e-303, 1e-300, 1e-290, 0.5]
        values, _ = pop_curve(np.array(splits), d)
        assert values.tolist() == [pop_value(a, d) for a in splits]
        z = zetas(np.array(splits), d)
        assert z.zeta1.tolist() == [zetas(a, d).zeta1 for a in splits]

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

    def test_case5_not_differentiable(self, ref_derived):
        with pytest.raises(NotDifferentiableError):
            dpop_dalpha(0.01, ref_derived)

    def test_breakpoint_not_differentiable(self, ref_derived):
        with pytest.raises(NotDifferentiableError):
            dpop_dalpha(ref_derived.breakpoints.alpha2, ref_derived)
