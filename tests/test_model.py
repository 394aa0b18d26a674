"""Unit tests for the physical-layer model primitives."""

import dataclasses
import math

import numpy as np
import pytest

from noma_pop import (
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


class TestConversions:
    def test_db_identity(self):
        assert db_to_linear(0.0) == 1.0

    def test_db_60(self):
        assert db_to_linear(60.0) == pytest.approx(1e6, rel=1e-12)

    def test_db_10(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)

    def test_mean_gain_near_user(self):
        assert mean_gain(50.0, 1.0, 3.0) == pytest.approx(8e-6, rel=1e-12)

    def test_mean_gain_far_user(self):
        assert mean_gain(100.0, 1.0, 3.0) == pytest.approx(1e-6, rel=1e-12)

    def test_mean_gain_unit_distance(self):
        assert mean_gain(1.0, 1.0, 3.0) == 1.0

    def test_mean_gain_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            mean_gain(0.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            mean_gain(-5.0, 1.0, 3.0)
        for lp in (0.0, -1.0):
            with pytest.raises(ValueError,
                               match="path loss constant must be positive"):
                mean_gain(50.0, lp, 3.0)

    def test_sinr_threshold(self):
        assert sinr_threshold(1.0) == 1.0
        assert sinr_threshold(0.0) == 0.0
        # direct evaluation of 2**0.1 - 1
        assert sinr_threshold(0.1) == pytest.approx(0.0717734625362931,
                                                    rel=1e-12)


class TestSinrs:
    def test_zero_gains(self):
        s = sinrs(0.5, 0.0, 0.0, 0.2, 1e6)
        assert s == (0.0, 0.0, 0.0, 0.0)

    def test_full_power_perfect_sic(self):
        s = sinrs(1.0, 1.0, 1.0, 0.0, 1e6)
        assert s.gamma21 == 0.0
        assert s.gamma11 == pytest.approx(1e6, rel=1e-12)
        assert s.gamma22 == 0.0
        assert s.gamma12 == pytest.approx(1e6, rel=1e-12)

    def test_reference_point(self):
        # independent re-derivation of each ratio at the reference gains
        alpha, g1, g2, beta, rho = 0.5, 8e-6, 1e-6, 0.2, 1e6
        s = sinrs(alpha, g1, g2, beta, rho)
        assert s.gamma21 == pytest.approx(
            (1 - alpha) * g1 / (alpha * g1 + 1 / rho), rel=1e-14)
        assert s.gamma21 == pytest.approx(0.8, rel=1e-12)
        assert s.gamma12 == pytest.approx(1 / 3, rel=1e-12)
        assert s.gamma11 == pytest.approx(4 / 1.8, rel=1e-12)
        assert s.gamma22 == pytest.approx(0.5 / 1.1, rel=1e-12)
        assert all(v > 0 for v in s)

    def test_vectorized(self):
        g1 = np.array([0.0, 8e-6, 1e-5])
        g2 = np.array([0.0, 1e-6, 2e-6])
        s = sinrs(0.5, g1, g2, 0.2, 1e6)
        assert s.gamma11.shape == (3,)
        scalar = sinrs(0.5, 8e-6, 1e-6, 0.2, 1e6)
        assert s.gamma11[1] == scalar.gamma11

    def test_nonincreasing_in_beta(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            alpha = rng.uniform(0.01, 0.99)
            g1, g2 = rng.exponential(8e-6), rng.exponential(1e-6)
            b_lo, b_hi = sorted(rng.uniform(0.0, 1.0, size=2))
            lo = sinrs(alpha, g1, g2, b_hi, 1e6)
            hi = sinrs(alpha, g1, g2, b_lo, 1e6)
            for a, b in zip(lo, hi):
                assert a <= b + 1e-15

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a_lo, a_hi = sorted(rng.uniform(0.0, 1.0, size=2))
            g1, g2 = rng.exponential(8e-6), rng.exponential(1e-6)
            beta = rng.uniform(0.0, 1.0)
            s_lo = sinrs(a_lo, g1, g2, beta, 1e6)
            s_hi = sinrs(a_hi, g1, g2, beta, 1e6)
            assert s_hi.gamma11 >= s_lo.gamma11 - 1e-15
            assert s_hi.gamma22 <= s_lo.gamma22 + 1e-15


class TestZetas:
    def test_perfect_sic_simplifies_zeta1(self, ref_config):
        import dataclasses
        d = DerivedParams.from_config(
            dataclasses.replace(reference_config(), beta=0.0))
        for alpha in (0.1, 0.4, 0.8):
            z = zetas(alpha, d)
            assert z.zeta1 == pytest.approx(d.pi1 / (alpha * d.rho_t),
                                            rel=1e-12)
            assert z.zeta4 == pytest.approx(
                d.pi2 / ((1 - alpha) * d.rho_t), rel=1e-12)

    def test_boundary_alpha3_infeasible(self):
        # r2_th = 1 puts alpha3 at exactly 0.5, where zeta2's denominator
        # vanishes in floating point as well
        cfg = SystemConfig(d1=50.0, d2=100.0, path_loss_constant=1.0,
                           path_loss_exponent=3.0, rho_t_db=60.0, beta=0.2,
                           r1_th=0.1, r2_th=1.0)
        d = DerivedParams.from_config(cfg)
        assert d.breakpoints.alpha3 == 0.5
        z = zetas(0.5, d)
        assert math.isinf(z.zeta2)
        assert tuple(map(math.isfinite, z)) == (True, False, True, True)

    def test_reference_point_finite_positive(self, ref_derived):
        z = zetas(0.5, ref_derived)
        assert tuple(map(math.isfinite, z)) == (True, True, True, True)
        # direct evaluation of the four definitions
        pi, rho = ref_derived.pi1, ref_derived.rho_t
        assert z.zeta1 == pytest.approx(pi / ((0.5 - 0.2 * 0.5 * pi) * rho),
                                        rel=1e-14)
        assert z.zeta2 == pytest.approx(pi / ((0.5 - 0.5 * pi) * rho),
                                        rel=1e-14)
        assert z.zeta3 == z.zeta2
        assert z.zeta4 == z.zeta1

    def test_monotone_in_alpha(self, ref_derived):
        grid = np.linspace(0.08, 0.92, 41)
        prev = None
        for alpha in grid:
            z = zetas(float(alpha), ref_derived)
            if prev is not None:
                if math.isfinite(prev.zeta1) and math.isfinite(z.zeta1):
                    assert z.zeta1 <= prev.zeta1
                if math.isfinite(prev.zeta3) and math.isfinite(z.zeta3):
                    assert z.zeta3 <= prev.zeta3
                if math.isfinite(prev.zeta2) and math.isfinite(z.zeta2):
                    assert z.zeta2 >= prev.zeta2
                if math.isfinite(prev.zeta4) and math.isfinite(z.zeta4):
                    assert z.zeta4 >= prev.zeta4
            prev = z

    def test_fully_imperfect_sic_collapses(self):
        cfg = SystemConfig(d1=50.0, d2=100.0, path_loss_constant=1.0,
                           path_loss_exponent=3.0, rho_t_db=60.0, beta=1.0,
                           r1_th=0.1, r2_th=0.1)
        d = DerivedParams.from_config(cfg)
        z = zetas(0.5, d)
        assert z.zeta1 == z.zeta3
        assert z.zeta2 == z.zeta4

    def test_rejects_alpha_outside_open_interval(self, ref_derived):
        with pytest.raises(ValueError):
            zetas(0.0, ref_derived)
        with pytest.raises(ValueError):
            zetas(1.0, ref_derived)
        with pytest.raises(ValueError):
            zetas(np.array([0.5, 1.0]), ref_derived)
        with pytest.raises(ValueError):
            zetas(np.array([0.5, np.nan]), ref_derived)

    def test_array_matches_floats(self, ref_derived):
        # includes splits where a threshold is infeasible (+inf)
        grid = np.linspace(0.01, 0.99, 99)
        z = zetas(grid, ref_derived)
        for i, alpha in enumerate(grid):
            assert tuple(f[i] for f in z) == zetas(float(alpha), ref_derived)
        assert np.isinf(z.zeta3[0]) and np.isinf(z.zeta2[-1])


class TestBreakpoints:
    # frozen from a 50-digit evaluation of the closed forms at the
    # reference thresholds (r1 = r2 = 0.1, beta = 0.2)
    REFERENCE = Breakpoints(
        alpha1=0.014151551339282548,
        alpha2=0.48623795717194666,
        alpha3=0.93303299153680742,
        alpha4=0.066967008463192584,
        alpha5=0.51376204282805334,
        alpha6=0.98584844866071745,
    )

    def test_reference_values(self, ref_derived):
        for got, want in zip(ref_derived.breakpoints, self.REFERENCE):
            assert got == pytest.approx(want, abs=1e-15)
        bp = ref_derived.breakpoints
        assert bp.alpha4 > bp.alpha1
        assert bp.alpha6 > bp.alpha3

    def test_perfect_sic_collapses_ri_breakpoints(self):
        bp = breakpoints(0.3, 0.2, 0.0)
        assert bp.alpha1 == 0.0
        assert bp.alpha6 == 1.0

    def test_equal_thresholds_symmetric_forms(self):
        # with pi1 == pi2 == p the crossovers reduce to
        # alpha2 = (1+b*p)/(2+b*p+p) and alpha5 = (1+p)/(2+p+b*p)
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.uniform(0.02, 1.5)
            b = rng.uniform(0.0, 1.0)
            bp = breakpoints(p, p, b)
            assert bp.alpha2 == pytest.approx(
                (1 + b * p) / (2 + b * p + p), rel=1e-12)
            assert bp.alpha5 == pytest.approx(
                (1 + p) / (2 + p + b * p), rel=1e-12)
            assert bp.alpha5 >= bp.alpha2

    def test_ordering_properties_random(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            pi1 = rng.uniform(1e-3, 3.0)
            pi2 = rng.uniform(1e-3, 3.0)
            beta = rng.uniform(0.0, 0.999999)
            bp = breakpoints(pi1, pi2, beta)
            assert bp.alpha4 > bp.alpha1
            assert bp.alpha6 > bp.alpha3
            if pi1 * pi2 < 1.0:  # nonempty feasible region
                assert bp.alpha1 < bp.alpha2 < bp.alpha3
                assert bp.alpha4 < bp.alpha5 < bp.alpha6

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            breakpoints(0.0, 0.1, 0.2)

    def test_derived_params_work_out_their_breakpoints(self, ref_derived):
        d = ref_derived
        assert DerivedParams(d.lambda1, d.lambda2, d.rho_t, d.pi1, d.pi2,
                             d.beta) == d
        moved = dataclasses.replace(d, beta=2.0)
        assert moved.breakpoints == breakpoints(d.pi1, d.pi2, 2.0)
        assert moved.breakpoints != d.breakpoints


class TestSystemConfig:
    def test_reference_defaults(self, ref_derived):
        assert ref_derived.rho_t == pytest.approx(1e6, rel=1e-12)
        assert ref_derived.lambda1 == pytest.approx(8e-6, rel=1e-12)
        assert ref_derived.lambda2 == pytest.approx(1e-6, rel=1e-12)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            SystemConfig(d1=50, d2=100, path_loss_constant=1,
                         path_loss_exponent=3, rho_t_db=60, beta=1.5,
                         r1_th=0.1, r2_th=0.1)

    def test_near_user_must_be_closer(self):
        with pytest.raises(ValueError):
            SystemConfig(d1=120, d2=100, path_loss_constant=1,
                         path_loss_exponent=3, rho_t_db=60, beta=0.2,
                         r1_th=0.1, r2_th=0.1)

    def test_equal_distances_allowed(self):
        cfg = SystemConfig(d1=100, d2=100, path_loss_constant=1,
                           path_loss_exponent=3, rho_t_db=60, beta=0.2,
                           r1_th=0.1, r2_th=0.1)
        derived = DerivedParams.from_config(cfg)
        assert derived.lambda1 == derived.lambda2

    def test_path_loss_exponent_positive(self):
        with pytest.raises(ValueError,
                           match="path_loss_exponent must be positive"):
            dataclasses.replace(reference_config(), path_loss_exponent=0.0)

    def test_threshold_rates_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(d1=50, d2=100, path_loss_constant=1,
                         path_loss_exponent=3, rho_t_db=60, beta=0.2,
                         r1_th=0.0, r2_th=0.1)

    def test_snr_consistency_check(self):
        with pytest.raises(ValueError):
            SystemConfig(d1=50, d2=100, path_loss_constant=1,
                         path_loss_exponent=3, rho_t_db=60, beta=0.2,
                         r1_th=0.1, r2_th=0.1, pt_dbm=-30.0, noise_dbm=-80.0)
        # consistent pair accepted, within RHO_CONSISTENCY_TOL_DB (1e-9 dB)
        for rho_t_db in (60, 60 + 5e-10):
            SystemConfig(d1=50, d2=100, path_loss_constant=1,
                         path_loss_exponent=3, rho_t_db=rho_t_db, beta=0.2,
                         r1_th=0.1, r2_th=0.1, pt_dbm=-30.0, noise_dbm=-90.0)
        with pytest.raises(ValueError, match="inconsistent"):
            SystemConfig(d1=50, d2=100, path_loss_constant=1,
                         path_loss_exponent=3, rho_t_db=60 + 2e-9, beta=0.2,
                         r1_th=0.1, r2_th=0.1, pt_dbm=-30.0, noise_dbm=-90.0)

    @pytest.mark.parametrize("field", [
        "d1", "d2", "path_loss_constant", "path_loss_exponent", "rho_t_db",
        "beta", "r1_th", "r2_th", "pt_dbm", "noise_dbm"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = dict(d1=50, d2=100, path_loss_constant=1,
                      path_loss_exponent=3, rho_t_db=60, beta=0.2,
                      r1_th=0.1, r2_th=0.1, pt_dbm=-30.0, noise_dbm=-90.0)
        values[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemConfig(**values)

    @pytest.mark.parametrize("field, value, message", [
        ("rho_t_db", 3083.0, "overflows a float"),
        ("r1_th", 2000.0, "overflows a float"),
        ("rho_t_db", 600.0, "rho_t=1e\\+60 must lie in"),
        ("path_loss_constant", 1e-320, "lambda1=.* must lie in"),
        ("r2_th", 200.0, "pi2=.* must lie in"),
        # 2**1e-300 - 1 rounds to 0: the breakpoints' check comes first
        ("r1_th", 1e-300, "SINR thresholds must be positive"),
    ])
    def test_derived_scale_out_of_range(self, field, value, message):
        config = dataclasses.replace(reference_config(), pt_dbm=None,
                                     noise_dbm=None, **{field: value})
        with pytest.raises(ValueError, match=message):
            DerivedParams.from_config(config)

    def test_derived_params_keep_the_near_user_stronger(self, ref_derived):
        with pytest.raises(ValueError,
                           match="near user must have the larger mean gain"):
            dataclasses.replace(ref_derived, lambda1=ref_derived.lambda2,
                                lambda2=ref_derived.lambda1)

    def test_derived_params(self, ref_config, ref_derived):
        assert ref_derived.pi1 == sinr_threshold(ref_config.r1_th)
        assert ref_derived.lambda1 >= ref_derived.lambda2
        assert ref_derived.rho_t == db_to_linear(ref_config.rho_t_db)
