"""Tests for the closed-form POP minimizer and its grid oracle."""

import dataclasses

import numpy as np
import pytest

from noma_pop import (
    Case,
    DerivedParams,
    NoFeasibleAllocationError,
    SystemConfig,
    candidate_set,
    case2_coefficients,
    case2_roots,
    case3_coefficients,
    case3_roots,
    corner_candidates,
    grid_oracle,
    optimize,
    reference_config,
    pop_value,
)
from noma_pop.analytic import case_intervals, pop_curve
from noma_pop.optimizer import grid_min_near

from conftest import draw_config


def bisect_bracket(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of an increasing function by plain bisection."""
    flo, fhi = f(lo), f(hi)
    assert flo < 0 < fhi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def case2_bracket(d: DerivedParams):
    """Sign term of the case-2 derivative; increasing on its domain."""
    s1 = d.beta * d.pi1 + 1.0
    s2 = d.beta * d.pi2 + 1.0

    def f(a):
        return (d.pi2 * s2 / (d.lambda2 * (1 - a * s2) ** 2)
                - d.pi1 * s1 / (d.lambda1 * (a * s1 - d.beta * d.pi1) ** 2))

    return f, (d.breakpoints.alpha1, d.breakpoints.alpha6)


def case3_bracket(d: DerivedParams):
    """Sign term of the case-3 derivative; increasing on its domain."""
    t1 = d.pi1 + 1.0
    t2 = d.pi2 + 1.0

    def f(a):
        return (d.pi2 * t2 / (d.lambda1 * (1 - a * t2) ** 2)
                - d.pi1 * t1 / (d.lambda2 * (a * t1 - d.pi1) ** 2))

    return f, (d.breakpoints.alpha4, d.breakpoints.alpha3)


class TestCorners:
    def test_reference_assignment(self, ref_derived):
        c1, c2 = corner_candidates(ref_derived)
        bp = ref_derived.breakpoints
        assert bp.alpha5 > bp.alpha2  # the always-true ordering for beta < 1
        assert c1 == bp.alpha2
        assert c2 == bp.alpha5

    def test_degenerate_at_full_ri(self):
        # at beta = 1 the two crossovers coincide and both corners collapse
        cfg = dataclasses.replace(reference_config(), beta=1.0)
        d = DerivedParams.from_config(cfg)
        assert d.breakpoints.alpha2 == pytest.approx(d.breakpoints.alpha5,
                                                     abs=1e-15)
        c1, c2 = corner_candidates(d)
        assert c1 == pytest.approx(c2, abs=1e-15)

    def test_crossover_order_identity(self):
        # alpha5 - alpha2 = pi1*pi2*(1-beta) / (beta*pi1*pi2+pi1*pi2+pi1+pi2)
        # is nonnegative for beta <= 1, so alpha5 < alpha2 is unreachable
        rng = np.random.default_rng(31)
        for _ in range(500):
            pi1 = rng.uniform(1e-3, 3.0)
            pi2 = rng.uniform(1e-3, 3.0)
            beta = rng.uniform(0.0, 1.0)
            from noma_pop import breakpoints
            bp = breakpoints(pi1, pi2, beta)
            identity = (pi1 * pi2 * (1 - beta)
                        / (beta * pi1 * pi2 + pi1 * pi2 + pi1 + pi2))
            assert bp.alpha5 - bp.alpha2 == pytest.approx(identity, abs=1e-12)
            assert bp.alpha5 >= bp.alpha2 - 1e-15


class TestQuadratics:
    def test_reference_case3_roots(self, ref_derived):
        # both roots sit outside the active case-3 interval at the reference
        # parameters (frozen from bisection of the sign term)
        roots = case3_roots(ref_derived)
        assert len(roots) == 2
        assert sorted(roots) == pytest.approx(
            [0.7068132007836971, 1.4067002060252363], rel=1e-12)
        lo, hi = case_intervals(ref_derived)[Case.CASE3]
        assert all(not lo < r < hi for r in roots)

    def test_reference_case2_roots(self, ref_derived):
        roots = case2_roots(ref_derived)
        assert sorted(roots) == pytest.approx(
            [-0.5172871284803026, 0.26796254620988613], rel=1e-12)

    def test_bisection_oracle_case2(self):
        rng = np.random.default_rng(32)
        matched = 0
        for _ in range(40):
            d = DerivedParams.from_config(draw_config(rng))
            f, (lo, hi) = case2_bracket(d)
            a, b = lo + 1e-9, hi - 1e-9
            if not f(a) < 0 < f(b):
                continue
            root = bisect_bracket(f, a, b)
            in_domain = [r for r in case2_roots(d) if lo < r < hi]
            assert len(in_domain) == 1
            assert in_domain[0] == pytest.approx(root, abs=1e-9)
            matched += 1
        assert matched >= 20

    def test_bisection_oracle_case3(self):
        rng = np.random.default_rng(33)
        matched = 0
        for _ in range(40):
            d = DerivedParams.from_config(draw_config(rng))
            f, (lo, hi) = case3_bracket(d)
            a, b = lo + 1e-9, hi - 1e-9
            if not f(a) < 0 < f(b):
                continue
            root = bisect_bracket(f, a, b)
            in_domain = [r for r in case3_roots(d) if lo < r < hi]
            assert len(in_domain) == 1
            assert in_domain[0] == pytest.approx(root, abs=1e-9)
            matched += 1
        assert matched >= 20

    def test_plugback_residuals(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            d = DerivedParams.from_config(draw_config(rng))
            s1 = d.beta * d.pi1 + 1.0
            s2 = d.beta * d.pi2 + 1.0
            for r in case2_roots(d):
                lhs = d.pi2 * s2 / (d.lambda2 * d.rho_t * (1 - r * s2) ** 2)
                rhs = d.pi1 * s1 / (d.lambda1 * d.rho_t
                                    * (r * s1 - d.beta * d.pi1) ** 2)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
            t1 = d.pi1 + 1.0
            t2 = d.pi2 + 1.0
            for r in case3_roots(d):
                lhs = d.pi2 * t2 / (d.lambda1 * d.rho_t * (1 - r * t2) ** 2)
                rhs = d.pi1 * t1 / (d.lambda2 * d.rho_t
                                    * (r * t1 - d.pi1) ** 2)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_degenerate_linear_symmetric(self):
        # equal distances and equal thresholds zero the leading coefficient
        # exactly; the stationary point is the midpoint split
        cfg = SystemConfig(d1=100.0, d2=100.0, path_loss_constant=1.0,
                           path_loss_exponent=3.0, rho_t_db=60.0, beta=0.2,
                           r1_th=0.1, r2_th=0.1)
        d = DerivedParams.from_config(cfg)
        assert case2_coefficients(d).a == 0.0
        assert case3_coefficients(d).a == 0.0
        (r2,) = case2_roots(d)
        (r3,) = case3_roots(d)
        assert r2 == pytest.approx(0.5, rel=1e-14)
        assert r3 == pytest.approx(0.5, rel=1e-14)

    def test_solver_edge_cases(self):
        # the physical quadratics always factor into two real linear forms,
        # so the no-root and double-degenerate branches are contract-only
        from noma_pop.optimizer import QuadraticCoefficients, _solve_quadratic
        assert _solve_quadratic(
            QuadraticCoefficients(1.0, 0.0, 1.0, Case.CASE2)) == ()
        assert _solve_quadratic(
            QuadraticCoefficients(0.0, 2.0, -1.0, Case.CASE2)) == (0.5,)
        assert _solve_quadratic(
            QuadraticCoefficients(0.0, 0.0, 1.0, Case.CASE2)) == ()
        # stable formula reproduces both roots of (x-1)(x-3)
        roots = _solve_quadratic(
            QuadraticCoefficients(1.0, -4.0, 3.0, Case.CASE3))
        assert sorted(roots) == pytest.approx([1.0, 3.0], rel=1e-14)


class TestOptimize:
    def test_reference_optimum(self, ref_config, ref_derived):
        alpha_star, pop_star, cands = optimize(ref_config)
        # the optimum is the case-4 corner (crossover alpha5)
        assert alpha_star == ref_derived.breakpoints.alpha5
        assert pop_star == pytest.approx(0.15620725488435605, rel=1e-13)
        assert cands.alpha_c2.feasible
        assert not cands.alpha_r3.feasible

    def test_matches_grid_oracle_at_reference(self, ref_config):
        alpha_star, pop_star, _ = optimize(ref_config)
        g_alpha, g_pop = grid_oracle(ref_config, step=1e-5)
        assert abs(alpha_star - g_alpha) <= 1e-5
        assert pop_star <= g_pop + 1e-10

    def test_snr_invariant_optimum(self, ref_config):
        stars = []
        for db in (50.0, 60.0, 70.0):
            cfg = dataclasses.replace(ref_config, rho_t_db=db,
                                      pt_dbm=None, noise_dbm=None)
            stars.append(optimize(cfg)[0])
        assert max(stars) - min(stars) <= 1e-9

    def test_candidates_bitwise_snr_invariant(self, ref_config):
        cfg_hi = dataclasses.replace(ref_config, rho_t_db=80.0,
                                     pt_dbm=None, noise_dbm=None)
        c_lo = candidate_set(DerivedParams.from_config(ref_config))
        c_hi = candidate_set(DerivedParams.from_config(cfg_hi))
        for a, b in zip(c_lo.all(), c_hi.all()):
            assert a.alpha == b.alpha
            assert a.exists == b.exists and a.feasible == b.feasible

    def test_benchmark_dominance(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            cfg = draw_config(rng)
            alpha_star, pop_star, _ = optimize(cfg)
            d = DerivedParams.from_config(cfg)
            assert pop_star <= pop_value(0.5, d) + 1e-14
            assert pop_star <= pop_value(0.4, d) + 1e-14

    def test_optimality_against_grid_random(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            cfg = draw_config(rng)
            alpha_star, pop_star, _ = optimize(cfg)
            _, g_pop = grid_oracle(cfg, step=1e-5)
            assert pop_star <= g_pop + 1e-10

    def test_no_feasible_allocation(self):
        # pi1 * pi2 = 1 collapses the feasible region to nothing
        cfg = dataclasses.replace(reference_config(), r1_th=1.0, r2_th=1.0)
        with pytest.raises(NoFeasibleAllocationError) as err:
            optimize(cfg)
        assert "alpha4" in str(err.value)

    def test_every_feasible_candidate_in_unit_interval(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            d = DerivedParams.from_config(draw_config(rng))
            for c in candidate_set(d).feasible():
                assert 0.0 < c.alpha < 1.0
                lo, hi = case_intervals(d)[c.case]
                assert lo - 1e-15 <= c.alpha <= hi + 1e-15


class TestGridOracle:
    def test_step_validation(self, ref_config):
        with pytest.raises(ValueError):
            grid_oracle(ref_config, step=0.0)
        with pytest.raises(ValueError):
            grid_oracle(ref_config, step=0.01)

    def test_all_case5_returns_first_point(self):
        cfg = dataclasses.replace(reference_config(), r1_th=1.0, r2_th=1.0)
        alpha, value = grid_oracle(cfg, step=1e-3)
        assert value == 1.0
        assert alpha == pytest.approx(1e-3, rel=1e-12)

    def test_refinement_never_increases_minimum(self, ref_config):
        _, coarse = grid_oracle(ref_config, step=1e-4)
        _, fine = grid_oracle(ref_config, step=1e-5)
        assert fine <= coarse + 1e-15

    def test_min_near_matches_unique_argmin(self):
        rng = np.random.default_rng(31)
        grid = np.arange(1, 100_000) * 1e-5
        checked = 0
        for _ in range(10):
            cfg = draw_config(rng)
            g_alpha, g_pop = grid_oracle(cfg, step=1e-5)
            values, _ = pop_curve(grid, DerivedParams.from_config(cfg))
            if np.count_nonzero(values == g_pop) != 1:
                continue
            checked += 1
            for shift in np.arange(-4, 5) * 0.6e-5:
                alpha = g_alpha + shift
                assert grid_min_near(cfg, alpha, g_pop, step=1e-5) \
                    == (abs(alpha - g_alpha) <= 1e-5)
        assert checked >= 5

    def test_min_near_on_saturated_pop(self):
        # POP == 1.0 at every split: the oracle's tie-break takes the first
        # grid point, far from the closed-form optimum
        cfg = dataclasses.replace(reference_config(), d2=178.32,
                                  rho_t_db=38.35, beta=0.453, r1_th=0.127,
                                  r2_th=0.206, pt_dbm=None, noise_dbm=None)
        alpha_star, pop_star, _ = optimize(cfg)
        g_alpha, g_pop = grid_oracle(cfg, step=1e-5)
        assert pop_star == g_pop == 1.0
        assert abs(alpha_star - g_alpha) > 0.3
        assert grid_min_near(cfg, alpha_star, g_pop, step=1e-5)
