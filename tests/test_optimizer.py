"""Tests for the closed-form POP minimizer and its grid oracle."""

import dataclasses

import numpy as np
import pytest

from noma_pop import (
    Case,
    DerivedParams,
    NoFeasibleAllocationError,
    SystemConfig,
    breakpoints,
    candidate_set,
    grid_oracle,
    optimize,
    reference_config,
    pop_value,
    stationary_roots,
)
from noma_pop.analytic import case_intervals, pop_curve
from noma_pop.optimizer import GRID_STEP, grid_min_near

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


def corners(d: DerivedParams) -> tuple[float, float]:
    """The alphas of the two corner candidates, alpha_c1 and alpha_c2."""
    cands = candidate_set(d)
    assert (cands[0].name, cands[-1].name) == ("alpha_c1", "alpha_c2")
    return cands[0].alpha, cands[-1].alpha


class TestCorners:
    def test_reference_assignment(self, ref_derived):
        c1, c2 = corners(ref_derived)
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
        c1, c2 = corners(d)
        assert c1 == pytest.approx(c2, abs=1e-15)

    def test_crossover_order_identity(self):
        # alpha5 - alpha2 = pi1*pi2*(1-beta) / (beta*pi1*pi2+pi1*pi2+pi1+pi2)
        # is nonnegative for beta <= 1, so alpha5 < alpha2 is unreachable
        rng = np.random.default_rng(31)
        for _ in range(500):
            pi1 = rng.uniform(1e-3, 3.0)
            pi2 = rng.uniform(1e-3, 3.0)
            beta = rng.uniform(0.0, 1.0)
            bp = breakpoints(pi1, pi2, beta)
            identity = (pi1 * pi2 * (1 - beta)
                        / (beta * pi1 * pi2 + pi1 * pi2 + pi1 + pi2))
            assert bp.alpha5 - bp.alpha2 == pytest.approx(identity, abs=1e-12)
            assert bp.alpha5 >= bp.alpha2 - 1e-15


class TestQuadratics:
    def test_reference_case3_roots(self, ref_derived):
        # both roots sit outside the active case-3 interval at the reference
        # parameters (frozen from bisection of the sign term)
        roots = stationary_roots(ref_derived, Case.CASE3)
        assert len(roots) == 2
        assert sorted(roots) == pytest.approx(
            [0.7068132007836971, 1.4067002060252363], rel=1e-12)
        lo, hi = case_intervals(ref_derived)[Case.CASE3]
        assert all(not lo < r < hi for r in roots)

    def test_reference_case2_roots(self, ref_derived):
        roots = stationary_roots(ref_derived, Case.CASE2)
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
            in_domain = [r for r in stationary_roots(d, Case.CASE2)
                         if lo < r < hi]
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
            in_domain = [r for r in stationary_roots(d, Case.CASE3)
                         if lo < r < hi]
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
            for r in stationary_roots(d, Case.CASE2):
                lhs = d.pi2 * s2 / (d.lambda2 * d.rho_t * (1 - r * s2) ** 2)
                rhs = d.pi1 * s1 / (d.lambda1 * d.rho_t
                                    * (r * s1 - d.beta * d.pi1) ** 2)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
            t1 = d.pi1 + 1.0
            t2 = d.pi2 + 1.0
            for r in stationary_roots(d, Case.CASE3):
                lhs = d.pi2 * t2 / (d.lambda1 * d.rho_t * (1 - r * t2) ** 2)
                rhs = d.pi1 * t1 / (d.lambda2 * d.rho_t
                                    * (r * t1 - d.pi1) ** 2)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_degenerate_linear_symmetric(self):
        # equal distances and equal thresholds zero alpha_minus's
        # denominator, so each case has a single stationary point: the
        # midpoint split
        cfg = SystemConfig(d1=100.0, d2=100.0, path_loss_constant=1.0,
                           path_loss_exponent=3.0, rho_t_db=60.0, beta=0.2,
                           r1_th=0.1, r2_th=0.1)
        d = DerivedParams.from_config(cfg)
        (r2,) = stationary_roots(d, Case.CASE2)
        (r3,) = stationary_roots(d, Case.CASE3)
        assert r2 == pytest.approx(0.5, rel=1e-14)
        assert r3 == pytest.approx(0.5, rel=1e-14)

    def test_candidate_row_order(self):
        # alpha_r1/alpha_r3 hold alpha_plus, where both thresholds of the
        # piece are finite; alpha_r2/alpha_r4 hold alpha_minus, which never is
        rng = np.random.default_rng(38)
        for _ in range(200):
            d = DerivedParams.from_config(draw_config(rng, beta_max=1.0))
            bp = d.breakpoints
            rows = {c.name: c for c in candidate_set(d)}
            assert bp.alpha1 <= rows["alpha_r1"].alpha <= bp.alpha6
            assert bp.alpha4 <= rows["alpha_r3"].alpha <= bp.alpha3
            for name, lo, hi in (("alpha_r2", bp.alpha1, bp.alpha6),
                                 ("alpha_r4", bp.alpha4, bp.alpha3)):
                alpha = rows[name].alpha
                assert not rows[name].feasible
                assert alpha is None or not lo < alpha < hi


class TestOptimize:
    def test_reference_optimum(self, ref_config, ref_derived):
        alpha_star, pop_star, cands = optimize(ref_config)
        # the optimum is the case-4 corner (crossover alpha5)
        assert alpha_star == ref_derived.breakpoints.alpha5
        assert pop_star == pytest.approx(0.15620725488435605, rel=1e-13)
        by_name = {c.name: c for c in cands}
        assert by_name["alpha_c2"].feasible
        assert not by_name["alpha_r3"].feasible

    def test_matches_grid_oracle_at_reference(self, ref_config):
        alpha_star, pop_star, _ = optimize(ref_config)
        g_alpha, g_pop = grid_oracle(ref_config)
        assert abs(alpha_star - g_alpha) <= 1e-5
        assert pop_star <= g_pop + 1e-10

    def test_candidates_bitwise_snr_invariant(self, ref_config):
        cfg_hi = dataclasses.replace(ref_config, rho_t_db=80.0,
                                     pt_dbm=None, noise_dbm=None)
        c_lo = candidate_set(DerivedParams.from_config(ref_config))
        c_hi = candidate_set(DerivedParams.from_config(cfg_hi))
        assert len(c_lo) == len(c_hi) == 6
        for a, b in zip(c_lo, c_hi):
            assert a.alpha == b.alpha
            assert a.feasible == b.feasible

    def test_benchmark_dominance(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            cfg = draw_config(rng)
            alpha_star, pop_star, _ = optimize(cfg)
            d = DerivedParams.from_config(cfg)
            assert pop_star <= pop_value(0.5, d) + 1e-14
            assert pop_star <= pop_value(0.4, d) + 1e-14

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
            for c in [c for c in candidate_set(d) if c.feasible]:
                assert 0.0 < c.alpha < 1.0
                lo, hi = case_intervals(d)[c.case]
                assert lo - 1e-15 <= c.alpha <= hi + 1e-15


# per config of ``pinned_config``: the candidate rows (name, case,
# repr(alpha), feasible, repr(pop)) and the optimum (repr(alpha_star),
# repr(pop_star)), recorded from the closed-form stationary points
# D_a / D_b = +-r and compared exactly
PINNED = {
    "beta0": ((
        ("alpha_c1", "Case1", "0.48267825516781476", 1, "0.16446036698842423"),
        ("alpha_r1", "Case2", "0.2612038749637415", 0, "None"),
        ("alpha_r2", "Case2", "-0.5469181606780271", 0, "None"),
        ("alpha_r3", "Case3", "0.706813200783697", 0, "None"),
        ("alpha_r4", "Case3", "1.406700206025236", 0, "None"),
        ("alpha_c2", "Case4", "0.5173217448321852", 1, "0.15535142877564673"),
    ), ("0.5173217448321852", "0.15535142877564673")),
    "beta1": ((
        ("alpha_c1", "Case1", "0.5", 1, "0.15968397662611244"),
        ("alpha_r1", "Case2", "0.2931867992163029", 0, "None"),
        ("alpha_r2", "Case2", "-0.4067002060252363", 0, "None"),
        ("alpha_r3", "Case3", "0.706813200783697", 0, "None"),
        ("alpha_r4", "Case3", "1.406700206025236", 0, "None"),
        ("alpha_c2", "Case4", "0.5", 1, "0.15968397662611244"),
    ), ("0.5", "0.15968397662611244")),
    "equal_distances": ((
        ("alpha_c1", "Case1", "0.4862379571719466", 1, "0.03796139263386752"),
        ("alpha_r1", "Case2", "0.5", 0, "None"),
        ("alpha_r2", "Case2", "None", 0, "None"),
        ("alpha_r3", "Case3", "0.5", 1, "0.03792378780539485"),
        ("alpha_r4", "Case3", "None", 0, "None"),
        ("alpha_c2", "Case4", "0.5137620428280533", 1, "0.03796139263386752"),
    ), ("0.5", "0.03792378780539485")),
    "case3_root": ((
        ("alpha_c1", "Case1", "0.565247002416826", 1, "0.148219923896924"),
        ("alpha_r1", "Case2", "0.493552867899106", 0, "None"),
        ("alpha_r2", "Case2", "-14.726636915129637", 0, "None"),
        ("alpha_r3", "Case3", "0.606216103156248", 1, "0.1462561550715672"),
        ("alpha_r4", "Case3", "2.0415336404689683", 0, "None"),
        ("alpha_c2", "Case4", "0.6305460691953734", 1, "0.14700776390445933"),
    ), ("0.606216103156248", "0.1462561550715672")),
    "case2_root": ((
        ("alpha_c1", "Case1", "0.3505168033422431", 1, "0.5612947963815639"),
        ("alpha_r1", "Case2", "0.4058084414459283", 1, "0.4328473679700078"),
        ("alpha_r2", "Case2", "-0.08612595740775109", 0, "None"),
        ("alpha_r3", "Case3", "0.4540641370170767", 0, "None"),
        ("alpha_r4", "Case3", "10.607748374689832", 0, "None"),
        ("alpha_c2", "Case4", "0.4531807981213548", 1, "0.4863447847509911"),
    ), None),
    "no_feasible": ((
        ("alpha_c1", "Case1", "0.37499999999999994", 0, "None"),
        ("alpha_r1", "Case2", "0.34080258330916097", 0, "None"),
        ("alpha_r2", "Case2", "-0.19794544045201815", 0, "None"),
        ("alpha_r3", "Case3", "0.5", 0, "None"),
        ("alpha_r4", "Case3", "0.5", 0, "None"),
        ("alpha_c2", "Case4", "0.625", 0, "None"),
    ), NoFeasibleAllocationError),
}


def pinned_config(key: str) -> SystemConfig:
    return dataclasses.replace(reference_config(), **{
        "beta0": dict(beta=0.0),
        "beta1": dict(beta=1.0),  # alpha2 == alpha5: the corners collapse
        "equal_distances": dict(d2=50.0),  # the linear (degenerate) case
        "case3_root": dict(d2=60.0, r1_th=0.3, r2_th=0.2),
        "case2_root": dict(d2=60.0, r1_th=0.3, r2_th=0.5),
        "no_feasible": dict(r1_th=1.0, r2_th=1.0),  # pi1 * pi2 = 1
    }[key])


def pinned_derived(key: str) -> DerivedParams:
    d = DerivedParams.from_config(pinned_config(key))
    if key != "case2_root":
        return d
    # the case-2 interval is empty for every beta <= 1 (alpha5 >= alpha2), so
    # only a hand-built beta = 2, outside SystemConfig's range, reaches a
    # feasible case-2 root
    return dataclasses.replace(d, beta=2.0)


class TestPinnedCandidates:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_candidate_rows(self, key):
        rows, _ = PINNED[key]
        got = tuple((c.name, c.case.label, repr(c.alpha), int(c.feasible),
                     repr(c.pop)) for c in candidate_set(pinned_derived(key)))
        assert got == rows

    @pytest.mark.parametrize("key", sorted(k for k in PINNED
                                           if k != "case2_root"))
    def test_optimum(self, key):
        _, want = PINNED[key]
        if want is NoFeasibleAllocationError:
            with pytest.raises(NoFeasibleAllocationError):
                optimize(pinned_config(key))
            return
        alpha_star, pop_star, cands = optimize(pinned_config(key))
        assert (repr(alpha_star), repr(pop_star)) == want
        assert cands == candidate_set(pinned_derived(key))


class TestGridOracle:
    def test_all_case5_returns_first_point(self):
        cfg = dataclasses.replace(reference_config(), r1_th=1.0, r2_th=1.0)
        alpha, value = grid_oracle(cfg)
        assert value == 1.0
        assert alpha == pytest.approx(GRID_STEP, rel=1e-12)

    def test_min_near_matches_unique_argmin(self):
        rng = np.random.default_rng(31)
        grid = np.arange(1, 100_000) * 1e-5
        checked = 0
        for _ in range(10):
            cfg = draw_config(rng)
            g_alpha, g_pop = grid_oracle(cfg)
            values, _ = pop_curve(grid, DerivedParams.from_config(cfg))
            if np.count_nonzero(values == g_pop) != 1:
                continue
            checked += 1
            for shift in np.arange(-4, 5) * 0.6e-5:
                alpha = g_alpha + shift
                assert grid_min_near(cfg, alpha, g_pop) \
                    == (abs(alpha - g_alpha) <= 1e-5)
        assert checked >= 5

    def test_min_near_on_saturated_pop(self):
        # POP == 1.0 at every split: the oracle's tie-break takes the first
        # grid point, far from the closed-form optimum
        cfg = dataclasses.replace(reference_config(), d2=178.32,
                                  rho_t_db=38.35, beta=0.453, r1_th=0.127,
                                  r2_th=0.206, pt_dbm=None, noise_dbm=None)
        alpha_star, pop_star, candidates = optimize(cfg)
        g_alpha, g_pop = grid_oracle(cfg)
        assert pop_star == g_pop == 1.0
        assert abs(alpha_star - g_alpha) > 0.3
        assert grid_min_near(cfg, alpha_star, g_pop)
        # alpha_c1 and alpha_c2 tie at POP 1.0: the smaller alpha wins
        assert alpha_star == min(c.alpha for c in candidates
                                 if c.feasible and c.pop == pop_star)
