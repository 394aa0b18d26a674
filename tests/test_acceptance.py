"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import dataclasses

import mpmath as mp
import numpy as np

from noma_pop import (
    DerivedParams,
    McConfig,
    breakpoints,
    dpop_dalpha,
    grid_oracle,
    optimize,
    reference_config,
    pop_value,
    validate,
)
from noma_pop.analytic import Case, case_intervals, classify_case
from noma_pop.harness import Experiment, main, run

from conftest import draw_config, fd_reference

SEED = 20240810


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def test_criterion_1_analytic_vs_mc_grid():
    """5x5 (alpha x SNR) grid, 1e6 trials: >=95% within 3 sigma, none over 4.

    Sigma is the binomial standard error under the analytic value, which
    stays defined where the empirical fraction saturates at exactly 1.
    """
    base = reference_config()
    alphas = [0.2, 0.35, 0.5, 0.65, 0.8]
    zs = []
    for i, snr_db in enumerate([40.0, 50.0, 60.0, 70.0, 80.0]):
        cfg = dataclasses.replace(base, rho_t_db=snr_db,
                                  pt_dbm=None, noise_dbm=None)
        mc = McConfig(trials=1_000_000, seed=SEED + 1000 * i, chunk=250_000)
        zs.extend(abs(r.z) for r in validate(cfg, alphas, mc))
    within3 = sum(z <= 3.0 for z in zs) / len(zs)
    worst = max(zs)
    report(1, "analytic-vs-MC agreement on the 5x5 grid",
           within3 >= 0.95 and worst <= 4.0,
           f"within 3sigma: {within3:.0%}, max |z| = {worst:.2f}")


def test_criterion_2_derivative_matches_finite_differences():
    """100 interior points, 20 draws: closed form vs central differences.

    The finite-difference oracle runs in 60-digit arithmetic so the stated
    tolerances (rel 1e-6, abs 1e-10 near zero, step 1e-7) are meaningful at
    every interior point, including near-saturated stretches where a double
    precision difference quotient would be pure rounding noise.
    """
    rng = np.random.default_rng(SEED)
    checked = 0
    worst_rel = 0.0
    ok = True
    while checked < 100:
        d = DerivedParams.from_config(draw_config(rng))
        intervals = [iv for iv in case_intervals(d).values() if iv[0] < iv[1]]
        lo, hi = intervals[rng.integers(len(intervals))]
        a = float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
        closed = dpop_dalpha(a, d)
        fd = fd_reference(a, d, step="1e-7")
        abs_err = abs(mp.mpf(closed) - fd)
        rel_err = float(abs_err / abs(fd)) if fd != 0 else float("inf")
        if abs_err > 1e-10 and rel_err > 1e-6:
            ok = False
        if rel_err < float("inf"):
            worst_rel = max(worst_rel, rel_err)
        checked += 1
    report(2, "closed-form derivative vs central differences", ok,
           f"{checked} points, worst rel err = {worst_rel:.2e}")


def test_criterion_3_optimizer_matches_grid_oracle():
    """50 random parameter draws: |alpha* - grid argmin| <= 1e-5 and
    pop(alpha*) never above the grid minimum."""
    rng = np.random.default_rng(SEED + 1)
    ok = True
    worst_gap = 0.0
    for _ in range(50):
        cfg = draw_config(rng)
        alpha_star, pop_star, _ = optimize(cfg)
        g_alpha, g_pop = grid_oracle(cfg)
        gap = abs(alpha_star - g_alpha)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-5 or pop_star > g_pop + 1e-10:
            ok = False
    report(3, "optimizer vs exhaustive grid oracle", ok,
           f"worst |alpha* - grid| = {worst_gap:.2e}")


def test_criterion_4_optimum_is_snr_invariant():
    """alpha* agrees to 1e-9 across 50/60/70 dB."""
    base = reference_config()
    stars = []
    for snr_db in (50.0, 60.0, 70.0):
        cfg = dataclasses.replace(base, rho_t_db=snr_db,
                                  pt_dbm=None, noise_dbm=None)
        stars.append(optimize(cfg)[0])
    spread = max(stars) - min(stars)
    report(4, "optimal split independent of SNR", spread <= 1e-9,
           f"spread = {spread:.2e}")


def test_criterion_5_scheme_comparison():
    """15-point distance sweep: optimal allocation dominates both benchmarks
    and the average improvements land near the reference figures."""
    exp = Experiment("compare", reference_config(),
                     "d2", 60.0, 200.0, 15)
    table = run(exp)
    dominated = all(r["pop_opa"] <= r["pop_epa"] + 1e-14
                    and r["pop_opa"] <= r["pop_fpa"] + 1e-14
                    for r in table.rows)
    epa = table.summary["avg_improvement_over_epa_pct"]
    fpa = table.summary["avg_improvement_over_fpa_pct"]
    ok = (dominated and fpa > epa
          and abs(epa - 1.39) <= 1.0 and abs(fpa - 14.60) <= 5.0)
    report(5, "scheme comparison averages", ok,
           f"EPA {epa:.2f}% (target 1.39 +- 1.0), "
           f"FPA {fpa:.2f}% (target 14.60 +- 5.0)")


def test_criterion_6_monotonicity_properties():
    """>=1000 random points: POP nondecreasing in both threshold rates and
    the far-user distance, nonincreasing in SNR, and ordered in the
    residual-interference factor at a fixed feasible split."""
    rng = np.random.default_rng(SEED + 2)
    base = reference_config()
    checks = 0
    ok = True
    for _ in range(300):
        cfg = draw_config(rng)
        d = DerivedParams.from_config(cfg)
        alpha = float(rng.uniform(0.05, 0.95))
        p0 = pop_value(alpha, d)

        up_r1 = dataclasses.replace(cfg, r1_th=cfg.r1_th * 1.2)
        up_r2 = dataclasses.replace(cfg, r2_th=cfg.r2_th * 1.2)
        up_d2 = dataclasses.replace(cfg, d2=cfg.d2 * 1.2)
        up_snr = dataclasses.replace(cfg, rho_t_db=cfg.rho_t_db + 5.0)
        ok &= pop_value(alpha, DerivedParams.from_config(up_r1)) >= p0 - 1e-12
        ok &= pop_value(alpha, DerivedParams.from_config(up_r2)) >= p0 - 1e-12
        ok &= pop_value(alpha, DerivedParams.from_config(up_d2)) >= p0 - 1e-12
        ok &= pop_value(alpha, DerivedParams.from_config(up_snr)) <= p0 + 1e-12
        checks += 4

    # residual-interference ordering at a fixed split, feasible for all betas
    for _ in range(100):
        r1 = float(rng.uniform(0.05, 0.3))
        r2 = float(rng.uniform(0.05, 0.3))
        cfgs = [dataclasses.replace(base, r1_th=r1, r2_th=r2, beta=b)
                for b in (0.0, 0.2, 0.5)]
        ds = [DerivedParams.from_config(c) for c in cfgs]
        lo = max(d.breakpoints.alpha4 for d in ds)
        hi = min(min(d.breakpoints.alpha3, d.breakpoints.alpha6) for d in ds)
        if not lo < hi:
            continue
        alpha = float(rng.uniform(lo + 0.02 * (hi - lo),
                                  hi - 0.02 * (hi - lo)))
        p_by_beta = [pop_value(alpha, d) for d in ds]
        ok &= p_by_beta[0] <= p_by_beta[1] + 1e-12
        ok &= p_by_beta[1] <= p_by_beta[2] + 1e-12
        checks += 2
    report(6, "monotonicity in rates, distance, SNR, and RI factor",
           ok and checks >= 1000, f"{checks} pointwise comparisons")


def test_criterion_7_piecewise_continuity():
    """|pop(b-1e-8) - pop(b+1e-8)| <= 1e-6 at every interior breakpoint
    separating two active cases, over 20 random draws."""
    rng = np.random.default_rng(SEED + 3)
    eps = 1e-8
    worst = 0.0
    checked = 0
    for _ in range(20):
        d = DerivedParams.from_config(draw_config(rng))
        bp = d.breakpoints
        for b in (bp.alpha2, bp.alpha5):
            if not eps < b < 1.0 - eps:
                continue
            left = classify_case(b - eps, d)
            right = classify_case(b + eps, d)
            if Case.CASE5 in (left, right) or left == right:
                continue
            worst = max(worst, abs(pop_value(b - eps, d)
                                   - pop_value(b + eps, d)))
            checked += 1
    report(7, "POP continuity across interior breakpoints",
           checked > 0 and worst <= 1e-6,
           f"{checked} boundaries, worst jump = {worst:.2e}")


def test_criterion_8_breakpoint_algebra():
    """alpha4 > alpha1 and alpha6 > alpha3 over 1e4 draws; the reference
    breakpoints match a 50-digit re-evaluation to 1e-12."""
    rng = np.random.default_rng(SEED + 4)
    ok = True
    for _ in range(10_000):
        pi1 = float(rng.uniform(1e-3, 3.0))
        pi2 = float(rng.uniform(1e-3, 3.0))
        beta = float(rng.uniform(0.0, 0.999999))
        bp = breakpoints(pi1, pi2, beta)
        if not (bp.alpha4 > bp.alpha1 and bp.alpha6 > bp.alpha3):
            ok = False
            break

    mp.mp.dps = 50
    pi = mp.mpf(2) ** mp.mpf("0.1") - 1
    b = mp.mpf("0.2")
    reference = (
        b * pi / (1 + b * pi),
        pi * (1 + pi * b) / (pi * (1 + pi * b) + pi * (1 + pi)),
        1 / (1 + pi),
        pi / (1 + pi),
        pi * (1 + pi) / (pi * (1 + pi) + pi * (1 + b * pi)),
        1 / (1 + b * pi),
    )
    got = DerivedParams.from_config(reference_config()).breakpoints
    worst = max(abs(float(r) - g) for r, g in zip(reference, got))
    report(8, "breakpoint ordering and reference values",
           ok and worst <= 1e-12, f"max deviation = {worst:.2e}")


def test_criterion_9_validate_mc_determinism(tmp_path):
    """Two identical validate-mc CLI runs emit byte-identical CSV."""
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["validate-mc", "--count", "9", "--trials", "100000",
            "--seed", str(SEED)]
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report(9, "byte-identical Monte Carlo validation output",
           code1 == 0 and code2 == 0 and identical,
           f"{out1.stat().st_size} bytes each")
