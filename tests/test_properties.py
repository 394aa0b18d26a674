"""Property tests of the closed form, the optimizer, the input checks and
the Monte Carlo kernel.

Examples are derandomized and counted, so the run is the same every time
and stays short.
"""

import contextlib
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noma_pop import (
    DerivedParams,
    McConfig,
    NoFeasibleAllocationError,
    SystemConfig,
    breakpoints,
    classify_case,
    optimize,
    pop_curve,
    pop_value,
    reference_config,
    sample_gains,
    sinrs,
)
from noma_pop import montecarlo
from noma_pop.analytic import Case, case_intervals
from noma_pop.harness import (
    EXIT_INVALID_INPUT, EXIT_NO_FEASIBLE_ALLOCATION, EXIT_OK,
    EXIT_VALIDATION_FAILURE, Experiment, load_config, main)
from noma_pop.montecarlo import (
    BLOCK, _count_chunks, chunk_rng, count_successes)
from noma_pop.optimizer import SCAN_DOUBLES

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

alphas = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
rates = st.floats(min_value=0.01, max_value=1.0)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def configs(draw, rate=rates, beta=st.floats(min_value=0.0, max_value=1.0)):
    """Parameter sets across 20-100 dB transmit SNR, with threshold rates
    drawn from ``rate`` and beta from ``beta`` (all of [0, 1] by default)."""
    return SystemConfig(
        d1=50.0,
        d2=draw(st.floats(min_value=50.0, max_value=300.0)),
        path_loss_constant=1.0,
        path_loss_exponent=3.0,
        rho_t_db=draw(st.floats(min_value=20.0, max_value=100.0)),
        beta=draw(beta),
        r1_th=draw(rate),
        r2_th=draw(rate),
    )


@PROPERTY
@given(configs(), alphas)
def test_pop_is_a_probability(config, alpha):
    value = pop_value(alpha, DerivedParams.from_config(config))
    assert 0.0 <= value <= 1.0  # also false for NaN


@PROPERTY
@given(configs(), st.lists(alphas, min_size=1, max_size=64))
def test_scalar_and_vector_paths_agree_bitwise(config, split_list):
    derived = DerivedParams.from_config(config)
    values, cases = pop_curve(np.array(split_list), derived)
    for alpha, value, case in zip(split_list, values, cases):
        assert value == pop_value(alpha, derived)
        assert case == classify_case(alpha, derived)


@PROPERTY
@given(configs(), alphas, rates, rates,
       st.sampled_from(["r1_th", "r2_th", "beta"]))
def test_pop_nondecreasing_in_thresholds(config, alpha, r_a, r_b, name):
    lo, hi = sorted((r_a, r_b))
    pop_lo = pop_value(alpha, DerivedParams.from_config(
        dataclasses.replace(config, **{name: lo})))
    pop_hi = pop_value(alpha, DerivedParams.from_config(
        dataclasses.replace(config, **{name: hi})))
    assert pop_hi >= pop_lo - 1e-12


@PROPERTY
@given(configs(), alphas, st.floats(min_value=20.0, max_value=100.0))
def test_pop_nonincreasing_in_snr(config, alpha, other_db):
    lo, hi = sorted((config.rho_t_db, other_db))
    pop_lo = pop_value(alpha, DerivedParams.from_config(
        dataclasses.replace(config, rho_t_db=lo)))
    pop_hi = pop_value(alpha, DerivedParams.from_config(
        dataclasses.replace(config, rho_t_db=hi)))
    assert pop_hi <= pop_lo + 1e-12


COARSE_GRID = np.linspace(0.005, 0.995, 199)


@PROPERTY
@given(configs())
def test_optimum_is_no_worse_than_a_coarse_grid(config):
    try:
        _, pop_star, _ = optimize(config)
    except NoFeasibleAllocationError:
        return
    values, _ = pop_curve(COARSE_GRID, DerivedParams.from_config(config))
    assert pop_star <= values.min() + 1e-10


# rates log-uniform over 1e-12..100 b/s/Hz keep every derived value in
# range; at beta = 1 - 2**-53 the breakpoints coincide on floats
wide_configs = configs(
    rate=st.floats(min_value=-12.0, max_value=2.0).map(lambda x: 10.0 ** x),
    beta=st.one_of(st.floats(min_value=0.0, max_value=1.0),
                   st.just(1.0 - 2**-53)))


@PROPERTY
@given(wide_configs)
def test_no_feasible_split_exactly_when_threshold_product_reaches_one(
        config):
    derived = DerivedParams.from_config(config)
    if derived.pi1 * derived.pi2 >= 1.0:
        with pytest.raises(NoFeasibleAllocationError):
            optimize(config)
    else:
        alpha_star, _, _ = optimize(config)
        assert 0.0 < alpha_star < 1.0


@st.composite
def near_one_configs(draw, least_exponent=-12.0, db=(150.0, 300.0),
                     beta=st.floats(min_value=0.0, max_value=1.0)):
    """Configs with pi1 * pi2 = 1 - eps, eps log-uniform over
    10**least_exponent..1e-8, at ``db`` dB: the case-3 interval
    (alpha4, alpha3) is narrow, and nonempty unless eps is near one ulp."""
    config = draw(configs(beta=beta))
    eps = 10.0 ** draw(st.floats(min_value=least_exponent, max_value=-8.0))
    pi1 = 2.0 ** config.r1_th - 1.0
    return dataclasses.replace(
        config, r2_th=math.log2(1.0 + (1.0 - eps) / pi1),
        rho_t_db=draw(st.floats(min_value=db[0], max_value=db[1])))


@PROPERTY
@given(near_one_configs())
def test_optimum_exists_just_below_threshold_product_one(config):
    derived = DerivedParams.from_config(config)
    assert derived.pi1 * derived.pi2 < 1.0
    alpha_star, _, _ = optimize(config)
    assert 0.0 < alpha_star < 1.0


def interval_doubles(interval):
    """Every double strictly inside the interval, ascending."""
    lo, hi = np.array(interval).view(np.int64)  # ordered like the doubles
    return np.arange(lo + 1, hi, dtype=np.int64).view(np.float64)


@PROPERTY
@given(near_one_configs(least_exponent=-16.0, db=(200.0, 400.0),
                        beta=st.sampled_from([0.0, 0.2, 1.0, 1.0 - 2**-53])))
def test_optimize_exits_3_only_when_no_double_escapes_outage(config):
    derived = DerivedParams.from_config(config)
    assume(derived.pi1 * derived.pi2 < 1.0)
    intervals = case_intervals(derived)
    doubles = [interval_doubles(intervals[case])
               for case in (Case.CASE2, Case.CASE3)]
    assume(all(len(a) <= 10**6 for a in doubles))
    pops, _ = pop_curve(np.concatenate(doubles), derived)
    try:
        _, pop_star, _ = optimize(config)
    except NoFeasibleAllocationError:
        assert not np.any(pops < 1.0)
        return
    if all(len(a) <= SCAN_DOUBLES for a in doubles):  # the best double
        assert pop_star <= pops.min(initial=1.0)


FIELDS = [f.name for f in dataclasses.fields(SystemConfig)]


@PROPERTY
@given(configs(), st.sampled_from(FIELDS), non_finite)
def test_config_rejects_non_finite(config, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(config, **{name: bad})


@PROPERTY
@given(st.sampled_from(["start", "stop"]), non_finite,
       st.floats(min_value=-1e6, max_value=1e6),
       st.integers(min_value=2, max_value=50))
def test_sweep_axis_rejects_non_finite(bound, bad, other, count):
    exp = Experiment("sweep-snr", reference_config(), "rho_t_db",
                     start=other, stop=other, count=count)
    with pytest.raises(ValueError, match=f"sweep {bound} must be finite"):
        dataclasses.replace(exp, **{bound: bad}).values()


field_values = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=300.0),
    st.floats(max_value=0.0),
    st.floats(allow_nan=False, allow_infinity=False),
    non_finite,
)
COMMANDS = (["pop"], ["optimize", "--check"], ["sweep-alpha", "--count", "3"])


@PROPERTY
@given(st.dictionaries(st.sampled_from(FIELDS), field_values, max_size=4))
def test_fuzzed_config_fails_cleanly_or_prints_finite_numbers(values):
    """A config file with up to four fuzzed fields either fails with one
    ``error:`` line (invalid input, exactly when the derived parameters
    reject it, or no feasible split for ``optimize``) or prints only finite
    numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        try:
            DerivedParams.from_config(load_config(path))
            invalid = False
        except ValueError:
            invalid = True
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(command + ["--config", str(path)])
            lines = err.getvalue().splitlines()
            assert (code == EXIT_INVALID_INPUT) == invalid, (command, lines)
            if code in (EXIT_INVALID_INPUT, EXIT_NO_FEASIBLE_ALLOCATION):
                assert out.getvalue() == ""
                assert len(lines) == 1 and lines[0].startswith("error: ")
                continue
            assert code in (EXIT_OK, EXIT_VALIDATION_FAILURE), (command, code)
            assert not any(line.startswith("error:") for line in lines)
            for token in re.split(r"[\s,=|]+", out.getvalue()):
                try:
                    number = float(token)
                except ValueError:
                    continue
                assert math.isfinite(number), (command, token)


def whole_chunk_count(config, alpha, mc, block):
    """The kernel with each chunk's gains drawn in one piece: u1 then u2
    from the chunk's substream, SINRs and conditions on ``block`` slices."""
    return ratio_form_count(DerivedParams.from_config(config), alpha, mc,
                            block)


def ratio_form_count(d, alpha, mc, block):
    """`whole_chunk_count` for the derived parameters ``d``: each condition
    is tested as ``sinrs`` computes it, a ratio compared with pi."""
    successes = 0
    for idx, start in enumerate(range(0, mc.trials, mc.chunk)):
        size = min(mc.chunk, mc.trials - start)
        g1, g2 = sample_gains(chunk_rng(mc.seed, idx), d.lambda1, d.lambda2,
                              size)
        for lo in range(0, size, block):
            s = sinrs(alpha, g1[lo:lo + block], g2[lo:lo + block], d.beta,
                      d.rho_t)
            ok = ((s.gamma11 > d.pi1) & (s.gamma21 > d.pi2)
                  & (s.gamma12 > d.pi1) & (s.gamma22 > d.pi2))
            successes += int(np.count_nonzero(ok))
    return successes


@st.composite
def kernel_runs(draw):
    """Trial count, chunk and block, with at most 300 blocks in a run so
    that one example stays in the milliseconds."""
    block = draw(st.integers(min_value=1, max_value=40_000))
    chunk = draw(st.integers(min_value=1, max_value=100_000))
    trials = draw(st.integers(min_value=1, max_value=min(
        200_000, 300 * min(block, chunk))))
    return trials, chunk, block


@PROPERTY
@given(kernel_runs(), alphas,
       st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0),
                 st.just(1.0)),
       st.integers(min_value=0, max_value=2**32))
def test_block_draws_count_like_whole_chunk_draws(run, alpha, beta, seed):
    trials, chunk, block = run
    config = dataclasses.replace(reference_config(), beta=beta)
    mc = McConfig(trials=trials, seed=seed, chunk=chunk)
    with mock.patch.object(montecarlo, "BLOCK", block):
        got = count_successes(config, alpha, mc)
    assert got == whole_chunk_count(config, alpha, mc, block)


PI_REF = 2.0 ** 0.1 - 1.0  # the reference threshold, 0.1 b/s/Hz


@pytest.mark.parametrize(
    "lambda1, lambda2, rho_t, pi1, pi2, beta, alpha, seed, expected", [
        (8e-50, 1e-50, 1e50, PI_REF, PI_REF, 0.2, 0.3, 60, 50831),
        (1e50, 1.25e49, 1e-50, PI_REF, PI_REF, 0.0, 0.7, 61, 7612),
        (8.0, 1.0, 1e-50, 1e-50, 1e-50, 1.0, 0.25, 62, 728),
        (1e50, 1e50, 1.0, 1e-50, 1e49, 1.0, 5e-50, 63, 47020),
        (1e50, 1e50, 1e-50, 1e50, 1e50, 1.0, 0.5, 64, 0),
        (1e-50, 1e-50, 1e50, 1e-50, 1e-50, 1.0, 0.75, 65, 70_001),
    ], ids=["tiny_gains_huge_snr", "huge_gains_tiny_snr", "tiny_thresholds",
            "thresholds_at_both_ends", "largest_products",
            "smallest_products"])
def test_cleared_conditions_count_like_ratios_at_scale_corners(
        lambda1, lambda2, rho_t, pi1, pi2, beta, alpha, seed, expected):
    # The kernel tests c*g > (pi*k)*g + pi/rho_t; the reference divides.
    # The rows put the mean gains, the SNR and the thresholds at the ends of
    # [1e-50, 1e50], so those products run from about 1e-101 to 2e101. The
    # parameters are built directly: no rate r gives pi = 2**r - 1 = 1e-50.
    d = DerivedParams(lambda1, lambda2, rho_t, pi1, pi2, beta,
                      breakpoints(pi1, pi2, beta))
    # each split lies at least 10% away from every breakpoint
    assert len({classify_case(a, d)
                for a in (0.9 * alpha, alpha, 1.1 * alpha)}) == 1
    mc = McConfig(trials=70_001, seed=seed, chunk=30_000)
    got = _count_chunks(d, alpha, mc, BLOCK,
                        range(math.ceil(mc.trials / mc.chunk)))
    assert got == ratio_form_count(d, alpha, mc, BLOCK) == expected
