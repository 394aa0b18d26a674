"""Property tests of the closed form, the optimizer and the input checks.

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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_pop import (
    DerivedParams,
    NoFeasibleAllocationError,
    SystemConfig,
    classify_case,
    optimize,
    pop_curve,
    pop_value,
)
from noma_pop.harness import (
    EXIT_INVALID_INPUT, EXIT_NO_FEASIBLE_ALLOCATION, EXIT_OK,
    EXIT_VALIDATION_FAILURE, SweepAxis, main)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

alphas = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
rates = st.floats(min_value=0.01, max_value=1.0)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def configs(draw):
    """Parameter sets across beta in [0, 1] and 20-100 dB transmit SNR."""
    return SystemConfig(
        d1=50.0,
        d2=draw(st.floats(min_value=50.0, max_value=300.0)),
        path_loss_constant=1.0,
        path_loss_exponent=3.0,
        rho_t_db=draw(st.floats(min_value=20.0, max_value=100.0)),
        beta=draw(st.floats(min_value=0.0, max_value=1.0)),
        r1_th=draw(rates),
        r2_th=draw(rates),
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
        assert case == classify_case(alpha, derived).label


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
    axis = SweepAxis("d2", start=other, stop=other, count=count)
    with pytest.raises(ValueError, match=f"sweep {bound} must be finite"):
        dataclasses.replace(axis, **{bound: bad}).values()


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
    ``error:`` line (invalid input, or no feasible split for ``optimize``)
    or prints only finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(command + ["--config", str(path)])
            lines = err.getvalue().splitlines()
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
