"""Byte-exact CLI outputs against recorded files under ``tests/golden/``.

Each case runs ``main`` in-process in CSV and in JSON and compares stdout
byte for byte with ``golden/<name>.<format>``, and stderr with
``golden/<name>.err`` (empty when that file does not exist). Monte Carlo
cases use cut trial counts so the suite stays fast. Every POP in the CSV
files is also checked against the 60-digit oracle, so a re-recording can be
verified as well as diffed.

To record the files again after an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import pytest

from noma_pop import DerivedParams, SystemConfig
from noma_pop.harness import (
    COMMANDS, EPA_ALPHA, EXIT_INVALID_INPUT, EXIT_OK, FPA_ALPHA, main)

from conftest import pop_reference

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("csv", "json")
MC = ["--trials", "20000", "--chunk", "7000"]

# name -> (argv without --format, expected exit code)
CASES = {
    "pop": (["pop", "--alpha", "0.5"], EXIT_OK),
    "pop_with_mc": (["pop", "--alpha", "0.3", "--with-mc"] + MC, EXIT_OK),
    "optimize": (["optimize"], EXIT_OK),
    "optimize_check": (["optimize", "--check"], EXIT_OK),
    "sweep_alpha": (["sweep-alpha"], EXIT_OK),
    "sweep_threshold": (["sweep-threshold"], EXIT_OK),
    "sweep_threshold_r1_with_mc": (
        ["sweep-threshold", "--var", "r1_th", "--with-mc"] + MC, EXIT_OK),
    "sweep_snr": (["sweep-snr"], EXIT_OK),
    "compare": (["compare"], EXIT_OK),
    "validate_mc": (["validate-mc"] + MC, EXIT_OK),
    "compare_below_d1": (["compare", "--start", "30"], EXIT_INVALID_INPUT),
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, fmt):
    argv, want_code = CASES[name]
    code, out, err = run_cli(argv + ["--format", fmt])
    err_file = GOLDEN / f"{name}.err"
    assert code == want_code
    assert out == (GOLDEN / f"{name}.{fmt}").read_text()
    assert err == (err_file.read_text() if err_file.exists() else "")


def test_every_command_has_a_case():
    assert set(COMMANDS) <= {argv[0] for argv, _ in CASES.values()}


def test_every_golden_file_has_a_case():
    orphans = [f.name for f in GOLDEN.iterdir() if f.stem not in CASES]
    assert orphans == []


CONFIG_FIELDS = {f.name for f in dataclasses.fields(SystemConfig)}


def pop_split(column: str, row: dict) -> float:
    """The split at which a POP-valued CSV column was evaluated."""
    if column == "pop_opa":
        return float(row["alpha_star"])
    if column == "pop_fpa":
        return FPA_ALPHA
    if column == "pop_epa" or "alpha" not in row:
        return EPA_ALPHA
    return float(row["alpha"])


@pytest.mark.parametrize("name", CASES)
def test_golden_pop_values_match_oracle(name):
    """Every POP in the CSV files is within 1e-15 relative of the oracle,
    at the config of its header with the fields its row echoes."""
    lines = (GOLDEN / f"{name}.csv").read_text().splitlines()
    if not lines:
        return
    header = dict(item.split("=") for item in lines[0].split(" | ")[2].split())
    columns = lines[1].split(",")
    for line in lines[2:]:
        if line.startswith("#"):
            continue
        row = dict(zip(columns, line.split(",")))
        # pt_dbm/noise_dbm only cross-check rho_t_db, which a row may echo
        values = {**header, **row, "pt_dbm": None, "noise_dbm": None}
        derived = DerivedParams.from_config(SystemConfig(**{
            k: None if v is None else float(v)
            for k, v in values.items() if k in CONFIG_FIELDS}))
        for column in ("pop", "pop_epa", "pop_fpa", "pop_opa", "analytic_pop"):
            if row.get(column, "") == "":
                continue
            want = pop_reference(pop_split(column, row), derived)
            assert abs(float(row[column]) - want) <= 1e-15 * want, column


def record():
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_code) in CASES.items():
        for fmt in FORMATS:
            code, out, err = run_cli(argv + ["--format", fmt])
            if code != want_code:
                sys.exit(f"{name} {fmt}: exit {code}, expected {want_code}")
            (GOLDEN / f"{name}.{fmt}").write_text(out)
            err_file = GOLDEN / f"{name}.err"
            if err:
                err_file.write_text(err)
            else:
                err_file.unlink(missing_ok=True)


if __name__ == "__main__":
    record()
