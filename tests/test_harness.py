"""Tests for the experiment runners, config files, output, and CLI."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noma_pop
import noma_pop.montecarlo
from noma_pop import harness
from noma_pop import McConfig, pop_value, reference_config
from noma_pop.harness import (
    COMMANDS,
    EXIT_INVALID_INPUT,
    EXIT_NO_FEASIBLE_ALLOCATION,
    EXIT_OK,
    EXIT_VALIDATION_FAILURE,
    Experiment,
    build_parser,
    load_config,
    main,
    render_csv,
    render_json,
    run,
)

FAST = ["--trials", "50000", "--chunk", "25000", "--seed", "7"]
# runs the CLI as the console script does, then writes its lane pids to
# argv[1] and, from an exit handler that runs after the CLI's own, the
# gc.get_freeze_count() it sees to argv[1] + ".frozen"; with argv[2] ==
# "serial" it keeps to one CPU, so it starts none; with "lost" it takes two
# CPUs, and each lane dies at its first draw; with "argv" it sets sys.argv
# and calls main() with no arguments, as the console script does
LANE_RUN = """
import atexit, gc, os, sys
pid_file, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
def report_freeze():
    with open(pid_file + ".frozen", "w") as f:
        f.write(str(gc.get_freeze_count()))
atexit.register(report_freeze)
from noma_pop import montecarlo
from noma_pop.harness import main
if mode == "serial":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
if mode == "lost":
    owner, draw = os.getpid(), montecarlo.sample_gains
    def die_in_lane(*args, **kwargs):
        if os.getpid() != owner:
            os._exit(1)
        return draw(*args, **kwargs)
    montecarlo.sample_gains = die_in_lane
    os.sched_getaffinity = lambda pid: {0, 1}
if mode == "argv":
    sys.argv[1:] = args
    code = main()
else:
    code = main(args)
with open(pid_file, "w") as f:
    f.write(" ".join(str(lane.pid) for lane in montecarlo._lanes))
sys.exit(code)
"""
# `validate-mc --count 3` rows and footer at the defaults (1e6 trials)
VALIDATE_MC_3 = [
    "0.1,0.8811987872438518,0.881147,0.00032361545758971403,"
    "-0.1600572739338293",
    "0.5,0.15968397662611244,0.159794,0.00036641489811960426,"
    "0.30035368625178505",
    "0.9,0.659597532961015,0.66032,0.0004736005675672275,"
    "1.5246921957814032",
    "# max_abs_z=1.5246921957814032",
    "# flagged=0",
]


def write_config(tmp_path, text: str):
    path = tmp_path / "system.cfg"
    path.write_text(text)
    return str(path)


class TestConfigFile:
    def test_full_roundtrip(self, tmp_path):
        path = write_config(tmp_path, """
            # reference setup
            d1 = 50
            d2 = 100
            path_loss_constant = 1
            path_loss_exponent = 3
            rho_t_db = 60
            beta = 0.2
            r1_th = 0.1
            r2_th = 0.1
            pt_dbm = -30
            noise_dbm = -90
        """)
        cfg = load_config(path)
        assert cfg == reference_config()

    def test_partial_override_keeps_defaults(self, tmp_path):
        path = write_config(tmp_path, "d2 = 150\nbeta = 0.3\n")
        cfg = load_config(path)
        assert cfg.d2 == 150.0
        assert cfg.beta == 0.3
        assert cfg.d1 == 50.0
        assert cfg.pt_dbm is None  # stays unset so rho_t_db rules alone

    def test_override_snr_alone_is_consistent(self, tmp_path):
        path = write_config(tmp_path, "rho_t_db = 45\n")
        cfg = load_config(path)
        assert cfg.rho_t_db == 45.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "d3 = 120\n")
        with pytest.raises(ValueError, match="unknown configuration key"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "d2 = 100\nd2 = 120\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "d2 = fast\n")
        with pytest.raises(ValueError, match="cannot parse"):
            load_config(path)

    def test_bad_line_rejected(self, tmp_path):
        path = write_config(tmp_path, "d2: 100\n")
        with pytest.raises(ValueError, match="expected"):
            load_config(path)


class TestRunners:
    def test_threshold_sweep_single_variable(self, ref_config):
        exp = Experiment("sweep-threshold", ref_config,
                         "r2_th", 0.05, 0.5, 8)
        rows = run(exp).rows
        assert all(r["r1_th"] == ref_config.r1_th for r in rows)
        pops = [r["pop"] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(pops, pops[1:]))

    def test_threshold_sweep_with_mc(self, ref_config):
        exp = Experiment("sweep-threshold", ref_config,
                         "r_th_both", 0.1, 0.3, 3,
                         mc=McConfig(trials=100_000, seed=3, chunk=50_000))
        table = run(exp)
        assert "mc_pop" in table.rows[0]
        assert all(abs(r["z"]) < 4 for r in table.rows)

    def test_threshold_sweep_rejects_bad_axis(self, ref_config):
        with pytest.raises(ValueError):
            run(Experiment("sweep-threshold", ref_config,
                           "alpha", 0.1, 0.5, 5))
        with pytest.raises(ValueError):
            run(Experiment("sweep-threshold", ref_config,
                           "r_th_both", -0.1, 0.5, 5))

    def test_alpha_sweep_unique_interior_minimum(self, ref_config):
        exp = Experiment("sweep-alpha", ref_config,
                         "alpha", 0.1, 0.9, 81)
        rows = run(exp).rows
        pops = [r["pop"] for r in rows]
        k = int(np.argmin(pops))
        assert 0 < k < len(pops) - 1
        # decreasing to the minimum, increasing after
        assert all(b <= a + 1e-12 for a, b in zip(pops[:k], pops[1:k + 1]))
        assert all(b >= a - 1e-12 for a, b in zip(pops[k:], pops[k + 1:]))

    def test_alpha_sweep_count_validated(self, ref_config):
        with pytest.raises(ValueError):
            run(Experiment("sweep-alpha", ref_config,
                           "alpha", 0.1, 0.9, 1))

    def test_compare_schemes(self, ref_config):
        exp = Experiment("compare", ref_config,
                         "d2", 60.0, 200.0, 15)
        table = run(exp)
        for row in table.rows:
            assert row["pop_opa"] <= row["pop_epa"] + 1e-14
            assert row["pop_opa"] <= row["pop_fpa"] + 1e-14
        for col in ("pop_opa", "pop_epa", "pop_fpa"):
            vals = [r[col] for r in table.rows]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # footer is derived data: recompute from the rows
        imp_epa = np.mean([100 * (r["pop_epa"] - r["pop_opa"]) / r["pop_epa"]
                           for r in table.rows])
        assert table.summary["avg_improvement_over_epa_pct"] == pytest.approx(
            imp_epa, rel=1e-12)

    def test_compare_rejects_d2_below_d1(self, ref_config):
        with pytest.raises(ValueError):
            run(Experiment("compare", ref_config,
                           "d2", 30.0, 100.0, 5))

    def test_validate_mc_failure_names_the_flagged_points(self, monkeypatch,
                                                          ref_config):
        exp = Experiment("validate-mc", ref_config,
                         "alpha", 0.3, 0.7, 3,
                         mc=McConfig(trials=100_000, seed=11, chunk=50_000))
        clean = run(exp)
        assert clean.summary["flagged"] == 0 and clean.failure is None
        monkeypatch.setattr(noma_pop.analytic, "pop_value",
                            lambda a, d: min(1.0, pop_value(a, d) + 0.05))
        table = run(exp)
        assert table.summary["flagged"] > 0
        assert table.failure == (f"{table.summary['flagged']} point(s) "
                                 "with |z| > 4.0")

    @pytest.mark.parametrize("kind, start, stop, count, message", [
        ("sweep-alpha", 0.1, 0.9, 1, "count must be >= 2"),
        ("sweep-snr", math.nan, 80.0, 9, "start must be finite"),
        ("compare", 150.0, 100.0, 5, "start must not exceed stop"),
        ("validate-mc", 0.2, 0.8, 4, "requires a Monte Carlo"),
    ], ids=["count_1", "nan_start", "start_above_stop", "no_mc"])
    def test_invalid_sweep_rejected_when_built(self, ref_config, kind, start,
                                               stop, count, message):
        axis = next(iter(COMMANDS[kind].axes))
        with pytest.raises(ValueError, match=message):
            Experiment(kind, ref_config, axis, start, stop, count)

    def test_validate_mc_requires_mc(self, ref_config):
        with pytest.raises(ValueError):
            run(Experiment("validate-mc", ref_config,
                           "alpha", 0.2, 0.8, 4))

    def test_mc_rejected_where_none_is_drawn(self, ref_config):
        with pytest.raises(ValueError, match="draws no Monte Carlo"):
            Experiment("sweep-snr", ref_config, "rho_t_db", 40.0, 80.0, 9,
                       mc=McConfig())

    def test_unknown_kind_rejected(self, ref_config):
        with pytest.raises(ValueError):
            Experiment("sweep-beta", ref_config,
                       "beta", 0.0, 1.0, 5)


class TestOutput:
    def test_all_emitted_probabilities_in_range(self, ref_config):
        exp = Experiment("compare", ref_config,
                         "d2", 60.0, 200.0, 8)
        table = run(exp)
        for row in table.rows:
            for col in ("pop_opa", "pop_epa", "pop_fpa"):
                assert 0.0 <= row[col] <= 1.0
            assert 0.0 < row["alpha_star"] < 1.0

    def test_csv_prints_numpy_floats_as_python_floats(self, ref_config):
        """Configs store numpy scalars as Python numbers, so a numpy config
        renders, in CSV and JSON, as the Python numbers of the same values."""
        def outputs(config, mc=None):
            table = run(Experiment("sweep-threshold", config, "r1_th",
                                   0.1, 0.2, 2, mc=mc))
            return [render(table, config, "sweep-threshold", mc)
                    for render in (render_csv, render_json)]

        values = dataclasses.asdict(ref_config)
        for scalar in (np.float64, np.float32):
            as_numpy = dataclasses.replace(ref_config, **{
                name: scalar(value) for name, value in values.items()})
            as_python = dataclasses.replace(ref_config, **{
                name: float(scalar(value)) for name, value in values.items()})
            assert all(type(value) is float
                       for value in dataclasses.asdict(as_numpy).values())
            assert outputs(as_numpy) == outputs(as_python)
        mc = McConfig(trials=20_000, seed=7, chunk=10_000)
        as_int64 = McConfig(*map(np.int64, dataclasses.astuple(mc)))
        assert all(type(value) is int
                   for value in dataclasses.asdict(as_int64).values())
        assert outputs(ref_config, as_int64) == outputs(ref_config, mc)


class TestCli:
    def test_pop_invalid_alpha(self, capsys):
        assert main(["pop", "--alpha", "1.5"]) == EXIT_INVALID_INPUT

    def test_optimize_infeasible(self, tmp_path, capsys):
        path = write_config(tmp_path, "r1_th = 1\nr2_th = 1\n")
        code = main(["optimize", "--config", path])
        assert code == EXIT_NO_FEASIBLE_ALLOCATION

    @pytest.mark.parametrize("text, command, code", [
        # alpha4 == alpha1 on floats in these two valid configs
        ("beta = 0.9999999999999999\n", ["pop"], EXIT_OK),
        ("r1_th = 60\n", ["optimize"], EXIT_NO_FEASIBLE_ALLOCATION),
        # pi1 * pi2 = 5.3e12, yet rounding leaves a case interval nonempty
        ("beta = 1\nr1_th = 79.37353797048111\n"
         "r2_th = 9.725079632043191e-12\n", ["optimize"],
         EXIT_NO_FEASIBLE_ALLOCATION),
        # pi1 * pi2 = 1 - 4.0e-9: (alpha4, alpha3) is narrow, yet POP there
        # reaches 1.05e-5
        ("r1_th = 0.2010005802519678\nr2_th = 2.942828442025463\n"
         "rho_t_db = 200\n", ["optimize"], EXIT_OK),
        # pi1 * pi2 = 1 - 5.0e-12: alpha_plus rounds onto alpha3, yet the
        # case-3 interval holds 83 doubles, the best at POP 0.669
        ("r1_th = 9.062356481210534\nr2_th = 0.0027010952464733675\n"
         "rho_t_db = 200\n", ["optimize"], EXIT_OK),
    ], ids=["pop-beta-1-ulp", "optimize-r1-60", "optimize-sliver",
            "optimize-near-one", "optimize-few-doubles"])
    def test_exit_code_follows_threshold_product(self, tmp_path, capsys,
                                                 text, command, code):
        path = write_config(tmp_path, text)
        assert main(command + ["--config", path]) == code
        err = capsys.readouterr().err
        assert ("pi1*pi2" in err) == (code == EXIT_NO_FEASIBLE_ALLOCATION)

    def test_bad_config_key(self, tmp_path):
        path = write_config(tmp_path, "mystery = 1\n")
        assert main(["pop", "--config", path]) == EXIT_INVALID_INPUT

    def test_missing_config_file(self):
        assert main(["pop", "--config", "/nonexistent.cfg"]) \
            == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("text, command", [
        ("d2 = nan\n", ["optimize"]),
        ("rho_t_db = nan\n", ["validate-mc", "--count", "3"] + FAST),
        ("rho_t_db = inf\n", ["pop", "--alpha", "0.5"]),
        ("pt_dbm = inf\nnoise_dbm = inf\n", ["pop", "--alpha", "0.5"]),
    ])
    def test_non_finite_config_rejected(self, tmp_path, capsys, text,
                                        command):
        path = write_config(tmp_path, text)
        assert main(command + ["--config", path]) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("owner, command", [
        (noma_pop.montecarlo, ["pop", "--alpha", "0.5", "--with-mc"]),
        (noma_pop.montecarlo, ["validate-mc", "--count", "3"]),
    ])
    def test_memory_error_is_invalid_input(self, monkeypatch, capsys, owner,
                                           command):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(owner, "pop_estimate", exhausted)
        assert main(command) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 7.45 GiB\n"

    def test_python_dash_m_runs_the_cli(self, capsys):
        src = Path(noma_pop.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "noma_pop", "pop", "--alpha", "0.5"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(["pop", "--alpha", "0.5"]) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    def test_in_process_full_stdout_stays_the_callers(self, monkeypatch,
                                                      capsys):
        full = open("/dev/full", "w")
        monkeypatch.setattr(sys, "stdout", full)
        assert main(["pop"]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device\n")
        # the descriptor still names the full device, unwritten bytes and all
        assert os.fstat(full.fileno()).st_rdev == os.stat("/dev/full").st_rdev
        with pytest.raises(OSError):
            full.close()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    def test_full_stdout_is_one_error_line(self):
        # buffered stdout: the table sits in the buffer until a flush
        src = Path(noma_pop.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "noma_pop", "pop"], stdout=full,
                stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_INVALID_INPUT
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="lanes run only where the affinity is known")
    def test_validate_mc_lanes_exit_clean_with_serial_bytes(self, tmp_path):
        src = Path(noma_pop.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        runs = []
        modes = ("lanes", "lanes", "serial", "argv")
        for i, mode in enumerate(modes):
            pid_file = tmp_path / f"lanes-{i}"
            proc = subprocess.run(
                [sys.executable, "-c", LANE_RUN, str(pid_file), mode,
                 "validate-mc", "--count", "3"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
            assert proc.stderr == ""
            frozen = int(Path(f"{pid_file}.frozen").read_text())
            # only main() with no arguments skips the exit-time collection
            assert (frozen > 0) == (mode == "argv"), (mode, frozen)
            runs.append((proc.stdout,
                         [int(p) for p in pid_file.read_text().split()]))
        # the default 1e6 trials are 4 chunks: one per lane, up to 4 lanes
        lanes = min(len(os.sched_getaffinity(0)), 4) - 1
        assert [len(pids) for _, pids in runs] == [lanes, lanes, 0, lanes]
        assert len({stdout for stdout, _ in runs}) == 1
        assert runs[0][0].splitlines()[2:] == VALIDATE_MC_3
        for _, pids in runs:
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="lanes run only where the affinity is known")
    def test_lost_lane_is_one_error_line(self, tmp_path):
        src = Path(noma_pop.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", LANE_RUN, str(tmp_path / "lanes"), "lost",
             "validate-mc", "--count", "3"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_INVALID_INPUT
        assert re.fullmatch(r"error: Monte Carlo lane \d+ exited\n",
                            proc.stderr), proc.stderr

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="lanes run only where the affinity is known")
    def test_one_shot_pop_with_mc_starts_no_lane(self, tmp_path):
        # its one Monte Carlo call, 4 chunks at the defaults, is the
        # process's first, which a lane would not repay
        src = Path(noma_pop.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        pid_file = tmp_path / "lanes"
        proc = subprocess.run(
            [sys.executable, "-c", LANE_RUN, str(pid_file), "lanes", "pop",
             "--alpha", "0.5", "--with-mc"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "mc_pop" in proc.stdout
        assert pid_file.read_text() == ""

    def test_import_does_not_run_the_cli(self):
        assert "noma_pop.__main__" not in sys.modules

    def test_sweep_alpha_in_certain_outage_marks_no_optimum(self, tmp_path,
                                                            capsys):
        # pi1 * pi2 = 1: no split escapes outage, so there is no optimum
        path = write_config(tmp_path, "r1_th = 1\nr2_th = 1\n")
        assert main(["sweep-alpha", "--count", "5", "--config",
                     path]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[1:] == ["alpha,pop,case,is_alpha_star",
                             "0.1,1.0,Case5,0",
                             "0.30000000000000004,1.0,Case5,0",
                             "0.5,1.0,Case5,0",
                             "0.7000000000000001,1.0,Case5,0",
                             "0.9,1.0,Case5,0"]
        assert captured.err == ""

    # stderr of each check when the closed form is off by +0.05; None where
    # MC is drawn but no verdict is given, so only the printed z is checked
    @pytest.mark.parametrize("args, err", [
        (["validate-mc", "--count", "3", "--start", "0.3", "--stop", "0.7"]
         + FAST, "3 point(s) with |z| > 4.0"),
        (["optimize", "--check"],
         "closed-form optimum disagrees with the grid search"),
        (["pop", "--alpha", "0.5", "--with-mc"] + FAST, None),
        (["sweep-threshold", "--with-mc", "--count", "3"] + FAST, None),
    ], ids=["validate-mc", "optimize", "pop", "sweep-threshold"])
    def test_corrupted_closed_form_fails_every_check(self, monkeypatch,
                                                     capsys, args, err):
        real = noma_pop.analytic.pop_value
        monkeypatch.setattr(noma_pop.analytic, "pop_value",
                            lambda a, d: min(1.0, real(a, d) + 0.05))
        code = main(args)
        captured = capsys.readouterr()
        if err is not None:
            assert code == EXIT_VALIDATION_FAILURE
            assert captured.err == f"validation failure: {err}\n"
            return
        lines = [line.split(",") for line in captured.out.splitlines()
                 if not line.startswith("#")]
        z = lines[0].index("z")
        assert len(lines) > 1
        assert all(abs(float(row[z])) > 4 for row in lines[1:])


class TestSweepBounds:
    @pytest.mark.filterwarnings("error")
    # the last: both bounds finite, stop - start is not
    @pytest.mark.parametrize("bound", [["--stop", "inf"], ["--start", "nan"],
                                       ["--start=-1e308", "--stop", "1e308"]])
    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-threshold",
                                         "sweep-snr", "compare",
                                         "validate-mc"])
    def test_cli_rejects_non_finite_bound(self, capsys, command, bound):
        mc = FAST if command == "validate-mc" else []
        assert main([command] + bound + mc) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    # each pair of bounds lies inside its subcommand's domain
    @pytest.mark.parametrize("command, start, stop", [
        ("sweep-alpha", "0.8", "0.2"),
        ("sweep-threshold", "0.5", "0.1"),
        ("sweep-snr", "80", "40"),
        ("compare", "200", "60"),
        ("validate-mc", "0.8", "0.2"),
    ])
    def test_cli_rejects_start_above_stop(self, capsys, command, start, stop):
        mc = FAST if command == "validate-mc" else []
        args = [command, "--start", start, "--stop", stop] + mc
        assert main(args) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep start must not exceed stop\n"


class TestOptimizeCheck:
    def test_saturated_config_passes(self, tmp_path, capsys):
        # every split gives POP == 1.0 here, so the grid's first minimum is
        # its first point, far from the closed-form optimum
        path = write_config(tmp_path, "d2 = 178.32\nrho_t_db = 38.35\n"
                                      "beta = 0.453\nr1_th = 0.127\n"
                                      "r2_th = 0.206\n")
        assert main(["optimize", "--check", "--config", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert "# grid_alpha=1e-05\n" in captured.out
        assert "# pop_star=1.0\n" in captured.out
        assert captured.out.endswith("# check_ok=1\n")
        assert captured.err == ""

    def test_shifted_optimum_still_fails(self, monkeypatch, capsys):
        real = harness.optimize

        def shifted(config):
            alpha_star, pop_star, candidates = real(config)
            return alpha_star + 3e-5, pop_star, candidates

        monkeypatch.setattr(harness, "optimize", shifted)
        assert main(["optimize", "--check"]) == EXIT_VALIDATION_FAILURE
        captured = capsys.readouterr()
        assert captured.out.endswith("# check_ok=0\n")
        assert captured.err == ("validation failure: closed-form optimum "
                                "disagrees with the grid search\n")


    def test_value_above_grid_minimum_fails_at_high_snr(self, tmp_path,
                                                         monkeypatch, capsys):
        # at 200 dB POP* is ~1e-15, so an absolute slack of 1e-10 would pass
        # an optimum 1% above the grid minimum
        path = write_config(tmp_path, "rho_t_db = 200\n")
        real = harness.optimize

        def inflated(config):
            alpha_star, pop_star, candidates = real(config)
            return alpha_star, pop_star * 1.01, candidates

        monkeypatch.setattr(harness, "optimize", inflated)
        code = main(["optimize", "--check", "--config", path])
        assert code == EXIT_VALIDATION_FAILURE
        assert capsys.readouterr().out.endswith("# check_ok=0\n")

# the subcommands that draw Monte Carlo and so take the MC options
DRAWS_MC = {"pop", "sweep-threshold", "validate-mc"}
COMMON = [("config", None), ("out", None), ("format", "csv")]
MC = [("seed", 12345), ("trials", 1000000), ("chunk", 250000)]

# vars() of each subcommand's parsed defaults, key order included; the order
# follows the add_argument calls, so a reordered flag shows up here. The
# Monte Carlo options come last, on the subcommands that draw Monte Carlo
PARSED_DEFAULTS = {
    "pop": COMMON + [("alpha", 0.5), ("with_mc", False)] + MC,
    "optimize": COMMON + [("check", False)],
    "sweep-alpha": COMMON + [("start", 0.1), ("stop", 0.9), ("count", 17)],
    "sweep-threshold": COMMON + [("var", "r_th_both"), ("start", 0.05),
                                 ("stop", 0.5), ("count", 10),
                                 ("with_mc", False)] + MC,
    "sweep-snr": COMMON + [("start", 40.0), ("stop", 80.0), ("count", 9)],
    "compare": COMMON + [("start", 60.0), ("stop", 200.0), ("count", 15)],
    "validate-mc": (COMMON + [("start", 0.1), ("stop", 0.9), ("count", 25)]
                    + MC),
}


class TestParser:
    @pytest.mark.parametrize("command", PARSED_DEFAULTS)
    def test_parsed_defaults_pinned(self, command):
        args = build_parser().parse_args([command])
        assert list(vars(args).items()) == ([("command", command)]
                                            + PARSED_DEFAULTS[command])

    def test_every_command_is_pinned(self):
        assert list(harness.COMMANDS) == list(PARSED_DEFAULTS)

    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == f"noma-pop {noma_pop.__version__}\n"
        assert captured.err == ""

    @pytest.mark.parametrize("command", PARSED_DEFAULTS)
    def test_help_lists_mc_options_where_mc_is_drawn(self, capsys, command):
        assert main([command, "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        for flag in ("--seed", "--trials", "--chunk"):
            assert (flag in out) == (command in DRAWS_MC)
        # --with-mc, where the Monte Carlo columns are opt-in, is described
        described = ("--with-mc cross-check with the Monte Carlo estimator"
                     in " ".join(out.split()))
        assert described == (command in {"pop", "sweep-threshold"})

    @pytest.mark.parametrize("var", ["r1_th", "r2_th", "r_th_both"])
    def test_threshold_var_choices(self, var):
        args = build_parser().parse_args(["sweep-threshold", "--var", var])
        assert args.var == var

    def test_threshold_var_rejects_unknown(self, capsys):
        assert main(["sweep-threshold", "--var", "bogus"]) \
            == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'bogus'" in captured.err


class TestMcFlagsChecked:
    """``--seed``/``--trials``/``--chunk`` are checked on the subcommands
    that draw Monte Carlo, also without ``--with-mc``, and the error names
    the option; the others do not know them."""

    @pytest.mark.parametrize("command", [
        ["optimize", "--trials", "0"],
        ["sweep-snr", "--chunk", "0"],
        ["pop", "--trials", "0"],
        # past sys.maxsize, len() cannot count the chunks
        ["validate-mc", "--count", "2", "--trials",
         "10000000000000000000000000"],
        # numpy's seed check would say only "expected non-negative integer"
        ["pop", "--seed", "-1"],
    ])
    def test_rejected_with_one_error_line(self, capsys, command):
        assert main(command) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        if command[0] not in DRAWS_MC:
            assert captured.err.endswith(
                f"error: unrecognized arguments: {' '.join(command[1:])}\n")
            return
        assert captured.err.startswith(f"error: {command[-2][2:]} must be")
        assert captured.err.count("\n") == 1
        assert captured.err.endswith("\n")
