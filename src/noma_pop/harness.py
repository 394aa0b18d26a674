"""Experiment runner and CLI for the pair-outage analysis.

Runs the standard experiment families (threshold sweeps, split sweeps, SNR
sweeps, distance sweeps, scheme comparison, Monte Carlo validation) from a
base configuration plus one sweep axis, and emits plot-ready CSV or JSON.
Output is a pure function of configuration and seed: rerunning a command
reproduces the file byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import classify_case, pop_value
from .model import DerivedParams, SystemConfig, reference_config
from .montecarlo import McConfig, pop_estimate, binomial_z, validate
from .optimizer import NoFeasibleAllocationError, grid_oracle, optimize

EPA_ALPHA = 0.5  # equal power allocation benchmark
FPA_ALPHA = 0.4  # fixed power allocation benchmark
Z_FLAG = 4.0     # validation failure threshold on |z|

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VALIDATION_FAILURE = 2
EXIT_NO_FEASIBLE_ALLOCATION = 3

KINDS = ("sweep_threshold", "sweep_alpha", "sweep_snr", "compare_schemes",
         "sweep_distance", "validate_mc")


@dataclass(frozen=True)
class SweepAxis:
    """One swept variable: name plus an inclusive linspace definition."""

    name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        if self.count < 2:
            raise ValueError(f"sweep count must be >= 2, got {self.count}")
        if not self.start <= self.stop:
            raise ValueError("sweep start must not exceed stop")
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class Experiment:
    """A runnable experiment: kind, base config, sweep axis, optional MC."""

    kind: str
    base: SystemConfig
    sweep: SweepAxis
    mc: McConfig | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")


@dataclass
class ResultTable:
    """Ordered result rows plus derived summary values for the footer."""

    columns: list[str]
    rows: list[dict]
    summary: dict | None = None


def _with_updates(config: SystemConfig, **changes) -> SystemConfig:
    return dataclasses.replace(config, **changes)


def _case_label(alpha: float, derived: DerivedParams) -> str:
    return classify_case(alpha, derived).label.label


def run_sweep_threshold(exp: Experiment) -> ResultTable:
    """POP versus threshold rate(s) at the base split and SNR.

    The axis name selects which threshold moves: "r1_th", "r2_th", or
    "r_th_both" to move both together. Optional MC columns cross-check each
    row with the estimator.
    """
    if exp.sweep.name not in ("r1_th", "r2_th", "r_th_both"):
        raise ValueError(f"threshold sweep cannot run over {exp.sweep.name!r}")
    if exp.sweep.start <= 0:
        raise ValueError("threshold rates must be positive")
    alpha = EPA_ALPHA
    columns = ["r1_th", "r2_th", "rho_t_db", "pop", "case"]
    if exp.mc is not None:
        columns += ["mc_pop", "std_err", "z"]
    rows = []
    for i, value in enumerate(exp.sweep.values()):
        v = float(value)
        if exp.sweep.name == "r1_th":
            cfg = _with_updates(exp.base, r1_th=v)
        elif exp.sweep.name == "r2_th":
            cfg = _with_updates(exp.base, r2_th=v)
        else:
            cfg = _with_updates(exp.base, r1_th=v, r2_th=v)
        derived = DerivedParams.from_config(cfg)
        row = {
            "r1_th": cfg.r1_th,
            "r2_th": cfg.r2_th,
            "rho_t_db": cfg.rho_t_db,
            "pop": pop_value(alpha, derived),
            "case": _case_label(alpha, derived),
        }
        if exp.mc is not None:
            from .montecarlo import point_seed
            mc_i = McConfig(trials=exp.mc.trials,
                            seed=point_seed(exp.mc.seed, i),
                            chunk=exp.mc.chunk)
            est = pop_estimate(cfg, alpha, mc_i)
            row["mc_pop"] = est.pop_hat
            row["std_err"] = est.std_err
            row["z"] = binomial_z(est.pop_hat, row["pop"], est.trials)
        rows.append(row)
    return ResultTable(columns=columns, rows=rows)


def run_sweep_alpha(exp: Experiment) -> ResultTable:
    """POP versus the power split, with the optimal split marked.

    The optimum is inserted as an extra row (is_alpha_star=1) in sweep order
    so the emitted curve passes exactly through it.
    """
    if exp.sweep.name != "alpha":
        raise ValueError(f"alpha sweep cannot run over {exp.sweep.name!r}")
    if not (0.0 < exp.sweep.start and exp.sweep.stop < 1.0):
        raise ValueError("alpha sweep bounds must lie inside (0, 1)")
    derived = DerivedParams.from_config(exp.base)
    entries = [(float(a), 0) for a in exp.sweep.values()]
    summary: dict = {}
    try:
        alpha_star, pop_star, _ = optimize(exp.base)
        entries.append((alpha_star, 1))
        summary = {"alpha_star": alpha_star, "pop_star": pop_star}
    except NoFeasibleAllocationError:
        pass  # whole sweep is certain outage; nothing to mark
    entries.sort()
    rows = [{
        "alpha": a,
        "pop": pop_value(a, derived),
        "case": _case_label(a, derived),
        "is_alpha_star": flag,
    } for a, flag in entries]
    return ResultTable(columns=["alpha", "pop", "case", "is_alpha_star"],
                       rows=rows, summary=summary or None)


def run_sweep_snr(exp: Experiment) -> ResultTable:
    """POP versus transmit SNR (dB) at the base split."""
    if exp.sweep.name != "rho_t_db":
        raise ValueError(f"SNR sweep cannot run over {exp.sweep.name!r}")
    alpha = EPA_ALPHA
    rows = []
    for value in exp.sweep.values():
        cfg = _with_updates(exp.base, rho_t_db=float(value),
                            pt_dbm=None, noise_dbm=None)
        derived = DerivedParams.from_config(cfg)
        rows.append({
            "rho_t_db": cfg.rho_t_db,
            "pop": pop_value(alpha, derived),
            "case": _case_label(alpha, derived),
        })
    return ResultTable(columns=["rho_t_db", "pop", "case"], rows=rows)


def run_sweep_distance(exp: Experiment) -> ResultTable:
    """POP versus far-user distance at the base split."""
    if exp.sweep.name != "d2":
        raise ValueError(f"distance sweep cannot run over {exp.sweep.name!r}")
    if exp.sweep.start < exp.base.d1:
        raise ValueError("far-user distance cannot drop below d1")
    alpha = EPA_ALPHA
    rows = []
    for value in exp.sweep.values():
        cfg = _with_updates(exp.base, d2=float(value))
        derived = DerivedParams.from_config(cfg)
        rows.append({
            "d2": cfg.d2,
            "pop": pop_value(alpha, derived),
            "case": _case_label(alpha, derived),
        })
    return ResultTable(columns=["d2", "pop", "case"], rows=rows)


def run_compare_schemes(exp: Experiment) -> ResultTable:
    """Optimal vs equal vs fixed power allocation over a far-user distance sweep.

    The footer carries the average percentage improvement of the optimal
    scheme over each benchmark, mean over rows of
    100 * (pop_scheme - pop_opa) / pop_scheme; both are recomputable from the
    emitted rows.
    """
    if exp.sweep.name != "d2":
        raise ValueError(f"scheme comparison sweeps d2, not {exp.sweep.name!r}")
    if exp.sweep.start < exp.base.d1:
        raise ValueError("far-user distance cannot drop below d1")
    rows = []
    for value in exp.sweep.values():
        cfg = _with_updates(exp.base, d2=float(value))
        derived = DerivedParams.from_config(cfg)
        alpha_star, pop_opa, _ = optimize(cfg)
        rows.append({
            "d2": cfg.d2,
            "pop_opa": pop_opa,
            "pop_epa": pop_value(EPA_ALPHA, derived),
            "pop_fpa": pop_value(FPA_ALPHA, derived),
            "alpha_star": alpha_star,
        })
    imp_epa = [100.0 * (r["pop_epa"] - r["pop_opa"]) / r["pop_epa"]
               for r in rows]
    imp_fpa = [100.0 * (r["pop_fpa"] - r["pop_opa"]) / r["pop_fpa"]
               for r in rows]
    summary = {
        "avg_improvement_over_epa_pct": float(np.mean(imp_epa)),
        "avg_improvement_over_fpa_pct": float(np.mean(imp_fpa)),
    }
    return ResultTable(
        columns=["d2", "pop_opa", "pop_epa", "pop_fpa", "alpha_star"],
        rows=rows, summary=summary)


def run_validate_mc(exp: Experiment, analytic_fn=None,
                    enforce_ordering: bool = False) -> ResultTable:
    """Analytic-vs-Monte-Carlo comparison over a split grid.

    The summary reports the largest |z| and how many points exceed the flag
    threshold; the CLI turns any flagged point into a validation failure.
    """
    if exp.sweep.name != "alpha":
        raise ValueError(f"MC validation sweeps alpha, not {exp.sweep.name!r}")
    if not (0.0 < exp.sweep.start and exp.sweep.stop < 1.0):
        raise ValueError("alpha grid must lie inside (0, 1)")
    if exp.mc is None:
        raise ValueError("validate_mc requires a Monte Carlo configuration")
    grid = [float(a) for a in exp.sweep.values()]
    report = validate(exp.base, grid, exp.mc, analytic_fn=analytic_fn,
                      enforce_ordering=enforce_ordering)
    rows = [dataclasses.asdict(r) for r in report]
    abs_z = [abs(r.z) for r in report]
    summary = {
        "max_abs_z": max(abs_z),
        "flagged": sum(1 for z in abs_z if z > Z_FLAG),
    }
    return ResultTable(columns=["alpha", "analytic_pop", "mc_pop",
                                "std_err", "z"],
                       rows=rows, summary=summary)


_RUNNERS = {
    "sweep_threshold": run_sweep_threshold,
    "sweep_alpha": run_sweep_alpha,
    "sweep_snr": run_sweep_snr,
    "sweep_distance": run_sweep_distance,
    "compare_schemes": run_compare_schemes,
    "validate_mc": run_validate_mc,
}


def run(exp: Experiment) -> ResultTable:
    """Dispatch an experiment to its runner."""
    return _RUNNERS[exp.kind](exp)


# --------------------------------------------------------------------------
# configuration files
# --------------------------------------------------------------------------

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SystemConfig)}


def load_config(path: str | Path) -> SystemConfig:
    """Read a key/value config file with the exact SystemConfig field names.

    Lines look like ``d2 = 150``; ``#`` starts a comment. Unset keys fall
    back to the reference defaults (pt_dbm/noise_dbm stay unset unless
    given, so overriding rho_t_db alone stays consistent). Unknown keys are
    an error.
    """
    values: dict[str, float] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', "
                             f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key "
                             f"{key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot parse value for "
                             f"{key!r}: {value.strip()!r}") from None
    base = dataclasses.asdict(reference_config())
    base["pt_dbm"] = None
    base["noise_dbm"] = None
    base.update(values)
    return SystemConfig(**base)


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_line(config: SystemConfig) -> str:
    parts = [f"{f.name}={_fmt(getattr(config, f.name))}"
             for f in dataclasses.fields(config)
             if getattr(config, f.name) is not None]
    return " ".join(parts)


def render_csv(table: ResultTable, config: SystemConfig, title: str,
               mc: McConfig | None = None) -> str:
    """CSV text with a provenance comment line and a derived-data footer."""
    header = f"# noma-pop {__version__} | {title} | {_config_line(config)}"
    if mc is not None:
        header += f" | trials={mc.trials} seed={mc.seed} chunk={mc.chunk}"
    lines = [header, ",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_fmt(row[c]) for c in table.columns))
    if table.summary:
        for key, value in table.summary.items():
            lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def render_json(table: ResultTable, config: SystemConfig, title: str,
                mc: McConfig | None = None) -> str:
    meta = {"tool": f"noma-pop {__version__}", "experiment": title,
            "config": {f.name: getattr(config, f.name)
                       for f in dataclasses.fields(config)}}
    if mc is not None:
        meta["mc"] = dataclasses.asdict(mc)
    doc = {"meta": meta, "columns": table.columns, "rows": table.rows}
    if table.summary:
        doc["summary"] = table.summary
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE",
                        help="key/value configuration file")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=McConfig().seed,
                        help="Monte Carlo seed")
    parser.add_argument("--trials", type=int, default=McConfig().trials,
                        help="Monte Carlo trials per point")
    parser.add_argument("--chunk", type=int, default=McConfig().chunk,
                        help="trials per deterministic substream")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-pop",
        description="Pair outage probability analysis for a two-user "
                    "downlink NOMA pair with imperfect SIC.")
    parser.add_argument("--version", action="version",
                        version=f"noma-pop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pop", help="evaluate POP at one split")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=EPA_ALPHA)
    p.add_argument("--with-mc", action="store_true",
                   help="cross-check with the Monte Carlo estimator")

    p = sub.add_parser("optimize", help="closed-form optimal split")
    _add_common(p)
    p.add_argument("--check", action="store_true",
                   help="cross-check the optimum against a 1e-5 grid search")

    p = sub.add_parser("sweep-alpha", help="POP versus power split")
    _add_common(p)
    p.add_argument("--start", type=float, default=0.1)
    p.add_argument("--stop", type=float, default=0.9)
    p.add_argument("--count", type=int, default=17)

    p = sub.add_parser("sweep-threshold", help="POP versus threshold rates")
    _add_common(p)
    p.add_argument("--var", choices=("r1_th", "r2_th", "r_th_both"),
                   default="r_th_both")
    p.add_argument("--start", type=float, default=0.05)
    p.add_argument("--stop", type=float, default=0.5)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--with-mc", action="store_true")

    p = sub.add_parser("sweep-snr", help="POP versus transmit SNR")
    _add_common(p)
    p.add_argument("--start", type=float, default=40.0)
    p.add_argument("--stop", type=float, default=80.0)
    p.add_argument("--count", type=int, default=9)

    p = sub.add_parser("compare", help="optimal vs equal vs fixed allocation")
    _add_common(p)
    p.add_argument("--start", type=float, default=60.0,
                   help="far-user distance sweep start (m)")
    p.add_argument("--stop", type=float, default=200.0)
    p.add_argument("--count", type=int, default=15)

    p = sub.add_parser("validate-mc",
                       help="Monte Carlo validation of the closed form")
    _add_common(p)
    p.add_argument("--start", type=float, default=0.1)
    p.add_argument("--stop", type=float, default=0.9)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--enforce-ordering", action="store_true",
                   help="experimental: swap draws so the near user always "
                        "gets the larger gain")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else reference_config()
    mc = McConfig(trials=args.trials, seed=args.seed, chunk=args.chunk)

    if args.command == "pop":
        derived = DerivedParams.from_config(config)
        row = {
            "alpha": args.alpha,
            "pop": pop_value(args.alpha, derived),
            "case": _case_label(args.alpha, derived),
        }
        columns = ["alpha", "pop", "case"]
        if args.with_mc:
            est = pop_estimate(config, args.alpha, mc)
            row.update(mc_pop=est.pop_hat, std_err=est.std_err,
                       z=binomial_z(est.pop_hat, row["pop"], est.trials))
            columns += ["mc_pop", "std_err", "z"]
        table = ResultTable(columns=columns, rows=[row])
        title, used_mc = "pop", mc if args.with_mc else None
    elif args.command == "optimize":
        alpha_star, pop_star, candidates = optimize(config)
        rows = [{
            "candidate": c.name,
            "case": c.case.label,
            "alpha": c.alpha if c.alpha is not None else "",
            "exists": int(c.exists),
            "feasible": int(c.feasible),
            "pop": c.pop if c.pop is not None else "",
        } for c in candidates.all()]
        summary = {"alpha_star": alpha_star, "pop_star": pop_star}
        if args.check:
            grid_alpha, grid_pop = grid_oracle(config, step=1e-5)
            summary.update(grid_alpha=grid_alpha, grid_pop=grid_pop)
            summary["check_ok"] = int(abs(alpha_star - grid_alpha) <= 1e-5
                                      and pop_star <= grid_pop + 1e-10)
        table = ResultTable(
            columns=["candidate", "case", "alpha", "exists", "feasible",
                     "pop"],
            rows=rows, summary=summary)
        title, used_mc = "optimize", None
    elif args.command == "sweep-alpha":
        exp = Experiment("sweep_alpha", config,
                         SweepAxis("alpha", args.start, args.stop, args.count))
        table = run(exp)
        title, used_mc = "sweep-alpha", None
    elif args.command == "sweep-threshold":
        exp = Experiment("sweep_threshold", config,
                         SweepAxis(args.var, args.start, args.stop,
                                   args.count),
                         mc=mc if args.with_mc else None)
        table = run(exp)
        title, used_mc = "sweep-threshold", mc if args.with_mc else None
    elif args.command == "sweep-snr":
        exp = Experiment("sweep_snr", config,
                         SweepAxis("rho_t_db", args.start, args.stop,
                                   args.count))
        table = run(exp)
        title, used_mc = "sweep-snr", None
    elif args.command == "compare":
        exp = Experiment("compare_schemes", config,
                         SweepAxis("d2", args.start, args.stop, args.count))
        table = run(exp)
        title, used_mc = "compare", None
    else:  # validate-mc
        exp = Experiment("validate_mc", config,
                         SweepAxis("alpha", args.start, args.stop,
                                   args.count),
                         mc=mc)
        table = run_validate_mc(exp, enforce_ordering=args.enforce_ordering)
        title, used_mc = "validate-mc", mc

    render = render_csv if args.format == "csv" else render_json
    _emit(render(table, config, title, mc=used_mc), args.out)

    if args.command == "validate-mc" and table.summary["flagged"] > 0:
        print(f"validation failure: {table.summary['flagged']} point(s) "
              f"with |z| > {Z_FLAG}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE
    if args.command == "optimize" and args.check \
            and not table.summary["check_ok"]:
        print("validation failure: closed-form optimum disagrees with the "
              "grid search", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into "invalid input"
        # so exit code 2 stays reserved for validation failures
        return EXIT_OK if exc.code == 0 else EXIT_INVALID_INPUT
    try:
        return _dispatch(args)
    except NoFeasibleAllocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE_ALLOCATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MemoryError as exc:
        # e.g. a huge --chunk: each MC chunk's draws are allocated at once
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
