"""Experiment runner and CLI for the pair-outage analysis.

Runs the standard experiment families (threshold sweeps, split sweeps, SNR
sweeps, distance sweeps, scheme comparison, Monte Carlo validation) from a
base configuration plus one sweep axis, and emits plot-ready CSV or JSON.
Each family is defined once, in ``KINDS``, and each sweep subcommand in
``SWEEPS``. Output is a pure function of configuration and seed: rerunning
a command reproduces the file byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analytic import classify_case, pop_value
from .model import DerivedParams, SystemConfig, reference_config
from .montecarlo import (McConfig, binomial_z, point_seed, pop_estimate,
                         validate)
from .optimizer import (NoFeasibleAllocationError, grid_min_near,
                        grid_oracle, optimize)

EPA_ALPHA = 0.5  # equal power allocation benchmark
FPA_ALPHA = 0.4  # fixed power allocation benchmark
Z_FLAG = 4.0     # validation failure threshold on |z|
GRID_STEP = 1e-5  # resolution of the optimize --check grid search

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VALIDATION_FAILURE = 2
EXIT_NO_FEASIBLE_ALLOCATION = 3


@dataclass(frozen=True)
class SweepAxis:
    """One swept variable: name plus an inclusive linspace definition."""

    name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        for bound, value in (("start", self.start), ("stop", self.stop)):
            if not math.isfinite(value):
                raise ValueError(f"sweep {bound} must be finite, got {value}")
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
        spec = KINDS[self.kind]  # the axis and its bounds must suit the kind
        if self.sweep.name not in spec.axes:
            raise ValueError(f"{self.kind} cannot sweep {self.sweep.name!r}")
        if spec.reject and spec.reject[0](self):
            raise ValueError(spec.reject[1])


@dataclass
class ResultTable:
    """Ordered result rows plus derived summary values for the footer."""

    columns: list[str]
    rows: list[dict]
    summary: dict | None = None


def _pop_case(alpha: float, derived: DerivedParams) -> dict:
    return {"pop": pop_value(alpha, derived),
            "case": classify_case(alpha, derived).label.label}


def _mc_columns(config: SystemConfig, alpha: float, pop: float,
                mc: McConfig) -> dict:
    """MC estimate at one split, its standard error and z against ``pop``."""
    est = pop_estimate(config, alpha, mc)
    return {"mc_pop": est.pop_hat, "std_err": est.std_err,
            "z": binomial_z(est.pop_hat, pop, est.trials)}


def _epa_metrics(config: SystemConfig) -> dict:
    return _pop_case(EPA_ALPHA, DerivedParams.from_config(config))


def _scheme_metrics(config: SystemConfig) -> dict:
    derived = DerivedParams.from_config(config)
    alpha_star, pop_opa, _ = optimize(config)
    return {"pop_opa": pop_opa,
            "pop_epa": pop_value(EPA_ALPHA, derived),
            "pop_fpa": pop_value(FPA_ALPHA, derived),
            "alpha_star": alpha_star}


def _scheme_improvements(rows: list[dict]) -> dict:
    """Mean over rows of 100 * (pop_scheme - pop_opa) / pop_scheme."""
    summary = {}
    for s in ("epa", "fpa"):
        gains = [100.0 * (r[f"pop_{s}"] - r["pop_opa"]) / r[f"pop_{s}"]
                 for r in rows]
        summary[f"avg_improvement_over_{s}_pct"] = float(np.mean(gains))
    return summary


@dataclass(frozen=True)
class KindSpec:
    """One experiment kind: allowed ``axes`` and the config fields each
    sets, a bound check (``reject``: failing test, error), and for the loop
    in ``run`` the ``fixed`` updates, ``echo`` fields, row ``metrics``,
    optional MC columns and ``footer``; or a ``body`` of its own."""

    axes: dict[str, tuple[str, ...]]
    reject: tuple[Callable[[Experiment], bool], str] | None = None
    fixed: dict = field(default_factory=dict)
    echo: tuple[str, ...] = ()
    metrics: Callable[[SystemConfig], dict] | None = None
    with_mc: bool = False
    footer: Callable[[list[dict]], dict] | None = None
    body: Callable[[Experiment], ResultTable] | None = None


def run_sweep_alpha(exp: Experiment) -> ResultTable:
    """POP versus the power split, with the optimal split marked.

    The optimum is inserted as an extra row (is_alpha_star=1) in sweep order
    so the emitted curve passes exactly through it.
    """
    entries = [(float(a), 0) for a in exp.sweep.values()]
    derived = DerivedParams.from_config(exp.base)
    summary = None
    try:
        alpha_star, pop_star, _ = optimize(exp.base)
        entries.append((alpha_star, 1))
        summary = {"alpha_star": alpha_star, "pop_star": pop_star}
    except NoFeasibleAllocationError:
        pass  # whole sweep is certain outage; nothing to mark
    entries.sort()
    rows = [{"alpha": a, **_pop_case(a, derived), "is_alpha_star": flag}
            for a, flag in entries]
    return ResultTable(columns=list(rows[0]), rows=rows, summary=summary)


def run_validate_mc(exp: Experiment, analytic_fn=None,
                    enforce_ordering: bool = False) -> ResultTable:
    """Analytic-vs-Monte-Carlo comparison over a split grid.

    The summary reports the largest |z| and how many points exceed the flag
    threshold; the CLI turns any flagged point into a validation failure.
    """
    grid = [float(a) for a in exp.sweep.values()]
    if exp.mc is None:
        raise ValueError("validate_mc requires a Monte Carlo configuration")
    report = validate(exp.base, grid, exp.mc, analytic_fn=analytic_fn,
                      enforce_ordering=enforce_ordering)
    rows = [dataclasses.asdict(r) for r in report]
    abs_z = [abs(r.z) for r in report]
    summary = {"max_abs_z": max(abs_z),
               "flagged": sum(1 for z in abs_z if z > Z_FLAG)}
    return ResultTable(columns=list(rows[0]), rows=rows, summary=summary)


def _outside_unit_interval(exp: Experiment) -> bool:
    return not (0.0 < exp.sweep.start and exp.sweep.stop < 1.0)


_D2_BOUNDS = (lambda exp: exp.sweep.start < exp.base.d1,
              "far-user distance cannot drop below d1")

KINDS = {
    "sweep_threshold": KindSpec(
        axes={"r1_th": ("r1_th",), "r2_th": ("r2_th",),
              "r_th_both": ("r1_th", "r2_th")},
        reject=(lambda exp: exp.sweep.start <= 0,
                "threshold rates must be positive"),
        echo=("r1_th", "r2_th", "rho_t_db"), metrics=_epa_metrics,
        with_mc=True),
    "sweep_alpha": KindSpec(
        axes={"alpha": ()}, body=run_sweep_alpha,
        reject=(_outside_unit_interval,
                "alpha sweep bounds must lie inside (0, 1)")),
    "sweep_snr": KindSpec(axes={"rho_t_db": ("rho_t_db",)},
                          fixed={"pt_dbm": None, "noise_dbm": None},
                          echo=("rho_t_db",), metrics=_epa_metrics),
    "compare_schemes": KindSpec(axes={"d2": ("d2",)}, reject=_D2_BOUNDS,
                                echo=("d2",), metrics=_scheme_metrics,
                                footer=_scheme_improvements),
    "sweep_distance": KindSpec(axes={"d2": ("d2",)}, reject=_D2_BOUNDS,
                               echo=("d2",), metrics=_epa_metrics),
    "validate_mc": KindSpec(
        axes={"alpha": ()}, body=run_validate_mc,
        reject=(_outside_unit_interval, "alpha grid must lie inside (0, 1)")),
}


def run(exp: Experiment) -> ResultTable:
    """Run an experiment as its kind's entry in ``KINDS`` says."""
    spec = KINDS[exp.kind]
    if spec.body is not None:
        return spec.body(exp)
    fields = spec.axes[exp.sweep.name]
    rows = []
    for i, value in enumerate(exp.sweep.values()):
        config = dataclasses.replace(exp.base, **spec.fixed,
                                     **dict.fromkeys(fields, float(value)))
        row = {name: getattr(config, name) for name in spec.echo}
        row.update(spec.metrics(config))
        if spec.with_mc and exp.mc is not None:
            mc = dataclasses.replace(exp.mc, seed=point_seed(exp.mc.seed, i))
            row.update(_mc_columns(config, EPA_ALPHA, row["pop"], mc))
        rows.append(row)
    return ResultTable(columns=list(rows[0]), rows=rows,
                       summary=spec.footer(rows) if spec.footer else None)


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key "
                             f"{key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot parse value for "
                             f"{key!r}: {value!r}") from None
    base = dataclasses.asdict(reference_config())
    base.update(pt_dbm=None, noise_dbm=None)
    return SystemConfig(**(base | values))


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _config_line(config: SystemConfig) -> str:
    return " ".join(f"{name}={_fmt(value)}"
                    for name, value in dataclasses.asdict(config).items()
                    if value is not None)


def render_csv(table: ResultTable, config: SystemConfig, title: str,
               mc: McConfig | None = None) -> str:
    """CSV text with a provenance comment line and a derived-data footer."""
    header = f"# noma-pop {__version__} | {title} | {_config_line(config)}"
    if mc is not None:
        header += f" | trials={mc.trials} seed={mc.seed} chunk={mc.chunk}"
    lines = [header, ",".join(table.columns)]
    lines += [",".join(_fmt(row[c]) for c in table.columns)
              for row in table.rows]
    lines += [f"# {key}={_fmt(value)}"
              for key, value in (table.summary or {}).items()]
    return "\n".join(lines) + "\n"


def render_json(table: ResultTable, config: SystemConfig, title: str,
                mc: McConfig | None = None) -> str:
    meta = {"tool": f"noma-pop {__version__}", "experiment": title,
            "config": dataclasses.asdict(config)}
    if mc is not None:
        meta["mc"] = dataclasses.asdict(mc)
    doc = {"meta": meta, "columns": table.columns, "rows": table.rows}
    if table.summary:
        doc["summary"] = table.summary
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

class SweepCommand(NamedTuple):
    """A sweep subcommand: its experiment kind, default axis and range."""

    kind: str
    axis: str  # the --var default when the kind allows several axes
    start: float
    stop: float
    count: int
    help: str
    start_help: str | None = None


SWEEPS = {
    "sweep-alpha": SweepCommand("sweep_alpha", "alpha", 0.1, 0.9, 17,
                                "POP versus power split"),
    "sweep-threshold": SweepCommand("sweep_threshold", "r_th_both", 0.05, 0.5,
                                    10, "POP versus threshold rates"),
    "sweep-snr": SweepCommand("sweep_snr", "rho_t_db", 40.0, 80.0, 9,
                              "POP versus transmit SNR"),
    "compare": SweepCommand("compare_schemes", "d2", 60.0, 200.0, 15,
                            "optimal vs equal vs fixed allocation",
                            start_help="far-user distance sweep start (m)"),
    "validate-mc": SweepCommand("validate_mc", "alpha", 0.1, 0.9, 25,
                                "Monte Carlo validation of the closed form"),
}


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

    for command, sweep in SWEEPS.items():
        spec = KINDS[sweep.kind]
        p = sub.add_parser(command, help=sweep.help)
        _add_common(p)
        if len(spec.axes) > 1:
            p.add_argument("--var", choices=tuple(spec.axes),
                           default=sweep.axis)
        p.add_argument("--start", type=float, default=sweep.start,
                       help=sweep.start_help)
        p.add_argument("--stop", type=float, default=sweep.stop)
        p.add_argument("--count", type=int, default=sweep.count)
        if spec.with_mc:
            p.add_argument("--with-mc", action="store_true")
        if command == "validate-mc":
            p.add_argument("--enforce-ordering", action="store_true",
                           help="experimental: swap draws so the near user "
                                "always gets the larger gain")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else reference_config()
    mc = McConfig(trials=args.trials, seed=args.seed, chunk=args.chunk)
    used_mc, failure = None, None

    if args.command == "pop":
        derived = DerivedParams.from_config(config)
        row = {"alpha": args.alpha, **_pop_case(args.alpha, derived)}
        if args.with_mc:
            used_mc = mc
            row.update(_mc_columns(config, args.alpha, row["pop"], mc))
        table = ResultTable(columns=list(row), rows=[row])
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
            grid_alpha, grid_pop = grid_oracle(config, step=GRID_STEP)
            summary.update(grid_alpha=grid_alpha, grid_pop=grid_pop)
            summary["check_ok"] = int(
                grid_min_near(config, alpha_star, grid_pop, step=GRID_STEP)
                and pop_star <= grid_pop + 1e-10)
            if not summary["check_ok"]:
                failure = "closed-form optimum disagrees with the grid search"
        table = ResultTable(columns=list(rows[0]), rows=rows, summary=summary)
    else:  # a sweep; validate-mc always draws MC, sweep-threshold on request
        sweep = SWEEPS[args.command]
        validating = args.command == "validate-mc"
        used_mc = mc if validating or getattr(args, "with_mc", False) else None
        exp = Experiment(sweep.kind, config,
                         SweepAxis(getattr(args, "var", sweep.axis),
                                   args.start, args.stop, args.count),
                         mc=used_mc)
        if not validating:
            table = run(exp)
        else:
            table = run_validate_mc(exp,
                                    enforce_ordering=args.enforce_ordering)
            if table.summary["flagged"] > 0:
                failure = (f"{table.summary['flagged']} point(s) with "
                           f"|z| > {Z_FLAG}")

    render = render_csv if args.format == "csv" else render_json
    text = render(table, config, args.command, mc=used_mc)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    if failure:
        print(f"validation failure: {failure}", file=sys.stderr)
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
    except (NoFeasibleAllocationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoFeasibleAllocationError):
            return EXIT_NO_FEASIBLE_ALLOCATION
        return EXIT_INVALID_INPUT
    except MemoryError as exc:
        # e.g. a huge --chunk: each MC chunk's draws are allocated at once
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
