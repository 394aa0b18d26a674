"""Experiment runner and CLI for the pair-outage analysis.

Runs the standard experiments (POP at one split, the optimum, threshold,
split and SNR sweeps, scheme comparison, Monte Carlo validation) and emits
plot-ready CSV or JSON. Each subcommand is registered once, in ``COMMANDS``;
a sweep runs as an ``Experiment``: a base configuration, one swept axis and
its inclusive linspace. Output is a pure function of configuration and seed: rerunning a
command reproduces the file byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import analytic
from .analytic import pop_value
from .model import DerivedParams, SystemConfig, reference_config
from .montecarlo import McConfig, check_point, point_seed, validate
from .optimizer import (NoFeasibleAllocationError, grid_min_near,
                        grid_oracle, optimize)

EPA_ALPHA = 0.5  # equal power allocation benchmark
FPA_ALPHA = 0.4  # fixed power allocation benchmark
Z_FLAG = 4.0     # validation failure threshold on |z|

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VALIDATION_FAILURE = 2
EXIT_NO_FEASIBLE_ALLOCATION = 3


@dataclass(frozen=True)
class Experiment:
    """A runnable sweep: subcommand, base config, the swept ``axis`` at
    ``count`` points from ``start`` to ``stop`` inclusive, optional MC."""

    kind: str
    base: SystemConfig
    axis: str
    start: float
    stop: float
    count: int
    mc: McConfig | None = None

    def __post_init__(self):
        if self.kind not in COMMANDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        spec = COMMANDS[self.kind]  # the axis and its bounds must suit it
        if self.axis not in spec.axes:
            raise ValueError(f"{self.kind} cannot sweep {self.axis!r}")
        if spec.reject and spec.reject[0](self):
            raise ValueError(spec.reject[1])
        if self.mc is not None and MC_FLAGS[0] not in spec.flags:
            raise ValueError(f"{self.kind} draws no Monte Carlo")

    def values(self) -> np.ndarray:
        for bound, value in (("start", self.start), ("stop", self.stop)):
            if not math.isfinite(value):
                raise ValueError(f"sweep {bound} must be finite, got {value}")
        if self.count < 2:
            raise ValueError(f"sweep count must be >= 2, got {self.count}")
        if not self.start <= self.stop:
            raise ValueError("sweep start must not exceed stop")
        if not math.isfinite(self.stop - self.start):
            raise ValueError("sweep span stop - start must be finite")
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class ResultTable:
    """Ordered result rows, whose keys are the columns, plus derived summary
    values for the footer."""

    rows: list[dict]
    summary: dict | None = None


def _pop_case(alpha: float, derived: DerivedParams) -> dict:
    p = analytic.pop(alpha, derived)
    return {"pop": p.value, "case": p.case.label}


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


def run_sweep_alpha(exp: Experiment) -> ResultTable:
    """POP versus the power split, with the optimal split marked.

    The optimum is inserted as an extra row (is_alpha_star=1) in sweep order
    so the emitted curve passes exactly through it.
    """
    entries = [(float(a), 0) for a in exp.values()]
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
    return ResultTable(rows, summary)


def run_validate_mc(exp: Experiment) -> ResultTable:
    """Analytic-vs-Monte-Carlo comparison over a split grid.

    The summary reports the largest |z| and how many points exceed the flag
    threshold; the CLI turns any flagged point into a validation failure.
    """
    grid = [float(a) for a in exp.values()]
    if exp.mc is None:
        raise ValueError("validate-mc requires a Monte Carlo configuration")
    report = validate(exp.base, grid, exp.mc)
    rows = [dataclasses.asdict(r) for r in report]
    abs_z = [abs(r.z) for r in report]
    summary = {"max_abs_z": max(abs_z),
               "flagged": sum(1 for z in abs_z if z > Z_FLAG)}
    return ResultTable(rows, summary)


def _pop_body(args: argparse.Namespace, config: SystemConfig,
              mc: McConfig | None) -> ResultTable:
    """POP and its case at ``--alpha``, plus MC columns when ``mc`` is set."""
    row = {"alpha": args.alpha,
           **_pop_case(args.alpha, DerivedParams.from_config(config))}
    if mc is not None:
        check = check_point(config, args.alpha, row["pop"], mc)
        row.update(mc_pop=check.mc_pop, std_err=check.std_err, z=check.z)
    return ResultTable([row])


def _optimize_body(args: argparse.Namespace, config: SystemConfig,
                   mc: McConfig | None) -> ResultTable:
    """The candidates and the optimum; ``--check`` adds the grid search."""
    alpha_star, pop_star, candidates = optimize(config)
    rows = [{
        "candidate": c.name,
        "case": c.case.label,
        "alpha": c.alpha if c.alpha is not None else "",
        "exists": int(c.alpha is not None),
        "feasible": int(c.feasible),
        "pop": c.pop if c.pop is not None else "",
    } for c in candidates]
    summary = {"alpha_star": alpha_star, "pop_star": pop_star}
    if args.check:
        grid_alpha, grid_pop = grid_oracle(config)
        summary.update(grid_alpha=grid_alpha, grid_pop=grid_pop)
        summary["check_ok"] = int(
            grid_min_near(config, alpha_star, grid_pop)
            and pop_star <= grid_pop * (1.0 + 8.0 * sys.float_info.epsilon))
    return ResultTable(rows, summary)


@dataclass(frozen=True)
class Command:
    """One subcommand: ``help``, extra ``flags`` (name, ``add_argument``
    keywords; ``MC_FLAGS`` last where it draws Monte Carlo) and, for ``pop``
    and ``optimize``, a ``body`` building the table from the parsed
    arguments. A sweep runs as an ``Experiment``: ``axes`` and the config
    fields each sets, the ``--var`` default ``var`` if there are several,
    the default start/stop/count ``sweep``, a bound check (``reject``:
    failing test, error), and a ``runner`` of its own or, for the loop in
    ``run``, ``echo`` fields, row ``metrics`` (MC columns follow with
    ``--with-mc``) and ``footer``."""

    help: str
    flags: tuple[tuple[str, dict], ...] = ()
    body: Callable[..., ResultTable] | None = None
    axes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    var: str | None = None
    sweep: tuple[float, float, int] | None = None
    start_help: str | None = None
    reject: tuple[Callable[[Experiment], bool], str] | None = None
    echo: tuple[str, ...] = ()
    metrics: Callable[[SystemConfig], dict] | None = None
    footer: Callable[[list[dict]], dict] | None = None
    runner: Callable[[Experiment], ResultTable] | None = None


def _outside_unit_interval(exp: Experiment) -> bool:
    return not (0.0 < exp.start and exp.stop < 1.0)


# the Monte Carlo options, on the subcommands that draw Monte Carlo only
MC_FLAGS = (
    ("--seed", {"type": int, "default": McConfig().seed,
                "help": "Monte Carlo seed"}),
    ("--trials", {"type": int, "default": McConfig().trials,
                  "help": "Monte Carlo trials per point"}),
    ("--chunk", {"type": int, "default": McConfig().chunk,
                 "help": "trials per deterministic substream"}),
)
# where the Monte Carlo columns are opt-in
WITH_MC = (("--with-mc", {"action": "store_true", "help":
                          "cross-check with the Monte Carlo estimator"}),
           ) + MC_FLAGS

COMMANDS = {
    "pop": Command(
        "evaluate POP at one split", body=_pop_body,
        flags=(("--alpha", {"type": float, "default": EPA_ALPHA}),) + WITH_MC),
    "optimize": Command(
        "closed-form optimal split", body=_optimize_body,
        flags=(("--check", {"action": "store_true", "help": "cross-check the "
                            "optimum against a 1e-5 grid search"}),)),
    "sweep-alpha": Command(
        "POP versus power split", axes={"alpha": ()}, sweep=(0.1, 0.9, 17),
        reject=(_outside_unit_interval,
                "alpha sweep bounds must lie inside (0, 1)"),
        runner=run_sweep_alpha),
    "sweep-threshold": Command(
        "POP versus threshold rates",
        axes={"r1_th": ("r1_th",), "r2_th": ("r2_th",),
              "r_th_both": ("r1_th", "r2_th")},
        var="r_th_both", sweep=(0.05, 0.5, 10),
        reject=(lambda exp: exp.start <= 0,
                "threshold rates must be positive"),
        echo=("r1_th", "r2_th", "rho_t_db"), metrics=_epa_metrics,
        flags=WITH_MC),
    "sweep-snr": Command(
        "POP versus transmit SNR", axes={"rho_t_db": ("rho_t_db",)},
        sweep=(40.0, 80.0, 9), echo=("rho_t_db",), metrics=_epa_metrics),
    "compare": Command(
        "optimal vs equal vs fixed allocation", axes={"d2": ("d2",)},
        sweep=(60.0, 200.0, 15),
        start_help="far-user distance sweep start (m)",
        reject=(lambda exp: exp.start < exp.base.d1,
                "far-user distance cannot drop below d1"),
        echo=("d2",), metrics=_scheme_metrics, footer=_scheme_improvements),
    "validate-mc": Command(
        "Monte Carlo validation of the closed form", axes={"alpha": ()},
        sweep=(0.1, 0.9, 25),
        reject=(_outside_unit_interval, "alpha grid must lie inside (0, 1)"),
        flags=MC_FLAGS, runner=run_validate_mc),
}


def run(exp: Experiment) -> ResultTable:
    """Run a sweep as its subcommand's entry in ``COMMANDS`` says."""
    spec = COMMANDS[exp.kind]
    if spec.runner is not None:
        return spec.runner(exp)
    fields = spec.axes[exp.axis]
    rows = []
    for i, value in enumerate(exp.values()):
        config = dataclasses.replace(exp.base, pt_dbm=None, noise_dbm=None,
                                     **dict.fromkeys(fields, float(value)))
        row = {name: getattr(config, name) for name in spec.echo}
        row.update(spec.metrics(config))
        if exp.mc is not None:
            mc = dataclasses.replace(exp.mc, seed=point_seed(exp.mc.seed, i))
            check = check_point(config, EPA_ALPHA, row["pop"], mc)
            row.update(mc_pop=check.mc_pop, std_err=check.std_err, z=check.z)
        rows.append(row)
    return ResultTable(rows, spec.footer(rows) if spec.footer else None)


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
    columns = list(table.rows[0])
    lines = [header, ",".join(columns)]
    lines += [",".join(_fmt(row[c]) for c in columns) for row in table.rows]
    lines += [f"# {key}={_fmt(value)}"
              for key, value in (table.summary or {}).items()]
    return "\n".join(lines) + "\n"


def render_json(table: ResultTable, config: SystemConfig, title: str,
                mc: McConfig | None = None) -> str:
    meta = {"tool": f"noma-pop {__version__}", "experiment": title,
            "config": dataclasses.asdict(config)}
    if mc is not None:
        meta["mc"] = dataclasses.asdict(mc)
    doc = {"meta": meta, "columns": list(table.rows[0]), "rows": table.rows}
    if table.summary:
        doc["summary"] = table.summary
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE",
                        help="key/value configuration file")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-pop",
        description="Pair outage probability analysis for a two-user "
                    "downlink NOMA pair with imperfect SIC.")
    parser.add_argument("--version", action="version",
                        version=f"noma-pop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        _add_common(p)
        if len(cmd.axes) > 1:
            p.add_argument("--var", choices=tuple(cmd.axes), default=cmd.var)
        if cmd.sweep is not None:
            p.add_argument("--start", type=float, default=cmd.sweep[0],
                           help=cmd.start_help)
            p.add_argument("--stop", type=float, default=cmd.sweep[1])
            p.add_argument("--count", type=int, default=cmd.sweep[2])
        for flag, kwargs in cmd.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else reference_config()
    mc = (McConfig(trials=args.trials, seed=args.seed, chunk=args.chunk)
          if "trials" in args else None)  # checked also without --with-mc
    if not getattr(args, "with_mc", True):
        mc = None
    cmd = COMMANDS[args.command]
    if cmd.body is not None:
        table = cmd.body(args, config, mc)
    else:
        axis = getattr(args, "var", next(iter(cmd.axes)))
        table = run(Experiment(args.command, config, axis, args.start,
                               args.stop, args.count, mc=mc))

    render = render_csv if args.format == "csv" else render_json
    text = render(table, config, args.command, mc=mc)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    summary = table.summary or {}
    if summary.get("flagged", 0) > 0:
        failure = f"{summary['flagged']} point(s) with |z| > {Z_FLAG}"
    elif summary.get("check_ok") == 0:
        failure = "closed-form optimum disagrees with the grid search"
    else:
        return EXIT_OK
    print(f"validation failure: {failure}", file=sys.stderr)
    return EXIT_VALIDATION_FAILURE


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
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
