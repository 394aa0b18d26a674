"""Workloads of the noma-pop benchmark, run in a child process.

Each workload is generated from a seed, runs as a closed loop with one caller
(the next call starts when the previous one returns), single-process and
without worker threads, and checks every output. One pass runs every call of
the generated input once; passes repeat until the time is up.

    python3 perfbench/workloads.py --workload W --seed N --seconds S --trace T

prints one JSON object. ``perfbench/run.py`` starts it as a child process and
adds set-up time, peak memory and provenance around it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import noma_pop  # noqa: E402
from noma_pop import (  # noqa: E402
    analytic, harness, model, montecarlo, optimizer)

from spans import LAYERS, Tracer  # noqa: E402

if not Path(noma_pop.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"noma_pop imported from {noma_pop.__file__}, "
                     f"not from {SRC}")

TRACE_DIR = ROOT / ".perfbench"  # the traced run's spans
MIN_PASSES = 2
CLI_TIMEOUT_S = 60
# how the noma-pop console script starts the CLI
CLI_ENTRY = "import sys; from noma_pop.harness import main; sys.exit(main())"


@dataclasses.dataclass
class Plan:
    """One pass of a workload: its generated inputs, calls and checks."""

    inputs: list                              # JSON-able generated inputs
    calls: list[Callable[[], object]]         # in closed-loop order
    check: Callable[[list], list[bool]]       # outputs of a pass -> verdicts
    work: dict[str, int]                      # work items per pass, by kind
    item: str                                 # the kind items_per_s counts
    mc_chunk: int = 0                         # largest MC chunk; 0: no MC


def call_validate(config, alphas, mc):
    # looked up at call time, so that the traced run calls its wrapper
    return montecarlo.validate(config, alphas, mc)


# ---------------------------------------------------------------- mc_validate

GRID_ALPHAS = [0.2, 0.35, 0.5, 0.65, 0.8]
GRID_SNRS_DB = [40.0, 50.0, 60.0, 70.0, 80.0]
P_3SIGMA = math.erfc(3.0 / math.sqrt(2.0))  # two-sided normal tails
P_4SIGMA = math.erfc(4.0 / math.sqrt(2.0))
POISSON_BELOW = 100  # expected count of the rarer outcome


def p_value(row, trials: int) -> float:
    """Two-sided p-value of a validation row's MC count under the closed form.

    The binomial z is near normal only when the rarer outcome is expected
    often. At 40 dB and alpha = 0.5, POP = 1 - 2.8e-8: one success in 1e6
    trials (probability 2.7%) gives |z| = 5.8. Below ``POISSON_BELOW``
    expected rare outcomes, the exact Poisson tail of the count is used.
    """
    p0 = row.analytic_pop
    lam = trials * min(p0, 1.0 - p0)
    if lam >= POISSON_BELOW:
        return math.erfc(abs(row.z) / math.sqrt(2.0))
    rare = row.mc_pop if p0 <= 0.5 else 1.0 - row.mc_pop
    k = round(rare * trials)
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    pmf = [math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1))
           for i in range(k + 1)]
    at_most = sum(pmf)
    return min(1.0, 2.0 * min(at_most, 1.0 - at_most + pmf[k]))


def snr_config(snr_db: float):
    return dataclasses.replace(model.reference_config(), rho_t_db=snr_db,
                               pt_dbm=None, noise_dbm=None)


def plan_mc_validate(seed: int, in_process: bool = True) -> Plan:
    """Acceptance criterion 1's 5x5 grid at 1e6 trials, one call a point."""
    base_seed = int(np.random.default_rng(seed).integers(2**31))
    points = [(snr_config(snr), alpha,
               montecarlo.McConfig(trials=1_000_000,
                                   seed=base_seed + 1000 * i + j))
              for i, snr in enumerate(GRID_SNRS_DB)
              for j, alpha in enumerate(GRID_ALPHAS)]
    calls = [functools.partial(call_validate, cfg, [alpha], mc)
             for cfg, alpha, mc in points]

    def check(outputs):
        # criterion 1 (no point beyond 4 sigma, at least 95% within 3 sigma)
        # at the same two-sided tail probabilities
        ps = [p_value(r, mc.trials)
              for rows, (_, _, mc) in zip(outputs, points) for r in rows]
        ok = min(ps) >= P_4SIGMA and sum(p >= P_3SIGMA for p in ps) \
            >= 0.95 * len(ps)
        return [ok] * len(outputs)

    mc = points[0][2]
    return Plan(inputs=[[cfg.rho_t_db, alpha, dataclasses.asdict(mc)]
                        for cfg, alpha, mc in points],
                calls=calls, check=check,
                work={"mc_points": len(points),
                      "mc_trials": sum(p[2].trials for p in points)},
                item="mc_trials", mc_chunk=min(mc.trials, mc.chunk))


# ------------------------------------------------------------------------ cli

def parse_output(text: str, fmt: str) -> tuple[list[dict], dict]:
    """Rows and summary of a CLI result in CSV or JSON."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["rows"], doc.get("summary", {})
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","), strict=True)) for ln in body[1:]]
    summary = dict(ln[2:].split("=", 1) for ln in lines[1:]
                   if ln.startswith("# "))
    return rows, summary


def cli_commands(rng: np.random.Generator) -> list[tuple[list[str], Callable]]:
    """The README examples with seed-drawn arguments and MC trials cut.

    Each comes with a check of its parsed rows and summary against the
    library called in-process.
    """
    ref = model.reference_config()
    derived = model.DerivedParams.from_config(ref)
    pv = analytic.pop_value

    def arg(lo, hi):
        return f"{rng.uniform(lo, hi):.6f}"

    def pop_at(alpha, config):
        return pv(alpha, model.DerivedParams.from_config(config))

    a1, a2 = arg(0.1, 0.9), arg(0.1, 0.9)
    seed_pop, seed_val = (str(s) for s in rng.integers(2**31, size=2))
    var = ("r1_th", "r2_th", "r_th_both")[rng.integers(3)]
    sweep_a = [arg(0.05, 0.2), arg(0.8, 0.95)]
    sweep_t = [arg(0.05, 0.1), arg(0.4, 0.5)]
    sweep_s = [arg(30.0, 45.0), arg(70.0, 85.0)]
    sweep_d = [arg(55.0, 70.0), arg(180.0, 220.0)]
    alpha_star, pop_star, _ = optimizer.optimize(ref)
    val_grid = [float(a) for a in np.linspace(0.1, 0.9, 25)]

    def f(row, key):
        return float(row[key])

    def pop_ok(rows, summary):
        return len(rows) == 1 and f(rows[0], "pop") == pv(float(a1), derived)

    @functools.cache
    def estimate():
        return montecarlo.pop_estimate(ref, float(a2), montecarlo.McConfig(
            trials=100_000, seed=int(seed_pop)))

    def pop_mc_ok(rows, summary):
        return (len(rows) == 1 and f(rows[0], "pop") == pv(float(a2), derived)
                and f(rows[0], "mc_pop") == estimate().pop_hat)

    def optimize_ok(rows, summary):
        return (len(rows) == 6 and f(summary, "alpha_star") == alpha_star
                and f(summary, "pop_star") == pop_star
                and int(summary["check_ok"]) == 1)

    def sweep_alpha_ok(rows, summary):
        stars = [f(r, "alpha") for r in rows if int(r["is_alpha_star"])]
        return (len(rows) == 34 and stars == [alpha_star]
                and all(f(r, "pop") == pv(f(r, "alpha"), derived)
                        for r in rows))

    def sweep_threshold_ok(rows, summary):
        return len(rows) == 10 and all(
            f(r, "pop") == pop_at(harness.EPA_ALPHA, dataclasses.replace(
                ref, r1_th=f(r, "r1_th"), r2_th=f(r, "r2_th")))
            for r in rows)

    def sweep_snr_ok(rows, summary):
        return len(rows) == 9 and all(
            f(r, "pop") == pop_at(harness.EPA_ALPHA,
                                  snr_config(f(r, "rho_t_db")))
            for r in rows)

    def compare_ok(rows, summary):
        for r in rows:
            cfg = dataclasses.replace(ref, d2=f(r, "d2"))
            opt_alpha, opt_pop, _ = optimizer.optimize(cfg)
            if (f(r, "alpha_star"), f(r, "pop_opa")) != (opt_alpha, opt_pop) \
                    or f(r, "pop_epa") != pop_at(harness.EPA_ALPHA, cfg) \
                    or f(r, "pop_fpa") != pop_at(harness.FPA_ALPHA, cfg):
                return False
        return len(rows) == 15

    @functools.cache
    def validation():
        return montecarlo.validate(ref, val_grid, montecarlo.McConfig(
            trials=10_000, seed=int(seed_val)))

    def validate_ok(rows, summary):
        want = validation()
        return len(rows) == len(want) and all(
            (f(r, "alpha"), f(r, "analytic_pop"), f(r, "mc_pop"))
            == (w.alpha, w.analytic_pop, w.mc_pop) for r, w in zip(rows, want))

    return [
        (["pop", "--alpha", a1], pop_ok),
        (["pop", "--alpha", a2, "--with-mc", "--trials", "100000",
          "--seed", seed_pop], pop_mc_ok),
        (["optimize", "--check"], optimize_ok),
        (["sweep-alpha", "--start", sweep_a[0], "--stop", sweep_a[1],
          "--count", "33"], sweep_alpha_ok),
        (["sweep-threshold", "--var", var, "--start", sweep_t[0],
          "--stop", sweep_t[1], "--count", "10"], sweep_threshold_ok),
        (["sweep-snr", "--start", sweep_s[0], "--stop", sweep_s[1],
          "--count", "9"], sweep_snr_ok),
        (["compare", "--start", sweep_d[0], "--stop", sweep_d[1],
          "--count", "15"], compare_ok),
        (["validate-mc", "--count", "25", "--trials", "10000",
          "--seed", seed_val], validate_ok),
    ]


def cli_subprocess(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = harness.main(argv)
    return code, out.getvalue()


def plan_cli(seed: int, in_process: bool = False) -> Plan:
    """README commands in CSV and JSON, each a fresh ``noma-pop`` process.

    ``in_process`` calls ``harness.main`` instead, for the traced run.
    """
    rng = np.random.default_rng(seed)
    argvs, checks = [], []
    for argv, values_ok in cli_commands(rng):
        for fmt in ("csv", "json"):
            argvs.append(argv + ["--format", fmt])
            checks.append(values_ok)
    order = rng.permutation(len(argvs))
    argvs = [argvs[i] for i in order]
    checks = [checks[i] for i in order]
    runner = cli_in_process if in_process else cli_subprocess
    first: dict[str, str] = {}

    def check_one(argv, values_ok, out) -> bool:
        code, text = out
        if code != 0:
            return False
        # a repeated command must give identical bytes
        if first.setdefault(" ".join(argv), text) != text:
            return False
        try:
            rows, summary = parse_output(text, argv[-1])
        except (ValueError, KeyError, IndexError):
            return False
        return values_ok(rows, summary)

    def check(outputs):
        return [check_one(a, c, o) for a, c, o in zip(argvs, checks, outputs)]

    return Plan(inputs=argvs,
                calls=[functools.partial(runner, a) for a in argvs],
                check=check, work={"commands": len(argvs)}, item="commands",
                mc_chunk=100_000)  # the largest MC call: one 1e5 chunk


PLANS = {
    "mc_validate": plan_mc_validate,
    "cli": plan_cli,
}


# ---------------------------------------------------------------- measurement

@dataclasses.dataclass
class Measurement:
    pass_s: list[float]          # wall time of each pass
    call_s: list[list[float]]    # wall time of each call, by input
    attempted: int = 0
    failed: int = 0

    def typical_s(self) -> list[float]:
        """Each input's median call time over its repetitions in the run.

        On a shared host the same call runs up to ~1.5x slower, or faster,
        for seconds at a time as neighbours load the machine; the median of
        an input's repetitions is steadier than any single pass or the
        fastest repetition.
        """
        return [statistics.median(times) for times in self.call_s]


def measure(plan: Plan, seconds: float,
            tracer: Tracer | None = None) -> Measurement:
    """Run whole passes of the plan until ``seconds`` have elapsed.

    Only the calls are timed and (when given) traced; checks run between
    passes with tracing off.
    """
    clock = time.perf_counter
    m = Measurement(pass_s=[], call_s=[[] for _ in plan.calls])
    start = clock()
    while len(m.pass_s) < MIN_PASSES or clock() - start < seconds:
        outputs = []
        if tracer is not None:
            tracer.active = True
        pass_start = clock()
        for call, times in zip(plan.calls, m.call_s):
            t = clock()
            try:
                out = call()
            except Exception:  # a failed call is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out = None
            times.append(clock() - t)
            outputs.append(out)
        m.pass_s.append(clock() - pass_start)
        if tracer is not None:
            tracer.active = False
        # a pass with a failed call cannot be judged as a whole: all fail
        verdicts = (plan.check(outputs) if all(o is not None for o in outputs)
                    else [False] * len(outputs))
        m.attempted += len(verdicts)
        m.failed += verdicts.count(False)
    return m


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(plan: Plan, m: Measurement) -> dict:
    """Pass time, call latency over the inputs, and throughput.

    All come from each input's median call (``Measurement.typical_s``): the
    pass time is their sum, and the percentiles run over the inputs.
    """
    typical = m.typical_s()
    wall = sum(typical)
    return {
        "wall_s": wall,
        "call_wall_s_p50": statistics.median(typical),
        "call_wall_s_p90": percentile(typical, 90),
        "items_per_s": plan.work[plan.item] / wall,
    }


def named_rates(name: str, plan: Plan, m: Measurement) -> dict:
    """The workload's own throughputs, named by the kind of work item."""
    wall = sum(m.typical_s())
    if name == "cli":
        return {"cli_wall_s_p50": statistics.median(m.typical_s()),
                "cli_wall_s_p90": percentile(m.typical_s(), 90)}
    return {f"{kind}_per_s": n / wall for kind, n in plan.work.items()}


# ------------------------------------------------------------------ traced run

def import_times(samples: int = 3) -> tuple[float, float]:
    """numpy import and noma_pop's own import time, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    numpy_s, own_s = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import noma_pop"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        proc.check_returncode()
        numpy_us = own_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, module = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the column header
            module = module.strip()
            if module == "numpy":
                numpy_us = int(cum_us)
            if module == "noma_pop" or module.startswith("noma_pop."):
                own_us += int(self_us)
        numpy_s.append(numpy_us / 1e6)
        own_s.append(own_us / 1e6)
    return statistics.median(numpy_s), statistics.median(own_s)


def mc_kernel_counts(chunk: int) -> dict:
    """Computed MC kernel counts for one chunk of ``chunk`` trials.

    Bytes per trial add the sizes of the arrays each public stage hands on
    (two uniform draws, the two gains, the four SINRs, the success mask),
    each written once and read once. The chunk's working set is the peak of
    numpy memory live during one ``count_successes`` chunk, as tracemalloc
    sees it. Both come from array sizes and ignore cache misses.
    """
    if chunk == 0:
        return {"bytes_per_trial": 0.0, "chunk_peak_bytes": 0}
    config = model.reference_config()
    derived = model.DerivedParams.from_config(config)
    rng = np.random.default_rng(0)
    g1, g2 = montecarlo.sample_gains(rng, derived.lambda1, derived.lambda2,
                                     size=chunk)
    s = model.sinrs(0.5, g1, g2, derived.beta, derived.rho_t)
    stage_bytes = 2 * 8 * chunk + g1.nbytes + g2.nbytes \
        + sum(x.nbytes for x in s) + chunk  # uniforms, gains, SINRs, mask
    del g1, g2, s
    mc = montecarlo.McConfig(trials=chunk, seed=0, chunk=chunk)
    tracemalloc.start()
    try:
        montecarlo.count_successes(config, 0.5, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"bytes_per_trial": 2.0 * stage_bytes / chunk,
            "chunk_peak_bytes": peak}


def per_layer(name: str, plan: Plan, untraced: Measurement,
              traced: Measurement, tracer: Tracer, setup_s: float) -> dict:
    """Per-layer metrics of the traced run, per pass of the workload."""
    s = tracer.summary()
    by = s["by_name"]
    in_validate = tracer.summary(root="montecarlo.validate")["by_name"]
    passes = len(traced.pass_s)

    def total(span):
        return by[span]["total_s"]

    def per_call_us(span):
        calls = by[span]["calls"]
        return 1e6 * total(span) / calls if calls else 0.0

    def ns_per(span):
        n = by[span]["count"]
        return 1e9 * total(span) / n if n else 0.0

    points = by["montecarlo.validate"]["count"]
    # sampling, SINR and counting done inside validate
    mc_core = sum(in_validate[k][v] for k, v in (
        ("montecarlo.sample_gains", "total_s"), ("model.sinrs", "total_s"),
        ("montecarlo.count_successes", "self_s")))
    layer_self = {layer: sum(v["self_s"] for k, v in by.items()
                             if k.startswith(layer + "."))
                  for layer in LAYERS}
    import_numpy_s, import_own_s = import_times()
    kernel = mc_kernel_counts(plan.mc_chunk)
    metrics = {
        "montecarlo.sample_gains.ns_per_trial":
            ns_per("montecarlo.sample_gains"),
        "model.sinrs.ns_per_trial": ns_per("model.sinrs"),
        "montecarlo.count_successes.self_s":
            by["montecarlo.count_successes"]["self_s"] / passes,
        "montecarlo.trials": by["montecarlo.sample_gains"]["count"] / passes,
        "montecarlo.chunks": by["montecarlo.sample_gains"]["calls"] / passes,
        "montecarlo.point_overhead_us":
            1e6 * (total("montecarlo.validate") - mc_core) / points
            if points else 0.0,
        "model.derived_params.calls":
            by["model.DerivedParams.from_config"]["calls"] / passes,
        "model.derived_params.us_per_call":
            per_call_us("model.DerivedParams.from_config"),
        "analytic.pop_curve.ns_per_point": ns_per("analytic.pop_curve"),
        "optimizer.grid_oracle.busy_s":
            total("optimizer.grid_oracle") / passes,
        "analytic.pop_value.us_per_call": per_call_us("analytic.pop_value"),
        "analytic.classify_case.calls":
            by["analytic.classify_case"]["calls"] / passes,
        "optimizer.optimize.us_per_call": per_call_us("optimizer.optimize"),
        "setup.import_numpy_s": import_numpy_s,
        "setup.import_noma_pop_self_s": import_own_s,
        "harness.main.self_s": by["harness.main"]["self_s"] / passes,
        "harness.render.busy_s": (total("harness.render_csv")
                                  + total("harness.render_json")) / passes,
        "montecarlo.bytes_per_trial_computed": kernel["bytes_per_trial"],
        "montecarlo.chunk_peak_bytes_computed": kernel["chunk_peak_bytes"],
        "trace.spans": s["spans"] / passes,
        "trace.overhead_s":
            sum(traced.typical_s()) - sum(untraced.typical_s()),
        "layer.bench.self_s": (sum(traced.pass_s) - s["top_s"]) / passes,
        # each real CLI command is a fresh process that pays set-up once;
        # the in-process workloads pay it once per run, not per pass
        "layer.setup.self_s":
            setup_s * plan.work["commands"] if name == "cli" else 0.0,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layer_self[layer] / passes
    return metrics


# ------------------------------------------------------------------------ main

def run(name: str, seed: int, seconds: float, trace: bool,
        setup_s: float = 0.0) -> dict:
    """Run one workload; return its metrics, counts and details."""
    build = PLANS[name]
    if not trace:
        plan = build(seed)
        m = measure(plan, seconds)
        return {"attempted": m.attempted, "failed": m.failed,
                "metrics": end_to_end(plan, m),
                "details": {"passes": len(m.pass_s), "inputs": len(m.call_s),
                            "median_pass_s": statistics.median(m.pass_s),
                            "work_per_pass": plan.work,
                            **named_rates(name, plan, m)}}
    # traced run: half untraced, half traced, on the same in-process plan
    plan = build(seed, in_process=True)
    untraced = measure(plan, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = measure(plan, seconds / 2, tracer)
    tracer.write(TRACE_DIR / f"spans-{name}-seed{seed}.npz")
    return {"attempted": untraced.attempted + traced.attempted,
            "failed": untraced.failed + traced.failed,
            "metrics": per_layer(name, plan, untraced, traced, tracer,
                                 setup_s),
            "details": {"passes_untraced": len(untraced.pass_s),
                        "passes_traced": len(traced.pass_s),
                        "traced_wall_s": sum(traced.pass_s),
                        "span_summary": tracer.summary()["by_name"]}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(PLANS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-s", type=float, default=0.0,
                   help="measured fresh-process set-up time, for the "
                        "cli workload's set-up layer")
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.setup_s)
    result["numpy_version"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
