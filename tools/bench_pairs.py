"""Benchmark a change against its parent in alternating pairs.

    python3 tools/bench_pairs.py --out BENCH_<n>.json \\
        --parent HEAD~1 --change HEAD --pairs 10 --seconds 55 \\
        --workload mc_validate:14101 --workload cli:14201 \\
        --change-text "what changed" --claim "the claimed gain, or none"

Each revision is unpacked with ``git archive`` into its own temporary
directory, and ``perfbench/run.py`` of that copy runs there, so each side
measures its own committed files. For each workload, pair ``i`` (1-based)
runs both sides on seed ``first_seed + i - 1``: odd pairs run the parent
first, even pairs the change first, so a slow or fast spell of the host
falls on both sides alike. Then each side gets one traced run per workload
(``--traced-seconds``, 0 for none), seed 1.

The output holds every run and, per workload and end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles
(``statistics.quantiles(n=4)``), the number of pairs the change won, and
whether the metric meets the claim rule and stays within its bound (see
``summarize``). After each end-to-end run, ``STARTUP_SAMPLES`` fresh
``python -c "import noma_pop"`` processes in that tree are timed and kept
with the run; the summary's ``startup_exact_s`` gives each side's median
and quartiles of them, beside the end-to-end rows. It is a report only:
``perfbench/run.py`` times the same import for ``setup_s``, but it waits
with a timeout, so its samples land on the 1, 2, 4, ... 50 ms polls of
``Popen.wait``, while these wait in a blocking ``waitpid`` that returns when
the child exits. Its ``environment`` holds the ``PYTHON*``, ``OPENBLAS_*``
and ``MALLOC_*`` variables that every run inherits, since they change what
the workloads measure. Its ``src_module_lines`` gives each side's line
count of every ``*.py`` file under ``src/``, as ``wc -l`` counts them; the
counts of a side sum to its ``src_lines``. It is rewritten after every run,
so an interrupted session keeps what it ran.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600
STARTUP_SAMPLES = 6


def unpack(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          commit], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def module_lines(tree: Path) -> dict[str, int]:
    """Newlines in each ``*.py`` file under ``tree/src``, by its path
    relative to ``src``, the files ``perfbench/run.py`` counts."""
    src = tree / "src"
    return {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n")
            for path in sorted(src.rglob("*.py"))}


def bench(tree: Path, workload: str, seed: int, seconds: float,
          trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: its details and result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    details, result = map(json.loads, proc.stdout.splitlines()[-2:])
    return details, result


def startup_times(tree: Path) -> list[float]:
    """Wall times of ``STARTUP_SAMPLES`` fresh interpreters that import
    ``noma_pop`` from ``tree``. No timeout: the wait blocks until the child
    exits, so the time is not rounded up to the next poll."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    times = []
    for _ in range(STARTUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import noma_pop"], env=env,
                       cwd=tree, check=True)
        times.append(time.perf_counter() - t)
    return times


def side_quartiles(side: str, values: list[float]) -> dict:
    """``side``'s median, q1 and q3 of ``values`` by
    ``statistics.quantiles(n=4)``; one value is all three."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's median and
    quartiles, the change's wins over its pair, the failed operations, each
    side's failed share (failed over attempted operations, summed over the
    completed pairs) and two verdicts. ``claim_rule_met``: at least 10
    pairs ran, the change won at least 9 in 10 of them, its median beats
    the parent's by more than the parent's q3 - q1, and its failed share is
    no larger than the parent's.
    ``bound_verdict``, against the metric's ``bound`` in ``BENCHMARK.json``
    relative to the parent's median: "unresolved" when the parent's q3 - q1
    is wider than that bound, unless every change run beats every parent
    run; else "worse" when the change's median is worse than the parent's
    by more than the bound; else "within". ``startup_exact_s``: each
    side's median and quartiles of the start-up samples of those pairs."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        done = [p for p in pairs.values() if len(p) == 2]
        if not done:
            continue
        failed = {side: sum(p[side]["result"]["failed"] for p in done)
                  for side in ("parent", "change")}
        share = {side: failed[side]
                 / sum(p[side]["result"]["attempted"] for p in done)
                 for side in ("parent", "change")}
        summary[workload] = {}
        for name, direction in better.items():
            value = {side: [p[side]["result"]["metrics"][name]["value"]
                            for p in done] for side in ("parent", "change")}
            sign = 1 if direction == "higher" else -1
            row = {}
            for side in ("parent", "change"):
                row.update(side_quartiles(side, value[side]))
            row["change_wins"] = sum(sign * (c - p) > 0 for p, c in
                                     zip(value["parent"], value["change"]))
            row["pairs"] = len(done)
            gain = sign * (row["change_median"] - row["parent_median"])
            row["claim_rule_met"] = (
                len(done) >= 10 and 10 * row["change_wins"] >= 9 * len(done)
                and gain > row["parent_q3"] - row["parent_q1"]
                and share["change"] <= share["parent"])
            limit = bound[name] * abs(row["parent_median"])
            separated = (min(sign * c for c in value["change"])
                         > max(sign * p for p in value["parent"]))
            if row["parent_q3"] - row["parent_q1"] > limit and not separated:
                row["bound_verdict"] = "unresolved"
            else:
                row["bound_verdict"] = "worse" if gain < -limit else "within"
            row["parent_failed"] = failed["parent"]
            row["change_failed"] = failed["change"]
            row["parent_failed_share"] = share["parent"]
            row["change_failed_share"] = share["change"]
            summary[workload][name] = row
        startup = {}
        for side in ("parent", "change"):
            startup.update(side_quartiles(side, [
                t for p in done for t in p[side]["startup_exact_s"]]))
        summary[workload]["startup_exact_s"] = startup
    return summary


def parse_workload(text: str) -> tuple[str, int]:
    name, _, seed = text.partition(":")
    names = [w["name"] for w in SPEC["workloads"]]
    if name not in names or not seed.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected NAME:FIRST_SEED with NAME one of {names}, got {text!r}")
    return name, int(seed)


def parse_pairs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of pairs, at least 1, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--parent", default="HEAD~1")
    p.add_argument("--change", default="HEAD")
    p.add_argument("--pairs", type=parse_pairs, default=10)
    p.add_argument("--seconds", type=float,
                   default=SPEC.get("run_seconds", 55))
    p.add_argument("--traced-seconds", type=float, default=10)
    p.add_argument("--workload", type=parse_workload, action="append",
                   required=True, metavar="NAME:FIRST_SEED")
    p.add_argument("--change-text", default="")
    p.add_argument("--claim", default="none")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: unpack(rev, trees[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        seeds = ", ".join(f"{w} {s}-{s + args.pairs - 1}"
                          for w, s in args.workload)
        record = {
            "change": args.change_text,
            "claim": args.claim,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "machine": None,
            "os": platform.platform(),
            "python": platform.python_version(),
            "numpy": None,
            "environment": {
                name: value for name, value in sorted(os.environ.items())
                if name.startswith(("PYTHON", "OPENBLAS_", "MALLOC_"))},
            "command": "python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {args.seconds:g}",
            "protocol": "alternating pairs on copies of the parent commit "
                        "and of the change (git archive): odd pairs run the "
                        "parent first, even pairs the change first; "
                        "quartiles by statistics.quantiles(n=4); seeds "
                        f"{seeds}; traced runs --seed 1 --seconds "
                        f"{args.traced_seconds:g} --trace 1",
            "src_lines": {},
            "src_module_lines": {side: module_lines(tree)
                                 for side, tree in trees.items()},
            "summary": {},
            "runs": [],
            "traced": [],
        }

        def run(side, workload, seed, seconds, trace, pair=None,
                ran_first=None):
            details, result = bench(trees[side], workload, seed, seconds,
                                    trace)
            info = details["provenance"]
            record["src_lines"][side] = info["src_lines"]
            record["numpy"] = info["numpy"]
            l2 = info["cache_bytes"].get("L2")
            record["machine"] = (
                f"{info['nproc']} CPUs, {info['cpu_model']}"
                + (f", {l2 / 2**20:g} MiB L2" if l2 else ""))
            if trace:
                record["traced"].append({
                    "side": side, "workload": workload, "seed": seed,
                    "seconds": seconds, "trace": trace, "result": result})
            else:
                record["runs"].append({
                    "pair": pair, "side": side, "workload": workload,
                    "seed": seed, "ran_first": ran_first, "result": result,
                    "startup_exact_s": startup_times(trees[side])})
            record["summary"] = summarize(record["runs"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{workload} {side} seed {seed}"
                  + (" traced" if trace else f" pair {pair}"),
                  file=sys.stderr, flush=True)

        for workload, first_seed in args.workload:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change",
                                                                "parent")
                for position, side in enumerate(order):
                    run(side, workload, first_seed + pair - 1, args.seconds,
                        0, pair=pair, ran_first=position == 0)
        if args.traced_seconds > 0:
            for workload, _ in args.workload:
                for side in ("parent", "change"):
                    run(side, workload, 1, args.traced_seconds, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
