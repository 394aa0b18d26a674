"""The noma-pop benchmark: one command, two workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/``. The parent process measures set-up (a fresh interpreter plus
``import noma_pop``), runs the workload in a child process
(``perfbench/workloads.py``) so that its peak memory can be read from
``getrusage(RUSAGE_CHILDREN)``, and records provenance. Before the result it
prints one line of details: provenance, sample counts, the failed ratio and
each workload's own throughputs. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics of a
separate traced run, and the raw spans are written under ``.perfbench/``.

End-to-end metrics, the same names on every workload:

- ``setup_s``: median wall time of a fresh interpreter importing noma_pop;
- ``wall_s``: one pass over the workload's generated inputs;
- ``call_wall_s_p50`` / ``call_wall_s_p90``: one call, over the inputs;
- ``items_per_s``: work items per second of ``wall_s``, where an item is an
  MC trial (mc_validate) or a command (cli);
- ``peak_rss_mb``: the largest resident set of the workload's processes.

The pass and call times use each input's median over its repetitions in the
run, which damps the slow and fast spells of a shared host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_SAMPLES = 6  # before the workload, and as many again after it
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_times(samples: int) -> list[float]:
    """Wall times of fresh interpreters that import noma_pop."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import noma_pop"],
                       env=child_env(), cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return times


def lscpu_caches() -> dict:
    try:
        proc = subprocess.run(["lscpu", "-C=NAME,ONE-SIZE", "-B", "--json"],
                              capture_output=True, text=True, timeout=30)
        caches = json.loads(proc.stdout)["caches"]
    except (OSError, ValueError, KeyError, subprocess.SubprocessError):
        return {}
    return {c["name"]: int(c["one-size"]) for c in caches
            if c["name"] in ("L2", "L3")}


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "unknown"
    return next((line.split(":", 1)[1].strip() for line in text.splitlines()
                 if line.startswith("model name")), "unknown")


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def src_identity() -> tuple[int, str]:
    """Line count and content digest of the package sources."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()


def provenance(seed: int) -> dict:
    lines, digest = src_identity()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "cache_bytes": lscpu_caches(),
            "python": sys.version.split()[0], "git_commit": git_commit(),
            "src_sha256": digest, "src_lines": lines, "seed": seed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "noma_pop" / "__init__.py").is_file():
        print(f"error: no noma_pop package under {SRC}", file=sys.stderr)
        return 2

    # one untimed start first, so that every timed start finds the bytecode
    # cache written, as an installed package would
    setup = setup_times(1 + SETUP_SAMPLES)[1:]
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-s", repr(statistics.median(setup))]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: workload {args.workload} exited {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    child = json.loads(proc.stdout.splitlines()[-1])
    metrics = child["metrics"]
    info = provenance(args.seed)
    info["numpy"] = child.pop("numpy_version")
    if args.trace:
        l2 = info["cache_bytes"].get("L2", 0)
        peak = metrics["montecarlo.chunk_peak_bytes_computed"]
        metrics["montecarlo.chunk_over_l2_computed"] = peak / l2 if l2 else 0.0
    else:
        # samples on both sides of the workload spread over the machine's
        # slow and fast spells rather than catching only one
        metrics["setup_s"] = statistics.median(
            setup + setup_times(SETUP_SAMPLES))
        # the largest resident set of any waited-for child: the workload
        # process, the CLI processes it ran, or a set-up interpreter
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    attempted, failed = child["attempted"], child["failed"]
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "provenance": info,
                      "failed_ratio": failed / attempted,
                      "details": child["details"]}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
