"""gridask benchmark: end-to-end metrics per workload, or the per-layer split.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each workload runs its job list through the
public entry points, single-threaded, in fresh worker processes, and checks
every answer against a stored exact reference (workloads.py).

--trace 0 reports wall_s (median pass time over the passes that fit in
--seconds, each in a fresh process), setup_s (median over fresh
interpreters, see worker.py setup) and peak_rss_mb (highest ru_maxrss of
the pass processes, less the host-speed sampler's table).  Both times are
in reference seconds (hostspeed.py); the measured seconds are printed
beside them.  --trace 1 runs one untraced and one traced pass, each in
its own fresh process, reports the per-layer metrics of
tracing.PER_LAYER, and checks that both passes gave the same answers.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for the workloads and for
what the benchmark leaves out.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("acceptance", "orbit-zeta", "direct-census")
PROBES_PER_PASS = 5  # fresh-interpreter setup probes before each pass
TIME_LIMIT_S = 170.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _worker(deadline: float, *args) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                              cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu, **CHILD_ENV}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def untraced(args, deadline: float) -> tuple[dict, dict, list[str]]:
    """Alternate setup probes and one-pass workers until --seconds is used.

    Every pass runs in its own fresh process, as a user's command does, and
    spreading the probes between the passes lets both medians see the same
    stretch of machine time.
    """
    start = time.monotonic()
    _worker(deadline, "setup", args.workload)  # untimed: fills the bytecode cache
    probes, runs = [], []
    while True:
        probes += [_worker(deadline, "setup", args.workload) for _ in range(PROBES_PER_PASS)]
        runs.append(_worker(deadline, "run", args.workload, args.seed, 0))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(runs) / 2 > args.seconds:  # less than half a pass left
            break
    passes = [r["wall_ref_s"] for r in runs]
    q1, q3 = _quartiles(passes)
    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    wall = statistics.median(passes)
    measured_setup = statistics.median(p["setup_s"] for p in probes)
    # The probes are too short to sample the host speed themselves; they run
    # between the passes, so the passes' mean loop time stands for theirs.
    loop_means = [r["loop_mean_s"] for r in runs]
    setup = hostspeed.reference_s(measured_setup, loop_means)
    rss = max(r["peak_rss_mb"] for r in runs)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    measured_wall = statistics.median(r["wall_s"] for r in runs)
    lines = [
        f"wall_s       {wall:.4f} s   reference seconds, median of {len(passes)} passes, "
        f"q1 {q1:.4f} s, q3 {q3:.4f} s (measured {measured_wall:.4f} s)",
        f"setup_s      {setup:.4f} s   reference seconds, median of {len(probes)} fresh "
        f"interpreters (measured {measured_setup:.4f} s, of which import gridask.cli "
        f"{statistics.median(p['import_s'] for p in probes):.4f} s)",
        f"peak_rss_mb  {rss:.1f} MB   highest over the passes",
        f"fail_ratio   {len(failures) / attempted:.4f}   "
        f"{len(failures)} of {attempted} jobs failed",
    ]
    summary = {**runs[0], "passes": passes, "failures": failures, "attempted": attempted,
               "measured_passes": [r["wall_s"] for r in runs],
               "loop_means": loop_means, "setups": [p["setup_s"] for p in probes]}
    return summary, metrics, lines


def traced(args, deadline: float) -> tuple[dict, dict, list[str]]:
    plain = _worker(deadline, "run", args.workload, args.seed, 0)
    res = _worker(deadline, "run", args.workload, args.seed, 1)
    if res["answers"] != plain["answers"]:
        res["failures"].append("traced answers differ from untraced answers")
    res["attempted"] += plain["attempted"]
    res["failures"] += plain["failures"]
    layers = {**res["layers"], "trace.overhead_s": res["wall_s"] - plain["wall_s"]}
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    lines = [f"{name:44s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.insert(0, f"wall_s untraced {plain['wall_s']:.4f} s, traced {res['wall_s']:.4f} s")
    return {**res, "passes": [plain["wall_s"], res["wall_s"]]}, metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "gridask" / "cli.py").is_file():
        print(f"error: no gridask sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res, metrics, lines = (traced if args.trace else untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "passes": res["passes"],
                      **{k: res[k] for k in ("measured_passes", "loop_means", "setups")
                         if k in res},
                      "python": res["python"],
                      "numpy": res["numpy"], **_machine()}))
    print("\n".join(lines))
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
