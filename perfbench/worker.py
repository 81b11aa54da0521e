"""One fresh benchmark process; run.py starts it and reads its last stdout line.

    worker.py setup WORKLOAD
        Time, in this fresh interpreter, importing gridask, parsing the
        workload's grids and building its reps and prediction objects.
    worker.py run WORKLOAD SEED TRACE
        Run the workload's job list once (one pass), check every answer
        against its reference, and report the pass time, answers, failures
        and peak RSS.  With TRACE 0, sample the host speed while the pass
        runs (hostspeed.Sampler) and add the pass time in reference
        seconds; the peak RSS leaves out the sampler's table.  With TRACE 1,
        wrap the layers first (tracing.install) and add their metrics
        instead.
"""
from time import perf_counter

_T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gridask.cli  # noqa: E402,F401

_IMPORT_S = perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402

from gridask import askzeta, cli, nilpotent, predictions  # noqa: E402
from gridask.colouring import parse_grid  # noqa: E402
from gridask.rings import ExtField  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Job, answer, options  # noqa: E402


def prepare(job: Job) -> None:
    """Parse the job's grid and build its reps and prediction objects."""
    tokens = shlex.split(job.cmd)
    opts = options(tokens)
    if job.verb == "askzeta.ask":
        cli.build_rep(tokens[1])
        ExtField(int(tokens[2]), int(tokens[3]))
        return
    grid = opts.get("--grid") or (tokens[1] if job.verb == "check-admissible" else None)
    parsed = parse_grid(Path(grid).read_text()) if grid else None
    if "--module" in opts:
        cli.build_rep(f"{opts['--module']}:{grid}")
    for flag in ("--rep", "--big", "--sub", "--baer"):
        if flag in opts:
            cli.build_rep(opts[flag])
    if job.verb == "constant-rank":
        cli.build_rep(f"family:{opts['--family']}:{opts['--I']}:{opts['--J']}")
    if "--free-nilpotent" in opts:
        c, d = opts["--free-nilpotent"].split(",")
        nilpotent.free_nilpotent_lie(int(d), int(c))
    if "--against" in opts:
        if "--params" in opts:
            params = {k: int(v) for k, v in
                      (t.split("=") for t in opts["--params"].split(","))}
        else:
            params = {"d": parsed.colouring.d, "e": parsed.colouring.e}
        predictions.predict(opts["--against"], **params)


class JobFailed(Exception):
    pass


def execute(job: Job, seed: int):
    """Run one job through the public entry point and return its answer."""
    tokens = shlex.split(job.cmd)
    if job.verb == "askzeta.ask":  # F_{p^f} has no CLI flag
        value = askzeta.ask(cli.build_rep(tokens[1]),
                            ExtField(int(tokens[2]), int(tokens[3]))).value
        return f"{value.numerator}/{value.denominator}"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(tokens + ["--json", "--seed", str(seed)])
    if code != 0:
        raise JobFailed(f"exit code {code}")
    return answer(job.verb, json.loads(out.getvalue()))


def run_pass(jobs, seed: int) -> tuple[list, list[str]]:
    answers, failures = [], []
    for job in jobs:
        try:
            got = execute(job, seed)
        except Exception as exc:  # an escaped exception fails the job, not the run
            traceback.print_exc(file=sys.stderr)
            got = f"{type(exc).__name__}: {exc}"
        if got != job.expect:
            failures.append(f"{job.cmd}: got {got!r}")
        answers.append(got)
    return answers, failures


def run(workload: str, seed: int, trace: bool) -> dict:
    jobs = WORKLOADS[workload]
    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
        t0 = perf_counter()
        answers, failures = run_pass(jobs, seed)
        wall, wall_ref, loop_mean, table_mb = perf_counter() - t0, None, None, 0.0
    else:
        table_mb = hostspeed.build_table()
        with hostspeed.Sampler() as sampler:
            answers, failures = run_pass(jobs, seed)
        wall, wall_ref = sampler.result()
        loop_mean = sum(sampler.loop_times) / len(sampler.loop_times)
    return {
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "loop_mean_s": loop_mean,
        "attempted": len(jobs),
        "failures": failures,
        "answers": json.loads(json.dumps(answers)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - table_mb,
        "layers": tracer.metrics() if trace else {},
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
    }


def setup(workload: str) -> dict:
    t0 = perf_counter()
    for job in WORKLOADS[workload]:
        prepare(job)
    return {"setup_s": _IMPORT_S + perf_counter() - t0, "import_s": _IMPORT_S}


def main(argv: list[str]) -> None:
    os.chdir(ROOT)
    if argv[0] == "setup":
        result = setup(argv[1])
    else:
        result = run(argv[1], int(argv[2]), argv[3] == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
