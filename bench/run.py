"""Benchmark of the ebsparse CLI: one workload per run, one process.

    python3 bench/run.py --workload fit-p1000 --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
`src` directory, never from an installed copy. The run generates the
workload's inputs from --seed, starts one child process (child.py) that
imports `ebsparse.cli` and repeats whole rounds of the workload's CLI
command for about --seconds seconds, checks the outputs, and prints one
JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s (median round
time), setup_s (process start to `import ebsparse.cli` done, one cold
start per run) and peak_rss_mb. With --trace 1 untraced and traced
rounds alternate and the metrics are the per-layer ones (see README.md).
Exits 1 when the run fails and 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
# The whole run, build-free, must end within this many seconds.
RUN_LIMIT_S = 170.0

# Round make-up of each workload; see README.md for why each was chosen.
SIMULATE_PRESET = 2
SIMULATE_REPS = 10
FIT_ITERATIONS = 200_000
DIAGNOSE_REPS = 500
# Check blocks of one diagnose report; cmd_diagnose builds all or raises.
DIAGNOSE_BLOCKS = 5
WORKLOADS = ("simulate-p1000", "fit-p1000", "diagnose")
# True columns of the fit dataset that the selection must keep: those with
# coefficients 1.8, 2.4 and 3.0.
FIT_STRONG = ("x3", "x4", "x5")


def fail(message: str, code: int = 1):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def workload_command(workload: str, seed: int, work: str):
    """(CLI argv, output files whose bytes every round must repeat)."""
    report = os.path.join(work, "report.json")
    common = ["--seed", str(seed), "--output", report, "--workers", "1"]
    if workload == "simulate-p1000":
        argv = ["simulate", "--preset", str(SIMULATE_PRESET), "--reps", str(SIMULATE_REPS)] + common
        return argv, [report]
    if workload == "fit-p1000":
        data = os.path.join(work, "data.csv")
        X, y = inputs.fit_dataset(seed)
        inputs.write_csv(data, X, y)
        argv = ["fit", "--input", data, "--iterations", str(FIT_ITERATIONS)] + common
        return argv, [report, os.path.join(work, "report_trace.csv")]
    argv = ["diagnose", "--reps", str(DIAGNOSE_REPS)] + common
    return argv, [report]


def check_outputs(workload: str, work: str) -> list:
    with open(os.path.join(work, "report.json")) as fh:
        report = json.load(fh)
    if workload == "simulate-p1000":
        return checks.check_simulate(report)
    if workload == "diagnose":
        return checks.check_diagnose(report)
    names, X, y = inputs.read_csv(os.path.join(work, "data.csv"))
    with open(os.path.join(work, "report_trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return checks.check_fit(report, rows, names, X, y, FIT_ITERATIONS, list(FIT_STRONG),
                            inputs.SIGMA2)


def operations(workload: str, work: str, code: int) -> tuple:
    """(attempted, failed) operations of one round."""
    if workload == "fit-p1000":
        return 1, int(code != 0)
    if workload == "simulate-p1000":
        if code != 0:
            return SIMULATE_REPS, SIMULATE_REPS
        with open(os.path.join(work, "report.json")) as fh:
            return SIMULATE_REPS, json.load(fh)["metrics"]["failures"]
    return DIAGNOSE_BLOCKS, DIAGNOSE_BLOCKS * int(code != 0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("EBSPARSE_WORKERS", None)
    # One BLAS thread: the workloads are single-process, and threads would
    # make the figures depend on what else shares the machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(spec: dict, work: str, deadline: float) -> dict:
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with open(os.path.join(work, "child.out"), "w") as out, \
            open(os.path.join(work, "child.err"), "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("the workload did not end in time")
    if code != 0:
        with open(os.path.join(work, "child.err")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"the measured process exited with code {code}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["setup_s"] = result["imported_monotonic"] - started
    return result


COUNTS = (
    "lasso.cv_fit_calls", "sampler.iterations", "sampler.accepts", "sampler.strip_iters",
    "linalg.extend_fit_calls", "linalg.drop_fit_calls", "linalg.singular_rejects",
    "linalg.fit_model_calls", "posterior.log_marginal_calls", "oracle.models_scored",
    "simharness.reps",
)


def unit_of(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name.endswith("_us") or name == "sampler.us_per_iter":
        return "us"
    if name == "sampler.accept_ratio":
        return "ratio"
    return "s"


def main(argv=None) -> int:
    t0 = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ebsparse", "cli.py")):
        fail(f"no program to measure: {os.path.join(ROOT, 'src', 'ebsparse')} is missing", 2)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        cli_argv, outputs = workload_command(args.workload, args.seed, work)
        spec = {
            "argv": cli_argv,
            "outputs": outputs,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "result": os.path.join(work, "result.json"),
        }
        result = run_child(spec, work, t0 + RUN_LIMIT_S)
        rounds = result["rounds"]
        problems = list(result["problems"])
        attempted = failed = 0
        for r in rounds:
            a, f = operations(args.workload, work, r["code"])
            attempted, failed = attempted + a, failed + f
        if rounds[-1]["code"] == 0:
            problems += check_outputs(args.workload, work)
        digests = {r["digest"] for r in rounds if r["code"] == 0}
        if len(digests) > 1:
            problems.append("outputs differ between rounds of the same command")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r["wall_s"] for r in rounds if not r["traced"] and r["code"] == 0]
    if not untraced:
        fail("no round of the workload succeeded")
    wall = statistics.median(untraced)
    if args.trace:
        layer = result["layer"]
        # Counts come from the first traced round and must repeat in the
        # others; times are medians over traced rounds.
        metrics = {name: {"value": layer[0][name] if name in COUNTS
                          else statistics.median(m[name] for m in layer),
                          "unit": unit_of(name)}
                   for name in layer[0]}
        for m in layer[1:]:
            for name in COUNTS:
                if m[name] != layer[0][name]:
                    problems.append(f"trace: count {name} differs between traced rounds")
        traced = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        metrics["trace.overhead_s"] = {"value": traced - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
