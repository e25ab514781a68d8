#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as one JSON line.

usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the workload in a child process of its own, so one
workload's peak memory never leaks into another's.

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics of BENCHMARK.json. --trace 1 runs it untraced and then traced, and
reports the per-layer metrics of the traced run plus trace_overhead_pct,
the traced run's main wall metric against the untraced one's. Mapping
digests must agree across both runs.

Before the result line the script prints one informational JSON line with
the per-workload metric names of perfbench/README.md and the thread and
connection counts used. Build output goes to standard error.

Exit status: 0 with a result line; 1 when the workload fails to produce
one; 2 when the checkout holds no palmed sources to build.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Wall-clock budget for the workload runs of one invocation (the build is
# not counted), so the script ends within 180 s even when a child hangs.
RUN_BUDGET_S = 175
BUILD_JOBS = 4


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    for required in ("CMakeLists.txt", "src/palmed/Pipeline.cpp",
                     "include/palmed/palmed.h"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"no palmed sources here ({required} is missing); run from "
                 "the root of a checkout of the repository", code=2)
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench_run", "-j",
         str(BUILD_JOBS)],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_run")


def run_child(exe, args, trace, deadline):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                f"trace-{args.workload}-{args.seed}.json"]
    try:
        proc = subprocess.run(cmd, cwd=os.path.dirname(exe),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} (trace {trace}) timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} (trace {trace}) exited with "
             f"{proc.returncode}")
    return json.loads(lines[-1])


def check_names(metrics, declared, what):
    got, want = set(metrics), {m["name"] for m in declared}
    if got != want:
        fail(f"{what} metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, unexpected {sorted(got - want)}")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", code=2)

    exe = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_child(exe, args, 0, deadline)
    runs = [untraced]
    if args.trace:
        traced = run_child(exe, args, 1, deadline)
        runs.append(traced)
        metrics = dict(traced["metrics"])
        base = untraced["main_wall_s"]
        metrics["trace_overhead_pct"] = {
            "value": 100.0 * (traced["main_wall_s"] / base - 1.0),
            "unit": "%"}
        check_names(metrics, spec["per_layer"], "per-layer")
    else:
        metrics = untraced["metrics"]
        check_names(metrics, spec["end_to_end"], "end-to-end")

    digests = {d for r in runs for d in r["digests"]}
    digests_agree = len(digests) == 1
    if not digests_agree:
        print(f"perfbench: mapping digests disagree: {sorted(digests)}",
              file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs) + 1
    failed = sum(r["failed"] for r in runs) + (0 if digests_agree else 1)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "named": untraced["named"],
                      "mapping_digest": sorted(digests)}))
    print(json.dumps({"correct": failed == 0 and all(r["correct"]
                                                     for r in runs),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
