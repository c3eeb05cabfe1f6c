#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds hfta_bench from source into .bench_build/e2e on first use (CMake,
Release build), runs it, checks its result against BENCHMARK.json and prints
one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (the trace itself goes to .bench_build/traces/). The full
result, with quartiles, settings and report-only values, is kept in
.bench_build/results/. Build and benchmark output go to standard error. When
the build or the run fails the script exits non-zero and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout=None):
    # Compiler temporaries go under the build directory too, so a run reads
    # and writes only inside the checkout.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False, env=env)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}")


def build():
    """Configures once, then lets CMake rebuild only what changed."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}")
    build_dir = os.path.join(BUILD_DIR, "e2e")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        call(["cmake", "-S", os.path.join(ROOT, "bench", "e2e"),
              "-B", build_dir])
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", build_dir, "--target", "hfta_bench", "-j", jobs])
    return os.path.join(build_dir, "hfta_bench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if traced else "end_to_end"]


def contract_line(result, traced):
    """The one-line result: every declared metric, by name, with its
    unit. A forward-kind metric (fwd.<Kind>_ms) is 0 on a workload whose
    model has no layer of that kind."""
    measured = result["metrics"]
    metrics = {}
    for m in declared_metrics(traced):
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not (name.startswith("fwd.") and name.endswith("_ms")):
                fail(f"result lacks metric {name}")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name}: unit {got['unit']}, declared {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    undeclared = sorted(set(measured) - set(metrics))
    if undeclared:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(undeclared)}")
    return {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    binary = build()
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(results_dir,
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", out,
           "--git-sha", git_sha()]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", trace_dir]
    call(cmd, timeout=RUN_TIMEOUT_S)
    with open(out) as f:
        result = json.load(f)
    print(json.dumps(contract_line(result, bool(args.trace))))


if __name__ == "__main__":
    main()
