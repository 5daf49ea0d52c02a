#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under perfbench/, data files, result files and span dumps to
perfbench-work/ beside it. Build output goes to stderr; stdout carries the
benchmark's metric lines and, last, one JSON object with the keys correct,
attempted, failed and metrics. The metric names and units are checked
against BENCHMARK.json before the run counts. Exits non-zero when the build
fails, a correctness check fails or the output does not match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("no ISLA sources next to perfbench/: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(step))


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (missing, extra,
                           {n: (got[n], expected[n]) for n in got
                            if n in expected and got[n] != expected[n]}))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(build_root, "perfbench-work")]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode == 2 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("benchmark exited with code %d and no result" % run.returncode)
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
