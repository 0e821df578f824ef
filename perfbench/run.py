#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload lifecycle|serve|check \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles the monitor libraries from src/) into
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed.  Build output goes to stderr, so the last stdout line is the
benchmark's JSON result.  The result is checked against BENCHMARK.json:
every end-to-end metric (--trace 0) or per-layer metric (--trace 1)
must be present with its declared unit.  A per-layer metric of a layer
the workload never calls reads 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no monitor sources under src/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs])
    return os.path.join(build_dir, "perfbench")


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["lifecycle", "serve", "check"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)

    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            fail("metric %s (%s) is not declared with that unit in "
                 "BENCHMARK.json" % (name, metric["unit"]))
    for name, unit in declared.items():
        metrics.setdefault(name, {"value": 0, "unit": unit})
    result["metrics"] = {name: metrics[name] for name in declared}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
