#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
essns library, the shipped essns_cli and the benchmark program from the
checkout's sources into .bench_build/ (later calls only re-check the build).
The program's standard output is passed through; its last line is the JSON
result. Build output goes to standard error. The exit code is the
program's, or 1 when the build fails, the program overruns its time limit
or its metrics are not the set BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("campaign_uniform", "campaign_dem", "serve_tracked")
BUILD_DIR = ".bench_build"
RUN_DIR = ".perfbench_run"


def run_timeout_s(seconds):
    """Time limit of one run: a campaign_dem run, the slowest, takes about
    2.2 x --seconds (set-up, oracle and replay included) plus build checks."""
    return 110 + 3 * seconds


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this trace mode."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"])
            for m in bench["per_layer" if trace else "end_to_end"]]


def build(source_dir):
    configure = ["cmake", "-S", source_dir, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                     "perfbench", "essns_cli"]):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not build(source_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(RUN_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--essns-cli", os.path.join(BUILD_DIR, "essns_cli"),
               "--run-dir", RUN_DIR]
    timeout = run_timeout_s(args.seconds)
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = bench.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.communicate()
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if bench.returncode != 0:
        return bench.returncode
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    reported = [(name, m["unit"]) for name, m in metrics.items()]
    if reported != declared_metrics(args.trace):
        print("perfbench: the program's metrics differ from BENCHMARK.json's",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
