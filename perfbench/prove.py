#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads a,b --seeds 1,2,... | --record LABEL]

Runs perfbench/run.py once per (workload, seed) from the checkout root, for
BENCHMARK.json's run_seconds with tracing off, and prints, per workload and
end-to-end metric, the median of the runs and their spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as
a share of the median. Every spread, setup_s's too, is compared with a third
of the metric's bound. By default all workloads run on seeds 1..10;
--workloads and --seeds pick a subset while the benchmark is tuned. With
--record LABEL (only on the default set) the medians are appended to the
trajectory in perfbench/catalog.json. Exits 1 when a run fails.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    out = subprocess.run(command, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    if args.record and (args.workloads or args.seeds):
        parser.error("--record measures every workload on the default seeds")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, 11)))
    ok = True
    point = {}
    for workload in workloads:
        values = {}
        for seed in seeds:
            start = time.monotonic()
            result = run(workload, seed, seconds)
            took = time.monotonic() - start
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED" % (workload, seed))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print("%s seed %d (%.0f s): %s" % (workload, seed, took, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
                flush=True)
        point[workload] = {}
        print("%s: median and spread over %d seeds" % (workload, len(seeds)))
        for name, (unit, series) in values.items():
            med = statistics.median(series)
            spread = float("nan")
            if len(series) >= 2 and med != 0:
                q = statistics.quantiles(series, n=4)
                spread = (q[2] - q[0]) / med
            limit = bounds[name] / 3
            note = "ok" if spread < limit else "WIDE (limit %.4f)" % limit
            print("  %-30s %14.6g %-6s spread %.4f %s" % (name, med, unit, spread, note))
            point[workload][name] = {"median": med, "spread": spread, "unit": unit}

    if args.record:
        hardware = subprocess.run(
            [os.path.join(".bench_build", "perfbench"), "--hardware"],
            capture_output=True, text=True, check=True).stdout
        path = os.path.join(HERE, "catalog.json")
        with open(path) as f:
            catalog = json.load(f)
        catalog["trajectory"].append({
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "hardware": json.loads(hardware),
            "seeds": seeds,
            "seconds": seconds,
            "workloads": point,
        })
        with open(path, "w") as f:
            json.dump(catalog, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
