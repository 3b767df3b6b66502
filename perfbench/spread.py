#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

    python3 perfbench/spread.py [--workloads study,ingest] [--seeds 1-10]
                                [--trace 0] [--seconds N]

Run from the repository root. Runs perfbench/run.py once per (workload,
seed) and, for every end-to-end metric, prints the median over the seeds and
the spread: the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of their median. A spread is
flagged when it is not below a third of the metric's bound in
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="study,ingest,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            took = time.monotonic() - started
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            figures = " ".join(f"{name}={metric['value']:.6g}"
                               for name, metric in result["metrics"].items())
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"correct {result['correct']}, {took:.1f} s: {figures}",
                  flush=True)
            if proc.returncode != 0 or not result["correct"]:
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: metric, median, spread (IQR/median), bound")
        for name, series in values.items():
            mid = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- not below bound/3"
                steady = False
            print(f"  {name:32s} {mid:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound}{flag}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
