#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the command of BENCHMARK.json several times per workload, each time
with another seed, and prints for every end-to-end metric its median and
its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A spread above a
third of the metric's bound is marked `!`; `setup_s` is marked but not
held to its bound, because its bound limits the change of its median.

    python3 perfbench/steadiness.py --runs 10 [--workload exec-hot] [--seconds 20]

Run from the root of the repository. Exits non-zero if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"== {workload}: {args.runs} runs of {seconds} s")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            mark = "!" if spread > metric["bound"] / 3 else " "
            print(f"  {mark} {metric['name']:<20} median {med:<12.6g} spread {spread:7.2%}"
                  f"  bound {metric['bound']:.0%}  min {min(vals):.6g} max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
