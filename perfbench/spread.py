#!/usr/bin/env python3
"""Checks how steady the benchmark is across seeds.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds N] [--first-seed S] [workload ...]

Runs the untraced benchmark once per seed on each workload (default: all
in BENCHMARK.json), one run at a time, and prints for each end-to-end
metric its median and the distance between the first and third quartile
as a share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if run.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} seeds in {time.time() - started:.0f} s")
        for name, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {name:<18} median {med:12.5f}  spread {spread:7.4f}  bound {bound}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values[name]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
