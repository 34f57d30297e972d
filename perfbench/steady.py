#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--save FILE] [--against FILE] [WORKLOAD ...]

Runs `perfbench/run.py --trace 0` once per seed for each workload
(default: every workload in BENCHMARK.json) and prints, for every
end-to-end metric, the median and the interquartile range of the runs
as a share of the median (statistics.quantiles, n=4), next to the
metric's bound and a third of it. --save writes the medians to FILE;
--against compares them with the medians of an earlier set saved
there and flags every metric that got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    parser.add_argument("--save", help="write the medians to this file")
    parser.add_argument("--against",
                        help="compare with medians saved by an earlier --save")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    medians = {}
    worst = 0.0
    regressions = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"  {'metric':24s} {'median':>14s} {'spread':>8s} "
              f"{'bound/3':>8s} {'bound':>6s} {'vs earlier':>10s}")
        for name, bound in bounds.items():
            v = values[name]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if spread <= bound / 3 else "  above bound/3"
            worst = max(worst, spread / bound)
            medians.setdefault(workload, {})[name] = q2
            change = ""
            before = earlier.get(workload, {}).get(name)
            if before:
                worse = (q2 - before if lower[name] else before - q2) / before
                change = f"{worse:+.4f}"
                if worse > bound:
                    regressions += 1
                    flag += "  worse than earlier by more than bound"
            print(f"  {name:24s} {q2:14.6g} {spread:8.4f} {bound / 3:8.4f} "
                  f"{bound:6.3f} {change:>10s}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{x:.6g}" for x in v))
    print(f"worst spread/bound: {worst:.3f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    if args.against:
        print(f"metrics worse than the earlier set by more than their "
              f"bound: {regressions}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
