#!/usr/bin/env python3
"""Same-box A/B of the end-to-end benchmark between two source trees.

    python3 tools/benchcmp.py --base REV [--workload W ...] [--pairs N]
                              [--seconds S]

Run from the root of a checkout: that tree is the "head" side, as it
stands on disk (uncommitted edits included). The "base" side is REV,
checked out into a temporary local `git worktree` under the head's
.benchcmp_build/ directory and removed again at the end. Each tree
builds with its own CMake build directory, passed to perfbench/run.py
through $CARGO_TARGET_DIR, so the two builds never share objects.

For every workload (default: all of BENCHMARK.json) the script runs
`python3 perfbench/run.py --workload W --seconds S` in both trees for
N pairs, alternating which side runs first, then prints for every
end-to-end metric the median and quartiles of each side, the median
change (head minus base, relative to base), and how many pairs the
head won. A run that exits non-zero is recorded as a failed run of
its side and the A/B goes on; metrics compare only the pairs where
both runs finished. A head median worse than the base median by more
than the metric's BENCHMARK.json bound is flagged, as are more failed
runs on the head than on the base and a head failure share of
operations above the base's. The exit status is 1 when anything was
flagged. Standard library only.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

BUILD_DIR = ".benchcmp_build"


def git(args, cwd):
    return subprocess.run(["git"] + args, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree, workload, seconds):
    """One perfbench run in @tree: its parsed JSON result, or None when
    the run failed (its stderr tail goes to our stderr)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, BUILD_DIR))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    sys.stderr.write(proc.stderr[-4000:])
    sys.stderr.write(f"benchcmp: {tree}: {workload} run failed "
                     f"(exit {proc.returncode})\n")
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(workload, runs, spec):
    """Print one workload's table; return the number of flags."""
    flags = 0
    print(f"{workload} ({len(runs['head'])} pairs)")
    print(f"  {'metric':22s} {'better':>6s} {'base q1/med/q3':>32s} "
          f"{'head q1/med/q3':>32s} {'change':>8s} {'wins':>6s} "
          f"{'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        lower = metric["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                 for b, h in zip(runs["base"], runs["head"])
                 if b and h and name in b["metrics"]
                 and name in h["metrics"]]
        if not pairs:
            continue
        base = quartiles([b for b, _ in pairs])
        head = quartiles([h for _, h in pairs])
        wins = sum(1 for b, h in pairs if (h < b if lower else h > b))
        if base[1]:
            change = (head[1] - base[1]) / abs(base[1])
        else:
            change = 0.0 if head[1] == base[1] else float("inf")
        note = ""
        if (change if lower else -change) > metric["bound"]:
            flags += 1
            note = "  WORSE THAN BOUND"
        print(f"  {name:22s} {metric['better']:>6s} "
              f"{base[0]:10.4g} {base[1]:10.4g} {base[2]:10.4g} "
              f"{head[0]:10.4g} {head[1]:10.4g} {head[2]:10.4g} "
              f"{change:+8.2%} {wins:3d}/{len(pairs):<2d} "
              f"{metric['bound']:6.2f}{note}")
    shares, crashed = {}, {}
    for side in ("base", "head"):
        done = [r for r in runs[side] if r]
        crashed[side] = len(runs[side]) - len(done)
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        incorrect = sum(1 for r in done if not r["correct"])
        shares[side] = failed / attempted if attempted else 0.0
        print(f"  {side}: {crashed[side]} of {len(runs[side])} runs "
              f"failed, {failed} of {attempted} operations failed, "
              f"{incorrect} run(s) with failed checks")
    if crashed["head"] > crashed["base"]:
        flags += 1
        print("  HEAD FAILS MORE RUNS")
    if shares["head"] > shares["base"]:
        flags += 1
        print("  HEAD FAILS A LARGER SHARE OF OPERATIONS")
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision of the base side")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json "
                             "run_seconds)")
    args = parser.parse_args()

    head_tree = os.getcwd()
    with open(os.path.join(head_tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sha = git(["rev-parse", "--verify", args.base + "^{commit}"],
              head_tree)

    os.makedirs(os.path.join(head_tree, BUILD_DIR), exist_ok=True)
    base_tree = tempfile.mkdtemp(prefix="base-",
                                 dir=os.path.join(head_tree, BUILD_DIR))
    # SIGTERM unwinds through the finally below like Ctrl-C does, so
    # the worktree is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    flags = 0
    try:
        git(["worktree", "add", "--detach", base_tree, sha], head_tree)
        trees = {"base": base_tree, "head": head_tree}
        print(f"base: {args.base} = {sha[:12]} ({base_tree})\n"
              f"head: {head_tree}\n"
              f"{args.pairs} pairs x {seconds:g} s per run, "
              f"alternating order", flush=True)
        for workload in workloads:
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload,
                                               seconds))
            flags += compare(workload, runs, spec)
            sys.stdout.flush()
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=head_tree, capture_output=True)
        shutil.rmtree(base_tree, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=head_tree,
                       capture_output=True)
    print(f"flagged: {flags}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
