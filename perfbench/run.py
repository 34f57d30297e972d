#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload train_cc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build); traces and per-run result
records go under that directory too. The last line of standard output
is the run's JSON result. --smoke runs every workload of
BENCHMARK.json at tiny size, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit and that
every correctness check passes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then build the perfbench target incrementally."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (stdout text, parsed last-line JSON)."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", traces]
    if smoke:
        args.append("--smoke")
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SRC_SHA256=source_digest())
    proc = subprocess.run(args, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}")
    return proc.stdout, json.loads(lines[-1])


def save_record(workload, seed, trace, text):
    records = os.path.join(build_dir(), "results")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{workload}-seed{seed}-trace{trace}.txt")
    with open(path, "w") as f:
        f.write(text)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            text, result = run_binary(binary, workload, 1, 1, trace, smoke=True)
            label = f"{workload} trace={trace}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            wrong = sorted(n for n in expected[trace]
                           if n in got and got[n] != expected[trace][n])
            for what, names in (("missing", missing), ("unexpected", extra),
                                ("wrong unit", wrong)):
                if names:
                    problems.append(f"{label}: {what} metric(s) {', '.join(names)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: checks failed\n{text}")
            print(f"{label}: {len(got)} metrics, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}")
    for problem in problems:
        print("SMOKE FAILURE:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        text, _ = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    save_record(args.workload, args.seed, args.trace, text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
