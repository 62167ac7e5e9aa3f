#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload signoff|build|fleet --seed N \
        --seconds S --trace 0|1 --fleet-rate R --fleet-window W

Run from the root of a checkout. The first call configures and builds the
benchmark (and the repository's libraries) into .bench_build/; later calls
rebuild only what changed. Build output goes to stderr. The benchmark's
information lines go to stdout, and the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when the build and the run succeed and every correctness check holds.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
         str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def declared_metrics(trace):
    """Names and units the result must carry, from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["signoff", "build", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=[0, 1])
    ap.add_argument("--fleet-rate", type=float, required=True)
    ap.add_argument("--fleet-window", type=int, required=True)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(
        BUILD_DIR, "runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--fleet-rate", repr(args.fleet_rate),
           "--fleet-window", str(args.fleet_window)]
    if args.trace:
        spans = os.path.join(BUILD_DIR, "traces",
                             f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: run failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 2

    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print(f"perfbench: metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(expected.items())}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
