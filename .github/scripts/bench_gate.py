#!/usr/bin/env python3
"""Gate benchmark throughput against a committed baseline.

Usage:
    bench_gate.py --baseline BENCH_kernels.json --fresh fresh.json \
                  [--max-regression 0.25] [--format gbench|serve]

With --format gbench (the default) both files are google-benchmark JSON
reports. For every benchmark in the baseline the script picks a throughput
figure (items_per_second, else the MFLOPS counter, else 1/real_time) and
fails if the fresh run is more than --max-regression below the baseline.

Benchmarks that were skipped in the fresh run (error_occurred, e.g. an AVX2
backend bench on a runner without AVX2) are reported and ignored; benchmarks
missing from the fresh report entirely are an error, since that usually means
the filter drifted and the gate is no longer measuring anything.

With --format serve both files are serve_throughput RunMetrics reports
(BENCH_serve.json). The gate compares the open-loop saturation figure
(options.saturation_requests_per_second) against the committed baseline and
additionally requires the fresh run to be bit-identical — a fast fleet that
corrupts maps must never pass.
"""

import argparse
import json
import sys


def load_runs(path):
    with open(path) as f:
        report = json.load(f)
    runs = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # ignore aggregate rows (mean/median/stddev)
        runs[b["name"]] = b
    return runs


def throughput(bench):
    if "items_per_second" in bench:
        return bench["items_per_second"], "items/s"
    if "MFLOPS" in bench:
        return bench["MFLOPS"], "MFLOPS"
    real = bench.get("real_time")
    if real:
        return 1.0 / real, f"1/{bench.get('time_unit', 'ns')}"
    return None, None


def gate_serve(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    def saturation(report, path):
        options = report.get("options", {})
        value = options.get("saturation_requests_per_second")
        if not value or value <= 0:
            print(f"FAIL: {path} has no saturation_requests_per_second")
            return None
        return value

    base_rps = saturation(baseline, args.baseline)
    fresh_rps = saturation(fresh, args.fresh)
    if base_rps is None or fresh_rps is None:
        return 1

    failures = []
    if not fresh.get("options", {}).get("bit_identical", False):
        failures.append("fresh run is not bit-identical to serial predict()")
    change = fresh_rps / base_rps - 1.0
    status = "ok   "
    if change < -args.max_regression:
        status = "FAIL "
        failures.append(
            f"saturation: {fresh_rps:.3g} vs baseline {base_rps:.3g} req/s "
            f"({change:+.1%}, limit -{args.max_regression:.0%})")
    print(f"{status} saturation_requests_per_second: {fresh_rps:.3g} vs "
          f"{base_rps:.3g} req/s ({change:+.1%})")

    if failures:
        print(f"\n{len(failures)} check(s) failed the serve gate:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nServe saturation within {args.max_regression:.0%} of committed "
          f"throughput and bit-identical.")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="maximum allowed fractional throughput drop")
    ap.add_argument("--format", choices=("gbench", "serve"),
                    default="gbench",
                    help="report flavor: google-benchmark JSON or "
                         "serve_throughput RunMetrics JSON")
    args = ap.parse_args()

    if args.format == "serve":
        return gate_serve(args)

    baseline = load_runs(args.baseline)
    fresh = load_runs(args.fresh)
    if not baseline:
        print(f"FAIL: no benchmarks in baseline {args.baseline}")
        return 1

    failures = []
    for name, base in sorted(baseline.items()):
        if base.get("error_occurred"):
            print(f"skip  {name}: skipped in baseline")
            continue
        got = fresh.get(name)
        if got is None:
            failures.append(f"{name}: missing from fresh report")
            continue
        if got.get("error_occurred"):
            print(f"skip  {name}: skipped in fresh run "
                  f"({got.get('error_message', 'no message')})")
            continue
        base_tp, unit = throughput(base)
        fresh_tp, _ = throughput(got)
        if base_tp is None or fresh_tp is None:
            failures.append(f"{name}: no throughput figure to compare")
            continue
        change = fresh_tp / base_tp - 1.0
        status = "ok   "
        if change < -args.max_regression:
            status = "FAIL "
            failures.append(
                f"{name}: {fresh_tp:.3g} vs baseline {base_tp:.3g} {unit} "
                f"({change:+.1%}, limit -{args.max_regression:.0%})")
        print(f"{status} {name}: {fresh_tp:.3g} vs {base_tp:.3g} {unit} "
              f"({change:+.1%})")

    if failures:
        print(f"\n{len(failures)} benchmark(s) failed the trajectory gate:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nAll {len(baseline)} baseline benchmarks within "
          f"{args.max_regression:.0%} of committed throughput.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
