#!/usr/bin/env python3
"""Gate a change on the repository benchmark, base commit against head.

    perfbench_gate.py --base DIR --head DIR

Each DIR is the root of a checkout. For every workload in the head's
BENCHMARK.json the gate runs PAIRS alternated pairs of the benchmark's
`command` (`python3 perfbench/run.py ...`), each from its checkout's root,
at `--seconds run_seconds --trace 0`. Pair i uses seed i on both sides;
odd pairs run the base first, even pairs the head first.

The gate fails when any run exits non-zero (a failed correctness check or
a failed build, on either side), or when an end-to-end metric's head median
is worse than its base median by more than the metric's bound, in the
direction BENCHMARK.json calls better. A metric the base does not report is
printed as new and is not gated. Exit code 0 when the change passes, 1
when it does not.

The last line of the output is one JSON object: per workload and metric,
each side's median and first and third quartiles, the change, the bound
and the verdict, plus the pair count, the seeds, nproc, the wall time and
the outcome. BENCH_perfbench.json keeps one such object per performance
change.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

PAIRS = 5


def quartiles(runs, metric):
    """(first quartile, median, third quartile) of a metric over the runs
    that report it, or None when none does. The quartiles interpolate
    linearly between order statistics (statistics.quantiles, "inclusive"):
    for five runs they are the 2nd, 3rd and 4th smallest values."""
    values = [result["metrics"][metric]["value"] for _, result in runs
              if result and metric in result.get("metrics", {})]
    if not values:
        return None
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def median(spread):
    return None if spread is None else spread[1]


def finite(change):
    """The change, or None where there is no number to show (the base
    median is 0 and the head's is not)."""
    return change if change is not None and math.isfinite(change) else None


def decide(end_to_end, base_runs, head_runs):
    """Gate one workload's runs; pure, so tests can drive it.

    `end_to_end` is BENCHMARK.json's list of metrics (name, better, bound).
    Each run is (exit_code, result), where result is the JSON object the
    run printed last, or None. Returns (rows, failures): one row
    (metric, base, head, change, bound, verdict) per metric, where base and
    head are quartiles() triples, and one message per reason to fail.
    """
    failures = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for seed, (code, result) in enumerate(runs, start=1):
            correct = bool(result and result.get("correct"))
            if code != 0 or not correct:
                failures.append(f"{side} run with seed {seed}: exit {code}, "
                                f"correct {str(correct).lower()}")
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        base, head = quartiles(base_runs, name), quartiles(head_runs, name)
        if head is None:
            rows.append((name, base, None, None, bound, "FAIL"))
            failures.append(f"{name}: not reported by the head")
            continue
        if base is None:
            rows.append((name, None, head, None, bound, "new"))
            continue
        base_mid, head_mid = median(base), median(head)
        if base_mid:
            change = (head_mid - base_mid) / abs(base_mid)
        else:
            change = math.copysign(math.inf, head_mid) if head_mid else 0.0
        worse = -change if metric["better"] == "higher" else change
        verdict = "FAIL" if worse > bound else "ok"
        if verdict == "FAIL":
            failures.append(f"{name}: {change:+.1%} against a bound of "
                            f"{bound:.0%} ({metric['better']} is better)")
        rows.append((name, base, head, change, bound, verdict))
    return rows, failures


def run_once(checkout, spec, workload, seed, side):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    print(f"{workload} seed {seed} {side}: exit {proc.returncode} in "
          f"{time.monotonic() - start:.0f} s", flush=True)
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).splitlines()[-30:]
        print("\n".join("    " + line for line in tail), flush=True)
    return proc.returncode, result


def fmt(value, pattern="{:.4g}"):
    return "-" if value is None else pattern.format(value)


def table_lines(table):
    """The printed table: one line per (workload, metric) row, medians."""
    lines = [f"{'workload':<9} {'metric':<20} {'base':>10} {'head':>10} "
             f"{'change':>8} {'bound':>6}  verdict"]
    for workload, name, base, head, change, bound, verdict in table:
        lines.append(f"{workload:<9} {name:<20} {fmt(median(base)):>10} "
                     f"{fmt(median(head)):>10} "
                     f"{fmt(finite(change), '{:+.1%}'):>8} {bound:>6.0%}  "
                     f"{verdict}")
    return lines


def summary(table, seeds, wall_min, failures):
    """The JSON line: the table's rows with each side's quartiles."""
    def side(spread):
        if spread is None:
            return None
        return dict(zip(("q1", "median", "q3"), spread))

    workloads = {}
    for workload, name, base, head, change, bound, verdict in table:
        workloads.setdefault(workload, {})[name] = {
            "base": side(base), "head": side(head), "change": finite(change),
            "bound": bound, "verdict": verdict}
    return {"pairs": len(seeds), "seeds": list(seeds),
            "nproc": os.cpu_count(), "wall_min": round(wall_min, 1),
            "passed": not failures, "failures": failures,
            "workloads": workloads}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    args = ap.parse_args()
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        spec = json.load(f)

    start = time.monotonic()
    seeds = range(1, PAIRS + 1)
    table, failures = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "head": []}
        for seed in seeds:
            for side in ("base", "head") if seed % 2 else ("head", "base"):
                runs[side].append(run_once(getattr(args, side), spec,
                                           workload, seed, side))
        rows, bad = decide(spec["end_to_end"], runs["base"], runs["head"])
        table += [(workload, *row) for row in rows]
        failures += [f"{workload} {message}" for message in bad]

    wall_min = (time.monotonic() - start) / 60
    print("\n" + "\n".join(table_lines(table)))
    print(f"\n{PAIRS} pairs per workload, medians; wall time "
          f"{wall_min:.1f} min")
    if failures:
        print(f"\n{len(failures)} reason(s) the change fails the gate:")
        for message in failures:
            print(f"  - {message}")
    else:
        print("every run correct; no end-to-end metric worse than its bound")
    print(json.dumps(summary(table, seeds, wall_min, failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
