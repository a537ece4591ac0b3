#!/usr/bin/env python3
"""Runs one workload k times and reports how steady its metrics are.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed0 1]
                                [--sets 1]

Each run uses another seed (seed0, seed0 + 1, ...) and the run length
from BENCHMARK.json. For each set of runs and each end-to-end metric it
prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, the
metric's bound, and whether the spread is within a third of the bound
("steady"), within the bound or over it. With --sets 2 or more, it also
prints how much worse each later set's median is than the first set's,
in the metric's own direction, against the bound. Also prints each
run's share of failed operations, which must be the same in every run.
Exits 1 when a run fails, a spread exceeds its bound, a later median is
worse than the first by more than the bound, or the failed share
differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(workload, spec, seeds):
    """Runs the workload once per seed; returns the metric values and
    the (failed, attempted) pair of each run, or None when a run fails."""
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    shares = []
    for seed in seeds:
        proc = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print("run with seed %d exited %d" % (seed, proc.returncode))
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.append((result["failed"], result["attempted"]))
        row = []
        for m in metrics:
            v = result["metrics"][m["name"]]["value"]
            values[m["name"]].append(v)
            row.append("%s=%.6g" % (m["name"], v))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)
    return values, shares


def print_spreads(metrics, values):
    """Prints the spread table of one set; returns the medians, or None
    when a spread exceeds its bound."""
    ok = True
    medians = {}
    print("\n%-16s %12s %12s %12s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        medians[m["name"]] = med
        spread = (q3 - q1) / med if med else float("inf")
        if spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound, above a third of it"
        else:
            verdict = "OVER BOUND"
            ok = False
        print("%-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s" %
              (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
               verdict))
    return medians if ok else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")
    if args.sets < 1:
        parser.error("--sets must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    ok = True
    all_medians = []
    shares = []
    for s in range(args.sets):
        first = args.seed0 + s * args.runs
        print("set %d: seeds %d-%d" % (s + 1, first, first + args.runs - 1))
        result = run_set(args.workload, spec,
                         range(first, first + args.runs))
        if result is None:
            return 1
        values, set_shares = result
        shares += set_shares
        medians = print_spreads(metrics, values)
        if medians is None:
            ok = False
            medians = {m["name"]: statistics.median(values[m["name"]])
                       for m in metrics}
        all_medians.append(medians)
        print(flush=True)

    for s in range(1, args.sets):
        print("set %d against set 1: median worse by (negative: better)"
              % (s + 1))
        for m in metrics:
            a, b = all_medians[0][m["name"]], all_medians[s][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "within bound" if worse <= m["bound"] else "OVER BOUND"
            ok = ok and worse <= m["bound"]
            print("  %-16s %12.6g -> %-12.6g %+7.2f%% %5.0f%%  %s" %
                  (m["name"], a, b, 100 * worse, 100 * m["bound"], verdict))

    fractions = {f / a for f, a in shares}
    print("\nfailed/attempted per run: %s (%s)" %
          (", ".join("%d/%d" % s for s in shares),
           "same share in every run" if len(fractions) == 1
           else "SHARE DIFFERS"))
    return 0 if ok and len(fractions) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
