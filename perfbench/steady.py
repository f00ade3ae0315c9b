#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--first-seed 1] [--out FILE]

Runs every workload (or those named) as two independent sets of ten
untraced runs, each run with its own seed, through run.py with
BENCHMARK.json's run_seconds. For each end-to-end metric it prints each
set's median and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and checks what BENCHMARK.json's bounds promise:

  - every spread stays within the metric's bound,
  - the two sets' medians differ by no more than the bound, either way,
  - the share of failed operations is the same in both sets.

Exits 0 when every check holds. --out writes every run's result as JSON.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d): %s" %
                           (workload, seed, proc.returncode,
                            proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    metrics = spec["end_to_end"]

    ok = True
    record = {}
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for _ in range(2):
            results = []
            for _ in range(RUNS):
                results.append(run_once(workload, seed, spec["run_seconds"]))
                seed += 1
            sets.append(results)
        record[workload] = sets
        print("== %s: 2 sets of %d runs" % (workload, RUNS), flush=True)
        first, second = sets
        shares = [fractions.Fraction(sum(r["failed"] for r in results),
                                     sum(r["attempted"] for r in results))
                  for results in sets]
        if shares[0] != shares[1]:
            print("  FAIL: failed-operation share differs between the sets")
            ok = False
        if not all(r["correct"] for r in first + second):
            print("  FAIL: a run reported correct=false")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            one, two = [summarize([r["metrics"][name]["value"]
                                   for r in results]) for results in sets]
            drift = (two["median"] - one["median"]) / one["median"]
            drift_ok = abs(drift) <= bound
            cells = []
            for i, s in enumerate((one, two)):
                spread_ok = s["spread"] <= bound
                ok = ok and spread_ok
                cells.append("set%d median %.6g [q1 %.6g, q3 %.6g] spread %.3f%s"
                             % (i + 1, s["median"], s["q1"], s["q3"],
                                s["spread"], "" if spread_ok else " SPREAD>BOUND"))
            ok = ok and drift_ok
            print("  %-12s %-5s bound %.2f | %s | drift %+.3f%s"
                  % (name, m["unit"], bound, " | ".join(cells), drift,
                     "" if drift_ok else " DRIFT>BOUND"), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
