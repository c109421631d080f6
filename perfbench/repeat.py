#!/usr/bin/env python3
"""Runs each benchmark workload repeatedly and prints every metric's median
and quartiles against its bound from BENCHMARK.json.

    python3 perfbench/repeat.py                      # 10 seeds x every workload
    python3 perfbench/repeat.py --seed-base 11       # a second set: seeds 11-20
    python3 perfbench/repeat.py --trace both --runs 3  # adds tracing overhead

Run it from the root of a checkout. Every run lasts run_seconds from
BENCHMARK.json, so sets made on two commits compare like with like. The
spread column is the distance between the first and third quartile as a
share of the median (Python's statistics.quantiles(values, n=4)); "ok"
means it is within a third of the bound, "WIDE" that it is within the bound
only, "OVER" that it exceeds it. The share of failed operations per workload
is printed too. Raw results go to .bench_out/repeat-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.time() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("%s seed %d trace %d failed (exit %d)"
                         % (workload, seed, trace, done.returncode))
    result = json.loads(lines[-1])
    context = {}
    for line in done.stderr.splitlines():
        if line.startswith("perfbench-context "):
            context = json.loads(line[len("perfbench-context "):])
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "result": result, "context": context}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(workload, runs, bounds):
    print("\n== %s: %d runs, %.0f s wall each (median)" % (
        workload, len(runs), statistics.median(r["wall_s"] for r in runs)))
    shares = sorted({r["result"]["failed"] / r["result"]["attempted"]
                     for r in runs})
    correct = all(r["result"]["correct"] for r in runs)
    print("   correct in every run: %s; failed share(s): %s" % (correct, shares))
    names = list(runs[0]["result"]["metrics"])
    print("   %-38s %14s %14s %14s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        med, q1, q3, s = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if s < bound / 3 else ("WIDE" if s <= bound else "OVER")
        print("   %-38s %14.6g %14.6g %14.6g %7.1f%% %6s %s" % (
            name + " [" + unit + "]", med, q1, q3, 100 * s,
            "" if bound is None else "%.2f" % bound, verdict))


def overhead(workload, timed, traced):
    print("\n== %s: tracing overhead (traced vs timed medians)" % workload)
    for key, metric in (("events_per_s", "events_per_s"),
                        ("round_close_p50_ms", "round_close_p50_ms"),
                        ("release_lag_p50_ms", "release_lag_p50_ms")):
        a = statistics.median(r["result"]["metrics"][metric]["value"]
                              for r in timed)
        b = statistics.median(r["context"][key] for r in traced)
        print("   %-22s timed %12.6g  traced %12.6g  (%+.1f%%)"
              % (metric, a, b, 100 * (b - a) / a))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]

    all_runs = []
    for workload in workloads:
        per_trace = {0: [], 1: []}
        for i in range(args.runs):
            for trace in traces:
                run = run_once(workload, args.seed_base + i, seconds, trace)
                per_trace[trace].append(run)
                all_runs.append(run)
        for trace in traces:
            report(workload + ("" if trace == 0 else " (traced)"),
                   per_trace[trace], bounds)
        if len(traces) == 2:
            overhead(workload, per_trace[0], per_trace[1])
    os.makedirs(".bench_out", exist_ok=True)
    path = time.strftime(".bench_out/repeat-%Y%m%d-%H%M%S.json")
    with open(path, "w") as f:
        json.dump(all_runs, f, indent=1)
    print("\nraw results: " + path)


if __name__ == "__main__":
    main()
