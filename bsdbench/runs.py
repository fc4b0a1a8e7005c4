#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bsdbench/runs.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                             [--trace 0|1] [--out FILE.json]

Runs the command from BENCHMARK.json once per workload and seed, from
the repository root, and prints per workload and metric the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. --out keeps every run's result line and the summaries.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            started = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.time() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect or failed: {lines[-1]}")
            result["seed"], result["wall_s"] = seed, wall
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        report["runs"][workload] = results
        summary = {}
        for name, metric in results[0]["metrics"].items():
            summary[name] = summarise([r["metrics"][name]["value"] for r in results])
            summary[name]["unit"] = metric["unit"]
        report["summary"][workload] = summary
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload} ({len(results)} seeds, {args.seconds} s runs): "
              f"error_ratio {failed / attempted} ({failed} failed of {attempted} attempted)")
        print(f"  {'metric':40} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, s in summary.items():
            bound = bounds.get(name)
            print(f"  {name:40} {s['unit']:>6} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
                  f"{s['spread']:8.4f} {bound if bound is not None else '':>6}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
