#!/usr/bin/env python3
"""Checks how steady the benchmark is: runs it once per seed on each named
workload and prints, for every metric, the median over the runs and the
spread (first-to-third quartile distance over the median, by
statistics.quantiles(values, n=4)) next to the metric's bound.

    python3 pawnbench/spread.py --workloads serve --seeds 1 2 3 4 5 \
        [--seconds S] [--trace 0|1] [--out FILE]

Run it from the root of the checkout.  With --out, every run's result
line is also written to FILE as JSON, keyed by workload.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    worst = 0.0
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            r = json.loads(last)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
            runs.append(r)
        results[w] = runs
        print(f"\n{w}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else (
                    "  over a third" if spread > bound / 3 else "")
            print(f"  {name:28s} median {med:16.6f}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        print(flush=True)
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)
    print(f"largest spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
