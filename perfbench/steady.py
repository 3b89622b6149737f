#!/usr/bin/env python3
"""Steadiness check: runs one workload k times, each with its own seed.

    python3 perfbench/steady.py --workload construct_line [--runs 10]
        [--seed0 1] [--seconds <run_seconds>] [--trace 0]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the quartile spread (q3 - q1) / median
and the full spread (max - min) / median, next to the metric's bound from
BENCHMARK.json, and the share of failed operations of every run. The bounds
in BENCHMARK.json are set from what this prints.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    shares = []
    for k in range(args.runs):
        seed = args.seed0 + k
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("run with seed %d failed (exit %d)" % (seed, done.returncode))
        result = json.loads(lines[-1])
        shares.append("%d/%d" % (result["failed"], result["attempted"]))
        print("seed %d: correct=%s %s  %s" % (
            seed, result["correct"], shares[-1],
            "  ".join("%s=%.6g" % (k, v["value"])
                      for k, v in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("\n%-30s %14s %14s %14s %8s %8s %6s" % (
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med,) * 3
        scale = abs(med) if med else 1.0
        bound = bounds.get(name)
        print("%-30s %14.6g %14.6g %14.6g %8.4f %8.4f %6s" % (
            name, med, q1, q3, (q3 - q1) / scale, (max(vs) - min(vs)) / scale,
            "-" if bound is None else bound))
    print("failed/attempted per run: " + " ".join(shares))


if __name__ == "__main__":
    main()
