#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload stack-churn --seeds 1-10 --seconds 10

For every metric it prints the median of the runs, the first and third
quartiles (Python's statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median. Run it from the
root of the repository. The benchmark is built once with cargo; pass
--binary to run an already built executable instead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--binary", help="a built perfbench executable")
    args = ap.parse_args()

    if args.binary:
        command = [args.binary]
    else:
        build = ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"]
        subprocess.run(build, check=True)
        command = ["cargo", "run", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml", "--"]

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        run = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed with code {run.returncode}:\n{run.stdout}{run.stderr}")
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"\n{'metric':32} {'unit':10} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {units[name]:10} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
