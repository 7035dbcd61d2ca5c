#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command in BENCHMARK.json ten times per workload, each time with
another --seed, and prints for each metric the distance between the first
and third quartile of its ten values as a share of their median, next to the
metric's bound. A benchmark is steady when every spread except setup_s's is
below a third of its bound.

    python3 bench_e2e/spread.py [first_seed] [runs] > spread.json

Run it from the root of the repository. Progress and the table go to
standard error, the raw values to standard output as JSON.
"""
import json
import os
import statistics
import subprocess
import sys


def main():
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", "target")
    values = {}
    for workload in (w["name"] for w in contract["workloads"]):
        for seed in range(first_seed, first_seed + runs):
            command = contract["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: not correct: {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr)

    print(f"{'workload':<14} {'metric':<22} {'median':>14} {'spread':>8} {'bound':>7}",
          file=sys.stderr)
    steady = True
    for workload, metrics in values.items():
        for metric in contract["end_to_end"]:
            series = metrics[metric["name"]]
            q1, _, q3 = statistics.quantiles(series, n=4)
            mid = statistics.median(series)
            spread = (q3 - q1) / mid
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                flag = "  above a third of the bound"
                steady = False
            print(f"{workload:<14} {metric['name']:<22} {mid:>14.4f} {spread:>7.2%} "
                  f"{metric['bound']:>6.0%}{flag}", file=sys.stderr)
    json.dump(values, sys.stdout, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
