#!/usr/bin/env python3
"""Steadiness of the benchmark: run workloads repeatedly, one seed per run,
and print for every end-to-end metric the median, the quartiles and the
run-to-run spread (interquartile range as a share of the median), next
to the bound BENCHMARK.json allows.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Run it from the repository root; it invokes the command BENCHMARK.json
names with `--workload`, `--seed` (1 to the number of runs), `--seconds`
(BENCHMARK.json's `run_seconds`) and `--trace 0`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks\n{proc.stderr}")
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        default=None, help="repeatable; default: all")
    opts = parser.parse_args()
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in workloads:
        runs = [run_once(bench["command"], workload, seed, bench["run_seconds"])
                for seed in range(1, opts.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {opts.runs} runs of {bench['run_seconds']} s, seeds "
              f"1..{opts.runs}, failed share {sorted(shares)}")
        print(f"  {'metric':<16} {'unit':<6} {'q1':>14} {'median':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else "  <-- over a third of the bound"
            print(f"  {name:<16} {unit:<6} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {bound:>6}{flag}")


if __name__ == "__main__":
    main()
