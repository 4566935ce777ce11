#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sc-sample --seeds 1,2,3,4,5

Runs the benchmark once per seed, each in a fresh process, and prints
for every end-to-end metric the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (third minus first
quartile, as a share of the median) against the metric's bound in
BENCHMARK.json.  A spread under a third of the bound is marked steady.
Exits 1 if any run fails its gate.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = p.parse_args(argv)
    seeds = args.seeds.split(",")
    if len(seeds) < 2:
        p.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values, status = {}, 0
    for seed in seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", seed,
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"seed {seed}: exit {proc.returncode}, no result\n{proc.stderr}", flush=True)
            status = 1
            continue
        result = json.loads(lines[-1])
        if proc.returncode or not result["correct"]:
            status = 1
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        vals = values.get(metric["name"], [])
        if len(vals) < 2:
            print(f"{metric['name']:<16} fewer than two results")
            status = 1
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        mark = "steady" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{metric['bound']:>7}  {mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
