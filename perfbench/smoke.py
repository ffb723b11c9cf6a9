#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Result files go to `.bench_results/smoke/`, apart from those of full-size runs.
Checks that each run exits 0, that the metric names and units it prints are exactly
those BENCHMARK.json lists (end_to_end untraced, per_layer traced), and that no op
failed.  Exits 1 on the first run that breaks one of these.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", "1", "--seconds", "1", "--trace", str(trace),
                       "--size", "tiny", "--out-dir", ".bench_results/smoke"]
            run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"FAIL {label}: exit {run.returncode}\n{run.stderr}")
                return 1
            result = json.loads(lines[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(n for n in units
                               if n in expected[trace] and units[n] != expected[trace][n])
                print(f"FAIL {label}: missing {missing}, extra {extra}, wrong unit {wrong}")
                return 1
            if result["failed"] != 0 or not result["correct"]:
                print(f"FAIL {label}: {result['failed']} of {result['attempted']} ops failed")
                return 1
            print(f"ok   {label}: {result['attempted']} ops, {len(units)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
