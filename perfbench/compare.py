#!/usr/bin/env python3
"""Compare two sets of benchmark results measured on the same host.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files `perfbench/run.py` writes to `.bench_results/`
(one `<workload>-<size>-seed<n>-trace0.json` per run).  Only full-size runs that
passed their checks are compared; every other file is listed as skipped.  For every
workload and end-to-end metric this prints the median over runs on each side and the
change, and marks a change worse than the metric's bound in BENCHMARK.json.  It
refuses to compare, and exits 2, when the results come from more than one host
(nproc, CPU model or rustc version differ) or when a workload's runs measured for
different `--seconds`.  Exits 1 when any metric regressed beyond its bound, 0
otherwise.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu_model", "rustc")


def load(directory):
    """The comparable runs in `directory`; prints every result file it skips."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            run = json.load(f)
        if run.get("size") != "full":
            print(f"compare: skipped {path}: size {run.get('size')}, not full")
        elif run.get("correct") is not True:
            print(f"compare: skipped {path}: the run failed its checks")
        else:
            runs.append(run)
    return runs


def host_of(run):
    return tuple(run["host"][k] for k in HOST_KEYS)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare: no comparable untraced result files found")
        return 2
    hosts = {host_of(r) for r in base + new}
    if len(hosts) != 1:
        print("compare: refused, the results come from different hosts:")
        for h in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)))
        return 2
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            continue
        seconds = {r["seconds"] for r in b + n}
        if len(seconds) != 1:
            print(f"compare: refused, {workload} runs measured for different "
                  f"--seconds: {sorted(seconds)}")
            return 2
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            mb = statistics.median(r["metrics"][name] for r in b)
            mn = statistics.median(r["metrics"][name] for r in n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag = "REGRESSED" if worse > metric["bound"] else ""
            regressed |= bool(flag)
            print(f"  {name:14s} {mb:12.6g} -> {mn:12.6g} {metric['unit']:6s} "
                  f"{change:+7.1%} (bound {metric['bound']:.0%}) {flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
