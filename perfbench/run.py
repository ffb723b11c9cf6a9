#!/usr/bin/env python3
"""Build the benchmark and the bsa-daemon binary, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 30 --trace 0

Every argument is passed to the `perfbench` binary (see perfbench/README.md).  Build
output goes to standard error; the last line of standard output is the result JSON.
Binaries go to $CARGO_TARGET_DIR (default `.bench_build`), result and span files to
`.bench_results/` unless the arguments name another `--out-dir`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/daemon")):
        print("perfbench: the repository sources are missing next to perfbench/",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "bsa_daemon", "--bin", "bsa-daemon"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 3
    bench = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "bsa-daemon")
    command = [bench, "--daemon", daemon, *sys.argv[1:]]
    if "--out-dir" not in sys.argv[1:]:
        command += ["--out-dir", ".bench_results"]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
