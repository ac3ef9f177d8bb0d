#!/usr/bin/env python3
"""Builds the benchmark from source and runs one pass of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a cargo package of its
own (perfbench/Cargo.toml) built against the repository's crates by
path; cargo honours CARGO_TARGET_DIR.

A watchdog kills the measuring process if it has not finished within
WATCHDOG_S seconds and reports it as one failed run, so a non-halting
input cannot hang the benchmark. The exit code is the measuring
process's: 0 only if every checked run ended in the sequential machine's
final state.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WATCHDOG_S = 170


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=WATCHDOG_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: watchdog: no result within {WATCHDOG_S} s; run killed",
              file=sys.stderr)
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return 3


if __name__ == "__main__":
    sys.exit(main())
