#!/usr/bin/env python3
"""Builds the benchmark and the shipped `fveval` binary, then runs one
workload of the repository benchmark.

    python3 fvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`), and working files of a run
under `<target>/fvbench-work`. The benchmark's own output (the last
line is the JSON result) goes to stdout, build messages to stderr, and
the exit code is the benchmark's: non-zero when the build fails or any
output check fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
        "-p", "fvbench", "-p", "fveval-harness", "--bins",
    ]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("fvbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    work = os.path.join(target, "fvbench-work")
    os.makedirs(work, exist_ok=True)
    run = [
        os.path.join(release, "fvbench"), *sys.argv[1:],
        "--fveval", os.path.join(release, "fveval"),
        "--work-dir", work,
    ]
    return subprocess.run(run, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
