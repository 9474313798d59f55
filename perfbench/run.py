#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); the run's scratch files live under it and are
removed afterwards. The benchmark's last line of output is its result as
one JSON object; on any failure to build or run, this script exits non-zero
without printing one.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("main-trace", "nat-device", "fleet-resume")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def main():
    args = parse_args()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    os.makedirs(target, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=target)
    try:
        run = subprocess.run(
            [
                os.path.join(target, "release", "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed % 2**64),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--scratch", scratch,
            ],
            env=env,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
