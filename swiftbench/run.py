#!/usr/bin/env python3
"""Build and run the SwiftDir simulator benchmark.

Usage, from the repository root:

    python3 swiftbench/run.py --workload fig7_spec --seed 1 --seconds 10 --trace 0

Workloads: fig7_spec, fig8_parsec, fuzz_grid, explore_trees. The
benchmark is built from source with cargo (into $CARGO_TARGET_DIR, default
.bench_build), then run; its human-readable report goes to stdout and the
last stdout line is the JSON result. Full results and the traced run's
spans are written to <target dir>/swiftbench-results/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_spec", "fig8_parsec", "fuzz_grid", "explore_trees")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def host_context():
    """The git commit and rustc version, or "unknown" for either."""

    def first_line(cmd):
        try:
            out = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            )
            return out.stdout.strip().splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            return "unknown"

    return first_line(["git", "rev-parse", "HEAD"]), first_line(["rustc", "--version"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"swiftbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("swiftbench: build failed", file=sys.stderr)
        return 1

    commit, rustc = host_context()
    cmd = [
        os.path.join(target, "release", "swiftbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "swiftbench-results"),
        "--commit", commit,
        "--rustc", rustc,
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"swiftbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"swiftbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("swiftbench: the last output line is not a result object", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
