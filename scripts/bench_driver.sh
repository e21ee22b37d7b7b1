#!/usr/bin/env bash
# Runs the simulator's host-time harness and refreshes BENCH_driver.json.
#
# Honors SWIFTDIR_THREADS for the parallel legs. Extra arguments pass
# through to the harness; in particular
#
#   scripts/bench_driver.sh --check
#
# re-measures the gated numbers (single run, scale-out, explore
# throughput, sampler overhead) against the reference constants in
# crates/bench/src/bin/bench_driver.rs and fails if any gate fails (the
# CI perf gate). Run from the repository root:
#
#   scripts/bench_driver.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p swiftdir-bench
exec ./target/release/bench_driver "$@"
