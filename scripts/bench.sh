#!/usr/bin/env bash
# Kernel benchmarks at jobs=1 and jobs=N, then the design-space sweep.
#
# Runs the micro-benchmark suite twice — pinned sequential via SHELL_JOBS=1,
# then at the machine's available parallelism (or $SHELL_JOBS if the caller
# set one) — and then re-runs the sweep behind `results/BENCH_explore.json`.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs_n="${SHELL_JOBS:-$(nproc 2>/dev/null || echo 1)}"

echo "== kernels bench, sequential (SHELL_JOBS=1) =="
SHELL_JOBS=1 cargo bench --offline

echo "== kernels bench, parallel (SHELL_JOBS=${jobs_n}) =="
SHELL_JOBS="$jobs_n" cargo bench --offline

echo "== design-space sweep (results/BENCH_explore.json, results/explore/pareto.json) =="
SHELL_JOBS="$jobs_n" cargo run --release --offline -p shell-bench --bin bench_explore

echo "bench: done (jobs=${jobs_n})"
