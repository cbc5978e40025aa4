#!/usr/bin/env bash
# The end-to-end benchmark's four workloads, then the design-space sweep.
#
# Runs the `BENCHMARK.json` command once per workload (default seed and
# run length); each run prints its metrics and writes its run record to
# `target/bench_e2e/<workload>.json`. Then re-runs the sweep behind
# `results/BENCH_explore.json` at the machine's available parallelism (or
# $SHELL_JOBS if the caller set one).
set -euo pipefail

cd "$(dirname "$0")/.."

jobs_n="${SHELL_JOBS:-$(nproc 2>/dev/null || echo 1)}"

for workload in lock attack_sat attack_dip serve_mix; do
    echo "== bench_e2e --workload ${workload} (target/bench_e2e/${workload}.json) =="
    cargo run --release --quiet --offline \
        --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml -- \
        --workload "$workload" --out target/bench_e2e
done

echo "== design-space sweep (results/BENCH_explore.json, results/explore/pareto.json) =="
SHELL_JOBS="$jobs_n" cargo run --release --offline -p shell-bench --bin bench_explore

echo "bench: done (jobs=${jobs_n})"
