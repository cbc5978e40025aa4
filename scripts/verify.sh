#!/usr/bin/env bash
# Hermetic-build verification: the workspace must build and test with zero
# network access. Run from anywhere; exits non-zero on any regression.
#
# Two layers of enforcement:
#   1. `--offline` makes cargo refuse to touch the network at all.
#   2. A manifest scan fails the run if any crates.io dependency sneaks
#      back into a Cargo.toml (the failure mode this script exists to
#      prevent: it broke every seed test before shell-util existed).
set -euo pipefail

cd "$(dirname "$0")/.."

# Formatting first: a change's own formatting must not hide in drift.
echo "== cargo fmt --all -- --check =="
cargo fmt --all -- --check
echo "ok"

echo "== manifest scan: no external (crates.io) dependencies allowed =="
# Dependency lines are either `shell-*` path crates or workspace plumbing.
# Anything else under a [dependencies]-ish section is a regression.
bad=$(awk '
    /^\[(dev-|build-)?dependencies/ { in_deps = 1; next }
    /^\[workspace.dependencies\]/   { in_deps = 1; next }
    /^\[/                           { in_deps = 0 }
    in_deps && NF && !/^#/ && !/^shell-/ { print FILENAME ": " $0 }
' Cargo.toml crates/*/Cargo.toml tests/Cargo.toml examples/Cargo.toml || true)
if [ -n "$bad" ]; then
    echo "external dependency detected:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "ok"

echo "== lockfile scan: every package must be path-local =="
if grep -q 'source = ' Cargo.lock; then
    echo "Cargo.lock contains registry-sourced packages:" >&2
    grep -B2 'source = ' Cargo.lock >&2
    exit 1
fi
echo "ok"

echo "== cargo build --release --offline =="
cargo build --release --offline

# Clippy over every target, tests included: any finding fails the run.
echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings
echo "ok"

# The suite runs twice: once pinned sequential and once with a small worker
# pool, so a scheduling-dependent result (the bug class shell-exec's ordered
# merge exists to prevent) fails verification rather than landing.
echo "== cargo test -q --offline (SHELL_JOBS=1) =="
SHELL_JOBS=1 cargo test -q --offline

echo "== cargo test -q --offline (SHELL_JOBS=4) =="
SHELL_JOBS=4 cargo test -q --offline

# The benchmark that BENCHMARK.json runs is a package of its own (an empty
# `[workspace]`), so the runs above skip its tests — among them the check
# that the metrics it prints are exactly the ones BENCHMARK.json declares.
#
# That package also keeps its own Cargo.lock, which changes only together
# with the benchmark. When a workspace crate's dependencies change, cargo
# rewrites it on every build, so each run of the package puts the
# committed lockfile back and says when it was stale.
e2e_manifest=crates/bench/src/bin/bench_e2e/Cargo.toml
e2e_lock=crates/bench/src/bin/bench_e2e/Cargo.lock
e2e_lock_keep=$(mktemp)
cp "$e2e_lock" "$e2e_lock_keep"
e2e_cargo() {
    local status=0
    cargo "$@" || status=$?
    if ! cmp -s "$e2e_lock" "$e2e_lock_keep"; then
        echo "note: cargo rewrote the stale $e2e_lock; the committed file is put back" >&2
        cp "$e2e_lock_keep" "$e2e_lock"
    fi
    return "$status"
}
echo "== bench_e2e package tests =="
e2e_cargo test -q --offline --manifest-path "$e2e_manifest"

echo "== cargo build --offline --examples --bins =="
cargo build -q --offline --examples --bins

# Documentation is part of the contract: the public-API docs must build
# with zero warnings (broken intra-doc links are the usual regression).
echo "== cargo doc --no-deps (RUSTDOCFLAGS=-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps
echo "ok"

# And the prose must not rot: every relative link in the top-level
# markdown docs has to resolve to a file in the repo.
echo "== markdown link check: local links in *.md must resolve =="
md_bad=""
for f in *.md; do
    while IFS= read -r target; do
        target="${target%%#*}"                       # drop fragment
        [ -z "$target" ] && continue
        case "$target" in
            http://*|https://*|mailto:*) continue ;;  # external
        esac
        [ -e "$target" ] || md_bad="${md_bad}${f}: broken link -> ${target}"$'\n'
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//')
done
if [ -n "$md_bad" ]; then
    printf '%s' "$md_bad" >&2
    exit 1
fi
echo "ok"

# Results coverage, both directions: every committed artifact under
# `results/` must have a recipe in EXPERIMENTS.md (files under
# `results/trace/` are documented as a family), and every `results/...`
# path the doc names must exist (placeholder paths containing `<` or `*`
# are patterns, not files).
echo "== results coverage: EXPERIMENTS.md <-> results/ =="
cov_bad=""
while IFS= read -r f; do
    case "$f" in results/trace/*) continue ;; esac
    grep -qF "\`$f\`" EXPERIMENTS.md || \
        cov_bad="${cov_bad}artifact has no EXPERIMENTS.md recipe: ${f}"$'\n'
done < <(git ls-files results)
while IFS= read -r path; do
    case "$path" in *'<'*|*'*'*) continue ;; esac
    [ -e "$path" ] || cov_bad="${cov_bad}EXPERIMENTS.md names a missing artifact: ${path}"$'\n'
done < <(grep -oE 'results/[A-Za-z0-9_./<>*-]+' EXPERIMENTS.md | sed 's/\.$//' | sort -u)
if [ -n "$cov_bad" ]; then
    printf '%s' "$cov_bad" >&2
    exit 1
fi
echo "ok"

# Trace smoke: SHELL_TRACE=1 must produce a loadable Chrome trace without
# perturbing the run (the fault report below is compared untraced). The
# smoke writes over the committed trace pair with fresh timings, so the pair
# is saved first and put back afterwards, also when the smoke fails.
echo "== trace smoke: SHELL_TRACE=1 emits results/trace/*.json =="
trace_keep=$(mktemp -d)
cp results/trace/fault_campaign.json results/trace/fault_campaign.summary.txt "$trace_keep/"
restore_trace() { cp "$trace_keep"/* results/trace/ && rm -rf "$trace_keep"; }
trap restore_trace EXIT
rm -f results/trace/fault_campaign.json results/trace/fault_campaign.summary.txt
SHELL_TRACE=1 SHELL_JOBS=2 cargo run -q --release --offline --bin fault_campaign -- \
    --faults 24 --seed 7 --out FAULT_trace_smoke >/dev/null
grep -q '"traceEvents"' results/trace/fault_campaign.json || {
    echo "trace smoke produced no Chrome trace" >&2
    exit 1
}
test -s results/trace/fault_campaign.summary.txt || {
    echo "trace smoke produced no span summary" >&2
    exit 1
}
rm -f results/FAULT_trace_smoke.json
restore_trace
trap - EXIT
echo "ok"

# Table smoke: table1 and fig2 must regenerate their committed artifacts
# exactly, the JSON and the captured stdout, so a stale artifact fails
# here. Both bins write over results/, so the committed files are saved
# first and put back afterwards, also when the smoke fails.
echo "== table smoke: table1 and fig2 regenerate their committed artifacts =="
table_keep=$(mktemp -d)
table_out=$(mktemp -d)
cp results/table1.json results/table1.txt results/fig2.json results/fig2.txt "$table_keep/"
restore_tables() { cp "$table_keep"/* results/ && rm -rf "$table_keep" "$table_out"; }
trap restore_tables EXIT
for b in table1 fig2; do
    SHELL_JOBS=1 cargo run -q --release --offline -p shell-bench --bin "$b" >"$table_out/$b.txt"
    cp "results/$b.json" "$table_out/"
    for f in "$b.json" "$b.txt"; do
        diff -u "$table_keep/$f" "$table_out/$f" >&2 || {
            echo "table smoke: results/$f differs from what $b writes now" >&2
            exit 1
        }
    done
done
restore_tables
trap - EXIT
echo "ok"

# Differential-fuzz smoke: the full lock pipeline, stage boundaries
# miter-checked, at two job counts. Zero mismatches is correctness; the
# byte-identical reports are the determinism contract (the fuzz report
# deliberately carries no job count or timestamp).
echo "== fuzz smoke: 32 samples, SHELL_JOBS=1 vs 4, reports must match =="
fuzz_j1=$(mktemp)
fuzz_j4=$(mktemp)
trap 'rm -f "$fuzz_j1" "$fuzz_j4"' EXIT
SHELL_JOBS=1 cargo run -q --release --offline --bin fuzz -- \
    --samples 32 --seed 7 --no-artifacts --out "$fuzz_j1"
SHELL_JOBS=4 cargo run -q --release --offline --bin fuzz -- \
    --samples 32 --seed 7 --no-artifacts --out "$fuzz_j4"
grep -q '"mismatches": 0' "$fuzz_j1" || {
    echo "fuzz smoke found mismatches:" >&2
    grep '"mismatches"' "$fuzz_j1" >&2
    exit 1
}
cmp "$fuzz_j1" "$fuzz_j4" || {
    echo "fuzz reports differ between SHELL_JOBS=1 and 4" >&2
    exit 1
}
echo "ok"

# Fault-injection smoke: 240 seeded bit-flip/stuck-at faults into a
# configured bitstream. Every fault must be detected, corrected or
# masked-with-proof and nothing may panic, at both job counts; the reports
# carry no worker count, so they must also be byte-identical.
echo "== fault smoke: 240 faults, SHELL_JOBS=1 vs 4, zero undetected/panics =="
SHELL_JOBS=1 cargo run -q --release --offline --bin fault_campaign -- \
    --faults 240 --seed 7 --out FAULT_smoke_j1
SHELL_JOBS=4 cargo run -q --release --offline --bin fault_campaign -- \
    --faults 240 --seed 7 --out FAULT_smoke_j4
grep -q '"undetected": 0' results/FAULT_smoke_j1.json || {
    echo "fault smoke left undetected faults:" >&2
    grep '"undetected"' results/FAULT_smoke_j1.json >&2
    exit 1
}
grep -q '"panics": 0' results/FAULT_smoke_j1.json || {
    echo "fault smoke panicked:" >&2
    grep '"panics"' results/FAULT_smoke_j1.json >&2
    exit 1
}
cmp results/FAULT_smoke_j1.json results/FAULT_smoke_j4.json || {
    echo "fault reports differ between SHELL_JOBS=1 and 4" >&2
    exit 1
}
# The report does not carry its `--out` name, so the smoke's run of the
# committed recipe must equal the committed artifact.
cmp results/FAULT_smoke_j1.json results/FAULT_campaign.json || {
    echo "results/FAULT_campaign.json differs from what its recipe writes now" >&2
    exit 1
}
rm -f results/FAULT_smoke_j1.json results/FAULT_smoke_j4.json
echo "ok"

# Bitstream smoke: the frame-addressed format must not drift from its
# golden fixtures. The SECDED contract and the partial-reconfig counters
# are unit and integration tests of the suites above.
echo "== bitstream smoke: golden drift =="
cargo test -q --release --offline -p xtests --test bitstream_golden
echo "ok"

# Trace-overhead check: with tracing off, a probe costs under 10 ns and
# under 2 % of a guarded solve. Timing bounds hold only in release, so
# the test is ignored in the suites above.
echo "== trace overhead: disabled probes, release only =="
cargo test -q --release --offline -p xtests --test trace_observability -- --include-ignored
echo "ok"

# Shrink smoke: the cycle cut of step 8 keeps one netlist, its net
# resolutions and its cell graph across cut steps; the differential test
# checks its cuts and netlist against the rebuild-per-cut loop (kept in the
# test crate as the oracle) on random fabrics, hand-built cases and, in
# release only, the whole lock corpus.
# Then one traced `lock` pass of the benchmark puts every corpus design
# through the flow under the benchmark's own checks (activation
# equivalence, framed readback, key widths) and must lock each design to
# the same framed bitstream every time.
echo "== shrink smoke: replay = oracle, one traced lock pass =="
cargo test -q --release --offline -p xtests --test shrink_replay -- --include-ignored
lock_tmp=$(mktemp -d)
trap 'rm -f "$fuzz_j1" "$fuzz_j4"; rm -rf "$lock_tmp"' EXIT
e2e_cargo run --release -q --offline --manifest-path "$e2e_manifest" -- \
    --workload lock --seconds 1 --trace 1 --out "$lock_tmp" >/dev/null
for field in '"failed": 0' '"lock_digest_changes": 0'; do
    grep -q "$field" "$lock_tmp/lock.traced.json" || {
        echo "lock smoke: run record lacks $field" >&2
        grep -E '"failed"|"lock_digest_changes"' "$lock_tmp/lock.traced.json" >&2
        exit 1
    }
done
# Work-counter gate: the traced pass must do exactly this much work. Wall
# time on a shared CPU is too noisy to gate; these counts are deterministic.
# A change that alters this work on purpose updates the numbers here and
# says so in CHANGES.md.
for counter in 'place.moves 486400' 'pnr.fit_attempts 26' \
               'route.spfa_relaxations 4613471' 'synth.cuts 78' \
               'shrink.cycle_cuts 4055' 'shrink.steps 4044' \
               'lock.ladder_attempts 6' \
               'pnr.verify_patterns 384' 'pnr.verify_proofs 3' \
               'shrink.scc_nodes 5477306' 'place.swaps 228576'; do
    name=${counter% *}
    want=${counter#* }
    key="\"${name//./\\.}\": "
    all=$(grep -cE "${key}[0-9]" "$lock_tmp/lock.traced.json" || true)
    same=$(grep -cE "${key}${want},?\$" "$lock_tmp/lock.traced.json" || true)
    if [ "$all" -eq 0 ] || [ "$all" -ne "$same" ]; then
        echo "lock smoke: per-pass counter $name is not $want:" >&2
        grep -E "${key}[0-9]" "$lock_tmp/lock.traced.json" >&2
        exit 1
    fi
done
echo "ok"

# Attack smoke: one traced `attack_dip` run of the benchmark. Every attack
# must recover its planted unique key (point lock plus output-XOR lock on
# the PicoSoC, FIR, SPMV and DLA frames; a wrong or missing key counts in
# `failed`), and every pass must take exactly 512 DIPs over its four
# attacks.
echo "== attack smoke: one traced attack_dip run, planted keys, DIP count =="
e2e_cargo run --release -q --offline --manifest-path "$e2e_manifest" -- \
    --workload attack_dip --seconds 1 --trace 1 --out "$lock_tmp" >/dev/null
grep -q '"failed": 0' "$lock_tmp/attack_dip.traced.json" || {
    echo "attack smoke: an attack missed its planted key:" >&2
    grep '"failed"' "$lock_tmp/attack_dip.traced.json" >&2
    exit 1
}
all=$(grep -cE '"attack\.dips": [0-9]' "$lock_tmp/attack_dip.traced.json" || true)
same=$(grep -cE '"attack\.dips": 512,?$' "$lock_tmp/attack_dip.traced.json" || true)
if [ "$all" -eq 0 ] || [ "$all" -ne "$same" ]; then
    echo "attack smoke: per-pass attack.dips is not 512:" >&2
    grep -E '"attack\.dips": ' "$lock_tmp/attack_dip.traced.json" >&2
    exit 1
fi
echo "ok"

# PnR golden: what place and route produce on the lock corpus and on the
# four redaction cases of Tables IV/V (key widths and bitstream and
# locked-netlist digests) must not drift. Release only.
echo "== PnR golden: lock corpus and redaction-case digests =="
cargo test -q --release --offline -p xtests --test golden -- --include-ignored
echo "ok"

# Explore smoke: the design-space sweep on the tiny 2×2-point grid at
# worker pools of 1 and 4. The report is jobs-invariant by contract, so
# both runs (and their Pareto plot data) must be byte-identical, and the
# four self-check verdicts must all hold. `--out` keeps the smoke away
# from the committed default-grid artifact.
echo "== explore smoke: tiny grid, SHELL_JOBS=1 vs 4, Pareto verdicts =="
exp_j1=$(mktemp); exp_j4=$(mktemp); par_j1=$(mktemp); par_j4=$(mktemp)
trap 'rm -f "$fuzz_j1" "$fuzz_j4" "$exp_j1" "$exp_j4" "$par_j1" "$par_j4"; rm -rf "$lock_tmp"' EXIT
SHELL_JOBS=1 cargo run -q --release --offline -p shell-bench --bin bench_explore -- \
    --grid tiny --out "$exp_j1" --pareto-out "$par_j1" >/dev/null
SHELL_JOBS=4 cargo run -q --release --offline -p shell-bench --bin bench_explore -- \
    --grid tiny --out "$exp_j4" --pareto-out "$par_j4" >/dev/null
cmp "$exp_j1" "$exp_j4" || {
    echo "explore reports differ between SHELL_JOBS=1 and 4" >&2
    exit 1
}
cmp "$par_j1" "$par_j4" || {
    echo "explore Pareto data differs between SHELL_JOBS=1 and 4" >&2
    exit 1
}
for verdict in pareto_nonempty all_points_resolved any_survivor pick_survives; do
    grep -q "\"$verdict\": true" "$exp_j1" || {
        echo "bench_explore verdict failed: $verdict" >&2
        grep "\"$verdict\"" "$exp_j1" >&2
        exit 1
    }
done
echo "ok"

# Serve smoke: the locking service end-to-end over its TCP CLI — a cache
# hit must serve byte-identical artifact bytes, cancellation must reach a
# running job, and a server aborted mid-attack (via the crash-injection
# hook) must resume the job from its DIP checkpoint after restart and
# produce a report byte-identical to the uninterrupted run.
echo "== serve smoke: cache hit, cancel, crash-resume over TCP =="
serve_bin=target/release/shell_serve
serve_tmp=$(mktemp -d)
trap 'rm -f "$fuzz_j1" "$fuzz_j4" "$exp_j1" "$exp_j4" "$par_j1" "$par_j4"; rm -rf "$lock_tmp" "$serve_tmp"' EXIT

serve_wait_port() {
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "serve smoke: server never wrote $1" >&2
    return 1
}
serve_id() { sed -E 's/.*"id":([0-9]+).*/\1/' <<<"$1"; }

"$serve_bin" serve --state-dir "$serve_tmp/a" --port-file "$serve_tmp/port" 2>/dev/null &
serve_pid=$!
serve_wait_port "$serve_tmp/port"
port_flag=(--port-file "$serve_tmp/port")

# Lock job + cache: the identical second request must answer
# `cached:true` and serve the same bytes.
lock_req='{"kind":"lock","seed":12}'
sub1=$("$serve_bin" submit "${port_flag[@]}" "$lock_req")
case "$sub1" in *'"cached":false'*) ;; *)
    echo "first submit unexpectedly cached: $sub1" >&2; exit 1 ;;
esac
"$serve_bin" result "${port_flag[@]}" --id "$(serve_id "$sub1")" --wait-ms 120000 \
    > "$serve_tmp/lock1.json"
sub2=$("$serve_bin" submit "${port_flag[@]}" "$lock_req")
case "$sub2" in *'"cached":true'*) ;; *)
    echo "identical request missed the cache: $sub2" >&2; exit 1 ;;
esac
"$serve_bin" result "${port_flag[@]}" --id "$(serve_id "$sub2")" > "$serve_tmp/lock2.json"
cmp "$serve_tmp/lock1.json" "$serve_tmp/lock2.json" || {
    echo "cache hit served different artifact bytes" >&2
    exit 1
}

# Cancel: a long attack, cancelled right after submission, must land in
# the `cancelled` terminal state (and `result` must refuse to print it).
slow_req='{"kind":"attack","circuit":{"gen":"axi_xbar","channels":10,"width":6},"key_bits":56,"seed":9}'
slow_id=$(serve_id "$("$serve_bin" submit "${port_flag[@]}" "$slow_req")")
"$serve_bin" cancel "${port_flag[@]}" --id "$slow_id" >/dev/null
if "$serve_bin" result "${port_flag[@]}" --id "$slow_id" --wait-ms 120000 2>/dev/null; then
    echo "cancelled job still produced a result" >&2
    exit 1
fi
"$serve_bin" status "${port_flag[@]}" --id "$slow_id" | grep -q '"status":"cancelled"' || {
    echo "cancel did not reach the job" >&2
    exit 1
}

# Crash-resume: reference report from the uninterrupted server above ...
attack_req='{"kind":"attack","circuit":{"gen":"axi_xbar","channels":6,"width":4},"key_bits":40,"seed":5}'
ref_id=$(serve_id "$("$serve_bin" submit "${port_flag[@]}" "$attack_req")")
"$serve_bin" result "${port_flag[@]}" --id "$ref_id" --wait-ms 120000 \
    > "$serve_tmp/attack_ref.json"
"$serve_bin" shutdown "${port_flag[@]}"
wait "$serve_pid" || true

# ... then the same request on a fresh server that aborts itself after
# 200 solver conflicts (this attack takes 11 DIP iterations and 771
# conflicts; the abort lands after the 7th), leaving the pending job and
# its DIP checkpoint on disk.
SHELL_SERVE_CRASH_AFTER_CONFLICTS=200 "$serve_bin" serve \
    --state-dir "$serve_tmp/b" --port-file "$serve_tmp/port_b" 2>/dev/null &
crash_pid=$!
serve_wait_port "$serve_tmp/port_b"
crash_id=$(serve_id "$("$serve_bin" submit --port-file "$serve_tmp/port_b" "$attack_req")")
if wait "$crash_pid"; then
    echo "crash-hooked server exited cleanly instead of aborting" >&2
    exit 1
fi
test -f "$serve_tmp/b/jobs/$crash_id.json" || {
    echo "crashed server lost the pending job" >&2
    exit 1
}
test -f "$serve_tmp/b/checkpoints/$crash_id.json" || {
    echo "crashed server left no DIP checkpoint" >&2
    exit 1
}
# Restart on the same state dir: the job re-enqueues, resumes from the
# checkpoint, and must produce a byte-identical report.
"$serve_bin" serve --state-dir "$serve_tmp/b" --port-file "$serve_tmp/port_b2" 2>/dev/null &
resume_pid=$!
serve_wait_port "$serve_tmp/port_b2"
"$serve_bin" result --port-file "$serve_tmp/port_b2" --id "$crash_id" --wait-ms 120000 \
    > "$serve_tmp/attack_resumed.json"
cmp "$serve_tmp/attack_ref.json" "$serve_tmp/attack_resumed.json" || {
    echo "resumed attack report differs from the uninterrupted run" >&2
    exit 1
}
"$serve_bin" shutdown --port-file "$serve_tmp/port_b2"
wait "$resume_pid" || true
echo "ok"

# Chaos smoke: the release-only serve_chaos test runs the deterministic
# crash-point matrix at every durable commit step at worker pools of
# 1 and 4 — the server is killed at each step under injected IO
# faults, restarted, and its recovered artifacts byte-compared against an
# uninterrupted run. Zero torn states and zero report mismatches are the
# contract, and a warm cache lookup must take a median under 1 ms.
echo "== chaos smoke: every crash point, warm cache lookup =="
cargo test -q --release --offline -p xtests --test serve_chaos -- --include-ignored
# Drain-mode shutdown: an idle draining server must exit on its own.
"$serve_bin" serve --state-dir "$serve_tmp/c" --port-file "$serve_tmp/port_c" 2>/dev/null &
drain_pid=$!
serve_wait_port "$serve_tmp/port_c"
"$serve_bin" drain --port-file "$serve_tmp/port_c" | grep -q '"draining":true' || {
    echo "drain command not acknowledged" >&2
    exit 1
}
wait "$drain_pid" || true
echo "ok"

rm -f "$e2e_lock_keep"
echo "verify: all green (hermetic)"
