#!/usr/bin/env bash
# CI gate for the workspace. The tier-1 gate is
# `cargo build --release && cargo test -q`; `cargo test --workspace -q`
# is a strict superset of `cargo test -q` (root package included), so
# tier-1 failure detection is covered without running the root suites
# twice. The rest extends coverage to the engine's thread pool pinned to
# one core, every bench/example target (and runs every example), the
# end-to-end benchmark's build, unit tests and
# one short traced run of each of its workloads, the engine smoke
# experiments (each emitting a machine-readable BENCH_<name>.json), a
# read-IO regression gate against the committed BENCH_baseline.json, a
# formatting gate, a zero-warning rustdoc gate, and a zero-warning
# clippy sweep.
#
# Usage:
#   ./ci.sh                    run every gate
#   ./ci.sh --update-baseline  run the gates, refreshing BENCH_baseline.json
#                              from the current smoke results instead of
#                              checking against it (commit the new file)
set -euo pipefail
cd "$(dirname "$0")"

UPDATE_BASELINE=0
for arg in "$@"; do
    case "$arg" in
        --update-baseline) UPDATE_BASELINE=1 ;;
        *) echo "ci.sh: unknown argument '$arg'" >&2; exit 2 ;;
    esac
done

# Every gate runs through `stage <label> <cmd...>`, which prints a begin
# marker, the elapsed seconds, and collects a one-line-per-stage summary —
# so the CI log shows exactly which gate is slow and nothing is skipped
# silently.
SUMMARY=()
stage() {
    local label=$1
    shift
    echo "[ci] ===== $label: $*"
    local t0=$SECONDS
    "$@"
    local dt=$(( SECONDS - t0 ))
    echo "[ci] ----- $label: OK (${dt}s)"
    SUMMARY+=("$label: OK (${dt}s)")
}
skip() {
    local label=$1 reason=$2
    echo "[ci] ===== $label: SKIPPED ($reason)"
    SUMMARY+=("$label: SKIPPED ($reason)")
}

stage build            cargo build --release
stage test             cargo test --workspace -q

# The engine's thread pool on one core: under `taskset`,
# `available_parallelism()` is 1, so every fan-out runs on the calling
# thread alone, a path a multi-core host never takes. Reuses the `test`
# stage's build; skipped visibly when the container lacks `taskset`.
if command -v taskset >/dev/null 2>&1; then
    stage one-core taskset -c 0 cargo test -q --test engine_shard --test engine_parallel \
        --test prop_shard
else
    skip one-core "taskset not installed"
fi
stage build-targets    cargo build --release --benches --examples --workspace

# Run every example end to end: each checks its answers against brute
# force and exits non-zero on a mismatch (`live_updates` is the one that
# crashes a LiveIndex mid-stream and reopens it from disk).
run_examples() {
    local ex
    for ex in examples/*.rs; do
        ex=$(basename "$ex" .rs)
        echo "[ci] example $ex"
        cargo run -q --release --example "$ex" || return 1
    done
}
stage examples         run_examples

# The end-to-end benchmark is its own cargo workspace under perfbench/; it
# calls the engine API directly, so an API break must fail here, not in
# the benchmark run.
stage perfbench-build  cargo build --release --offline --manifest-path perfbench/Cargo.toml
stage perfbench-test   cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Run every benchmark workload once, short and traced. Each run checks
# every answer, and that its traced pass reproduces the untraced pass's
# page reads and hits, and exits non-zero otherwise; run records go to the
# gitignored .bench_out/.
perfbench_smoke() {
    local w
    for w in serve-mixed shard-batch live-churn; do
        echo "[ci] perfbench $w"
        cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds 1 --trace 1 || return 1
    done
}
stage perfbench-smoke  perfbench_smoke

# Smoke-run the engine experiments end to end; each asserts its own
# differential invariants (see the bench headers) and writes
# BENCH_<name>.json for the regression gate below.
stage bench-batched    cargo bench -q -p lcrs-bench --bench exp_batched -- --smoke
stage bench-parallel   cargo bench -q -p lcrs-bench --bench exp_parallel -- --smoke
stage bench-planner    cargo bench -q -p lcrs-bench --bench exp_planner -- --smoke
stage bench-shard      cargo bench -q -p lcrs-bench --bench exp_shard -- --smoke
stage bench-live       cargo bench -q -p lcrs-bench --bench exp_live -- --smoke
stage bench-reopen     cargo bench -q -p lcrs-bench --bench exp_reopen -- --smoke
stage bench-serve      cargo bench -q -p lcrs-bench --bench exp_serve -- --smoke
stage bench-lift       cargo bench -q -p lcrs-bench --bench exp_lift -- --smoke
stage bench-t1-tradeoff cargo bench -q -p lcrs-bench --bench exp_t1_tradeoff -- --smoke

# Read-IO regression gate: smoke read counts are deterministic (seeded
# workloads, pinned cache geometry); wall-clock is recorded in every
# result and mirrored into the baseline but not gated here (noisy on CI;
# opt in locally with `bench_gate check --gate-wall`).
if [ "$UPDATE_BASELINE" = 1 ]; then
    stage bench-baseline cargo run -q -p lcrs-bench --bin bench_gate -- update
else
    stage bench-gate     cargo run -q -p lcrs-bench --bin bench_gate -- check
fi

# Formatting gate (style pinned by rustfmt.toml); skipped visibly when the
# container lacks rustfmt.
if cargo fmt --version >/dev/null 2>&1; then
    stage fmt cargo fmt --check
else
    skip fmt "rustfmt not installed"
fi

# Docs gate: every intra-doc link and doc attribute must resolve cleanly.
stage doc env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

stage clippy           cargo clippy --workspace --all-targets -- -D warnings

echo
echo "[ci] stage summary:"
for line in "${SUMMARY[@]}"; do
    echo "[ci]   $line"
done
echo "[ci] all gates green"
