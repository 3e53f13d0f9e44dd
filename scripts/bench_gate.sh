#!/usr/bin/env bash
# Bench-regression gate: re-run the two throughput benches with the same
# seeds/reps that produced the committed BENCH_*.json baselines, then diff
# fresh vs committed with bench_gate.
#
# Rules (enforced by crates/bench/src/bin/bench_gate.rs):
#   * >25% regression fails (speedup ratio down for insert_kernel —
#     the same-process scalar÷kernel ratio rides out machine-wide
#     wall-clock swings that whipsaw raw kernel_ns on shared runners —
#     points_per_s down for phase1_scaling; for phase3_scaling the
#     deterministic NN-chain work counters up, or the same-process
#     heap÷chain wall ratio down).
#   * insert_kernel rows whose baseline timing window (calls ×
#     kernel_ns: each row is the best of several windows of `calls`
#     back-to-back calls) is under 1 ms, or that record no calls, and
#     phase1_scaling runs with baseline wall_s < 0.05 are skipped as
#     timer/scheduler noise — every skip is printed, never silent.
#     phase3_scaling rows whose baseline heap ratio is null (oracle
#     skipped past its quadratic memory wall at 100k) skip the ratio
#     check but still gate the work counters.
#   * checkpoint_io holds the deterministic snapshot_bytes to the
#     threshold (format bloat, not machine noise) and gates the
#     checkpoint/reopen MB/s rates, loud-skipping rows whose baseline
#     wall is sub-50ms.
#   * cf_stability is an accuracy bench; it has no throughput gate.
#
# The CI job invoking this is non-blocking (continue-on-error): shared
# runners are too noisy for a hard 25% gate, so its role is to surface
# perf cliffs in the PR log, not to block merges.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH=${FRESH_DIR:-target/bench-gate}
mkdir -p "$FRESH"

echo "== regenerating benches (release) into $FRESH =="
cargo run --release -p birch-bench --bin insert_kernel -- \
    --seed 42 --reps 5 --out "$FRESH/BENCH_insert_kernel.json"
cargo run --release -p birch-bench --bin phase1_scaling -- \
    --seed 42 --reps 3 --out "$FRESH/BENCH_phase1_scaling.json"
# Minutes-scale walls; reps=1 with deterministic work counters (see the
# bin's docs) keeps this the longest but still bounded step of the gate.
cargo run --release -p birch-bench --bin phase3_scaling -- \
    --seed 42 --reps 1 --out "$FRESH/BENCH_phase3_scaling.json"
cargo run --release -p birch-bench --bin checkpoint_io -- \
    --seed 42 --reps 5 --out "$FRESH/BENCH_checkpoint_io.json"

echo "== diffing against committed baselines =="
cargo run --release -p birch-bench --bin bench_gate -- \
    --threshold 1.25 \
    --baseline BENCH_insert_kernel.json --fresh "$FRESH/BENCH_insert_kernel.json" \
    --baseline BENCH_phase1_scaling.json --fresh "$FRESH/BENCH_phase1_scaling.json" \
    --baseline BENCH_phase3_scaling.json --fresh "$FRESH/BENCH_phase3_scaling.json" \
    --baseline BENCH_checkpoint_io.json --fresh "$FRESH/BENCH_checkpoint_io.json"
