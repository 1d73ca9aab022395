#!/usr/bin/env bash
# Full CI pass: release build, the whole test suite, clippy with warnings
# denied, then the smoke run (one sweep point per figure, including the
# containment-overhead ablation and the table1 watchdog column, both of
# which assert their budgets).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

# Data-plane regression gate: asserts the runtime (jit) speedup over the
# legacy interpreter stays above its floors (alu_chain >= 4.6x, map_mix
# >= 2.6x; engines timed in alternating rounds, min of rounds). Skip on
# noisy builders with C3_BENCH_GATE=0.
echo "== bench_gate (C3_BENCH_GATE=${C3_BENCH_GATE:-1}) =="
C3_BENCH_GATE="${C3_BENCH_GATE:-1}" cargo run -p c3-bench --release --bin bench_gate

# Telemetry-overhead gate: the fig2c no-op worst case must stay >= 0.95
# normalized with the trace plane compiled in — and since armed emission
# charges zero virtual time, disarmed and armed runs must agree exactly
# (the committed figure CSVs stay byte-identical either way). Shares the
# C3_BENCH_GATE=0 skip knob.
echo "== telemetry_gate (C3_BENCH_GATE=${C3_BENCH_GATE:-1}) =="
C3_BENCH_GATE="${C3_BENCH_GATE:-1}" cargo run -p c3-bench --release --bin telemetry_gate

# Contention-analysis gate: blame conservation must hold exactly (and
# byte-identically run-to-run) on a lossless fixed-seed ksim trace, and
# arming the continuous analyzer must stay >= 0.95 normalized on the
# fig2c no-op worst case without moving virtual throughput at all.
# Shares the C3_BENCH_GATE=0 skip knob.
echo "== profile_gate (C3_BENCH_GATE=${C3_BENCH_GATE:-1}) =="
C3_BENCH_GATE="${C3_BENCH_GATE:-1}" cargo run -p c3-bench --release --bin profile_gate

# Rollout chaos gate: crash-sweeps a staged rollout over fixed seeds
# (override with C3_CHAOS_SEEDS=a,b,c), asserting every crash point
# converges and that replays are deterministic. Skip with
# C3_CHAOS_GATE=0.
echo "== chaos_gate (C3_CHAOS_GATE=${C3_CHAOS_GATE:-1}) =="
C3_CHAOS_GATE="${C3_CHAOS_GATE:-1}" C3_CHAOS_SEEDS="${C3_CHAOS_SEEDS:-}" \
    cargo run -p c3-bench --release --bin chaos_gate

# Schedule-exploration gate: every strategy must find all three planted
# bugs in simlocks::broken within a fixed schedule budget, shrink each to
# a minimal injection list, and replay it bit-identically — while the
# correct zoo stays violation-free under the same adversarial schedules.
# Override base seeds with C3_SCHED_SEEDS=a,b,c; skip with
# C3_SCHED_GATE=0.
echo "== schedule_gate (C3_SCHED_GATE=${C3_SCHED_GATE:-1}) =="
C3_SCHED_GATE="${C3_SCHED_GATE:-1}" C3_SCHED_SEEDS="${C3_SCHED_SEEDS:-}" \
    cargo run -p c3-bench --release --bin schedule_gate

# Fleet control-plane gate: crash-sweeps the simulated fleet over fixed
# seeds (override with C3_FLEET_SEEDS=a,b,c) — the daemon is killed at
# every protocol step on a lossy, partitioning network, and every run
# must converge all hosts to the store head with zero torn applies and
# bit-identical replays. Skip with C3_FLEET_GATE=0.
echo "== fleet_gate (C3_FLEET_GATE=${C3_FLEET_GATE:-1}) =="
C3_FLEET_GATE="${C3_FLEET_GATE:-1}" C3_FLEET_SEEDS="${C3_FLEET_SEEDS:-}" \
    cargo run -p c3-bench --release --bin fleet_gate

echo "== scripts/smoke.sh =="
./scripts/smoke.sh

echo "ci ok"
