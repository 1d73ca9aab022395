#!/usr/bin/env bash
# Full CI pass: release build, the whole test suite (once), clippy on
# every target with warnings denied, the regression gate, then the smoke
# run (one sweep point per figure, including the containment-overhead
# ablation and the table1 watchdog column, both of which assert their
# budgets, and the c3ctl success and failure paths).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

# Regression gate: every check (jit speedup floors, telemetry and
# analyzer overhead, blame conservation, rollout and fleet crash sweeps,
# schedule exploration) in one process; prints one margin table and
# exits 1 if any row failed. See crates/bench/src/bin/gate.rs.
echo "== gate =="
cargo run -p c3-bench --release --bin gate

echo "== scripts/smoke.sh =="
./scripts/smoke.sh

echo "ci ok"
