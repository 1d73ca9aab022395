#!/usr/bin/env bash
# Smoke pass: release build, then one sweep point per figure and the
# c3ctl success and failure paths, in a few minutes. The test suite is
# not run here; scripts/ci.sh runs it once. Uses the env knobs in
# crates/bench/src/lib.rs:
#   C3_BENCH_WINDOW_MS  virtual window per configuration (default 3)
#   C3_BENCH_THREADS    thread counts to sweep (default: the paper x-axis)
#   C3_BENCH_WORKERS    sweep worker threads (default: host parallelism)
# Smoke CSVs land in results/smoke/ so committed figure data is untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

export C3_BENCH_WINDOW_MS="${C3_BENCH_WINDOW_MS:-1}"
export C3_BENCH_THREADS="${C3_BENCH_THREADS:-8}"
export C3_RESULTS_DIR="${C3_RESULTS_DIR:-results/smoke}"

for bin in fig2a_page_fault2 fig2b_lock2 fig2c_hashtable lockzoo; do
    echo "== $bin (threads=$C3_BENCH_THREADS, window=${C3_BENCH_WINDOW_MS}ms) =="
    ./target/release/"$bin" >/dev/null
done
# The ablations binary asserts the armed-containment overhead budget
# (contained/no-op >= 0.95 on the Fig. 2(c) worst case) as it runs.
echo "== ablations incl. containment overhead (window=${C3_BENCH_WINDOW_MS}ms) =="
./target/release/ablations >/dev/null
echo "== table1_api_hazards incl. watchdog auto-revert =="
./target/release/table1_api_hazards >/dev/null

# Trace-plane smoke: arm via C3_TRACE, hammer a demo lock through c3ctl,
# and require the tail to surface at least one trace event.
echo "== c3ctl trace smoke (C3_TRACE=1) =="
trace_script="$(mktemp)"
trap 'rm -f "$trace_script"' EXIT
printf 'hammer mmap_sem 4 200\ntrace tail 8\ntrace status\nquit\n' > "$trace_script"
trace_out="$(C3_TRACE=1 ./target/release/c3ctl "$trace_script")"
if ! grep -q 'lock_acquire\|lock_acquired\|lock_release' <<< "$trace_out"; then
    echo "c3ctl trace smoke FAILED: no trace events in tail output:" >&2
    echo "$trace_out" >&2
    exit 1
fi
echo "c3ctl trace smoke ok"

# Rollout smoke: drive a staged rollout (canary → 50% → full) over the
# demo locks through c3ctl and require it to commit; then require a
# typed rollout error (unknown policy) to exit nonzero.
echo "== c3ctl rollout smoke =="
rollout_script="$(mktemp)"
rollout_fail_script="$(mktemp)"
trap 'rm -f "$trace_script" "$rollout_script" "$rollout_fail_script"' EXIT
printf '%s\n' \
    'loadsrc noop cmp_node return 1;' \
    'rollout start noop mmap_sem dcache inode_a inode_b' \
    'rollout promote' \
    'rollout promote' \
    'rollout status' \
    'quit' > "$rollout_script"
rollout_out="$(./target/release/c3ctl "$rollout_script")"
if ! grep -q 'rollout committed' <<< "$rollout_out"; then
    echo "c3ctl rollout smoke FAILED: staged rollout did not commit:" >&2
    echo "$rollout_out" >&2
    exit 1
fi
printf 'rollout start no_such_policy mmap_sem\nquit\n' > "$rollout_fail_script"
if ./target/release/c3ctl "$rollout_fail_script" >/dev/null 2>&1; then
    echo "c3ctl rollout smoke FAILED: unknown-policy rollout exited zero" >&2
    exit 1
fi
echo "c3ctl rollout smoke ok"

# Explore smoke: find a planted bug, save the shrunk repro artifact,
# replay it (the replay verifies the pinned trace hash); then require a
# typed explore error (unknown fixture) to exit nonzero.
echo "== c3ctl explore smoke =="
explore_script="$(mktemp)"
explore_fail_script="$(mktemp)"
explore_repro="$(mktemp)"
trap 'rm -f "$trace_script" "$rollout_script" "$rollout_fail_script" \
    "$explore_script" "$explore_fail_script" "$explore_repro"' EXIT
printf '%s\n' \
    "explore shrink broken_ticket random $explore_repro" \
    "explore replay $explore_repro" \
    'quit' > "$explore_script"
explore_out="$(./target/release/c3ctl "$explore_script")"
if ! grep -q 'reproduced' <<< "$explore_out"; then
    echo "c3ctl explore smoke FAILED: repro did not replay:" >&2
    echo "$explore_out" >&2
    exit 1
fi
printf 'explore run no_such_fixture random\nquit\n' > "$explore_fail_script"
if ./target/release/c3ctl "$explore_fail_script" >/dev/null 2>&1; then
    echo "c3ctl explore smoke FAILED: unknown-fixture explore exited zero" >&2
    exit 1
fi
echo "c3ctl explore smoke ok"

# Wire-format smoke: compile a policy to a sealed artifact, load it back
# through the wire path (checksum + digest + re-verify), attach it; then
# require a tampered artifact to be rejected with a nonzero exit.
echo "== c3ctl policy wire smoke =="
policy_src="$(mktemp --suffix=.c)"
policy_art="$(mktemp)"
policy_script="$(mktemp)"
policy_fail_script="$(mktemp)"
trap 'rm -f "$trace_script" "$rollout_script" "$rollout_fail_script" \
    "$explore_script" "$explore_fail_script" "$explore_repro" \
    "$policy_src" "$policy_art" "$policy_script" "$policy_fail_script"' EXIT
printf 'return 1;\n' > "$policy_src"
printf '%s\n' \
    "policy compile cmp_node $policy_src $policy_art" \
    "policy load wired cmp_node $policy_art" \
    'attach mmap_sem wired' \
    'detach' \
    'quit' > "$policy_script"
policy_out="$(./target/release/c3ctl "$policy_script")"
if ! grep -q 'verified and pinned policies/wired' <<< "$policy_out"; then
    echo "c3ctl policy wire smoke FAILED: sealed artifact did not load:" >&2
    echo "$policy_out" >&2
    exit 1
fi
# Corrupt one header byte (version LSB, always 0x01 when sealed): the
# load must fail the whole-artifact checksum and exit nonzero.
printf '\x09' | dd of="$policy_art" bs=1 seek=4 count=1 conv=notrunc status=none
printf '%s\n' \
    "policy load tampered cmp_node $policy_art" \
    'quit' > "$policy_fail_script"
if ./target/release/c3ctl "$policy_fail_script" >/dev/null 2>&1; then
    echo "c3ctl policy wire smoke FAILED: tampered artifact exited zero" >&2
    exit 1
fi
echo "c3ctl policy wire smoke ok"

# Contention-analysis smoke: arm the plane, hammer a demo lock, save the
# raw trace, analyze it from the file, and walk the derived views (blame
# table, blocking chains, flamegraph export); then require a truncated
# trace file to fail analysis with a nonzero exit.
echo "== c3ctl contention analysis smoke =="
analyze_trace="$(mktemp)"
analyze_flame="$(mktemp)"
analyze_script="$(mktemp)"
analyze_fail_script="$(mktemp)"
trap 'rm -f "$trace_script" "$rollout_script" "$rollout_fail_script" \
    "$explore_script" "$explore_fail_script" "$explore_repro" \
    "$policy_src" "$policy_art" "$policy_script" "$policy_fail_script" \
    "$analyze_trace" "$analyze_flame" "$analyze_script" "$analyze_fail_script"' EXIT
# 50µs spins inside the critical section force queueing (contended
# waits) on any core count, while 4×100 acquisitions keep the whole
# trace inside the ring capacity of the four pinned CPUs.
printf '%s\n' \
    'hammer mmap_sem 4 100 50' \
    "trace save $analyze_trace" \
    "analyze $analyze_trace" \
    'blame' \
    'chains' \
    "flame $analyze_flame" \
    'quit' > "$analyze_script"
analyze_out="$(C3_TRACE=1 ./target/release/c3ctl "$analyze_script")"
if ! grep -q 'contention analysis:' <<< "$analyze_out"; then
    echo "c3ctl analyze smoke FAILED: no analysis report:" >&2
    echo "$analyze_out" >&2
    exit 1
fi
if ! grep -q 'conservation: holds' <<< "$analyze_out"; then
    echo "c3ctl analyze smoke FAILED: blame conservation did not hold:" >&2
    echo "$analyze_out" >&2
    exit 1
fi
if ! [ -s "$analyze_flame" ]; then
    echo "c3ctl analyze smoke FAILED: flamegraph export is empty" >&2
    exit 1
fi
# Truncate the saved trace mid-record: the typed analyze error must
# surface and flip the scripted exit code.
head -c 100 "$analyze_trace" > "${analyze_trace}.bad"
printf 'analyze %s.bad\nquit\n' "$analyze_trace" > "$analyze_fail_script"
if ./target/release/c3ctl "$analyze_fail_script" >/dev/null 2>&1; then
    rm -f "${analyze_trace}.bad"
    echo "c3ctl analyze smoke FAILED: truncated trace exited zero" >&2
    exit 1
fi
rm -f "${analyze_trace}.bad"
echo "c3ctl contention analysis smoke ok"

# Fleet smoke: open a fleet session, publish a sealed version to a few
# tenants, reconcile the hosts to the head, and require every host to
# report current; then require a conditional publish against a stale
# head (the store has already moved past it) to fail typed and nonzero.
echo "== c3ctl fleet smoke =="
fleet_script="$(mktemp)"
fleet_fail_script="$(mktemp)"
trap 'rm -f "$trace_script" "$rollout_script" "$rollout_fail_script" \
    "$explore_script" "$explore_fail_script" "$explore_repro" \
    "$policy_src" "$policy_art" "$policy_script" "$policy_fail_script" \
    "$analyze_trace" "$analyze_flame" "$analyze_script" "$analyze_fail_script" \
    "$fleet_script" "$fleet_fail_script"' EXIT
printf '%s\n' \
    'fleet start 3' \
    'loadsrc fleetpol cmp_node return 1;' \
    'fleet publish fleetpol 1 2 3' \
    'fleet reconcile' \
    'fleet status' \
    'fleet hosts' \
    'quit' > "$fleet_script"
fleet_out="$(./target/release/c3ctl "$fleet_script")"
if ! grep -q '0 behind head' <<< "$fleet_out"; then
    echo "c3ctl fleet smoke FAILED: hosts did not converge to the head:" >&2
    echo "$fleet_out" >&2
    exit 1
fi
# Publish v1, then a conditional publish still expecting head 0: the
# CAS must refuse with the typed stale-head error and exit nonzero.
printf '%s\n' \
    'fleet start 2' \
    'loadsrc fleetpol cmp_node return 1;' \
    'fleet publish fleetpol 1' \
    'fleet publish fleetpol 2 expect 0' \
    'quit' > "$fleet_fail_script"
if ./target/release/c3ctl "$fleet_fail_script" >/dev/null 2>&1; then
    echo "c3ctl fleet smoke FAILED: stale-head publish exited zero" >&2
    exit 1
fi
echo "c3ctl fleet smoke ok"

# Failure-path smoke: every c3ctl command reports a typed error, so a
# failing `attach` (unknown policy) or `stats` (unknown lock) in a
# script must exit exactly 1 — not 0, and not a panic's 101.
echo "== c3ctl failure-path smoke =="
fail_script="$(mktemp)"
trap 'rm -f "$trace_script" "$rollout_script" "$rollout_fail_script" \
    "$explore_script" "$explore_fail_script" "$explore_repro" \
    "$policy_src" "$policy_art" "$policy_script" "$policy_fail_script" \
    "$analyze_trace" "$analyze_flame" "$analyze_script" "$analyze_fail_script" \
    "$fleet_script" "$fleet_fail_script" "$fail_script"' EXIT
for cmd in 'attach nope nothing' 'stats nope'; do
    printf '%s\nquit\n' "$cmd" > "$fail_script"
    status=0
    ./target/release/c3ctl "$fail_script" >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "c3ctl failure-path smoke FAILED: \`$cmd\` exited $status, want 1" >&2
        exit 1
    fi
done
echo "c3ctl failure-path smoke ok"

echo "smoke ok: csvs in $C3_RESULTS_DIR"
