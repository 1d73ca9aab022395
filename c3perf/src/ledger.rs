//! The hook-path ledger: each layer of one hooked acquisition timed in
//! isolation, with the `hooked_lock` fixture's own programs, maps and
//! contexts, next to the composed single-thread acquisition.
//!
//! Every traced run measures it, whatever the workload, so its figures
//! compare across workloads and runs. Each timing is the minimum over
//! rounds (the noise-aware estimator for micro-timings on a shared host).

use std::hint::black_box;
use std::sync::Arc;

use cbpf::helpers::PolicyEnv;
use concord::hookctx;
use concord::{policies, Breaker, BreakerConfig, BytecodePolicy, Concord};
use locks::hooks::{CmpNodeCtx, HookKind, LockEventCtx, NodeView};
use locks::{RawLock, ShflLock};

use crate::alloc;
use crate::hooked::{self, Fixture, Shared};
use crate::report::{find, Metric};
use crate::stats::{self, LayerCost};
use crate::util;

/// Timing rounds per layer.
const ROUNDS: usize = 15;
/// Calls per round for nanosecond-scale layers.
const ITERS: u64 = 20_000;
/// Calls per round for microsecond-scale layers (wire, verifier).
const SLOW_ITERS: u64 = 200;
/// Single-thread acquisitions whose allocations are counted.
const ALLOC_ACQS: u64 = 1_000;
/// The verifier's instruction budget for one hook run.
const BUDGET: u64 = 1 << 16;

fn event_ctx(lock_id: u64) -> LockEventCtx {
    LockEventCtx {
        lock_id,
        tid: locks::topo::current_tid(),
        cpu: 0,
        socket: 0,
        now_ns: 1_000,
        owner_tid: 0,
    }
}

fn cmp_ctx(lock_id: u64) -> CmpNodeCtx {
    let view = |tid: u64, socket: u32| NodeView {
        tid,
        cpu: socket * 10,
        socket,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    };
    CmpNodeCtx {
        lock_id,
        shuffler: view(1, 0),
        curr: view(2, 0),
    }
}

/// Measures every ledger metric on `fx`. Runs after the workload's output
/// checks: the isolated calls bump the fixture's counter maps.
///
/// # Errors
///
/// A policy that fails to load or run, as text.
pub fn run(fx: &Fixture) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let env: &Arc<concord::env::RealEnv> = fx.concord.env();
    let penv: &dyn PolicyEnv = &**env;
    let lock_id = fx.lock.id();
    let (acquire_policy, acquire_map, _) = &fx.policies[0];

    // locks: a bare ShflLock, nothing attached.
    let bare = ShflLock::new();
    let acq_rel = Metric::min_of(
        "locks.acq_rel_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            bare.acquire();
            bare.release();
        }),
    );
    let now = Metric::min_of(
        "locks.now_ns_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            black_box(locks::now_ns());
        }),
    );

    // livepatch: one patch-point read of the hooked lock's slot.
    let point = &fx.lock.hooks().lock_acquire;
    let get = Metric::min_of(
        "livepatch.get_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            let g = point.get();
            black_box(g.is_some());
        }),
    );

    // hookctx: marshal both context shapes.
    let ev = event_ctx(lock_id);
    let cmp = cmp_ctx(lock_id);
    let marshal_event = Metric::min_of(
        "hookctx.marshal_event_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            black_box(hookctx::marshal_event(black_box(&ev)));
        }),
    );
    let marshal_cmp = Metric::min_of(
        "hookctx.marshal_cmp_node_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            black_box(hookctx::marshal_cmp_node(black_box(&cmp)));
        }),
    );

    // containment: breaker admission plus the success record.
    let breaker = Breaker::new(BreakerConfig::default());
    let allow = Metric::min_of(
        "containment.allow_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            black_box(breaker.allow(black_box(1_000)));
            breaker.record_ok();
        }),
    );

    // cbpf: tier dispatch of the event counter and of the NUMA cmp_node.
    let numa = Concord::new()
        .load(policies::numa_aware())
        .map_err(|e| format!("load numa_aware: {e}"))?;
    let event_prog = acquire_policy.prog.prepared();
    let numa_prog = numa.prog.prepared();
    let mut ev_buf = hookctx::marshal_event(&ev);
    let mut cmp_buf = hookctx::marshal_cmp_node(&cmp);
    let event_report = event_prog
        .run(&mut ev_buf, penv, BUDGET)
        .map_err(|e| format!("event policy run: {e}"))?;
    let numa_report = numa_prog
        .run(&mut cmp_buf, penv, BUDGET)
        .map_err(|e| format!("numa policy run: {e}"))?;
    let event_run = Metric::min_of(
        "cbpf.event_run_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            black_box(
                event_prog
                    .run(&mut ev_buf, penv, BUDGET)
                    .map(|r| r.ret)
                    .ok(),
            );
        }),
    );
    let numa_run = Metric::min_of(
        "cbpf.numa_run_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            black_box(
                numa_prog
                    .run(&mut cmp_buf, penv, BUDGET)
                    .map(|r| r.ret)
                    .ok(),
            );
        }),
    );
    out.push(Metric::one(
        "cbpf.insns_per_run",
        "count",
        event_report.insns as f64,
        1,
    ));
    out.push(Metric::one(
        "cbpf.numa_insns_per_run",
        "count",
        numa_report.insns as f64,
        1,
    ));
    out.push(Metric::one(
        "cbpf.tier",
        "count",
        if event_prog.jit_compiled() { 1.0 } else { 0.0 },
        1,
    ));

    // cbpf::map: the counter policy's map work, done from userspace.
    let key = 0u32.to_le_bytes();
    let map_op = Metric::min_of(
        "cbpf.map_op_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            if let Some(slot) = acquire_map.lookup_slot(black_box(&key), 0) {
                let v = acquire_map.value_load(slot, 0, 8).unwrap_or(0);
                acquire_map.value_store(slot, 0, 8, v + 1);
            }
        }),
    );

    // telemetry: the disarmed check every hook site makes, and one emit.
    let disarmed = Metric::min_of(
        "telemetry.disarmed_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            if telemetry::armed() {
                telemetry::emit(telemetry::EventKind::HookSpan, 0, 0, 0, 0, 0, 0);
            }
        }),
    );
    let emit_samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            telemetry::set_armed(true);
            let s = util::ns_per_call(1, 1_000, || {
                telemetry::emit(telemetry::EventKind::HookSpan, 1, 0, lock_id, 1, 2, 3);
            });
            telemetry::set_armed(false);
            drop(telemetry::drain());
            s[0]
        })
        .collect();
    let emit = Metric::min_of("telemetry.emit_ns", "ns", &emit_samples);

    // concord::policy: the closures a hook slot holds.
    let contained = BytecodePolicy::contained(
        acquire_policy.prog.clone(),
        HookKind::LockAcquire,
        Arc::clone(env),
        Some(Arc::new(Breaker::new(BreakerConfig::default()))),
        None,
    );
    let event_fn = contained.as_event().map_err(|e| e.to_string())?;
    let event_closure = Metric::min_of(
        "policy.event_closure_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || event_fn(black_box(&ev))),
    );
    let cmp_fn = BytecodePolicy::new(numa.prog.clone(), HookKind::CmpNode, Arc::clone(env))
        .as_cmp_node()
        .map_err(|e| e.to_string())?;
    let cmp_closure = Metric::min_of(
        "policy.cmp_node_closure_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            black_box(cmp_fn(black_box(&cmp)));
        }),
    );

    // The composed path: one hooked acquisition on a single thread.
    let shared = Shared::new();
    let before = fx.counts();
    let mut op = 0u64;
    let solo = Metric::min_of(
        "hook.solo_acq_ns",
        "ns",
        &util::ns_per_call(ROUNDS, ITERS, || {
            hooked::one_op(&fx.lock, &shared, op);
            op += 1;
        }),
    );
    let after = fx.counts();
    let calls: u64 = after.iter().zip(before).map(|(a, b)| a - b).sum();
    let calls_per_acq = calls as f64 / op as f64;
    alloc::arm(true);
    let ((), allocs, bytes) = alloc::counted(|| {
        for i in 0..ALLOC_ACQS {
            hooked::one_op(&fx.lock, &shared, i);
        }
    });
    alloc::arm(false);

    // Per hook call the lock builds an event context (one clock read),
    // checks the telemetry switch at the site, in dispatch and twice in
    // the policy, reads the patch point, marshals the context, reads the
    // clock again for the breaker, and runs the program.
    let v = |m: &Metric| m.value;
    let per_call = [
        LayerCost {
            ns: v(&now),
            calls: 2.0,
        },
        LayerCost {
            ns: v(&disarmed),
            calls: 4.0,
        },
        LayerCost {
            ns: v(&get),
            calls: 1.0,
        },
        LayerCost {
            ns: v(&marshal_event),
            calls: 1.0,
        },
        LayerCost {
            ns: v(&allow),
            calls: 1.0,
        },
        LayerCost {
            ns: v(&event_run),
            calls: 1.0,
        },
    ];
    let mut layers = vec![LayerCost {
        ns: v(&acq_rel),
        calls: 1.0,
    }];
    layers.extend(per_call.iter().map(|l| LayerCost {
        ns: l.ns,
        calls: l.calls * calls_per_acq,
    }));
    let layer_sum = stats::layer_sum(&layers);
    let residual = stats::residual(solo.value, &layers);

    out.push(Metric::one(
        "hook.calls_per_acq",
        "count",
        calls_per_acq,
        op,
    ));
    out.push(Metric::one("hook.layer_sum_ns", "ns", layer_sum, 1));
    out.push(Metric::one("hook.residual_ns", "ns", residual, 1));
    out.push(Metric::one(
        "hook.allocs_per_acq",
        "count",
        allocs as f64 / ALLOC_ACQS as f64,
        ALLOC_ACQS,
    ));
    out.push(Metric::one(
        "hook.alloc_bytes_per_acq",
        "B",
        bytes as f64 / ALLOC_ACQS as f64,
        ALLOC_ACQS,
    ));
    out.extend([
        acq_rel,
        now,
        get,
        marshal_event,
        marshal_cmp,
        allow,
        event_run,
        numa_run,
        map_op,
        disarmed,
        emit,
        event_closure,
        cmp_closure,
        solo,
    ]);
    out.extend(artifact_ledger(&numa)?);
    Ok(out)
}

/// Seal, open (with re-verification) and verify of the NUMA `cmp_node`
/// artifact the control plane ships.
fn artifact_ledger(numa: &concord::LoadedPolicy) -> Result<Vec<Metric>, String> {
    let layout = hookctx::layout_for(HookKind::CmpNode);
    let rules = hookctx::rules_for(HookKind::CmpNode);
    let sealed = cbpf::wire::seal(&numa.prog, &rules);
    cbpf::wire::open(&sealed, layout, &rules).map_err(|e| format!("wire open: {e}"))?;
    let us = |s: Vec<f64>| s.into_iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
    let seal = us(util::ns_per_call(ROUNDS, SLOW_ITERS, || {
        black_box(cbpf::wire::seal(&numa.prog, &rules));
    }));
    let open = us(util::ns_per_call(ROUNDS, SLOW_ITERS, || {
        black_box(cbpf::wire::open(black_box(&sealed), layout, &rules).is_ok());
    }));
    let program = numa.prog.program();
    let verify = us(util::ns_per_call(ROUNDS, SLOW_ITERS, || {
        black_box(cbpf::verifier::verify_with_rules(program, layout, &rules).is_ok());
    }));
    Ok(vec![
        Metric::min_of("wire.seal_us", "us", &seal),
        Metric::min_of("wire.open_us", "us", &open),
        Metric::min_of("verifier.verify_us", "us", &verify),
    ])
}

/// `hook.wait_ns`: the contended per-acquisition time beyond the think
/// time and the single-thread hooked acquisition. Needs the workload's
/// `acq_ns_p50` and `hook.think_ns` and the ledger's `hook.solo_acq_ns`.
pub fn wait_ns(metrics: &[Metric]) -> Option<Metric> {
    let p50 = find(metrics, "acq_ns_p50")?;
    let think = find(metrics, "hook.think_ns")?;
    let solo = find(metrics, "hook.solo_acq_ns")?;
    Some(Metric::one(
        "hook.wait_ns",
        "ns",
        p50.value - think.value - solo.value,
        p50.n,
    ))
}
