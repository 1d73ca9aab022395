//! `control_plane`: the operator's publish → host-applied path at 1 M
//! tenants, with resolves running beside it.
//!
//! Set-up binds every tenant through one bulk publish. A writer then runs
//! rounds, evenly paced over the measured seconds: each publishes a small
//! delta flipping a few seeded tenants (one of them served by the host)
//! between two sealed artifact ids, and a `RealFleetHost` with 8
//! registered `ShflLock`s applies the new head (wire open, re-verify,
//! livepatch transaction). A reader thread resolves seeded random tenants
//! throughout.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use concord::fleet::DeliverOutcome;
use concord::fleet::{Delta, PolicyStore, RealFleetHost};
use concord::{hookctx, policies, Concord};
use locks::hooks::{CmpNodeCtx, HookKind, NodeView};
use locks::ShflLock;

use crate::alloc;
use crate::report::Metric;
use crate::stats::Tally;
use crate::trace::{self, Span, SpanBuf};
use crate::util::{self, Rng};
use crate::{Cfg, Outcome};

/// Tenants bound in the store.
pub const TENANTS: u64 = 1_000_000;
/// Locks the host serves; tenant `i < HOST_LOCKS` is served by lock `i`.
pub const HOST_LOCKS: u64 = 8;
/// Worlds built and measured per run; `setup_s` is the median build.
pub const EPOCHS: usize = 8;
/// Publish rounds per epoch. Fixed, not timed: the store retains every
/// version (≈36 MB each at 1 M tenants), so the count must not depend on
/// how fast rounds are.
pub const ROUNDS: usize = 8;
/// Random tenants each round flips, besides one host tenant.
pub const FLIPS: usize = 4;
/// The two sealed artifact ids tenants flip between: `numa_aware` and
/// `lock_inheritance`, in that order.
const POLICIES: [u64; 2] = [1, 2];
/// The reader records a span for one resolve in this many.
const RESOLVE_TRACE_EVERY: u64 = 1024;
/// Resolve-throughput window, s.
const WINDOW_S: f64 = 0.1;

/// The store and the host's Concord world.
pub struct World {
    store: PolicyStore,
    concord: Concord,
    locks: Vec<Arc<ShflLock>>,
    names: BTreeMap<u64, String>,
}

/// The binding tenant `t` starts with.
fn initial_policy(t: u64) -> u64 {
    POLICIES[(t % 2) as usize]
}

fn seal(spec: concord::PolicySpec) -> Result<Arc<Vec<u8>>, String> {
    let loaded = Concord::new()
        .load(spec)
        .map_err(|e| format!("load: {e}"))?;
    Ok(Arc::new(cbpf::wire::seal(
        &loaded.prog,
        &hookctx::rules_for(loaded.hook),
    )))
}

impl World {
    /// Seals the artifacts, binds every tenant in one publish and
    /// registers the host's locks.
    ///
    /// # Errors
    ///
    /// A policy or publish failure, as text.
    pub fn new() -> Result<World, String> {
        let artifacts = [
            seal(policies::numa_aware())?,
            seal(policies::lock_inheritance())?,
        ];
        let store = PolicyStore::new(TENANTS as usize);
        let bulk = Delta {
            bindings: (0..TENANTS).map(|t| (t, initial_policy(t))).collect(),
            artifacts: POLICIES
                .iter()
                .zip(&artifacts)
                .map(|(p, a)| (*p, Arc::clone(a)))
                .collect(),
        };
        store
            .publish(&bulk)
            .map_err(|e| format!("bulk publish: {e}"))?;
        let concord = Concord::new();
        let mut locks = Vec::new();
        let mut names = BTreeMap::new();
        for t in 0..HOST_LOCKS {
            let name = format!("cp_lock_{t}");
            let lock = Arc::new(ShflLock::new());
            concord.registry().register_shfl(&name, Arc::clone(&lock));
            locks.push(lock);
            names.insert(t, name);
        }
        Ok(World {
            store,
            concord,
            locks,
            names,
        })
    }
}

struct ReaderOut {
    resolves: u64,
    misses: u64,
    /// Resolves completed in each [`WINDOW_S`] window from the start.
    windows: Vec<u64>,
    spans: Vec<Span>,
    dropped: u64,
}

fn reader(
    store: &PolicyStore,
    seed: u64,
    stop: &AtomicBool,
    start: Instant,
    trace: Option<(Instant, u64)>,
) -> ReaderOut {
    let mut rng = Rng::new(seed, 0xC0);
    let mut buf = trace.map(|(epoch, lane)| SpanBuf::new(epoch, lane + 1, 100_000));
    let (mut resolves, mut misses) = (0u64, 0u64);
    let mut windows = Vec::with_capacity(1024);
    while !stop.load(Ordering::Relaxed) {
        let w = (start.elapsed().as_secs_f64() / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, 0);
        }
        windows[w] += 64;
        for _ in 0..64 {
            let t = rng.below(TENANTS);
            let got = match buf.as_mut().filter(|_| resolves % RESOLVE_TRACE_EVERY == 0) {
                Some(b) => b.span("fleet::PolicyStore::resolve", 0, resolves, || {
                    store.resolve(t)
                }),
                None => store.resolve(t),
            };
            resolves += 1;
            if !matches!(got, Some((p, _)) if POLICIES.contains(&p)) {
                misses += 1;
            }
        }
    }
    ReaderOut {
        resolves,
        misses,
        windows,
        dropped: buf.as_ref().map_or(0, SpanBuf::dropped),
        spans: buf.map(SpanBuf::into_spans).unwrap_or_default(),
    }
}

/// What one or more measured epochs produced.
#[derive(Default)]
struct Phase {
    applied_ms: Vec<f64>,
    resolves: u64,
    /// Resolves per second of each whole window.
    resolve_rates: Vec<f64>,
    wall_s: f64,
    spans: Vec<Span>,
    publish_allocs: u64,
    publish_bytes: u64,
    round_allocs: u64,
    rss_growth_kb: u64,
    conflicts: u64,
    spans_dropped: u64,
}

impl Phase {
    /// Folds another epoch's results into this one.
    fn absorb(&mut self, o: Phase) {
        self.applied_ms.extend(o.applied_ms);
        self.resolves += o.resolves;
        self.resolve_rates.extend(o.resolve_rates);
        self.wall_s += o.wall_s;
        self.spans.extend(o.spans);
        self.publish_allocs += o.publish_allocs;
        self.publish_bytes += o.publish_bytes;
        self.round_allocs += o.round_allocs;
        self.rss_growth_kb += o.rss_growth_kb;
        self.conflicts += o.conflicts;
        self.spans_dropped += o.spans_dropped;
    }
}

/// Runs [`ROUNDS`] publish rounds evenly over `seconds`, the reader
/// resolving throughout. `mirror` tracks the flipped tenants' bindings.
/// A traced phase records spans from the trace epoch, the writer's under
/// thread index `lane` and the reader's under `lane + 1`.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    w: &World,
    host: &RealFleetHost<'_>,
    mirror: &mut BTreeMap<u64, u64>,
    rng: &mut Rng,
    seed: u64,
    seconds: f64,
    trace: Option<(Instant, u64)>,
    tally: &mut Tally,
) -> Phase {
    let stop = AtomicBool::new(false);
    let rss0 = util::status_kb("VmRSS");
    let rounds = ROUNDS;
    let mut buf = trace.map(|(epoch, lane)| SpanBuf::new(epoch, lane, 4 * rounds));
    let mut applied_ms = Vec::with_capacity(rounds);
    let (mut publish_allocs, mut publish_bytes, mut round_allocs) = (0, 0, 0);
    let (reader_out, wall_s) = std::thread::scope(|s| {
        let stop = &stop;
        let start = Instant::now();
        let handle = s.spawn(move || reader(&w.store, seed, stop, start, trace));
        let gap = seconds / rounds as f64;
        for round in 0..rounds {
            let due = start + util::secs(gap * round as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mut delta = Delta::default();
            let host_tenant = round as u64 % HOST_LOCKS;
            let flipped = std::iter::once(host_tenant)
                .chain((0..FLIPS).map(|_| HOST_LOCKS + rng.below(TENANTS - HOST_LOCKS)));
            for t in flipped {
                let cur = *mirror.entry(t).or_insert_with(|| initial_policy(t));
                let next = if cur == POLICIES[0] {
                    POLICIES[1]
                } else {
                    POLICIES[0]
                };
                mirror.insert(t, next);
                delta.bindings.push((t, next));
            }
            let op = round as u64;
            let (a0, _) = alloc::thread_counts();
            let t0 = Instant::now();
            let root = buf
                .as_mut()
                .map_or(0, |b| b.enter("control_plane::round", 0, op));
            let ((published, pa, pb), snapshot) = {
                let call = || alloc::counted(|| w.store.publish(&delta));
                let p = match buf.as_mut() {
                    Some(b) => b.span("fleet::PolicyStore::publish", root, op, call),
                    None => call(),
                };
                let v = p.0.as_ref().ok().copied();
                let snap = v.and_then(|v| match buf.as_mut() {
                    Some(b) => b.span("fleet::PolicyStore::snapshot", root, op, || {
                        w.store.snapshot(v)
                    }),
                    None => w.store.snapshot(v),
                });
                (p, snap)
            };
            publish_allocs += pa;
            publish_bytes += pb;
            let applied = match (&published, &snapshot) {
                (Ok(v), Some(snap)) => {
                    let apply = || host.apply(*v, snap);
                    match buf.as_mut() {
                        Some(b) => b.span("fleet::RealFleetHost::apply", root, op, apply),
                        None => apply(),
                    }
                }
                _ => Err(format!("publish failed: {published:?}")),
            };
            if let Some(b) = buf.as_mut() {
                b.exit(root);
            }
            applied_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            round_allocs += alloc::thread_counts().0 - a0;
            if !tally.check(matches!(applied, Ok(DeliverOutcome::Applied))) {
                eprintln!("control_plane: round {round} not applied: {applied:?}");
            }
        }
        // The last round may end before the phase does; keep the reader
        // going until the measured seconds are up.
        if let Some(rest) = (start + util::secs(seconds)).checked_duration_since(Instant::now()) {
            std::thread::sleep(rest);
        }
        stop.store(true, Ordering::Relaxed);
        let out = handle.join().expect("control_plane reader panicked");
        (out, start.elapsed().as_secs_f64())
    });
    tally.add(reader_out.resolves, reader_out.misses);
    if reader_out.misses > 0 {
        eprintln!("control_plane: {} resolve(s) missed", reader_out.misses);
    }
    let mut spans = buf.map(SpanBuf::into_spans).unwrap_or_default();
    spans.extend(reader_out.spans);
    let whole = (seconds / WINDOW_S).floor() as usize;
    Phase {
        applied_ms,
        resolves: reader_out.resolves,
        resolve_rates: reader_out
            .windows
            .iter()
            .take(whole)
            .map(|&n| n as f64 / WINDOW_S)
            .collect(),
        wall_s,
        spans,
        publish_allocs,
        publish_bytes,
        round_allocs,
        rss_growth_kb: util::status_kb("VmRSS").saturating_sub(rss0),
        conflicts: w.store.conflicts(),
        spans_dropped: reader_out.dropped,
    }
}

fn e2e(p: &Phase) -> Vec<Metric> {
    let applied = Metric::median_of("applied_ms_p50", "ms", &p.applied_ms);
    // The median over fixed windows: a stall moves one window only.
    let rate = Metric::median_of("resolve_per_s", "1/s", &p.resolve_rates);
    vec![
        Metric::one("rate_per_s", "1/s", rate.value, rate.n),
        rate,
        Metric::one(
            "resolve_mean_per_s",
            "1/s",
            p.resolves as f64 / p.wall_s,
            p.resolves,
        ),
        Metric::one("latency_us_p50", "us", applied.value * 1e3, applied.n),
        applied,
    ]
}

/// A waiter as the probe contexts of [`running_policy`] describe it.
fn waiter(socket: u32, held_locks: u32) -> NodeView {
    NodeView {
        tid: 0,
        cpu: 0,
        socket,
        prio: 0,
        cs_hint: 0,
        held_locks,
        wait_start_ns: 0,
    }
}

/// Which of the two artifacts `lock`'s `cmp_node` slot runs, found by
/// calling it: on a candidate from the shuffler's socket holding no locks
/// `numa_aware` answers true and `lock_inheritance` false, and on one from
/// another socket holding a lock the answers swap. `None` if the slot is
/// empty or answers like neither.
fn running_policy(lock: &ShflLock) -> Option<u64> {
    let slot = lock.hooks().cmp_node.get();
    let cmp = slot.as_ref()?;
    let probe = |curr| {
        cmp(&CmpNodeCtx {
            lock_id: 0,
            shuffler: waiter(0, 0),
            curr,
        })
    };
    match (probe(waiter(0, 0)), probe(waiter(1, 1))) {
        (true, false) => Some(POLICIES[0]),
        (false, true) => Some(POLICIES[1]),
        _ => None,
    }
}

/// Checks the end state: host at head, every host lock patched at head
/// and running the artifact the head snapshot binds to its tenant, and
/// every flipped tenant resolving to its last binding.
fn check(w: &World, host: &RealFleetHost<'_>, mirror: &BTreeMap<u64, u64>, tally: &mut Tally) {
    let head = w.store.head();
    if !tally.check(host.applied() == head) {
        eprintln!(
            "control_plane: host applied {} != head {head}",
            host.applied()
        );
    }
    let patched = host.patched_locks(head);
    if !tally.check(patched.len() == HOST_LOCKS as usize) {
        eprintln!(
            "control_plane: {} of {HOST_LOCKS} locks patched at head",
            patched.len()
        );
    }
    let snap = w.store.head_snapshot();
    for (t, lock) in w.locks.iter().enumerate() {
        let bound = snap.bindings.get(&(t as u64)).copied();
        let running = running_policy(lock);
        let ok = bound.is_some() && running == bound && bound == mirror.get(&(t as u64)).copied();
        if !tally.check(ok) {
            eprintln!(
                "control_plane: lock {t} runs artifact {running:?}, the snapshot binds {bound:?}"
            );
        }
    }
    let wrong = mirror
        .iter()
        .filter(|(t, p)| w.store.resolve(**t).map(|r| r.0) != Some(**p))
        .count() as u64;
    tally.add(mirror.len() as u64, wrong);
    if wrong > 0 {
        eprintln!("control_plane: {wrong} flipped tenant(s) resolve to a stale binding");
    }
}

/// Runs the workload: [`EPOCHS`] times, build a world, measure
/// [`ROUNDS`] rounds over an equal share of the seconds, check it, drop
/// it. A traced run traces the second half of the epochs.
///
/// A warm-up epoch runs first, unpaced and unmeasured: its rounds fault
/// in the heap every later epoch reuses, so all measured rounds run on a
/// warm heap instead of a mix of fresh and reused pages.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut rng = Rng::new(cfg.seed, 0xC1);
    let mut setup_s = Vec::with_capacity(EPOCHS);
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    let epoch_s = cfg.seconds as f64 / EPOCHS as f64;
    let trace_epoch = Instant::now();
    let mut fresh_kb_per_round = 0.0;
    for epoch in 0..=EPOCHS {
        let warmup = epoch == 0;
        let t0 = Instant::now();
        let w = World::new()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let host = RealFleetHost::new(&w.concord, HookKind::CmpNode, w.names.clone());
        // Bring the host to the bulk-published head before measuring.
        let head = w.store.head();
        let genesis = w.store.snapshot(head).ok_or("no head snapshot")?;
        tally.check(matches!(
            host.apply(head, &genesis),
            Ok(DeliverOutcome::Applied)
        ));
        let mut mirror: BTreeMap<u64, u64> =
            (0..HOST_LOCKS).map(|t| (t, initial_policy(t))).collect();
        let tracing = cfg.trace && epoch > EPOCHS / 2;
        alloc::arm(tracing);
        let p = run_phase(
            &w,
            &host,
            &mut mirror,
            &mut rng,
            cfg.seed ^ epoch as u64,
            if warmup { 0.0 } else { epoch_s },
            tracing.then_some((trace_epoch, 2 * epoch as u64 + 1)),
            &mut tally,
        );
        alloc::arm(false);
        check(&w, &host, &mirror, &mut tally);
        if warmup {
            // Only the warm-up epoch grows a fresh heap: its RSS growth is
            // what a retained version costs in resident memory.
            fresh_kb_per_round = p.rss_growth_kb as f64 / ROUNDS as f64;
        } else if tracing {
            traced.absorb(p);
        } else {
            plain.absorb(p);
        }
    }
    let mut out = Outcome::default();
    out.e2e.push(Metric::median_of("setup_s", "s", &setup_s));
    out.config = vec![
        ("tenants", TENANTS.to_string()),
        ("host_locks", HOST_LOCKS.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("rounds_per_epoch", ROUNDS.to_string()),
        ("flips_per_round", (FLIPS + 1).to_string()),
        (
            "artifacts",
            "numa_aware, lock_inheritance (cmp_node)".to_string(),
        ),
    ];
    out.e2e.extend(e2e(&plain));
    if cfg.trace {
        out.traced_e2e = Some(e2e(&traced));
        out.layer.extend(layer_metrics(&traced));
        out.layer.push(Metric::one(
            "store.mb_per_version",
            "MB",
            fresh_kb_per_round / 1024.0,
            ROUNDS as u64,
        ));
        out.spans = std::mem::take(&mut traced.spans);
        out.spans_dropped = traced.spans_dropped;
    }
    out.tally = tally;
    Ok(out)
}

fn layer_metrics(p: &Phase) -> Vec<Metric> {
    let rounds = p.applied_ms.len().max(1);
    let by = trace::by_name(&p.spans);
    let stat = |name: &str| by.get(name).copied().unwrap_or_default();
    let round = stat("control_plane::round");
    let publish = stat("fleet::PolicyStore::publish");
    let snapshot = stat("fleet::PolicyStore::snapshot");
    let apply = stat("fleet::RealFleetHost::apply");
    let resolve = stat("fleet::PolicyStore::resolve");
    let r = rounds as u64;
    let retries = telemetry::metrics().counter("c3_fleet_retries_total").get();
    vec![
        Metric::one(
            "store.publish_ms",
            "ms",
            publish.mean_ns() / 1e6,
            publish.count,
        ),
        Metric::one("store.resolve_ns", "ns", resolve.mean_ns(), resolve.count),
        Metric::one(
            "store.alloc_mb_per_publish",
            "MB",
            p.publish_bytes as f64 / (1024.0 * 1024.0) / rounds as f64,
            r,
        ),
        Metric::one(
            "store.allocs_per_publish",
            "count",
            p.publish_allocs as f64 / rounds as f64,
            r,
        ),
        Metric::one("store.conflicts", "count", p.conflicts as f64, 1),
        Metric::one("store.retries", "count", retries as f64, 1),
        Metric::one("fleet.apply_us", "us", apply.mean_ns() / 1e3, apply.count),
        Metric::one(
            "cp.residual_us",
            "us",
            (round.mean_ns() - publish.mean_ns() - snapshot.mean_ns() - apply.mean_ns()) / 1e3,
            round.count,
        ),
        Metric::one(
            "alloc.per_op",
            "count",
            p.round_allocs as f64 / rounds as f64,
            r,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_policy_tells_the_two_artifacts_apart() {
        let lock = ShflLock::new();
        assert_eq!(running_policy(&lock), None, "an empty slot runs nothing");
        lock.hooks()
            .cmp_node
            .replace(Some(policies::numa_aware_native()));
        assert_eq!(running_policy(&lock), Some(POLICIES[0]));
        lock.hooks()
            .cmp_node
            .replace(Some(policies::lock_inheritance_native()));
        assert_eq!(running_policy(&lock), Some(POLICIES[1]));
        lock.hooks().cmp_node.replace(Some(Arc::new(|_| true)));
        assert_eq!(running_policy(&lock), None, "answers like neither");
    }
}
