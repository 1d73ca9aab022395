//! `hooked_lock`: two threads contend on one registered real-thread
//! `ShflLock` carrying contained `event_counter` bytecode policies on all
//! four event hooks (§3.2 dynamic profiling as verified code).
//!
//! Closed loop: each thread takes the lock, updates a few shared words,
//! releases, then spins a seeded think time before the next acquisition.

use std::cell::UnsafeCell;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cbpf::map::Map;
use concord::{policies, Breaker, BreakerConfig, Concord, LoadedPolicy};
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};

use crate::alloc;
use crate::report::Metric;
use crate::stats::{self, Tally};
use crate::trace::{self, Span, SpanBuf};
use crate::util::{self, Rng, SetupTimer};
use crate::{Cfg, Outcome};

/// Registered name of the benchmark lock.
pub const LOCK: &str = "bench_lock";
/// The four event hooks, in the order their policies are attached.
pub const EVENT_HOOKS: [HookKind; 4] = [
    HookKind::LockAcquire,
    HookKind::LockContended,
    HookKind::LockAcquired,
    HookKind::LockRelease,
];
/// Threads contending on the lock (the host's `nproc`).
pub const THREADS: usize = 2;
/// Acquisitions per timed batch: one latency sample per batch.
pub const BATCH: u64 = 32;
/// Think time is `0..THINK_SPINS` spin-loop hints, drawn from the seed.
pub const THINK_SPINS: u64 = 64;
/// Shared words written inside the critical section; word 0 is the
/// non-atomic operation counter.
pub const WORDS: usize = 4;
/// The measured seconds run in up to this many slices, each followed by a
/// timed block of set-ups (see [`SetupTimer`]).
const SLICES: usize = 20;
/// A slice is never shorter than this, so that it holds whole throughput
/// windows.
const MIN_SLICE_S: f64 = 0.5;
/// Set-ups back to back in one timed block (about 0.06 s).
const SETUP_PER_BLOCK: usize = 24;
/// Single-thread acquisitions set-up makes once the policies are
/// attached, so lazy work (the policies' compiled tier, first-touch of
/// the maps) is done before timing.
const WARMUP_ACQS: u64 = 2_000;
/// Every this many batches, a traced thread records spans for the batch.
const TRACE_EVERY: u64 = 128;
/// Span capacity per traced thread.
const SPAN_CAP: usize = 250_000;
/// Latency samples kept per thread (one per batch).
const SAMPLE_CAP: usize = 1 << 19;
/// Throughput window, s.
const WINDOW_S: f64 = 0.1;

/// The lock, its Concord world and the attached policies.
pub struct Fixture {
    /// The framework instance the lock is registered in.
    pub concord: Concord,
    /// The hooked lock.
    pub lock: Arc<ShflLock>,
    /// Per event hook, in [`EVENT_HOOKS`] order: the loaded policy, its
    /// counter map and its breaker.
    pub policies: Vec<(LoadedPolicy, Arc<Map>, Arc<Breaker>)>,
}

impl Fixture {
    /// Builds the world: register the lock, load (compile + verify) and
    /// attach one contained counter policy per event hook, then warm the
    /// hooked lock up with [`WARMUP_ACQS`] acquisitions.
    ///
    /// # Errors
    ///
    /// A load or attach failure, as text.
    pub fn new() -> Result<Fixture, String> {
        let concord = Concord::new();
        let lock = Arc::new(ShflLock::new());
        concord.registry().register_shfl(LOCK, Arc::clone(&lock));
        let mut attached = Vec::with_capacity(EVENT_HOOKS.len());
        for hook in EVENT_HOOKS {
            let map = policies::counter_map(hook.name());
            let loaded = concord
                .load(policies::event_counter(hook, Arc::clone(&map)))
                .map_err(|e| format!("load {}: {e}", hook.name()))?;
            let (_handle, breaker) = concord
                .attach_contained(LOCK, &loaded, BreakerConfig::default())
                .map_err(|e| format!("attach {}: {e}", hook.name()))?;
            attached.push((loaded, map, breaker));
        }
        let fx = Fixture {
            concord,
            lock,
            policies: attached,
        };
        let scratch = Shared::new();
        for op in 0..WARMUP_ACQS {
            one_op(&fx.lock, &scratch, op);
        }
        Ok(fx)
    }

    /// Per-hook counter sums read back from userspace, in
    /// [`EVENT_HOOKS`] order.
    pub fn counts(&self) -> [u64; 4] {
        let mut out = [0; 4];
        for (slot, (_, map, _)) in out.iter_mut().zip(&self.policies) {
            *slot = map.percpu_sum(&0u32.to_le_bytes());
        }
        out
    }
}

/// The words the critical section writes.
pub struct Shared(UnsafeCell<[u64; WORDS]>);

// SAFETY: the words are only read or written by a thread holding the
// benchmark lock (`critical_section` runs between acquire and release),
// or after every worker has been joined.
unsafe impl Sync for Shared {}

impl Shared {
    /// All words zero.
    pub fn new() -> Shared {
        Shared(UnsafeCell::new([0; WORDS]))
    }

    /// The operation counter (word 0). Call only with no worker running.
    pub fn counter(&self) -> u64 {
        // SAFETY: called after the workers are joined, so nothing writes.
        unsafe { (*self.0.get())[0] }
    }
}

/// The critical section: bump the counter and write the other words.
///
/// # Safety
///
/// The caller must hold the benchmark lock.
#[inline]
pub unsafe fn critical_section(shared: &Shared, op: u64) {
    // SAFETY: the caller holds the lock, so this is the only access.
    let w = unsafe { &mut *shared.0.get() };
    w[0] += 1;
    for x in w.iter_mut().skip(1) {
        *x = x.wrapping_add(op);
    }
}

/// Spins `spins` hint instructions outside the lock.
#[inline]
pub fn think(spins: u64) {
    for _ in 0..std::hint::black_box(spins) {
        std::hint::spin_loop();
    }
}

/// One acquisition as the workload makes it.
#[inline]
pub fn one_op(lock: &ShflLock, shared: &Shared, op: u64) {
    lock.acquire();
    // SAFETY: the lock is held until the release below.
    unsafe { critical_section(shared, op) };
    lock.release();
}

struct Worker {
    samples: Vec<f64>,
    windows: Vec<u64>,
    ops: u64,
    spans: Vec<Span>,
    dropped: u64,
    allocs: u64,
    bytes: u64,
}

/// A latency buffer of [`SAMPLE_CAP`] entries, written through once so
/// its pages are resident before timing: the footprint then does not
/// depend on how many batches a run completes.
fn sample_buffer() -> Vec<f64> {
    vec![f64::NAN; SAMPLE_CAP]
}

fn worker(
    fx: &Fixture,
    shared: &Shared,
    idx: usize,
    rng: &mut Rng,
    start: Instant,
    seconds: f64,
    trace: Option<Instant>,
) -> Worker {
    locks::topo::pin_thread(idx as u32);
    let lock = &*fx.lock;
    let mut samples = sample_buffer();
    let mut n_samples = 0usize;
    let mut windows = vec![0u64; window_count(seconds) + 1];
    let mut spans = trace.map(|epoch| SpanBuf::new(epoch, idx as u64 + 1, SPAN_CAP));
    let deadline = start + util::secs(seconds);
    let mut ops = 0u64;
    let mut batch = 0u64;
    let (a0, b0) = alloc::thread_counts();
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        match spans.as_mut().filter(|_| batch.is_multiple_of(TRACE_EVERY)) {
            None => {
                for i in 0..BATCH {
                    one_op(lock, shared, ops + i);
                    think(rng.below(THINK_SPINS));
                }
            }
            Some(buf) => {
                for i in 0..BATCH {
                    let op = ((idx as u64) << 48) | (ops + i);
                    let root = buf.enter("hooked_lock::op", 0, op);
                    buf.span("locks::ShflLock::acquire", root, op, || lock.acquire());
                    // SAFETY: the lock is held until the release below.
                    unsafe { critical_section(shared, op) };
                    buf.span("locks::ShflLock::release", root, op, || lock.release());
                    buf.exit(root);
                    think(rng.below(THINK_SPINS));
                }
            }
        }
        let t1 = Instant::now();
        if let Some(slot) = samples.get_mut(n_samples) {
            *slot = (t1 - t0).as_nanos() as f64 / BATCH as f64;
            n_samples += 1;
        }
        let last = windows.len() - 1;
        let w = ((t1 - start).as_secs_f64() / WINDOW_S) as usize;
        windows[w.min(last)] += BATCH;
        ops += BATCH;
        batch += 1;
    }
    let (a1, b1) = alloc::thread_counts();
    samples.truncate(n_samples);
    let dropped = spans.as_ref().map_or(0, SpanBuf::dropped);
    Worker {
        samples,
        windows,
        ops,
        spans: spans.map(SpanBuf::into_spans).unwrap_or_default(),
        dropped,
        allocs: a1 - a0,
        bytes: b1 - b0,
    }
}

/// Whole throughput windows in a phase of `seconds`.
fn window_count(seconds: f64) -> usize {
    (seconds / WINDOW_S).floor() as usize
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Per-acquisition ns, one sample per batch, both threads.
    pub samples: Vec<f64>,
    /// Acquisitions per second of each whole throughput window.
    pub window_rates: Vec<f64>,
    /// Acquisitions made.
    pub ops: u64,
    /// Phase wall time, s.
    pub wall_s: f64,
    /// Spans (traced phases only).
    pub spans: Vec<Span>,
    /// Spans dropped for lack of buffer space.
    pub dropped: u64,
    /// Allocations the workers made (counted only while armed).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
}

/// Runs both threads for `seconds`; spans are recorded when `trace` holds
/// the trace epoch.
pub fn run_phase(
    fx: &Fixture,
    shared: &Shared,
    rngs: &mut [Rng; THREADS],
    seconds: f64,
    trace: Option<Instant>,
) -> Phase {
    let start = Barrier::new(THREADS + 1);
    let (workers, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .enumerate()
            .map(|(idx, rng)| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    worker(fx, shared, idx, rng, Instant::now(), seconds, trace)
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let workers: Vec<Worker> = handles
            .into_iter()
            .map(|h| h.join().expect("hooked_lock worker panicked"))
            .collect();
        (workers, t0.elapsed().as_secs_f64())
    });
    let mut windows = vec![0u64; window_count(seconds)];
    let mut phase = Phase {
        wall_s,
        ..Phase::default()
    };
    for w in workers {
        for (sum, n) in windows.iter_mut().zip(&w.windows) {
            *sum += n;
        }
        phase.allocs += w.allocs;
        phase.bytes += w.bytes;
        phase.samples.extend(w.samples);
        phase.ops += w.ops;
        phase.spans.extend(w.spans);
        phase.dropped += w.dropped;
    }
    phase.window_rates = windows.iter().map(|&n| n as f64 / WINDOW_S).collect();
    phase
}

impl Phase {
    /// Folds a later slice's results into this one.
    fn absorb(&mut self, o: Phase) {
        self.samples.extend(o.samples);
        self.window_rates.extend(o.window_rates);
        self.ops += o.ops;
        self.wall_s += o.wall_s;
        self.spans.extend(o.spans);
        self.dropped += o.dropped;
        self.allocs += o.allocs;
        self.bytes += o.bytes;
    }
}

/// Runs [`run_phase`] over `seconds` in up to [`SLICES`] slices, timing a
/// set-up block after each.
fn measure(
    fx: &Fixture,
    shared: &Shared,
    rngs: &mut [Rng; THREADS],
    seconds: f64,
    trace: Option<Instant>,
    timer: &mut SetupTimer<'_>,
) -> Result<Phase, String> {
    let slices = ((seconds / MIN_SLICE_S) as usize).clamp(1, SLICES);
    let mut phase = Phase::default();
    for _ in 0..slices {
        phase.absorb(run_phase(fx, shared, rngs, seconds / slices as f64, trace));
        timer.block()?;
    }
    Ok(phase)
}

fn e2e(phase: &Phase) -> Vec<Metric> {
    // Throughput is the median over fixed windows, so a preemption that
    // stalls both threads for a few ms moves one window, not the result.
    let rate = Metric::median_of("acq_per_s", "1/s", &phase.window_rates);
    let p50 = Metric::median_of("acq_ns_p50", "ns", &phase.samples);
    let mut sorted = phase.samples.clone();
    sorted.sort_by(f64::total_cmp);
    // The tail reported is p90: stable between runs, unlike p99, and
    // always with ten samples beyond it at these sample counts.
    let p90 = match stats::tail_quantile(sorted.len(), &[0.9]) {
        Some(q) => stats::quantile_sorted(&sorted, q),
        None => f64::NAN,
    };
    let n = phase.samples.len() as u64;
    vec![
        Metric::one("rate_per_s", "1/s", rate.value, rate.n),
        rate,
        Metric::one(
            "acq_mean_per_s",
            "1/s",
            phase.ops as f64 / phase.wall_s,
            phase.ops,
        ),
        Metric::one("latency_us_p50", "us", p50.value / 1e3, n),
        p50,
        Metric::one("acq_ns_p90", "ns", p90, n),
    ]
}

/// Checks the lock's outputs after `ops` acquisitions: the non-atomic
/// counter (mutual exclusion), per-hook map sums grown by exactly the
/// acquisitions since `base`, and zero faults/trips.
pub fn check(fx: &Fixture, shared: &Shared, base: [u64; 4], ops: u64, tally: &mut Tally) {
    if !tally.check(shared.counter() == ops) {
        eprintln!(
            "hooked_lock: counter {} != {ops} acquisitions (mutual exclusion broken)",
            shared.counter()
        );
    }
    let now = fx.counts();
    let [acquire, contended, acquired, release] = [0, 1, 2, 3].map(|i| now[i] - base[i]);
    for (name, got) in [
        ("acquire", acquire),
        ("acquired", acquired),
        ("release", release),
    ] {
        if !tally.check(got == ops) {
            eprintln!("hooked_lock: lock_{name} map counts {got}, expected {ops}");
        }
    }
    if !tally.check(contended <= ops) {
        eprintln!("hooked_lock: lock_contended map counts {contended} > {ops} acquisitions");
    }
    for (hook, (_, _, breaker)) in EVENT_HOOKS.iter().zip(&fx.policies) {
        if !tally.check(breaker.total_faults() == 0 && breaker.trips() == 0) {
            eprintln!(
                "hooked_lock: {} policy faulted {} time(s), {} trip(s)",
                hook.name(),
                breaker.total_faults(),
                breaker.trips()
            );
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let (mut timer, fx) = SetupTimer::start(SETUP_PER_BLOCK, 0.0, Fixture::new)?;
    let base = fx.counts();
    let shared = Shared::new();
    let mut rngs = [Rng::new(cfg.seed, 1), Rng::new(cfg.seed, 2)];
    let mut tally = Tally::default();
    let mut out = Outcome {
        config: vec![
            ("threads", THREADS.to_string()),
            ("batch", BATCH.to_string()),
            ("think_spins", format!("0..{THINK_SPINS}")),
            ("shared_words", WORDS.to_string()),
            ("policies", "event_counter x4, contained".to_string()),
        ],
        ..Outcome::default()
    };

    let secs = cfg.seconds as f64;
    if !cfg.trace {
        let phase = measure(&fx, &shared, &mut rngs, secs, None, &mut timer)?;
        check(&fx, &shared, base, phase.ops, &mut tally);
        out.e2e.extend(e2e(&phase));
    } else {
        let plain = measure(&fx, &shared, &mut rngs, secs / 2.0, None, &mut timer)?;
        let before = fx.counts();
        alloc::arm(true);
        let traced = measure(
            &fx,
            &shared,
            &mut rngs,
            secs / 2.0,
            Some(Instant::now()),
            &mut timer,
        )?;
        alloc::arm(false);
        let after = fx.counts();
        check(&fx, &shared, base, plain.ops + traced.ops, &mut tally);
        out.e2e.extend(e2e(&plain));
        out.traced_e2e = Some(e2e(&traced));
        out.layer.extend(layer_metrics(&traced, before, after));
        out.layer.push(think_cost(cfg.seed));
        out.spans = traced.spans;
        out.spans_dropped = traced.dropped;
    }
    out.e2e
        .push(Metric::median_of("setup_s", "s", timer.times()));
    out.tally = tally;
    out.fixture = Some(fx);
    Ok(out)
}

fn layer_metrics(traced: &Phase, before: [u64; 4], after: [u64; 4]) -> Vec<Metric> {
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let acqs = d[2].max(1) as f64;
    let by = trace::by_name(&traced.spans);
    let mean = |name: &str| by.get(name).map_or(f64::NAN, |s| s.mean_ns());
    let n = |name: &str| by.get(name).map_or(0, |s| s.count);
    vec![
        Metric::one("locks.contended_frac", "ratio", d[1] as f64 / acqs, d[2]),
        Metric::one(
            "hook.calls_per_acq_contended",
            "count",
            d.iter().sum::<u64>() as f64 / acqs,
            d[2],
        ),
        Metric::one(
            "span.acquire_ns",
            "ns",
            mean("locks::ShflLock::acquire"),
            n("locks::ShflLock::acquire"),
        ),
        Metric::one(
            "span.release_ns",
            "ns",
            mean("locks::ShflLock::release"),
            n("locks::ShflLock::release"),
        ),
        Metric::one(
            "span.op_ns",
            "ns",
            mean("hooked_lock::op"),
            n("hooked_lock::op"),
        ),
        Metric::one(
            "span.op_self_ns",
            "ns",
            by.get("hooked_lock::op")
                .map_or(f64::NAN, |s| s.mean_self_ns()),
            n("hooked_lock::op"),
        ),
        Metric::one(
            "alloc.per_op",
            "count",
            traced.allocs as f64 / traced.ops.max(1) as f64,
            traced.ops,
        ),
        Metric::one(
            "alloc.bytes_per_op",
            "B",
            traced.bytes as f64 / traced.ops.max(1) as f64,
            traced.ops,
        ),
    ]
}

/// Mean cost of one think interval under the workload's jitter.
fn think_cost(seed: u64) -> Metric {
    let mut rng = Rng::new(seed, 9);
    let draws: Vec<u64> = (0..4096).map(|_| rng.below(THINK_SPINS)).collect();
    let mut i = 0usize;
    let samples = util::ns_per_call(15, 4096, || {
        think(draws[i % draws.len()]);
        i += 1;
    });
    Metric::min_of("hook.think_ns", "ns", &samples)
}
