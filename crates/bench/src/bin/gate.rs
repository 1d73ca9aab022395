//! The CI regression gate, run by `scripts/ci.sh`:
//!
//!     cargo run -p c3-bench --release --bin gate
//!
//! Runs every check in one process and prints one margin table (gate,
//! check, measured, bound, margin, ok). Every check runs even after an
//! earlier one fails; the process exits 1 if any row failed. It takes
//! no arguments and reads no environment.
//!
//! * **bench** — the runtime (jit) speedup over the legacy interpreter,
//!   the differential oracle, on `alu_chain` (dispatch-bound) and
//!   `map_mix` (helper-bound). Runs first: it is the only timing check.
//! * **telemetry** — arming the trace plane must not move the Fig. 2(c)
//!   no-op worst case at all (emission charges zero virtual time), and
//!   must stay within the 5 % normalized budget.
//! * **profile** — on a lossless fixed-seed ksim trace the blame
//!   partition is exact and conserved, and the analysis is byte-identical
//!   run to run; arming the continuous analyzer is free until stepped.
//! * **chaos** — a staged rollout over real locks is crash-swept at every
//!   intent-log step; every run converges fully applied or fully
//!   reverted, both occur, and the sweep replays identically.
//! * **schedule** — every strategy finds the three planted bugs in
//!   `simlocks::broken` from every base seed within the schedule budget,
//!   shrinks and pins each repro, and the correct zoo stays clean.
//! * **fleet** — the fleet daemon is crash-swept at every protocol step
//!   on a lossy, partitioning network; every run converges torn-free,
//!   degraded hosts keep serving, and the sweep replays identically.
//!
//! Detail lines (hashes, fingerprints, per-campaign results) print as
//! the checks run; the table follows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use c3_bench::workloads::{run_hashtable, HtSeries};
use cbpf::ctx::CtxLayout;
use cbpf::helpers::{FixedEnv, HelperId};
use cbpf::insn::{AluOp, JmpOp, MemSize, Reg};
use cbpf::interp::{run_with_budget, DEFAULT_BUDGET};
use cbpf::map::{Map, MapDef, MapKind};
use cbpf::program::{Program, ProgramBuilder};
use concord::fleet::{fleet_sweep, run_fleet, seal_demo_artifact, FleetConfig};
use concord::policies::numa_aware;
use concord::rollout::chaos::{crash_sweep, Convergence, SweepOutcome, SweepReport};
use concord::rollout::{
    AlwaysGreen, ChaosInjector, ChaosPlan, RealTarget, Rollout, RolloutError, RolloutLog,
    RolloutPlan, RolloutTarget,
};
use concord::{
    explore, BreakerConfig, Concord, ExploreConfig, Fixture, Repro, StrategySpec, ZooLock,
};
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};

/// Base seeds of the chaos, schedule and fleet sweeps.
const SEEDS: [u64; 3] = [3, 7, 42];

// ---------------------------------------------------------------------------
// Runner

/// What a row's measured value must satisfy.
#[derive(Clone, Copy, Debug)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
    Exactly(f64),
}

impl Bound {
    /// Distance from failing: non-negative exactly when the row passes.
    /// NaN (an errored measurement) fails every bound.
    fn margin(self, measured: f64) -> f64 {
        match self {
            Bound::AtLeast(floor) => measured - floor,
            Bound::AtMost(ceiling) => ceiling - measured,
            Bound::Exactly(want) if measured == want => 0.0,
            Bound::Exactly(want) => -(measured - want).abs(),
        }
    }

    fn render(self) -> String {
        match self {
            Bound::AtLeast(v) => format!(">= {}", num(v)),
            Bound::AtMost(v) => format!("<= {}", num(v)),
            Bound::Exactly(v) => format!("= {}", num(v)),
        }
    }
}

struct Row {
    gate: &'static str,
    check: String,
    measured: f64,
    bound: Bound,
}

impl Row {
    fn ok(&self) -> bool {
        self.bound.margin(self.measured) >= 0.0
    }
}

/// Four places, trailing zeros trimmed; NaN is a check that errored
/// before it could measure.
fn num(v: f64) -> String {
    if v.is_nan() {
        return "err".to_string();
    }
    let s = format!("{:.4}", v + 0.0);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[derive(Default)]
struct Gate {
    /// The gate the next rows belong to.
    section: &'static str,
    rows: Vec<Row>,
}

impl Gate {
    fn push(&mut self, check: impl Into<String>, measured: f64, bound: Bound) {
        let (gate, check) = (self.section, check.into());
        self.rows.push(Row {
            gate,
            check,
            measured,
            bound,
        });
    }

    fn at_least(&mut self, check: impl Into<String>, measured: f64, floor: f64) {
        self.push(check, measured, Bound::AtLeast(floor));
    }

    fn at_most(&mut self, check: impl Into<String>, measured: f64, ceiling: f64) {
        self.push(check, measured, Bound::AtMost(ceiling));
    }

    fn exactly(&mut self, check: impl Into<String>, measured: f64, want: f64) {
        self.push(check, measured, Bound::Exactly(want));
    }

    /// A condition that must never happen counts one violation if it did.
    fn never(&mut self, check: impl Into<String>, happened: bool) {
        self.at_most(check, f64::from(u8::from(happened)), 0.0);
    }

    /// The verdict: the number of rows that failed.
    fn failed(&self) -> usize {
        self.rows.iter().filter(|r| !r.ok()).count()
    }

    /// The margin table: a header line, then one aligned line per row.
    fn render(&self) -> String {
        let header = ["gate", "check", "measured", "bound", "margin", "ok"].map(String::from);
        let mut lines = vec![header];
        lines.extend(self.rows.iter().map(|r| {
            let ok = if r.ok() { "ok" } else { "FAIL" };
            let margin = num(r.bound.margin(r.measured));
            [
                r.gate.into(),
                r.check.clone(),
                num(r.measured),
                r.bound.render(),
                margin,
                ok.into(),
            ]
        }));
        let mut width = [0; 6];
        for line in &lines {
            for (w, cell) in width.iter_mut().zip(line) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for line in &lines {
            for (cell, w) in line.iter().zip(width) {
                out.push_str(&format!("| {cell:<w$} "));
            }
            out.push_str("|\n");
        }
        out
    }
}

/// Disarms the trace plane and the continuous analyzer and empties the
/// rings, so every check starts (and ends) from the same plane state.
fn quiesce() {
    telemetry::set_armed(false);
    telemetry::analyze::set_continuous_armed(false);
    telemetry::drain();
}

fn main() {
    let mut gate = Gate::default();
    let checks = [
        ("bench", bench as fn(&mut Gate)),
        ("telemetry", overhead),
        ("chaos", chaos),
        ("schedule", schedule),
        ("fleet", fleet),
    ];
    for (section, check) in checks {
        gate.section = section;
        quiesce();
        check(&mut gate);
        quiesce();
    }
    println!();
    print!("{}", gate.render());
    let failed = gate.failed();
    if failed > 0 {
        eprintln!("gate: FAIL — {failed} of {} rows failed", gate.rows.len());
        std::process::exit(1);
    }
    println!("gate: OK — {} rows", gate.rows.len());
}

// ---------------------------------------------------------------------------
// bench: jit speedup over the legacy interpreter

// Minimum runtime-over-legacy speedups. Each is the product of the two
// floors it replaces, when a prepared interpreter sat between the legacy
// interpreter and the jit: 2.0× jit over prepared, times 2.32× prepared
// over legacy (the `alu_chain` ratio in `BENCH_interp.json` then) or the
// 1.3× `map_mix` prepared-over-legacy floor.
const ALU_CHAIN_FLOOR: f64 = 4.6;
const MAP_MIX_FLOOR: f64 = 2.6;
const ROUNDS: usize = 9;
const ITERS: u32 = 40_000;

fn map_mix_program() -> Program {
    let map = Arc::new(Map::new(MapDef {
        name: "counters".into(),
        kind: MapKind::Hash,
        key_size: 4,
        value_size: 8,
        max_entries: 8,
    }));
    map.update(&1u32.to_le_bytes(), &0u64.to_le_bytes(), 0)
        .expect("an 8-entry map has room for one key");
    let mut b = ProgramBuilder::new("map_mix");
    let mid = b.register_map(map);
    b.ldmap(Reg::R1, mid);
    b.store_imm(MemSize::W, Reg::R10, -4, 1);
    b.mov(Reg::R2, Reg::R10);
    b.alu_imm(AluOp::Add, Reg::R2, -4);
    b.call(HelperId::MapLookup);
    b.jmp_imm(JmpOp::Eq, Reg::R0, 0, "miss");
    b.load(MemSize::Dw, Reg::R1, Reg::R0, 0);
    b.alu_imm(AluOp::Add, Reg::R1, 1);
    b.store(MemSize::Dw, Reg::R0, 0, Reg::R1);
    b.mov_imm(Reg::R0, 1);
    b.exit();
    b.label("miss");
    b.mov_imm(Reg::R0, 0);
    b.exit();
    b.build().expect("a fixed program builds")
}

fn alu_chain_program() -> Program {
    let mut b = ProgramBuilder::new("alu_chain");
    b.mov_imm(Reg::R0, 1);
    b.ld_imm64(Reg::R1, 0x9e37_79b9_7f4a_7c15);
    for i in 0..20 {
        b.alu(AluOp::Add, Reg::R0, Reg::R1);
        b.alu_imm(AluOp::Xor, Reg::R0, 0x5f5f + i);
        b.alu_imm(AluOp::Lsh, Reg::R0, 7);
        b.alu32_imm(AluOp::Mul, Reg::R0, 31);
    }
    b.store(MemSize::Dw, Reg::R10, -8, Reg::R0);
    b.load(MemSize::Dw, Reg::R0, Reg::R10, -8);
    b.exit();
    b.build().expect("a fixed program builds")
}

/// ns/run of `ITERS` back-to-back calls of `run`.
fn time(run: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS {
        run();
    }
    start.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// (legacy, runtime) ns/run: the minimum over `ROUNDS` rounds, each
/// round timing both engines back to back (in alternating order), so a
/// slow phase of a shared host lands on both rather than on one engine's
/// window. Min, not median: preemption noise is strictly additive, so
/// the minimum is the stable estimator of the undisturbed cost.
fn measure(prog: &Program, layout: &CtxLayout, env: &FixedEnv) -> (f64, f64) {
    let prepared = prog.prepare(layout);
    let mut legacy = || {
        run_with_budget(prog, &mut [], layout, env, DEFAULT_BUDGET).expect("legacy run");
    };
    let mut runtime = || {
        prepared
            .run(&mut [], env, DEFAULT_BUDGET)
            .expect("runtime run");
    };
    for _ in 0..10_000 {
        legacy();
        runtime();
    }
    let (mut best_legacy, mut best_runtime) = (f64::INFINITY, f64::INFINITY);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            best_legacy = best_legacy.min(time(&mut legacy));
            best_runtime = best_runtime.min(time(&mut runtime));
        } else {
            best_runtime = best_runtime.min(time(&mut runtime));
            best_legacy = best_legacy.min(time(&mut legacy));
        }
    }
    (best_legacy, best_runtime)
}

fn bench(gate: &mut Gate) {
    let layout = CtxLayout::empty();
    let env = FixedEnv::new().cpu(12).numa(1);
    for (name, floor, prog) in [
        ("alu_chain", ALU_CHAIN_FLOOR, alu_chain_program()),
        ("map_mix", MAP_MIX_FLOOR, map_mix_program()),
    ] {
        let (legacy, jit) = measure(&prog, &layout, &env);
        println!("bench: {name} legacy {legacy:.1} ns/run, jit {jit:.1} ns/run");
        let speedup = legacy / jit;
        gate.at_least(format!("{name} jit/legacy speedup"), speedup, floor);
    }
}

// ---------------------------------------------------------------------------
// telemetry + profile: the Fig. 2(c) no-op worst case and blame analysis

/// The committed figures' window (`run_window_ms()` default × 1e6).
const WINDOW_NS: u64 = 3_000_000;
const THREADS: u32 = 8;
/// The figure binaries' seed-averaging set.
const FIG_SEEDS: [u64; 3] = [42, 43, 44];
/// Minimum disarmed/armed normalized throughput (the 5 % budget).
/// Virtual time should be bit-identical; the floor documents the budget.
const FLOOR: f64 = 0.95;
/// Fixed seed for the conservation scenario.
const SIM_SEED: u64 = 42;
/// Shorter window for the conservation scenario so the whole trace fits
/// the rings without overwrite — exactness requires a lossless trace.
/// (At 8 threads this scenario emits ~2.3k events; ring-prefix
/// overwrite starts near 4.1k.)
const TRACE_WINDOW_NS: u64 = 100_000;

/// Seed-averaged virtual throughput (ops/ms) of the no-op worst case,
/// plus host wall-clock (ns).
fn run_noop_worst_case() -> (f64, f64) {
    let start = Instant::now();
    let mut total = 0.0;
    for sd in FIG_SEEDS {
        total += run_hashtable(THREADS, HtSeries::ConcordNoop, WINDOW_NS, sd);
    }
    let host_ns = start.elapsed().as_nanos() as f64;
    (total / FIG_SEEDS.len() as f64, host_ns)
}

/// Runs the fixed-seed ksim contention scenario with the plane armed and
/// returns the analysis of the complete drained trace, plus the records
/// the plane dropped meanwhile. Per-ring seq-gap detection cannot see a
/// ring losing its *prefix* (the first record seen sets the baseline),
/// so "exact" is only trustworthy when the drop counter did not move.
fn analyzed_sim_trace() -> (telemetry::Report, u64) {
    telemetry::drain();
    let dropped_before = telemetry::dropped();
    telemetry::set_armed(true);
    run_hashtable(THREADS, HtSeries::ConcordNoop, TRACE_WINDOW_NS, SIM_SEED);
    telemetry::set_armed(false);
    let events = telemetry::drain();
    let dropped = telemetry::dropped() - dropped_before;
    let report = telemetry::analyze::analyze(&events, telemetry::AnalyzeConfig::default());
    (report, dropped)
}

/// One disarmed run of the worst case is the baseline for both the
/// trace-plane (telemetry) and continuous-analyzer (profile) rows.
fn overhead(gate: &mut Gate) {
    let (tp_off, host_off) = run_noop_worst_case();

    telemetry::set_armed(true);
    let (tp_trace, host_trace) = run_noop_worst_case();
    telemetry::set_armed(false);
    let captured = telemetry::drain().len();
    println!(
        "telemetry: fig2c no-op worst case ({THREADS} threads) — disarmed {tp_off:.4} ops/ms, \
         armed {tp_trace:.4} ops/ms; armed host cost {:.2}x, {captured} events captured, \
         {} dropped",
        host_trace / host_off.max(f64::MIN_POSITIVE),
        telemetry::dropped()
    );
    gate.exactly("trace armed: ops/ms vs disarmed", tp_trace, tp_off);
    let norm = tp_off / tp_trace.max(f64::MIN_POSITIVE);
    gate.at_least("trace armed: normalized throughput", norm, FLOOR);
    quiesce();

    let (r1, dropped1) = analyzed_sim_trace();
    let (r2, dropped2) = analyzed_sim_trace();
    println!(
        "profile: ksim seed {SIM_SEED} — {} events, {} locks, wait={}ns, attribution={}, \
         hash {:#x}",
        r1.events,
        r1.locks.len(),
        r1.total_wait_ns(),
        if r1.exact() { "exact" } else { "lower-bound" },
        r1.stable_hash()
    );
    gate.section = "profile";
    let drops = (dropped1 + dropped2) as f64;
    gate.at_most(format!("seed {SIM_SEED} trace: ring drops"), drops, 0.0);
    gate.at_least("trace: events", r1.events as f64, 1.0);
    gate.at_least("trace: wait ns", r1.total_wait_ns() as f64, 1.0);
    let inexact = (r1.seq_gaps + r1.anomalies + r1.truncated) as f64;
    gate.at_most("trace: seq gaps + anomalies + truncated", inexact, 0.0);
    gate.never("blame conservation violated", !r1.conservation_holds());
    let drift = r1.stable_hash() != r2.stable_hash();
    gate.never("stable_hash differs across runs", drift);

    telemetry::set_armed(true);
    telemetry::analyze::set_continuous_armed(true);
    let (tp_on, _) = run_noop_worst_case();
    let window = telemetry::analyze::continuous().step();
    quiesce();
    let window_events = window.as_ref().map_or(0, |w| w.events);
    println!(
        "profile: fig2c no-op worst case — analyzer armed {tp_on:.4} ops/ms; window saw \
         {window_events} events across {} locks",
        window.as_ref().map_or(0, |w| w.locks.len())
    );
    gate.exactly("analyzer armed: ops/ms vs disarmed", tp_on, tp_off);
    let norm = tp_off / tp_on.max(f64::MIN_POSITIVE);
    gate.at_least("analyzer armed: normalized throughput", norm, FLOOR);
    gate.at_least("stepped window: events", window_events as f64, 1.0);
}

// ---------------------------------------------------------------------------
// chaos: crash-swept staged rollout over real locks

const CHAOS_LOCKS: usize = 6;

/// One scenario run: fresh world, staged rollout under `plan`, recovery
/// if the controller crashed, convergence verdict.
fn rollout_scenario(plan: ChaosPlan) -> Result<SweepOutcome, RolloutError> {
    let concord = Concord::new();
    let mut handles = Vec::new();
    let mut names = Vec::new();
    for i in 0..CHAOS_LOCKS {
        let name = format!("gate{i}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&name, Arc::clone(&l));
        names.push(name);
        handles.push(l);
    }
    let loaded = concord
        .load(numa_aware())
        .expect("the prebuilt policy verifies");
    let target = RealTarget::new(&concord, loaded, BreakerConfig::default());
    let log = RolloutLog::new();
    let chaos = ChaosInjector::new(plan);

    // One hammer thread on the canary so patch transactions race live
    // dispatch, as they would in production.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let l = Arc::clone(&handles[0]);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let _g = l.lock();
            }
        })
    };

    let rollout_plan = RolloutPlan::staged(1, "numa", HookKind::CmpNode, &names, &[50]);
    let run = Rollout::run(rollout_plan, &log, &target, &mut AlwaysGreen, &chaos);
    if let Err(RolloutError::Crashed(_)) = run {
        Rollout::recover(&log, &target, &ChaosInjector::inert())?;
    }
    stop.store(true, Ordering::Release);
    hammer.join().expect("hammer thread panicked");

    let live = target.applied_locks(1, &names).len();
    let converged = if live == names.len() {
        Convergence::AllApplied
    } else if live == 0 {
        Convergence::AllReverted
    } else {
        Convergence::Mixed(format!("{live}/{} locks patched", names.len()))
    };
    // Whatever happened to the rollout, the locks must still work.
    for l in &handles {
        drop(l.lock());
    }
    Ok(SweepOutcome {
        converged,
        steps: chaos.steps_taken(),
        fingerprint: log.fingerprint(),
    })
}

/// A count from a sweep's report, or NaN (an errored row) when the sweep
/// itself failed.
fn count(sweep: &Result<SweepReport, String>, of: impl Fn(&SweepReport) -> u64) -> f64 {
    sweep.as_ref().map_or(f64::NAN, |r| of(r) as f64)
}

fn chaos(gate: &mut Gate) {
    for seed in SEEDS {
        let first = crash_sweep(seed, rollout_scenario);
        let replay = crash_sweep(seed, rollout_scenario);
        match &first {
            Ok(r) => println!(
                "chaos: seed {seed} — {} crash points, {} applied / {} reverted, baseline \
                 fingerprint {:#018x}",
                r.crash_points, r.applied_runs, r.reverted_runs, r.baseline_fingerprint
            ),
            Err(e) => println!("chaos: seed {seed} — {e}"),
        }
        if replay != first {
            println!("chaos: seed {seed} replay diverged: {first:?} vs {replay:?}");
        }
        let s = format!("seed {seed}");
        let unconverged = count(&first, |r| {
            r.crash_points + 1 - r.applied_runs - r.reverted_runs
        });
        gate.at_most(format!("{s}: runs not converged"), unconverged, 0.0);
        let applied = count(&first, |r| r.applied_runs);
        gate.at_least(format!("{s}: runs fully applied"), applied, 1.0);
        let reverted = count(&first, |r| r.reverted_runs);
        gate.at_least(format!("{s}: runs fully reverted"), reverted, 1.0);
        gate.never(format!("{s}: replay differs"), replay != first);
    }
}

// ---------------------------------------------------------------------------
// schedule: planted-bug exploration and the correct zoo

const SCHEDULE_BUDGET: u32 = 64;
const ZOO_SCHEDULES: u32 = 8;
const STRATEGIES: [&str; 3] = ["random", "pct", "policy"];

/// Replays `repro` twice after a text round-trip; both runs must land on
/// the recorded violation kind and trace hash.
fn pin_repro(repro: &Repro) -> Result<(), String> {
    let text = repro.to_text();
    let parsed = Repro::from_text(&text).map_err(|e| format!("artifact round-trip: {e}"))?;
    if parsed != *repro {
        return Err("artifact round-trip changed the repro".to_string());
    }
    for pass in 1..=2 {
        parsed
            .replay()
            .map_err(|e| format!("replay pass {pass}: {e}"))?;
    }
    Ok(())
}

fn schedule(gate: &mut Gate) {
    let campaigns = (Fixture::BROKEN.len() * SEEDS.len()) as f64;
    for strat in STRATEGIES {
        let spec = StrategySpec::from_name(strat).expect("gate strategy");
        let (mut found, mut pinned) = (0u32, 0u32);
        let (mut schedules, mut first_bug_sum) = (0u64, 0u64);
        let started = Instant::now();
        for fixture in Fixture::BROKEN {
            for seed in SEEDS {
                let campaign = format!("{} under {strat} (seed {seed})", fixture.name());
                let cfg = ExploreConfig {
                    schedules: SCHEDULE_BUDGET,
                    base_seed: seed,
                    ..ExploreConfig::default()
                };
                let report = match explore(fixture, &spec, &cfg) {
                    Ok(r) => r,
                    Err(e) => {
                        println!("schedule: {campaign} — {e}");
                        continue;
                    }
                };
                schedules += u64::from(report.schedules_run);
                let (Some(first), Some(violation), Some(repro)) = (
                    report.first_bug_schedule,
                    report.violation.as_ref(),
                    report.repro.as_ref(),
                ) else {
                    println!("schedule: {campaign} — planted bug not found");
                    continue;
                };
                found += 1;
                first_bug_sum += u64::from(first) + 1;
                match pin_repro(repro) {
                    Ok(()) => pinned += 1,
                    Err(e) => println!("schedule: {campaign} — {e}"),
                }
                println!(
                    "schedule: {campaign} — {} at schedule {first}, shrunk to {} \
                     injection(s), trace {:#x}",
                    violation.kind(),
                    repro.injections.len(),
                    repro.trace_hash,
                );
            }
        }
        println!(
            "schedule: {strat}: {:.0} schedules/sec, mean schedules-to-first-bug {:.2}",
            schedules as f64 / started.elapsed().as_secs_f64(),
            first_bug_sum as f64 / f64::from(found.max(1)),
        );
        let what = format!("{strat}: planted bugs found in {SCHEDULE_BUDGET} schedules");
        gate.exactly(what, f64::from(found), campaigns);
        let what = format!("{strat}: repros pinned (round-trip, 2 replays)");
        gate.exactly(what, f64::from(pinned), campaigns);

        // False-positive sweep: the correct zoo must stay clean under the
        // same strategy.
        let mut flagged = 0u32;
        for z in ZooLock::ALL {
            let cfg = ExploreConfig {
                schedules: ZOO_SCHEDULES,
                base_seed: SEEDS[0],
                ..ExploreConfig::default()
            };
            let violation = match explore(Fixture::Zoo(z), &spec, &cfg) {
                Ok(report) => report.violation.map(|v| format!("{v:?}")),
                Err(e) => Some(e.to_string()),
            };
            if let Some(v) = violation {
                println!("schedule: zoo_{} under {strat} — {v}", z.name());
                flagged += 1;
            }
        }
        let zoo = ZooLock::ALL.len();
        let what = format!("{strat}: zoo locks flagged ({zoo} locks, {ZOO_SCHEDULES} schedules)");
        gate.at_most(what, f64::from(flagged), 0.0);
    }
}

// ---------------------------------------------------------------------------
// fleet: crash-swept control plane on a lossy, partitioning network

fn fleet(gate: &mut Gate) {
    for seed in SEEDS {
        let s = format!("seed {seed}");
        let cfg = FleetConfig::small(seed, seal_demo_artifact());

        let inert = run_fleet(&cfg, ChaosPlan::inert(seed));
        if !inert.converged {
            println!(
                "fleet: {s} inert run: head {} vs hosts {:?}",
                inert.head, inert.host_versions
            );
        }
        gate.never(format!("{s}: inert run not converged"), !inert.converged);
        let torn = inert.torn as f64;
        gate.at_most(format!("{s}: inert run torn applies"), torn, 0.0);
        let degraded = inert.degraded_serves as f64;
        gate.at_least(format!("{s}: inert run degraded serves"), degraded, 1.0);

        let first = fleet_sweep(seed, &cfg);
        let replay = fleet_sweep(seed, &cfg);
        match &first {
            Ok(r) => println!(
                "fleet: {s} — {} crash points, {} converged run(s), baseline fingerprint \
                 {:#018x}",
                r.crash_points, r.applied_runs, r.baseline_fingerprint
            ),
            Err(e) => println!("fleet: {s} — {e}"),
        }
        if replay != first {
            println!("fleet: {s} replay diverged: {first:?} vs {replay:?}");
        }
        let unconverged = count(&first, |r| r.crash_points + 1 - r.applied_runs);
        gate.at_most(format!("{s}: sweep runs not converged"), unconverged, 0.0);
        gate.never(format!("{s}: replay differs"), replay != first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failing_row_fails_the_gate_and_every_row_renders() {
        let mut gate = Gate::default();
        gate.at_least("speedup", 19.94, 4.6);
        gate.exactly("armed vs disarmed", 5906.8889, 5906.8889);
        gate.never("replay differs", false);
        assert_eq!(gate.failed(), 0);
        gate.never("replay differs", true);
        assert_eq!(gate.failed(), 1);
        gate.at_least("errored check", f64::NAN, 1.0);

        let table = gate.render();
        let cells: Vec<Vec<&str>> = table
            .lines()
            .map(|l| l.split('|').map(str::trim).collect())
            .collect();
        assert_eq!(cells.len(), gate.rows.len() + 1, "{table}");
        let expected = [
            ["measured", "bound", "margin", "ok"],
            ["19.94", ">= 4.6", "15.34", "ok"],
            ["5906.8889", "= 5906.8889", "0", "ok"],
            ["0", "<= 0", "0", "ok"],
            ["1", "<= 0", "-1", "FAIL"],
            ["err", ">= 1", "err", "FAIL"],
        ];
        for (line, want) in cells.iter().zip(expected) {
            assert_eq!(line[3..7], want, "{table}");
        }
    }
}
