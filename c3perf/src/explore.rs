//! `explore`: schedule-exploration campaigns shaped like the schedule
//! gate — the three planted-bug fixtures and the correct lock zoo under
//! the random, pct and policy strategies — followed by one fleet crash
//! sweep, all on one thread. Each pass draws its base seed from the run's
//! seed; passes repeat until the measured seconds are up.

use std::time::{Duration, Instant};

use concord::fleet::{fleet_sweep, run_fleet, seal_demo_artifact, FleetConfig};
use concord::rollout::ChaosPlan;
use concord::{explore, ExploreConfig, Fixture, Repro, StrategySpec, ZooLock};

use crate::alloc;
use crate::report::Metric;
use crate::stats::{self, Tally};
use crate::trace::{self, Span, SpanBuf};
use crate::util::{self, Rng, SetupTimer};
use crate::{Cfg, Outcome};

/// Strategies every campaign runs under.
pub const STRATEGIES: [&str; 3] = ["random", "pct", "policy"];
/// Schedule budget of a planted-bug campaign.
pub const BUG_BUDGET: u32 = 64;
/// Schedule budget of a zoo (no-bug) campaign.
pub const ZOO_BUDGET: u32 = 8;
/// A timed block of set-ups falls due this many times per phase (see
/// [`util::SetupTimer`]).
const SETUP_BLOCKS: usize = 20;
/// Set-ups back to back in one timed block (about 0.05 s).
const SETUP_PER_BLOCK: usize = 64;
/// Passes after which resident memory is read. Every pass and every
/// set-up leaves some resident memory behind, so the high-water mark at
/// the end of a run would grow with the passes a faster build completes;
/// it is read after this fixed work instead, before any set-up block runs
/// between passes.
pub const RSS_PASSES: u64 = 8;

/// What set-up builds: the strategies and the fleet world's artifact.
pub struct Setup {
    specs: Vec<StrategySpec>,
    artifact: std::sync::Arc<Vec<u8>>,
}

impl Setup {
    /// Builds the strategy specs (compiling the policy strategy's
    /// program once), seals the fleet artifact and runs one warm-up
    /// campaign.
    ///
    /// # Errors
    ///
    /// A strategy that does not build, as text.
    pub fn new() -> Result<Setup, String> {
        let specs = STRATEGIES
            .iter()
            .map(|s| StrategySpec::from_name(s).ok_or_else(|| format!("no strategy {s}")))
            .collect::<Result<Vec<_>, _>>()?;
        for spec in &specs {
            spec.build(0).map_err(|e| format!("{}: {e}", spec.name()))?;
        }
        let warm = campaign(Fixture::BROKEN[0], &specs[0], BUG_BUDGET, 0)?;
        if warm.repro.is_none() {
            return Err("the warm-up campaign found no bug".to_string());
        }
        Ok(Setup {
            specs,
            artifact: seal_demo_artifact(),
        })
    }
}

/// Replays `repro` twice after a text round-trip; both runs must land on
/// the recorded violation kind and trace hash.
fn pin(repro: &Repro) -> Result<(), String> {
    let parsed = Repro::from_text(&repro.to_text()).map_err(|e| format!("round-trip: {e}"))?;
    if parsed != *repro {
        return Err("text round-trip changed the repro".to_string());
    }
    for pass in 1..=2 {
        let out = parsed.replay().map_err(|e| format!("replay {pass}: {e}"))?;
        let kind = out.violation.as_ref().map(|v| v.kind());
        if out.trace_hash != repro.trace_hash || kind != Some(repro.violation.as_str()) {
            return Err(format!(
                "replay {pass}: {kind:?} hash {:#x}, pinned {} {:#x}",
                out.trace_hash, repro.violation, repro.trace_hash
            ));
        }
    }
    Ok(())
}

#[derive(Default)]
struct Phase {
    schedules: u64,
    wall_s: f64,
    crash_runs: u64,
    crash_run_ms: Vec<f64>,
    crash_points: Vec<f64>,
    first_bug: Vec<f64>,
    strategy_ms: [Vec<f64>; 3],
    replays: u64,
    allocs: u64,
    spans: Vec<Span>,
    passes: u64,
    rss_growth_kb: u64,
    hwm_kb: u64,
}

fn campaign(
    fixture: Fixture,
    spec: &StrategySpec,
    schedules: u32,
    base_seed: u64,
) -> Result<concord::ExploreReport, String> {
    let cfg = ExploreConfig {
        schedules,
        base_seed,
        ..ExploreConfig::default()
    };
    explore(fixture, spec, &cfg).map_err(|e| e.to_string())
}

fn one_pass(
    s: &Setup,
    base_seed: u64,
    pass: u64,
    buf: &mut Option<SpanBuf>,
    phase: &mut Phase,
    tally: &mut Tally,
) {
    let root = buf
        .as_mut()
        .map_or(0, |b| b.enter("explore::pass", 0, pass));
    for (si, spec) in s.specs.iter().enumerate() {
        for fixture in Fixture::BROKEN {
            let t0 = Instant::now();
            let report = match buf.as_mut() {
                Some(b) => b.span("concord::explore", root, pass, || {
                    campaign(fixture, spec, BUG_BUDGET, base_seed)
                }),
                None => campaign(fixture, spec, BUG_BUDGET, base_seed),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let found = match &report {
                Ok(r) => {
                    phase.schedules += u64::from(r.schedules_run);
                    phase.strategy_ms[si].push(ms / f64::from(r.schedules_run.max(1)));
                    r.repro.as_ref().map(|repro| (r.first_bug_schedule, repro))
                }
                Err(e) => {
                    eprintln!("explore: {} under {}: {e}", fixture.name(), spec.name());
                    None
                }
            };
            let ok = match found {
                Some((first, repro)) => {
                    phase.first_bug.push(f64::from(first.unwrap_or(0)) + 1.0);
                    phase.replays += 2;
                    let pinned = match buf.as_mut() {
                        Some(b) => {
                            b.span("concord::explore::Repro::replay", root, pass, || pin(repro))
                        }
                        None => pin(repro),
                    };
                    pinned
                        .map_err(|e| {
                            eprintln!("explore: {} under {}: {e}", fixture.name(), spec.name())
                        })
                        .is_ok()
                }
                None => {
                    eprintln!(
                        "explore: {} under {} (seed {base_seed}): planted bug not found",
                        fixture.name(),
                        spec.name()
                    );
                    false
                }
            };
            tally.check(ok);
        }
        for z in ZooLock::ALL {
            let report = match buf.as_mut() {
                Some(b) => b.span("concord::explore", root, pass, || {
                    campaign(Fixture::Zoo(z), spec, ZOO_BUDGET, base_seed)
                }),
                None => campaign(Fixture::Zoo(z), spec, ZOO_BUDGET, base_seed),
            };
            let clean = match &report {
                Ok(r) => {
                    phase.schedules += u64::from(r.schedules_run);
                    r.violation.is_none()
                }
                Err(_) => false,
            };
            if !tally.check(clean) {
                eprintln!(
                    "explore: zoo_{} under {} is not clean",
                    z.name(),
                    spec.name()
                );
            }
        }
    }
    let cfg = FleetConfig::small(base_seed, std::sync::Arc::clone(&s.artifact));
    let t0 = Instant::now();
    let sweep = match buf.as_mut() {
        Some(b) => b.span("concord::fleet::fleet_sweep", root, pass, || {
            fleet_sweep(base_seed, &cfg)
        }),
        None => fleet_sweep(base_seed, &cfg),
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let ok = match &sweep {
        Ok(r) => {
            let runs = r.crash_points + 1;
            phase.crash_runs += runs;
            phase.crash_run_ms.push(ms / runs as f64);
            phase.crash_points.push(r.crash_points as f64);
            r.applied_runs == runs
        }
        Err(e) => {
            eprintln!("explore: fleet sweep seed {base_seed}: {e}");
            false
        }
    };
    if !tally.check(ok) {
        eprintln!("explore: fleet sweep seed {base_seed} did not converge at every crash point");
    }
    if let Some(b) = buf.as_mut() {
        b.exit(root);
    }
}

/// Runs passes until `seconds` of them are measured, and at least
/// [`RSS_PASSES`]. Set-up blocks due between later passes are timed, and
/// their time and allocations left out.
fn run_phase(
    s: &Setup,
    seed: u64,
    seconds: f64,
    trace: Option<Instant>,
    timer: &mut SetupTimer<'_>,
    tally: &mut Tally,
) -> Phase {
    let mut rng = Rng::new(seed, 0xE0);
    let mut buf = trace.map(|epoch| SpanBuf::new(epoch, 1, 1 << 16));
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut setup_allocs = 0;
    let (a0, _) = alloc::thread_counts();
    let rss0 = util::status_kb("VmRSS");
    let mut pass = 0u64;
    timer.rearm();
    while pass < RSS_PASSES || (start.elapsed() - paused).as_secs_f64() < seconds {
        one_pass(s, rng.next_u64(), pass, &mut buf, &mut phase, tally);
        pass += 1;
        if pass < RSS_PASSES {
            continue;
        }
        if pass == RSS_PASSES {
            phase.hwm_kb = util::status_kb("VmHWM");
            phase.rss_growth_kb = util::status_kb("VmRSS").saturating_sub(rss0);
        }
        let (spent, allocs, _) =
            alloc::counted(|| timer.tick((start.elapsed() - paused).as_secs_f64()));
        setup_allocs += allocs;
        match spent {
            Ok(d) => paused += d,
            Err(e) => {
                tally.check(false);
                eprintln!("explore: set-up failed: {e}");
            }
        }
    }
    phase.wall_s = (start.elapsed() - paused).as_secs_f64();
    phase.allocs = alloc::thread_counts().0 - a0 - setup_allocs;
    phase.passes = pass;
    phase.spans = buf.map(SpanBuf::into_spans).unwrap_or_default();
    phase
}

fn e2e(p: &Phase) -> Vec<Metric> {
    let schedules = p.schedules + p.replays;
    let per_s = schedules as f64 / p.wall_s;
    let crash = Metric::median_of("fleet.ms_per_crash_run", "ms", &p.crash_run_ms);
    vec![
        Metric::one("schedules_per_s", "1/s", per_s, schedules),
        Metric::one("rate_per_s", "1/s", per_s, schedules),
        Metric::one("crash_runs_per_s", "1/s", 1e3 / crash.value, p.crash_runs),
        Metric::one("latency_us_p50", "us", crash.value * 1e3, crash.n),
        crash,
        Metric::one("explore.passes", "count", p.passes as f64, 1),
    ]
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let secs = cfg.seconds as f64;
    let every_s = if cfg.trace { secs / 2.0 } else { secs } / SETUP_BLOCKS as f64;
    let (mut timer, s) = SetupTimer::start(SETUP_PER_BLOCK, every_s, Setup::new)?;
    let mut tally = Tally::default();
    let mut out = Outcome {
        config: vec![
            ("strategies", STRATEGIES.join(",")),
            ("bug_budget", BUG_BUDGET.to_string()),
            ("zoo_budget", ZOO_BUDGET.to_string()),
            ("fixtures", Fixture::BROKEN.len().to_string()),
            ("zoo_locks", ZooLock::ALL.len().to_string()),
            ("fleet", "FleetConfig::small".to_string()),
        ],
        ..Outcome::default()
    };
    if !cfg.trace {
        let p = run_phase(&s, cfg.seed, secs, None, &mut timer, &mut tally);
        out.peak_rss_kb = Some(p.hwm_kb);
        out.e2e.extend(e2e(&p));
    } else {
        let plain = run_phase(&s, cfg.seed, secs / 2.0, None, &mut timer, &mut tally);
        out.peak_rss_kb = Some(plain.hwm_kb);
        alloc::arm(true);
        let traced = run_phase(
            &s,
            cfg.seed,
            secs / 2.0,
            Some(Instant::now()),
            &mut timer,
            &mut tally,
        );
        alloc::arm(false);
        out.e2e.extend(e2e(&plain));
        out.traced_e2e = Some(e2e(&traced));
        out.layer.extend(layer_metrics(&s, cfg.seed, &traced));
        out.spans = traced.spans;
    }
    out.e2e
        .push(Metric::median_of("setup_s", "s", timer.times()));
    out.tally = tally;
    Ok(out)
}

fn layer_metrics(s: &Setup, seed: u64, p: &Phase) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, samples) in ["explore.random_ms", "explore.pct_ms", "explore.policy_ms"]
        .iter()
        .zip(&p.strategy_ms)
    {
        if !samples.is_empty() {
            out.push(Metric::median_of(name, "ms", samples));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.push(Metric::one(
        "explore.first_bug_mean",
        "count",
        mean(&p.first_bug),
        p.first_bug.len() as u64,
    ));
    out.push(Metric::one(
        "explore.pin_replays",
        "count",
        p.replays as f64,
        1,
    ));
    out.push(Metric::one(
        "fleet.crash_points",
        "count",
        mean(&p.crash_points),
        p.crash_points.len() as u64,
    ));
    // Resident memory the passes leave behind: what a pass retains after
    // its simulations end.
    out.push(Metric::one(
        "explore.rss_growth_kb_per_pass",
        "kB",
        p.rss_growth_kb as f64 / RSS_PASSES as f64,
        RSS_PASSES,
    ));
    let schedules = p.schedules + p.replays;
    out.push(Metric::one(
        "alloc.per_op",
        "count",
        p.allocs as f64 / schedules.max(1) as f64,
        schedules,
    ));
    // One inert fleet run under the run's seed: transport counters and
    // virtual propagation lag.
    let cfg = FleetConfig::small(seed, std::sync::Arc::clone(&s.artifact));
    let report = run_fleet(&cfg, ChaosPlan::inert(seed));
    let net = report.net;
    out.push(Metric::one("net.sent", "count", net.sent as f64, 1));
    out.push(Metric::one("net.dropped", "count", net.dropped as f64, 1));
    out.push(Metric::one(
        "net.duplicated",
        "count",
        net.duplicated as f64,
        1,
    ));
    let mut lag: Vec<f64> = report
        .propagation_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    lag.sort_by(f64::total_cmp);
    if !lag.is_empty() {
        out.push(Metric::one(
            "fleet.propagation_us_p50",
            "vus",
            stats::quantile_sorted(&lag, 0.5),
            lag.len() as u64,
        ));
        out.push(Metric::one(
            "fleet.propagation_us_max",
            "vus",
            lag[lag.len() - 1],
            lag.len() as u64,
        ));
    }
    let by = trace::by_name(&p.spans);
    if let Some(sweep) = by.get("concord::fleet::fleet_sweep") {
        out.push(Metric::one(
            "span.fleet_sweep_ms",
            "ms",
            sweep.mean_ns() / 1e6,
            sweep.count,
        ));
    }
    out
}
