//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path c3perf/Cargo.toml -- \
//!     --workload <hooked_lock|control_plane|sim_figures|explore> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric the run measured, then, as the last
//! line of standard output, one JSON object with the run's output checks
//! and the metrics `BENCHMARK.json` names: the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. Each run also writes
//! a run record (and, traced, its spans) under `c3perf/runs/`. See
//! `c3perf/README.md` for the workloads, metrics and how to read a trace.

mod alloc;
mod control;
mod explore;
mod hooked;
mod ledger;
mod report;
mod sim;
mod stats;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{find, Metric};
use stats::Tally;
use trace::Span;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end metrics of the result line; every workload reports
/// each of them.
const E2E_KEYS: &[&str] = &["setup_s", "rate_per_s", "latency_us_p50", "peak_rss_mb"];

/// The per-layer metrics of the result line; every traced run reports
/// each of them. `hook.residual_ns` and `trace.overhead_pct` are signed
/// differences near zero, with no direction that is better: they are
/// printed and recorded, not scored.
const LAYER_KEYS: &[&str] = &[
    "locks.acq_rel_ns",
    "locks.now_ns_ns",
    "livepatch.get_ns",
    "hookctx.marshal_event_ns",
    "hookctx.marshal_cmp_node_ns",
    "containment.allow_ns",
    "cbpf.event_run_ns",
    "cbpf.numa_run_ns",
    "cbpf.insns_per_run",
    "cbpf.tier",
    "cbpf.map_op_ns",
    "telemetry.disarmed_ns",
    "telemetry.emit_ns",
    "policy.event_closure_ns",
    "policy.cmp_node_closure_ns",
    "hook.calls_per_acq",
    "hook.solo_acq_ns",
    "hook.layer_sum_ns",
    "hook.allocs_per_acq",
    "hook.alloc_bytes_per_acq",
    "wire.seal_us",
    "wire.open_us",
    "verifier.verify_us",
    "alloc.per_op",
];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two threads on one hooked real-thread `ShflLock`.
    HookedLock,
    /// Publish → host-applied at 1 M tenants, with resolves beside it.
    ControlPlane,
    /// The Fig. 2(a–c) point set in the simulator.
    SimFigures,
    /// Schedule-exploration campaigns and a fleet crash sweep.
    Explore,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "hooked_lock" => Workload::HookedLock,
            "control_plane" => Workload::ControlPlane,
            "sim_figures" => Workload::SimFigures,
            "explore" => Workload::Explore,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::HookedLock => "hooked_lock",
            Workload::ControlPlane => "control_plane",
            Workload::SimFigures => "sim_figures",
            Workload::Explore => "explore",
        }
    }
}

/// One run's arguments.
pub struct Cfg {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Traced run: half untraced, half traced, then the ledger.
    pub trace: bool,
    /// The repository root (holds `results/` and maybe `.git`).
    pub repo: PathBuf,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics of the untraced (phase of the) run.
    pub e2e: Vec<Metric>,
    /// The same metrics from the traced phase.
    pub traced_e2e: Option<Vec<Metric>>,
    /// Per-layer metrics of the traced phase.
    pub layer: Vec<Metric>,
    /// Output checks.
    pub tally: Tally,
    /// Spans of the traced phase.
    pub spans: Vec<Span>,
    /// Spans that did not fit the buffers.
    pub spans_dropped: u64,
    /// Workload configuration for the run record.
    pub config: Vec<(&'static str, String)>,
    /// The process high-water mark in kB read after a fixed amount of
    /// work, for a workload whose resident memory grows with the work it
    /// completes; otherwise it is read at the end of the run.
    pub peak_rss_kb: Option<u64>,
    /// The hooked-lock fixture, when the workload built one the ledger
    /// should reuse.
    pub fixture: Option<hooked::Fixture>,
}

fn parse_args(args: &[String]) -> Result<Cfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=120"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        repo: Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives inside the repository")
            .to_path_buf(),
    })
}

fn run(cfg: &Cfg) -> Result<(Outcome, Vec<Metric>), String> {
    let mut out = match cfg.workload {
        Workload::HookedLock => hooked::run(cfg)?,
        Workload::ControlPlane => control::run(cfg)?,
        Workload::SimFigures => sim::run(cfg)?,
        Workload::Explore => explore::run(cfg)?,
    };
    let mut metrics = out.e2e.clone();
    metrics.sort_by_key(|m| m.name != "setup_s");
    metrics.push(Metric::one(
        "peak_rss_mb",
        "MB",
        out.peak_rss_kb.unwrap_or_else(|| util::status_kb("VmHWM")) as f64 / 1024.0,
        1,
    ));
    metrics.push(Metric::one(
        "failed_frac",
        "ratio",
        out.tally.failed_frac(),
        out.tally.attempted,
    ));
    if cfg.trace {
        let traced = out.traced_e2e.take().unwrap_or_default();
        let plain = find(&metrics, "latency_us_p50").map(|m| m.value);
        let with = find(&traced, "latency_us_p50").map(|m| m.value);
        if let (Some(plain), Some(with)) = (plain, with) {
            metrics.push(Metric::one(
                "trace.overhead_pct",
                "%",
                (with / plain - 1.0) * 100.0,
                2,
            ));
        }
        for m in traced {
            metrics.push(Metric {
                name: format!("traced.{}", m.name),
                ..m
            });
        }
        metrics.push(Metric::one(
            "trace.spans",
            "count",
            out.spans.len() as f64,
            1,
        ));
        metrics.push(Metric::one(
            "trace.spans_dropped",
            "count",
            out.spans_dropped as f64,
            1,
        ));
        metrics.append(&mut out.layer);
        let fixture = match out.fixture.take() {
            Some(fx) => fx,
            None => hooked::Fixture::new()?,
        };
        metrics.extend(ledger::run(&fixture)?);
        metrics.extend(ledger::wait_ns(&metrics));
    }
    Ok((out, metrics))
}

fn write_outputs(cfg: &Cfg, record: &report::Record<'_>, spans: &[Span]) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, record.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    if cfg.trace {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&path, trace::to_jsonl(spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("c3perf: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let (out, metrics) = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("c3perf: {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let host = report::Host::probe(&cfg.repo);
    let record = report::Record {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        config: out.config.clone(),
        host: &host,
        wall_s: started.elapsed().as_secs_f64(),
        tally: out.tally,
        metrics: &metrics,
    };
    if let Err(e) = write_outputs(&cfg, &record, &out.spans) {
        eprintln!("c3perf: writing the run record: {e}");
        return ExitCode::FAILURE;
    }
    let title = format!(
        "c3perf {} seed {} ({} s, trace {}, nproc {})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host.nproc
    );
    println!("{}", report::table(&title, &metrics));
    let keys = if cfg.trace { LAYER_KEYS } else { E2E_KEYS };
    match report::result_line(&out.tally, &metrics, keys) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("c3perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cfg = parse_args(&args("--workload explore --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(cfg.workload, Workload::Explore);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 3, true));
        for bad in [
            "--workload nope",
            "--workload explore --trace 2",
            "--workload explore --seconds 0",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in [
            Workload::HookedLock,
            Workload::ControlPlane,
            Workload::SimFigures,
            Workload::Explore,
        ] {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
