//! `sim_figures`: one worker runs every series of Fig. 2(a), 2(b) and
//! 2(c) at threads {1, 8, 20, 40, 80} under the figures' seeds
//! {42, 43, 44}, through `c3_bench::workloads`, with the window pinned at
//! 3 virtual ms.
//!
//! Every virtual cell must equal the committed `results/fig2*.csv` cell.
//! Under the run's own seed, one repeated point must reproduce its value
//! bit for bit.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use c3_bench::workloads::{
    run_hashtable, run_lock2, run_page_fault2, HtSeries, RwSeries, SpinSeries,
};

use crate::alloc;
use crate::report::Metric;
use crate::stats::Tally;
use crate::trace::{self, Span, SpanBuf};
use crate::util::{Rng, SetupTimer};
use crate::{Cfg, Outcome};

/// Thread counts of the point set.
pub const THREADS: [u32; 5] = [1, 8, 20, 40, 80];
/// The figures' seeds, averaged per cell as the figure binaries do.
pub const FIG_SEEDS: [u64; 3] = [42, 43, 44];
/// Virtual window per point, ns.
pub const WINDOW_NS: u64 = 3_000_000;
/// A timed block of set-ups falls due this many times per phase (see
/// [`SetupTimer`]), between points.
const SETUP_BLOCKS: usize = 20;
/// Set-ups back to back in one timed block (about 0.1 s).
const SETUP_PER_BLOCK: usize = 4;
/// The warm-up point set-up runs: a Concord point, which loads and
/// verifies the NUMA policy and fills the simulator's caches.
const WARMUP: Point = Point {
    fig: Fig::B,
    threads: 8,
    series: 2,
    seed: FIG_SEEDS[0],
};

/// One figure of the point set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig {
    /// Fig. 2(a), `page_fault2`.
    A,
    /// Fig. 2(b), `lock2`.
    B,
    /// Fig. 2(c), the hash table.
    C,
}

impl Fig {
    const ALL: [Fig; 3] = [Fig::A, Fig::B, Fig::C];

    fn csv(self) -> &'static str {
        match self {
            Fig::A => "fig2a_page_fault2.csv",
            Fig::B => "fig2b_lock2.csv",
            Fig::C => "fig2c_hashtable.csv",
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Fig::A => "fig2a",
            Fig::B => "fig2b",
            Fig::C => "fig2c",
        }
    }

    /// The simulated series (Fig. 2(c)'s third column is derived).
    fn series(self) -> usize {
        match self {
            Fig::A | Fig::B => 3,
            Fig::C => 2,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Fig::A => "c3_bench::workloads::run_page_fault2",
            Fig::B => "c3_bench::workloads::run_lock2",
            Fig::C => "c3_bench::workloads::run_hashtable",
        }
    }

    /// Runs one point: figure `self`, `threads`, series index `s`, `seed`.
    pub fn run(self, threads: u32, s: usize, seed: u64) -> f64 {
        match self {
            Fig::A => {
                let series = [RwSeries::Stock, RwSeries::Bravo, RwSeries::ConcordBravo];
                run_page_fault2(threads, series[s], WINDOW_NS, seed)
            }
            Fig::B => {
                let series = [
                    SpinSeries::StockMcs,
                    SpinSeries::ShflNuma,
                    SpinSeries::ConcordShflNuma,
                ];
                run_lock2(threads, series[s], WINDOW_NS, seed)
            }
            Fig::C => {
                let series = [HtSeries::Baseline, HtSeries::ConcordNoop];
                run_hashtable(threads, series[s], WINDOW_NS, seed)
            }
        }
    }
}

/// One simulation of the point set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point {
    fig: Fig,
    threads: u32,
    series: usize,
    seed: u64,
}

/// Every point, in the figure binaries' sweep order.
pub fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for fig in Fig::ALL {
        for threads in THREADS {
            for series in 0..fig.series() {
                for seed in FIG_SEEDS {
                    out.push(Point {
                        fig,
                        threads,
                        series,
                        seed,
                    });
                }
            }
        }
    }
    out
}

/// The committed cells: figure → threads → the row's formatted cells.
pub type Committed = BTreeMap<&'static str, BTreeMap<u32, Vec<String>>>;

/// Parses `results/fig2*.csv` under `repo`.
///
/// # Errors
///
/// A missing or malformed file, as text.
pub fn load_committed(repo: &Path) -> Result<Committed, String> {
    let mut out = Committed::new();
    for fig in Fig::ALL {
        let path = repo.join("results").join(fig.csv());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut rows = BTreeMap::new();
        for line in text.lines().skip(1).filter(|l| !l.is_empty()) {
            let mut cells = line.split(',');
            let threads: u32 = cells
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("{}: bad row {line:?}", path.display()))?;
            rows.insert(threads, cells.map(str::to_string).collect());
        }
        out.insert(fig.tag(), rows);
    }
    Ok(out)
}

/// Averages the point values (in [`points`] order) into each figure's
/// rows, summing seeds in order exactly as the figure sweep does, and
/// formats them as the CSVs do.
pub fn cells(values: &[f64]) -> Vec<(Fig, u32, Vec<f64>)> {
    let mut it = values.iter().copied();
    let mut rows = Vec::new();
    for fig in Fig::ALL {
        for threads in THREADS {
            let mut row: Vec<f64> = (0..fig.series())
                .map(|_| {
                    FIG_SEEDS
                        .iter()
                        .map(|_| it.next().expect("one value per point"))
                        .sum::<f64>()
                        / FIG_SEEDS.len() as f64
                })
                .collect();
            if fig == Fig::C {
                row.push(row[1] / row[0]);
            }
            rows.push((fig, threads, row));
        }
    }
    rows
}

/// Compares every computed cell with the committed one; returns the
/// number of cells compared and of mismatches.
pub fn compare(rows: &[(Fig, u32, Vec<f64>)], committed: &Committed) -> (u64, u64) {
    let (mut n, mut bad) = (0, 0);
    for (fig, threads, row) in rows {
        let want = committed.get(fig.tag()).and_then(|r| r.get(threads));
        for (i, v) in row.iter().enumerate() {
            n += 1;
            let got = format!("{v:.4}");
            if want.and_then(|w| w.get(i)) != Some(&got) {
                bad += 1;
                eprintln!(
                    "sim_figures: {} threads={threads} column {i}: got {got}, committed {:?}",
                    fig.tag(),
                    want.and_then(|w| w.get(i))
                );
            }
        }
    }
    (n, bad)
}

/// One point, with a panic (a stuck simulation) reported as `None`.
fn run_point(p: &Point) -> Option<f64> {
    panic::catch_unwind(AssertUnwindSafe(|| p.fig.run(p.threads, p.series, p.seed))).ok()
}

struct Phase {
    pass_s: Vec<f64>,
    points: u64,
    wall_s: f64,
    spans: Vec<Span>,
    allocs: u64,
    fig_ns: BTreeMap<&'static str, u64>,
    last: Vec<(Fig, u32, Vec<f64>)>,
}

/// Runs passes until `seconds` of them are measured. Set-up blocks due
/// between points are timed and their time left out.
fn run_phase(
    pts: &[Point],
    committed: &Committed,
    seconds: f64,
    trace: Option<Instant>,
    timer: &mut SetupTimer<'_>,
    tally: &mut Tally,
) -> Phase {
    let mut buf = trace.map(|epoch| SpanBuf::new(epoch, 1, 64 * pts.len()));
    let mut phase = Phase {
        pass_s: Vec::new(),
        points: 0,
        wall_s: 0.0,
        spans: Vec::new(),
        allocs: 0,
        fig_ns: BTreeMap::new(),
        last: Vec::new(),
    };
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut pass = 0u64;
    timer.rearm();
    while pass == 0 || (start.elapsed() - paused).as_secs_f64() < seconds {
        let t0 = Instant::now();
        let paused0 = paused;
        let mut values = Vec::with_capacity(pts.len());
        let root = buf
            .as_mut()
            .map_or(0, |b| b.enter("sim_figures::pass", 0, pass));
        for (i, p) in pts.iter().enumerate() {
            let op = (pass << 32) | i as u64;
            let ((v, a, _), ns) = {
                let tp = Instant::now();
                let r = match buf.as_mut() {
                    Some(b) => b.span(p.fig.span_name(), root, op, || {
                        alloc::counted(|| run_point(p))
                    }),
                    None => alloc::counted(|| run_point(p)),
                };
                (r, tp.elapsed().as_nanos() as u64)
            };
            *phase.fig_ns.entry(p.fig.tag()).or_default() += ns;
            phase.allocs += a;
            if !tally.check(v.is_some()) {
                eprintln!("sim_figures: point {p:?} did not finish");
            }
            values.push(v.unwrap_or(f64::NAN));
            let at_s = (start.elapsed() - paused).as_secs_f64();
            if timer.due(at_s) {
                let spent = match buf.as_mut() {
                    Some(b) => b.span("sim_figures::setup_block", root, op, || timer.tick(at_s)),
                    None => timer.tick(at_s),
                };
                match spent {
                    Ok(d) => paused += d,
                    Err(e) => {
                        tally.check(false);
                        eprintln!("sim_figures: set-up failed: {e}");
                    }
                }
            }
        }
        if let Some(b) = buf.as_mut() {
            b.exit(root);
        }
        phase
            .pass_s
            .push((t0.elapsed() - (paused - paused0)).as_secs_f64());
        phase.points += pts.len() as u64;
        let rows = cells(&values);
        let (n, bad) = compare(&rows, committed);
        tally.add(n, bad);
        phase.last = rows;
        pass += 1;
    }
    phase.wall_s = (start.elapsed() - paused).as_secs_f64();
    phase.spans = buf.map(SpanBuf::into_spans).unwrap_or_default();
    phase
}

fn e2e(p: &Phase) -> Vec<Metric> {
    let wall = Metric::median_of("sim_wall_s", "s", &p.pass_s);
    let per_s = p.points as f64 / p.wall_s;
    vec![
        Metric::one("sim_points_per_s", "1/s", per_s, p.points),
        Metric::one("rate_per_s", "1/s", per_s, p.points),
        Metric::one("latency_us_p50", "us", wall.value * 1e6, wall.n),
        wall,
    ]
}

/// Under the run's own seed (never a figure seed), runs one seeded point
/// twice; the two values must agree bit for bit.
fn repeat_check(seed: u64, tally: &mut Tally) {
    let mut rng = Rng::new(seed, 0x51);
    let fig = Fig::ALL[rng.below(3) as usize];
    let threads = [8, 20][rng.below(2) as usize];
    let series = rng.below(fig.series() as u64) as usize;
    let sim_seed = 1_000 + rng.below(1 << 20);
    let p = Point {
        fig,
        threads,
        series,
        seed: sim_seed,
    };
    let a = run_point(&p);
    let b = run_point(&p);
    let same = matches!((a, b), (Some(x), Some(y)) if x.to_bits() == y.to_bits());
    if !tally.check(same) {
        eprintln!("sim_figures: repeated point {p:?} diverged: {a:?} vs {b:?}");
    }
}

/// Set-up: read the committed figures, run the warm-up point and build
/// the point set.
fn set_up(repo: &Path) -> Result<(Committed, Vec<Point>), String> {
    let committed = load_committed(repo)?;
    run_point(&WARMUP).ok_or("the warm-up point did not finish")?;
    Ok((committed, points()))
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let secs = cfg.seconds as f64;
    let every_s = if cfg.trace { secs / 2.0 } else { secs } / SETUP_BLOCKS as f64;
    let (mut timer, (committed, pts)) =
        SetupTimer::start(SETUP_PER_BLOCK, every_s, || set_up(&cfg.repo))?;
    let mut tally = Tally::default();
    let mut out = Outcome {
        config: vec![
            ("threads", format!("{THREADS:?}")),
            ("figure_seeds", format!("{FIG_SEEDS:?}")),
            ("window_ns", WINDOW_NS.to_string()),
            ("points_per_pass", pts.len().to_string()),
            ("workers", "1".to_string()),
        ],
        ..Outcome::default()
    };
    if !cfg.trace {
        let p = run_phase(&pts, &committed, secs, None, &mut timer, &mut tally);
        out.e2e.extend(e2e(&p));
    } else {
        let plain = run_phase(&pts, &committed, secs / 2.0, None, &mut timer, &mut tally);
        alloc::arm(true);
        let traced = run_phase(
            &pts,
            &committed,
            secs / 2.0,
            Some(Instant::now()),
            &mut timer,
            &mut tally,
        );
        alloc::arm(false);
        out.e2e.extend(e2e(&plain));
        out.traced_e2e = Some(e2e(&traced));
        out.layer.extend(layer_metrics(&traced));
        out.spans = traced.spans;
    }
    repeat_check(cfg.seed, &mut tally);
    out.e2e
        .push(Metric::median_of("setup_s", "s", timer.times()));
    out.tally = tally;
    Ok(out)
}

fn layer_metrics(p: &Phase) -> Vec<Metric> {
    let passes = p.pass_s.len().max(1) as f64;
    let by = trace::by_name(&p.spans);
    let mut out = Vec::new();
    for fig in Fig::ALL {
        let s = by.get(fig.span_name()).copied().unwrap_or_default();
        out.push(Metric::one(
            &format!("{}.host_ms_per_pass", fig.tag()),
            "ms",
            p.fig_ns.get(fig.tag()).copied().unwrap_or(0) as f64 / 1e6 / passes,
            p.pass_s.len() as u64,
        ));
        out.push(Metric::one(
            &format!("{}.host_ms_per_point", fig.tag()),
            "ms",
            s.mean_ns() / 1e6,
            s.count,
        ));
    }
    out.push(Metric::one(
        "alloc.per_op",
        "count",
        p.allocs as f64 / p.points.max(1) as f64,
        p.points,
    ));
    // The virtual model outputs: spec, checked above, recorded here.
    for (fig, threads, row) in &p.last {
        for (i, v) in row.iter().enumerate() {
            let unit = if *fig == Fig::C && i == 2 {
                "ratio"
            } else {
                "ops/ms"
            };
            out.push(Metric::one(
                &format!("{}.t{threads}.c{i}", fig.tag()),
                unit,
                *v,
                1,
            ));
        }
    }
    if let Some((_, _, row)) = p.last.iter().find(|(f, t, _)| *f == Fig::C && *t == 8) {
        out.push(Metric::one("fig2c.norm_t8", "ratio", row[2], 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_set_matches_the_figures() {
        let pts = points();
        assert_eq!(pts.len(), 5 * 3 * 3 + 5 * 3 * 3 + 5 * 2 * 3);
        assert_eq!(
            pts[0],
            Point {
                fig: Fig::A,
                threads: 1,
                series: 0,
                seed: 42
            }
        );
        assert_eq!(pts[3].series, 1);
    }

    #[test]
    fn cells_average_seeds_and_derive_the_ratio() {
        let values: Vec<f64> = points()
            .iter()
            .map(|p| f64::from(p.threads) * 10.0 + p.series as f64 + (p.seed - 42) as f64)
            .collect();
        let rows = cells(&values);
        assert_eq!(rows.len(), 15);
        let (fig, threads, row) = &rows[11];
        assert_eq!((*fig, *threads), (Fig::C, 8));
        assert_eq!(row, &vec![81.0, 82.0, 82.0 / 81.0]);
    }

    #[test]
    fn committed_cells_compare_by_their_csv_text() {
        let mut committed = Committed::new();
        committed.insert("fig2a", BTreeMap::from([(1, vec!["2.0000".to_string()])]));
        let rows = vec![(Fig::A, 1, vec![2.0]), (Fig::A, 8, vec![1.0])];
        assert_eq!(compare(&rows, &committed), (2, 1));
    }
}
