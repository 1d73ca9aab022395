//! Metrics, the printed table, the result line and the run record.

use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{self, Tally};

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `acq_ns_p50` or `locks.acq_rel_ns`.
    pub name: String,
    /// Unit, e.g. `ns`, `1/s`, `count`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value.
    pub n: u64,
    /// Quartile spread of the samples as a share of their median, when
    /// the value summarises at least four samples.
    pub spread: Option<f64>,
}

impl Metric {
    /// A single measured value or exact count.
    pub fn one(name: &str, unit: &'static str, value: f64, n: u64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n,
            spread: None,
        }
    }

    /// The median of `samples` with their spread.
    pub fn median_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: stats::median(samples),
            n: samples.len() as u64,
            spread: spread_of(samples),
        }
    }

    /// The minimum of `samples` (the noise-aware estimator for isolated
    /// micro-timings) with their spread.
    pub fn min_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            n: samples.len() as u64,
            spread: spread_of(samples),
        }
    }
}

fn spread_of(samples: &[f64]) -> Option<f64> {
    (samples.len() >= 4).then(|| stats::quartile_spread(samples))
}

/// Looks a metric up by name.
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// Renders a number as JSON (non-finite values become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A human-readable table of `metrics`.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "  {:<32} {:>16} {:<10} {:>9} {:>8}",
        "metric", "value", "unit", "samples", "spread"
    );
    for m in metrics {
        let spread = m
            .spread
            .map(|s| format!("{:.1}%", s * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "  {:<32} {:>16} {:<10} {:>9} {:>8}",
            m.name,
            format_value(m.value),
            m.unit,
            m.n,
            spread
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The result line: `keys` picked from `metrics`, in order.
///
/// # Errors
///
/// Names the first key `metrics` lacks.
pub fn result_line(tally: &Tally, metrics: &[Metric], keys: &[&str]) -> Result<String, String> {
    let mut body = Vec::with_capacity(keys.len());
    for k in keys {
        let m = find(metrics, k).ok_or_else(|| format!("metric {k} was not measured"))?;
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            jstr(k),
            num(m.value),
            jstr(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    ))
}

/// What a run record says about the host and the build.
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// The commit, read from `.git` when the checkout has one.
    pub git_head: String,
}

impl Host {
    /// Reads the host description; `repo` is the repository root.
    pub fn probe(repo: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("C3PERF_RUSTC"),
            git_head: git_head(&repo.join(".git")),
        }
    }
}

/// The commit `HEAD` names, following one symbolic ref through loose and
/// packed refs; `"unknown"` when there is no readable `.git`.
pub fn git_head(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .filter_map(|l| l.split_once(' '))
                .find(|(_, name)| *name == r)
                .map(|(id, _)| id.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything one run leaves behind in its record.
pub struct Record<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: u64,
    /// Traced run or not.
    pub trace: bool,
    /// Workload configuration, as `(key, value)` pairs.
    pub config: Vec<(&'static str, String)>,
    /// Host and build.
    pub host: &'a Host,
    /// Wall-clock of the whole run, s.
    pub wall_s: f64,
    /// Output checks.
    pub tally: Tally,
    /// Every metric the run measured.
    pub metrics: &'a [Metric],
}

impl Record<'_> {
    /// Renders the record as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"c3perf-run/1\",");
        let _ = writeln!(out, "  \"workload\": {},", jstr(self.workload));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(out, "  \"trace\": {},", self.trace);
        let cfg: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
            .collect();
        let _ = writeln!(out, "  \"config\": {{{}}},", cfg.join(", "));
        let _ = writeln!(out, "  \"nproc\": {},", self.host.nproc);
        let _ = writeln!(out, "  \"cpu_model\": {},", jstr(&self.host.cpu_model));
        let _ = writeln!(out, "  \"rustc\": {},", jstr(self.host.rustc));
        let _ = writeln!(out, "  \"git_head\": {},", jstr(&self.host.git_head));
        let _ = writeln!(out, "  \"wall_s\": {},", num(self.wall_s));
        let _ = writeln!(out, "  \"attempted\": {},", self.tally.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.tally.failed);
        let _ = writeln!(out, "  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"n\": {}, \"spread\": {}}}{}",
                jstr(&m.name),
                num(m.value),
                jstr(m.unit),
                m.n,
                m.spread.map_or_else(|| "null".to_string(), num),
                if i + 1 == self.metrics.len() { "" } else { "," }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_requested_keys() {
        let metrics = vec![
            Metric::one("a", "ms", 1.25, 3),
            Metric::one("b", "count", 4.0, 1),
            Metric::one("c", "s", 0.5, 1),
        ];
        let t = Tally {
            attempted: 10,
            failed: 0,
        };
        let line = result_line(&t, &metrics, &["c", "a"]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"c\": {\"value\": 0.5, \"unit\": \"s\"}, \"a\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(&t, &metrics, &["zz"]).is_err());
        let bad = Tally {
            attempted: 4,
            failed: 1,
        };
        assert!(result_line(&bad, &metrics, &["a"])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(2.5), "2.5");
    }

    #[test]
    fn git_head_without_a_repository_is_unknown() {
        assert_eq!(git_head(Path::new("/nonexistent/.git")), "unknown");
    }
}
