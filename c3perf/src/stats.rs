//! The benchmark's own statistics: percentiles with a sample-count rule,
//! quartile spread, the hook-path layer arithmetic and failure accounting.

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the estimate rests on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of already sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (q * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The highest of `candidates` (ascending percentiles) that keeps at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the lowest does not.
pub fn tail_quantile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| n > 0 && samples_beyond(n, q) >= MIN_BEYOND)
        .fold(None, |_, q| Some(q))
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let data = sorted(values);
    let ld = data.len();
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is compared against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

/// One layer of a composed path: its isolated cost and how many times the
/// path calls it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerCost {
    /// Isolated cost of one call, ns.
    pub ns: f64,
    /// Calls per composed operation.
    pub calls: f64,
}

/// Sum of each layer's isolated cost times its calls per operation.
pub fn layer_sum(layers: &[LayerCost]) -> f64 {
    layers.iter().map(|l| l.ns * l.calls).sum()
}

/// What the composed operation costs beyond its measured layers.
pub fn residual(composed_ns: f64, layers: &[LayerCost]) -> f64 {
    composed_ns - layer_sum(layers)
}

/// Attempted and failed output checks of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one check; returns `ok` so callers can branch on it.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts `attempted` checks of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        debug_assert!(failed <= attempted, "more failures than attempts");
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(19, 0.5), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let c = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(tail_quantile(19, &c), None);
        assert_eq!(tail_quantile(20, &c), Some(0.5));
        assert_eq!(tail_quantile(99, &c), Some(0.5));
        assert_eq!(tail_quantile(100, &c), Some(0.9));
        assert_eq!(tail_quantile(999, &c), Some(0.9));
        assert_eq!(tail_quantile(1000, &c), Some(0.99));
        assert_eq!(tail_quantile(10_000, &c), Some(0.999));
        assert_eq!(tail_quantile(1_000_000, &[0.5, 0.9]), Some(0.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        let flat = [100.0; 10];
        assert_eq!(quartile_spread(&flat), 0.0);
        let tight = [
            99.0, 100.0, 101.0, 100.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
        ];
        assert!(quartile_spread(&tight) < 0.01);
    }

    #[test]
    fn layer_sum_and_residual() {
        let layers = [
            LayerCost {
                ns: 20.0,
                calls: 1.0,
            },
            LayerCost {
                ns: 10.0,
                calls: 3.0,
            },
            LayerCost {
                ns: 2.5,
                calls: 6.0,
            },
        ];
        assert_eq!(layer_sum(&layers), 65.0);
        assert_eq!(residual(80.0, &layers), 15.0);
        assert_eq!(residual(60.0, &layers), -5.0);
        assert_eq!(layer_sum(&[]), 0.0);
    }

    #[test]
    fn failed_frac_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(t.check(true));
        assert!(!t.check(false));
        t.add(8, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert_eq!(t.failed_frac(), 0.2);
        t.check(true);
        assert_eq!((t.attempted, t.failed), (11, 2));
    }
}
