//! Small helpers shared by the workloads.

use std::time::{Duration, Instant};

/// SplitMix64: the workloads' seeded input generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with `stream`, so threads and phases
    /// of one run draw independent inputs from one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seconds as a `Duration`.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Times a workload's set-up in blocks of back-to-back set-ups, spread
/// over the measured seconds. `setup_s` is the median block's time per
/// set-up. A block lasts 0.05–0.1 s, long enough that a scheduler tick or
/// a page-fault burst is a small share of it; spreading the blocks over
/// the run makes `setup_s` sample the host over the same span as the
/// workload's own metrics, where one burst at the start would be slowed
/// down as a whole by whatever the host ran at that moment.
pub struct SetupTimer<'a> {
    setup: Box<dyn FnMut() -> Result<(), String> + 'a>,
    per_block: usize,
    every_s: f64,
    next_s: f64,
    times: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    /// Times the first block of `per_block` calls of `build` and returns
    /// the timer with the last call's result. Later blocks fall due every
    /// `every_s` measured seconds.
    ///
    /// # Errors
    ///
    /// The first failing set-up's error.
    pub fn start<T>(
        per_block: usize,
        every_s: f64,
        mut build: impl FnMut() -> Result<T, String> + 'a,
    ) -> Result<(SetupTimer<'a>, T), String> {
        assert!(per_block > 0, "at least one set-up per block");
        let t = Instant::now();
        let mut last = None;
        for _ in 0..per_block {
            // Drop the previous result first, so set-ups do not stack up
            // memory.
            drop(last.take());
            last = Some(build()?);
        }
        let first = t.elapsed().as_secs_f64() / per_block as f64;
        let timer = SetupTimer {
            setup: Box::new(move || build().map(drop)),
            per_block,
            every_s,
            next_s: every_s,
            times: vec![first],
        };
        Ok((timer, last.expect("at least one set-up")))
    }

    /// Times one block now.
    ///
    /// # Errors
    ///
    /// The first failing set-up's error.
    pub fn block(&mut self) -> Result<(), String> {
        let t = Instant::now();
        for _ in 0..self.per_block {
            (self.setup)()?;
        }
        self.times
            .push(t.elapsed().as_secs_f64() / self.per_block as f64);
        Ok(())
    }

    /// Times a block if one is due `at_s` measured seconds into a phase,
    /// and returns the wall time spent, which the caller leaves out of
    /// its measured time.
    ///
    /// # Errors
    ///
    /// The first failing set-up's error.
    pub fn tick(&mut self, at_s: f64) -> Result<Duration, String> {
        if !self.due(at_s) {
            return Ok(Duration::ZERO);
        }
        self.next_s = at_s + self.every_s;
        let t = Instant::now();
        self.block()?;
        Ok(t.elapsed())
    }

    /// Whether a block is due `at_s` measured seconds into a phase.
    pub fn due(&self, at_s: f64) -> bool {
        at_s >= self.next_s
    }

    /// Starts the spacing again for a phase whose measured time starts
    /// at zero.
    pub fn rearm(&mut self) {
        self.next_s = self.every_s;
    }

    /// Per-set-up seconds of every block so far.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// Nanoseconds per call of `f`, one sample per round: each round times
/// `iters` calls back to back.
pub fn ns_per_call(rounds: usize, iters: u64, mut f: impl FnMut()) -> Vec<f64> {
    // One untimed round warms caches and lazy state.
    for _ in 0..iters {
        f();
    }
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`), 0 if unreadable.
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut c = Rng::new(7, 2);
        assert_eq!(a, b);
        assert_ne!(a[0], c.next_u64());
        assert!(Rng::new(1, 0).below(10) < 10);
    }

    #[test]
    fn setup_timer_blocks_when_due() {
        let mut n = 0;
        let (mut timer, last) = SetupTimer::start(4, 1.0, || {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!(last, 4);
        assert_eq!(timer.tick(0.5).unwrap(), Duration::ZERO);
        timer.tick(1.2).unwrap();
        assert_eq!(
            timer.tick(2.0).unwrap(),
            Duration::ZERO,
            "next is due at 2.2"
        );
        timer.tick(2.2).unwrap();
        timer.rearm();
        timer.tick(1.0).unwrap();
        timer.block().unwrap();
        assert_eq!(timer.times().len(), 5);
        drop(timer);
        assert_eq!(n, 20);
    }
}
