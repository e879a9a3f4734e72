//! Seeded inputs, percentiles, process facts and the per-run report every
//! workload fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// splitmix64: a small, seedable generator, so the same `--seed` always
/// yields the same inputs on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5348_494c_4245_4e43)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident set size of this process so far, MB (`VmHWM`, which
/// `/proc` reports in KiB).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a repository.
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// When a measured pass stops taking new operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant (the untimed remainder of an operation in flight
    /// still completes).
    At(Instant),
    /// After this many operations.
    Count(usize),
}

impl Stop {
    pub fn after(d: Duration) -> Stop {
        Stop::At(Instant::now() + d)
    }

    /// Whether operation number `done` (0-based) may start.
    pub fn allows(&self, done: usize) -> bool {
        match *self {
            Stop::At(t) => Instant::now() < t,
            Stop::Count(n) => done < n,
        }
    }
}

/// What one measured pass over the inputs produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Latency of each operation that succeeded, in start order.
    pub latencies: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub wall_s: f64,
    /// Completion rate (successful operations per second) of each window
    /// of the pass: a whole cycle of inputs, or a fixed slice of time.
    pub rates: Vec<f64>,
}

impl Pass {
    /// Operations completed per second: the median over the pass's
    /// windows, so a slow stretch of a shared machine moves it less than
    /// the overall mean.
    pub fn throughput(&self) -> f64 {
        if self.rates.is_empty() {
            (self.attempted - self.failed) as f64 / self.wall_s.max(f64::MIN_POSITIVE)
        } else {
            median(&self.rates)
        }
    }
}

/// Per-cycle completion rates of a pass whose inputs come in cycles.
#[derive(Debug)]
pub struct CycleClock {
    len: usize,
    start: Instant,
    /// Index of the operation that opened the current cycle.
    opened_at: usize,
    done_at_start: usize,
}

impl CycleClock {
    pub fn new(len: usize) -> Self {
        CycleClock {
            len,
            start: Instant::now(),
            opened_at: 0,
            done_at_start: 0,
        }
    }

    /// Called before operation `i` and once after the last: closes the
    /// cycle that just ended into `pass.rates`.
    pub fn tick(&mut self, i: usize, pass: &mut Pass) {
        if i == self.opened_at || !i.is_multiple_of(self.len) {
            return;
        }
        let now = Instant::now();
        let done = pass.latencies.len();
        let dt = (now - self.start).as_secs_f64();
        pass.rates.push((done - self.done_at_start) as f64 / dt);
        self.start = now;
        self.opened_at = i;
        self.done_at_start = done;
    }
}

/// Completion rates over consecutive windows of `width` seconds that end
/// within `wall`, from each operation's completion time.
pub fn window_rates(done_at: &[f64], width: f64, wall: f64) -> Vec<f64> {
    let windows = (wall / width).floor() as usize;
    let mut counts = vec![0usize; windows];
    for &t in done_at {
        let w = (t / width) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

/// One correctness oracle's outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything a workload reports; `main` turns it into the output lines.
#[derive(Debug, Default)]
pub struct Report {
    /// One sample per repeated set-up.
    pub setup_s: Vec<f64>,
    /// The untraced measured pass.
    pub pass: Pass,
    /// Peak RSS right after the measured pass, before the oracles run.
    pub peak_rss_mb: f64,
    pub checks: Vec<Check>,
    /// Reported end-to-end facts that are not timings (e.g. oracle
    /// deviations), with units.
    pub facts: Vec<(&'static str, f64, &'static str)>,
    /// Pinned thread counts.
    pub threads: Vec<(&'static str, usize)>,
    /// Per-layer metrics (traced runs only).
    pub layer: BTreeMap<String, f64>,
    /// The traced pass's spans, written out at the end of the run.
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        let mut p = Pass {
            attempted: 10,
            wall_s: 5.0,
            ..Pass::default()
        };
        assert_eq!(p.throughput(), 2.0);
        p.rates = vec![3.0, 1.0, 2.5];
        assert_eq!(p.throughput(), 2.5);
        let mut clock = CycleClock::new(2);
        let mut q = Pass::default();
        for i in 0..4 {
            clock.tick(i, &mut q);
            q.latencies.push(0.0);
        }
        clock.tick(4, &mut q);
        clock.tick(4, &mut q);
        assert_eq!(q.rates.len(), 2);
        assert!(q.rates.iter().all(|r| *r > 0.0));
        let r = window_rates(&[0.1, 0.2, 1.5, 2.2, 2.9, 3.5], 1.0, 3.7);
        assert_eq!(r, vec![2.0, 1.0, 2.0]);
    }

    #[test]
    fn rng_is_seeded_and_shuffles_permutations() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        let mut v: Vec<usize> = (0..10).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
