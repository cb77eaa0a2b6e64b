//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as its median and as the highest percentile
//! of a fixed ladder that still has at least ten samples beyond it, with
//! the sample count. Tail percentiles use the nearest-rank definition, so
//! each is one of the measured samples.

use std::time::{Duration, Instant};

/// Percentile levels a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [0.9, 0.95, 0.99, 0.999, 0.9999];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of level `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest ladder level with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when the sample is too small for any tail.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of an unsorted sample (the mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time per call of a short set-up step, over batches of calls spread
/// across a run. One sub-millisecond call jitters by up to 2x; so does a
/// batch, because the host switches between two speeds for stretches of
/// 0.1 to 1 s. A median over batches jumps between those two speeds; the
/// total time over the total calls moves only with the share of the run
/// spent at each.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerCall {
    secs: f64,
    calls: u64,
}

impl PerCall {
    /// Calls `f` repeatedly for at least `min_batch` (at least once).
    pub fn batch(&mut self, min_batch: Duration, mut f: impl FnMut()) {
        let t = Instant::now();
        loop {
            f();
            self.calls += 1;
            if t.elapsed() >= min_batch {
                break;
            }
        }
        self.secs += t.elapsed().as_secs_f64();
    }

    /// Seconds per call over every batch.
    pub fn seconds(&self) -> f64 {
        self.secs / self.calls as f64
    }
}

/// A timing summary: sample count, median and the supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples behind the summary.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest supported tail level and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises an unsorted, non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: median(&v),
            tail: tail_level(v.len()).map(|q| (q, percentile(&v, q))),
        }
    }

    /// One-line rendering: `p50 1.234 ms, p99 5.678 ms, n=6000`.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(", {} {v:.4} {unit}", level_name(q)),
            None => ", no tail (fewer than 10 samples beyond p90)".to_string(),
        };
        format!("p50 {:.4} {unit}{tail}, n={}", self.p50, self.n)
    }
}

/// `0.99` → `p99`, `0.999` → `p99.9`.
pub fn level_name(q: f64) -> String {
    let pct = format!("{:.2}", q * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(999), Some(0.95));
        assert_eq!(tail_level(6000), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(5), None);
    }

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let s = Summary::of(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, Some((0.9, 90.0)));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_call_time_is_total_time_over_total_calls() {
        let (t, mut calls) = (Instant::now(), 0);
        let mut setup = PerCall::default();
        for _ in 0..3 {
            setup.batch(Duration::from_millis(2), || {
                std::thread::sleep(Duration::from_micros(200));
                calls += 1;
            });
        }
        assert!(
            t.elapsed() >= Duration::from_millis(6),
            "each batch lasts 2 ms"
        );
        assert!(calls >= 3 * 2, "several calls per batch: {calls}");
        let s = setup.seconds();
        assert!((200e-6..2e-3).contains(&s), "{s} s per call");
        // A zero-length batch still makes one call.
        let mut one = PerCall::default();
        let mut n = 0;
        one.batch(Duration::ZERO, || n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn level_names() {
        assert_eq!(level_name(0.99), "p99");
        assert_eq!(level_name(0.999), "p99.9");
        assert_eq!(level_name(0.9), "p90");
        assert_eq!(level_name(0.95), "p95");
    }
}
