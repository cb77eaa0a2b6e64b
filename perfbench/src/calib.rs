//! Reference speed: a fixed kernel of the benchmark's own, timed in short
//! slices between the workload's calls, that tells how fast the host ran
//! while the workload was measured.
//!
//! The box this benchmark runs on is a share of a host. Its speed drifts
//! by up to 1.6x over seconds to minutes as the host's other tenants come
//! and go, and wall times drift with it. The gated timings are therefore
//! reported at the reference speed: each is scaled by the ratio of
//! [`REF_SLICE_S`] to the run's slice time (its trimmed mean for totals,
//! its median for medians). The kernel is compiled into this package and
//! calls nothing in the program, so a change to the program moves the
//! scaled figures exactly as it moves the wall times, while a change in
//! host speed moves the slices and the workload alike and largely cancels.
//! The wall figures and the slowdowns are reported beside the scaled ones.

use std::hint::black_box;
use std::time::Instant;

use crate::report::{Metric, Outcome};
use crate::stats::median;

/// A slice's wall at the reference speed: about the median slice on the
/// 2-core AVX-512 box (2.1 GHz Xeon) the benchmark was written on, in a
/// quiet stretch. It only sets the scale of the reported figures.
pub const REF_SLICE_S: f64 = 1.0e-3;

/// Entries in the gather table (256 KiB of `u32`): beyond L1, as the
/// hash-grid levels are, yet small beside the workloads' own memory, so
/// it adds little to their peak resident memory.
const TABLE_LEN: usize = 1 << 16;

/// Lanes of the vector part, small enough to stay in L1.
const LANES: usize = 2048;

/// Times the reference kernel in slices and keeps every slice's wall.
pub struct RefClock {
    width: usize,
    table: Vec<u32>,
    lanes: Vec<f32>,
    slices: Vec<f64>,
}

impl Default for RefClock {
    fn default() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        let mut clock = RefClock {
            width: fnr_par::current_num_threads(),
            table,
            lanes: vec![1.0; LANES],
            slices: Vec::new(),
        };
        // Warm the caches and the page tables before the first kept slice.
        clock.slice();
        clock
    }
}

impl RefClock {
    /// Runs one slice of fixed work on each of the pool's threads at
    /// once, as the program's parallel sections run, and returns its wall
    /// in seconds: until the slowest thread is done, as a section's join
    /// waits for its slowest part.
    fn slice(&mut self) -> f64 {
        let (table, lanes) = (&self.table, &mut self.lanes);
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..self.width {
                scope.spawn(|| kernel(table, &mut vec![1.0; LANES]));
            }
            kernel(table, lanes);
        });
        t.elapsed().as_secs_f64()
    }

    /// Runs and keeps `n` slices.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let s = self.slice();
            self.slices.push(s);
        }
    }

    /// Slices kept so far.
    pub fn samples(&self) -> usize {
        self.slices.len()
    }

    /// Seconds spent in kept slices so far, to be left out of any wall
    /// that spans them.
    pub fn spent(&self) -> f64 {
        self.slices.iter().sum()
    }

    /// How much slower than the reference the host ran, on average over
    /// the run: the mean slice wall, without the fastest and slowest
    /// tenth, over [`REF_SLICE_S`]. Totals (rates, time per call) scale
    /// by it. 1.0 before any slice.
    pub fn slowdown(&self) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        let mut v = self.slices.clone();
        v.sort_by(f64::total_cmp);
        let cut = v.len() / 10;
        let kept = &v[cut..v.len() - cut];
        kept.iter().sum::<f64>() / kept.len() as f64 / REF_SLICE_S
    }

    /// How much slower than the reference the host ran in its typical
    /// stretch: the median slice wall over [`REF_SLICE_S`]. Medians of
    /// calls scale by it, since both pick the typical stretch of the same
    /// run. 1.0 before any slice.
    pub fn typical_slowdown(&self) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        median(&self.slices) / REF_SLICE_S
    }

    /// Records the gated end-to-end metrics at the reference speed from
    /// their wall values, and the wall values and the slowdowns beside
    /// them.
    pub fn report(&self, out: &mut Outcome, setup_s: f64, work_per_s: f64, p50_ms: f64) {
        out.e2e("setup_s", setup_s / self.slowdown(), "s");
        out.e2e("work_per_s", work_per_s * self.slowdown(), "1/s");
        out.e2e("p50_ms", p50_ms / self.typical_slowdown(), "ms");
        for (name, value, unit) in [
            ("wall.setup_s", setup_s, "s"),
            ("wall.work_per_s", work_per_s, "1/s"),
            ("wall.p50_ms", p50_ms, "ms"),
            ("ref.slowdown", self.slowdown(), "ratio"),
            ("ref.typical_slowdown", self.typical_slowdown(), "ratio"),
        ] {
            out.wall.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        }
        out.line(format!(
            "reference speed: slowdown {:.4} (typical {:.4}) over {} slices; wall setup_s \
             {setup_s:.6e}, work_per_s {work_per_s:.6}, p50_ms {p50_ms:.6}",
            self.slowdown(),
            self.typical_slowdown(),
            self.samples()
        ));
    }
}

/// One slice's work on one thread.
fn kernel(table: &[u32], lanes: &mut [f32]) {
    black_box(vector_part(lanes));
    black_box(gather_part(table));
    black_box(scalar_part());
}

/// Separate multiply and add over an L1-resident vector, as the MLP's
/// layer kernels do.
fn vector_part(lanes: &mut [f32]) -> f32 {
    for _ in 0..256 {
        for (i, v) in lanes.iter_mut().enumerate() {
            *v = *v * 0.999_9 + (i & 7) as f32 * 1e-6;
        }
        black_box(&mut *lanes);
    }
    lanes[LANES / 2]
}

/// Independent hashed reads over a table beyond the private caches, as
/// the hash-grid encode and the format tables do.
fn gather_part(table: &[u32]) -> u64 {
    let mask = (table.len() - 1) as u64;
    let mut sum = 0u64;
    for i in 0..40_000u64 {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
        sum = sum.wrapping_add(u64::from(table[(h & mask) as usize]));
    }
    sum
}

/// A dependent scalar chain with divisions, square roots and branches, as
/// the accelerator model's cost formulas run.
fn scalar_part() -> f64 {
    let mut x = 1.5f64;
    let mut acc = 0.0;
    for i in 0..40_000u32 {
        x = (x * 1.000_1 + 0.5).sqrt() + 1.0 / (x + f64::from(i & 15));
        if i % 3 == 0 {
            acc += x;
        } else {
            acc -= x * 0.5;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdowns_trim_and_take_the_median() {
        let mut c = RefClock::default();
        assert_eq!((c.slowdown(), c.typical_slowdown()), (1.0, 1.0));
        // Ten slices: the fastest and the slowest are left out of the mean.
        c.slices = [1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 50.0]
            .iter()
            .map(|k| k * REF_SLICE_S)
            .collect();
        assert!((c.slowdown() - 2.5).abs() < 1e-12);
        assert!((c.typical_slowdown() - 2.5).abs() < 1e-12);
        assert!((c.spent() - 71.0 * REF_SLICE_S).abs() < 1e-12);
        let mut out = Outcome::default();
        c.report(&mut out, 1.0, 10.0, 5.0);
        for (name, want) in [("setup_s", 0.4), ("work_per_s", 25.0), ("p50_ms", 2.0)] {
            let got = out.e2e_value(name).unwrap();
            assert!((got - want).abs() < 1e-9, "{name}: {got}");
        }
        assert_eq!(out.wall.len(), 5, "wall figures and slowdowns beside");
    }

    #[test]
    fn a_slice_does_fixed_work() {
        let mut c = RefClock::default();
        c.sample(2);
        assert_eq!(c.samples(), 2);
        assert!(c.slices.iter().all(|&s| s > 0.0));
        // The kernel's results do not depend on how often it ran.
        assert_eq!(gather_part(&c.table), gather_part(&c.table));
        assert_eq!(scalar_part(), scalar_part());
    }
}
