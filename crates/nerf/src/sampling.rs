//! Ray sampling and occupancy-grid empty-space skipping.
//!
//! Sparse-voxel NeRF variants (NSVF, Instant-NGP, TensoRF, PlenOctrees…)
//! skip samples in empty space; the fraction skipped is exactly the
//! "Input (ray-marching)" sparsity the paper measures in Fig. 13(a) and the
//! dominant source of activation sparsity FlexNeRFer exploits.

use crate::camera::Ray;
use crate::scene::Scene;
use crate::vec3::Vec3;

/// A binary occupancy grid over the unit cube.
///
/// Stored as bitsets: the `res` cells `k` of each `(i, j)` row take
/// ⌈res/64⌉ `u64` words, cell `k` at bit `k % 64` of word `k / 64`. Bits past
/// `res` are always clear.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    res: usize,
    words: Vec<u64>,
}

impl OccupancyGrid {
    /// Builds a grid of `res³` cells by sampling the scene density at cell
    /// centres (cells with density above `threshold` are occupied, plus a
    /// one-cell dilation to avoid clipping surfaces).
    pub fn build(scene: &dyn Scene, res: usize, threshold: f32) -> Self {
        if res == 0 {
            return OccupancyGrid { res, words: Vec::new() };
        }
        // Density sampling fans one i-plane per pool task; every cell is an
        // independent scene query, so the grid is byte-identical at any
        // `FNR_THREADS` (tests/parallel_equivalence.rs enforces).
        let wpr = res.div_ceil(64);
        let mut raw = vec![0u64; res * res * wpr];
        fnr_par::par_for_chunks(&mut raw, res * wpr, |i, plane| {
            for j in 0..res {
                for k in 0..res {
                    let p = Vec3::new(
                        (i as f32 + 0.5) / res as f32,
                        (j as f32 + 0.5) / res as f32,
                        (k as f32 + 0.5) / res as f32,
                    );
                    plane[j * wpr + k / 64] |= ((scene.density(p) > threshold) as u64) << (k % 64);
                }
            }
        });
        // Dilate by one cell, twice (conservative: avoids clipping surfaces).
        let words = dilated(&dilated(&raw, res), res);
        OccupancyGrid { res, words }
    }
}

/// One 6-neighbourhood dilation pass over the row bitsets of a `res³`
/// grid: each output row is `r | r<<1 | r>>1` (carrying across words) OR
/// the rows at `(i±1, j)` and `(i, j±1)`. Every i-plane is written by one
/// task that reads only `src`, so planes run in parallel.
fn dilated(src: &[u64], res: usize) -> Vec<u64> {
    let wpr = res.div_ceil(64);
    let row = |i: usize, j: usize| &src[(i * res + j) * wpr..][..wpr];
    // `r<<1` may carry cell `res - 1` into the padding; clear it again.
    let tail = match res % 64 {
        0 => u64::MAX,
        t => (1u64 << t) - 1,
    };
    let mut out = vec![0u64; src.len()];
    fnr_par::par_for_chunks(&mut out, res * wpr, |i, plane| {
        for (j, o) in plane.chunks_exact_mut(wpr).enumerate() {
            let r = row(i, j);
            for w in 0..wpr {
                let from_below = if w > 0 { r[w - 1] >> 63 } else { 0 };
                let from_above = if w + 1 < wpr { r[w + 1] << 63 } else { 0 };
                o[w] = r[w] | (r[w] << 1) | from_below | (r[w] >> 1) | from_above;
            }
            o[wpr - 1] &= tail;
            let neighbours = [
                (i > 0).then(|| row(i - 1, j)),
                (i + 1 < res).then(|| row(i + 1, j)),
                (j > 0).then(|| row(i, j - 1)),
                (j + 1 < res).then(|| row(i, j + 1)),
            ];
            for n in neighbours.into_iter().flatten() {
                for (a, &b) in o.iter_mut().zip(n) {
                    *a |= b;
                }
            }
        }
    });
    out
}

impl OccupancyGrid {
    /// Grid resolution per axis.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Cell `k` of row `row = i·res + j`.
    #[inline]
    fn cell(&self, row: usize, k: usize) -> bool {
        (self.words[row * self.res.div_ceil(64) + k / 64] >> (k % 64)) & 1 == 1
    }

    /// Whether the cell containing `p` is occupied (`false` outside the
    /// cube).
    pub fn occupied(&self, p: Vec3) -> bool {
        let f = |v: f32| (v * self.res as f32).floor() as i32;
        let (i, j, k) = (f(p.x), f(p.y), f(p.z));
        if (0..self.res as i32).contains(&i)
            && (0..self.res as i32).contains(&j)
            && (0..self.res as i32).contains(&k)
        {
            self.cell(i as usize * self.res + j as usize, k as usize)
        } else {
            false
        }
    }

    /// Fraction of occupied cells (0 for an empty grid).
    pub fn occupancy(&self) -> f64 {
        if self.res == 0 {
            return 0.0;
        }
        let occupied: u64 = self.words.iter().map(|w| w.count_ones() as u64).sum();
        occupied as f64 / self.res.pow(3) as f64
    }

    /// The occupancy bits in `(i·res + j)·res + k` order, one `bool` per
    /// cell — exposed so equivalence tests can compare grids cell-for-cell.
    pub fn cells(&self) -> Vec<bool> {
        (0..self.res * self.res)
            .flat_map(|row| (0..self.res).map(move |k| self.cell(row, k)))
            .collect()
    }
}

/// One sample point along a ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaySample {
    /// Sample position.
    pub position: Vec3,
    /// Ray direction at the sample.
    pub dir: Vec3,
    /// Segment length δᵢ to the next sample (Eq. 3).
    pub delta: f32,
    /// Whether the occupancy grid kept this sample (`false` = skipped:
    /// the sample still occupies a batch slot but carries zeros — this is
    /// the ray-marching input sparsity of Fig. 13(a)).
    pub active: bool,
}

/// Uniformly samples `n` points along the ray's intersection with the
/// unit cube, marking occupancy. Returns an empty vector for rays that
/// miss the cube.
pub fn sample_ray(ray: &Ray, n: usize, grid: Option<&OccupancyGrid>) -> Vec<RaySample> {
    let Some((t0, t1)) = ray.unit_cube_span() else {
        return Vec::new();
    };
    let dt = (t1 - t0) / n as f32;
    (0..n)
        .map(|i| {
            let t = t0 + (i as f32 + 0.5) * dt;
            let p = ray.at(t);
            RaySample {
                position: p,
                dir: ray.dir,
                delta: dt,
                active: grid.is_none_or(|g| g.occupied(p)),
            }
        })
        .collect()
}

/// Fraction of inactive samples over a batch of rays — the measured
/// ray-marching input sparsity.
pub fn batch_sparsity(samples: &[Vec<RaySample>]) -> f64 {
    let total: usize = samples.iter().map(|s| s.len()).sum();
    if total == 0 {
        return 0.0;
    }
    let inactive: usize =
        samples.iter().map(|s| s.iter().filter(|x| !x.active).count()).sum();
    inactive as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::scene::{MicScene, PalaceScene};

    #[test]
    fn grid_occupancy_tracks_scene_emptiness() {
        let mic = OccupancyGrid::build(&MicScene, 32, 0.5);
        let palace = OccupancyGrid::build(&PalaceScene, 32, 0.5);
        assert!(mic.occupancy() < palace.occupancy(), "mic is emptier than palace");
        assert!(mic.occupancy() < 0.35, "mic occupancy {}", mic.occupancy());
    }

    #[test]
    fn sampling_covers_the_span() {
        let cam = Camera::orbit(0.7, 1.6, 0.9);
        let ray = cam.ray(16, 16, 32, 32);
        let samples = sample_ray(&ray, 32, None);
        assert_eq!(samples.len(), 32);
        assert!(samples.iter().all(|s| s.active), "no grid → all active");
        // Deltas sum to the span length.
        let span = ray.unit_cube_span().unwrap();
        let sum: f32 = samples.iter().map(|s| s.delta).sum();
        assert!((sum - (span.1 - span.0)).abs() < 1e-4);
    }

    #[test]
    fn empty_space_skipping_produces_sparsity() {
        let grid = OccupancyGrid::build(&MicScene, 32, 0.5);
        let cam = Camera::orbit(0.7, 1.6, 0.9);
        let batch: Vec<Vec<RaySample>> =
            cam.rays(24, 24).iter().map(|r| sample_ray(r, 24, Some(&grid))).collect();
        let sparsity = batch_sparsity(&batch);
        // The mic-like scene is mostly air: Fig. 13(a) reports 69–88 %
        // input sparsity for Synthetic-NeRF scenes.
        assert!(
            (0.5..0.97).contains(&sparsity),
            "ray-marching sparsity should be high: {sparsity}"
        );
    }

    #[test]
    fn zero_resolution_grid_is_empty_not_a_panic() {
        let g = OccupancyGrid::build(&MicScene, 0, 0.5);
        assert_eq!(g.resolution(), 0);
        assert!(g.cells().is_empty());
        assert!(!g.occupied(Vec3::splat(0.5)));
    }

    /// The gather formulation `dilated` replaced, kept as its oracle:
    /// `out[c] = src[c] ∨ any in-range 6-neighbour`, one `bool` per cell.
    fn dilated_gather(src: &[bool], res: usize) -> Vec<bool> {
        let at = |i: usize, j: usize, k: usize| src[(i * res + j) * res + k];
        let mut out = vec![false; src.len()];
        for i in 0..res {
            for j in 0..res {
                for k in 0..res {
                    out[(i * res + j) * res + k] = at(i, j, k)
                        || (i > 0 && at(i - 1, j, k))
                        || (i + 1 < res && at(i + 1, j, k))
                        || (j > 0 && at(i, j - 1, k))
                        || (j + 1 < res && at(i, j + 1, k))
                        || (k > 0 && at(i, j, k - 1))
                        || (k + 1 < res && at(i, j, k + 1));
                }
            }
        }
        out
    }

    /// Packs `res³` cells into the grid's row bitsets.
    fn pack(cells: &[bool], res: usize) -> Vec<u64> {
        let wpr = res.div_ceil(64);
        let mut words = vec![0u64; res * res * wpr];
        for (c, &b) in cells.iter().enumerate() {
            let (row, k) = (c / res, c % res);
            words[row * wpr + k / 64] |= (b as u64) << (k % 64);
        }
        words
    }

    #[test]
    fn bitset_dilation_matches_gather_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0cc);
        // Multi-word rows from res 65 on; 128 fills whole words, 129/130
        // spill one and two cells into a third word.
        for res in 1..=130 {
            let density = [0.002, 0.02, 0.2][res % 3];
            let src: Vec<bool> = (0..res * res * res).map(|_| rng.gen_bool(density)).collect();
            let got = dilated(&pack(&src, res), res);
            assert_eq!(got, pack(&dilated_gather(&src, res), res), "res {res}");
        }
    }

    #[test]
    fn cells_and_occupied_read_the_same_bits() {
        let grid = OccupancyGrid::build(&MicScene, 70, 0.5);
        let cells = grid.cells();
        assert_eq!(cells.len(), 70 * 70 * 70);
        let occupied = cells.iter().filter(|&&b| b).count();
        assert_eq!(grid.occupancy(), occupied as f64 / cells.len() as f64);
        for (c, &b) in cells.iter().enumerate().step_by(97) {
            let (i, j, k) = (c / (70 * 70), (c / 70) % 70, c % 70);
            let centre = |v: usize| (v as f32 + 0.5) / 70.0;
            assert_eq!(grid.occupied(Vec3::new(centre(i), centre(j), centre(k))), b, "cell {c}");
        }
    }

    #[test]
    fn missing_rays_yield_no_samples() {
        let ray = Ray {
            origin: Vec3::new(5.0, 5.0, 5.0),
            dir: Vec3::new(0.0, 1.0, 0.0),
        };
        assert!(sample_ray(&ray, 16, None).is_empty());
    }
}
