//! `train-study`: the Fig. 20(a) quick-budget study `repro` runs — train
//! the hash-grid NeRF (`train_ngp`), render the procedural ground truth
//! (`render_reference`), then six held-out renders (FP32, INT16/8/4,
//! INT8/INT4 outlier-aware) — decomposed into its public calls so each is
//! timed on its own. It is the only workload where the `fnr_nerf` write
//! path (backward, grid scatter, Adam, `fnr_tensor::simd`) does most of
//! the work.
//!
//! The first study of every run is the golden one (model seed 2025,
//! training seed 42) and its PSNR table must equal
//! `tests/golden/fig20a_psnr_study.md`. Later studies train from seeds
//! drawn from `--seed`, with the same shapes and so the same work.

use std::hint::black_box;
use std::time::{Duration, Instant};

use flexnerfer::fig19_rows;
use fnr_bench::Table;
use fnr_nerf::camera::Camera;
use fnr_nerf::hashgrid::{EncodePlan, HashGridConfig};
use fnr_nerf::mlp::MlpScratch;
use fnr_nerf::psnr::psnr;
use fnr_nerf::render::{
    composite, composite_backward, render_reference, sigmoid, softplus, NgpModel, ShadedSample,
};
use fnr_nerf::sampling::sample_ray;
use fnr_nerf::scene::MicScene;
use fnr_nerf::train::{train_ngp, TrainConfig};
use fnr_nerf::{Image, Vec3};
use fnr_tensor::Precision;

use crate::calib::RefClock;
use crate::report::Outcome;
use crate::stats::{median, PerCall, Summary};
use crate::trace::Tracer;
use crate::{golden, SplitMix};

/// Model and training seeds of the golden study.
pub const GOLDEN_SEEDS: (u64, u64) = (2025, 42);

/// Shortest batch of model builds behind one `setup_s` sample.
const SETUP_BATCH: Duration = Duration::from_millis(50);

/// The golden table's name.
pub const GOLDEN: &str = "fig20a_psnr_study";

/// The `repro` quick budget with the given training seed.
pub fn config(train_seed: u64) -> TrainConfig {
    TrainConfig {
        iters: 700,
        batch_rays: 128,
        image_size: 32,
        seed: train_seed,
        ..TrainConfig::quick()
    }
}

/// The held-out close-up view of Fig. 20(a).
pub fn held_out_camera() -> Camera {
    Camera::look_at(Vec3::new(1.05, 0.8, 1.05), Vec3::new(0.5, 0.45, 0.5), 0.55)
}

/// The six model renders of the study: label and precision (`None` is FP32).
const RENDERS: [(&str, Option<Precision>, bool); 6] = [
    ("FP32", None, false),
    ("INT16", Some(Precision::Int16), false),
    ("INT8", Some(Precision::Int8), false),
    ("INT4", Some(Precision::Int4), false),
    ("INT8 + INT16 outliers", Some(Precision::Int8), true),
    ("INT4 + INT16 outliers", Some(Precision::Int4), true),
];

/// One timed study.
pub struct Study {
    /// `train_ngp`, s.
    pub train_s: f64,
    /// `render_reference`, ms.
    pub reference_ms: f64,
    /// Per render of [`RENDERS`], ms.
    pub render_ms: [f64; 6],
    /// Whole study, ms.
    pub wall_ms: f64,
    /// The study's PSNR table.
    pub table: Table,
}

/// Reference slices taken at each point between a study's calls.
const SLICES: usize = 5;

/// Runs one study from the given seeds; returns it with the trained
/// model. Reference slices run between its calls and are left out of its
/// wall.
pub fn study(
    model_seed: u64,
    train_seed: u64,
    tracer: &Tracer,
    clock: &mut RefClock,
    rep: u64,
) -> (Study, NgpModel) {
    let cfg = config(train_seed);
    let mut model = tracer.span("fnr_nerf", "NgpModel::new", rep, || {
        NgpModel::new(HashGridConfig::small(), 32, model_seed)
    });

    let wall = Instant::now();
    let sliced = clock.spent();
    let t = Instant::now();
    tracer.span("fnr_nerf", "train_ngp", rep, || {
        train_ngp(&MicScene, &mut model, &cfg)
    });
    let train_s = t.elapsed().as_secs_f64();
    clock.sample(SLICES);

    let cam = held_out_camera();
    let size = cfg.image_size;
    let spp = cfg.samples_per_ray;
    let t = Instant::now();
    let truth = tracer.span("fnr_nerf", "render_reference", rep, || {
        render_reference(&MicScene, &cam, size, size, 48)
    });
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;
    let gains = tracer.span("flexnerfer", "fig19_rows", rep, || fig19_rows(200, 200));
    let gain = |p: Precision| {
        gains
            .iter()
            .find(|r| r.accelerator == "FlexNeRFer" && r.precision == p && r.pruning == 0.0)
            .map_or(f64::NAN, |r| r.energy_gain)
    };

    let mut render_ms = [0.0; 6];
    let mut points: Vec<(String, f64, f64)> = Vec::new();
    for (i, &(label, precision, outliers)) in RENDERS.iter().enumerate() {
        let t = Instant::now();
        let img: Image = match (precision, outliers) {
            (None, _) => tracer.span("fnr_nerf", "render_fp32", rep, || {
                model.render(&cam, size, size, spp, None)
            }),
            (Some(p), false) => tracer.span("fnr_nerf", "render_quantized", rep, || {
                model.render_quantized(&cam, size, size, spp, p)
            }),
            (Some(p), true) => tracer.span("fnr_nerf", "render_outlier", rep, || {
                model.render_quantized_outlier_aware(&cam, size, size, spp, p, 0.03)
            }),
        };
        render_ms[i] = t.elapsed().as_secs_f64() * 1e3;
        if i == RENDERS.len() / 2 {
            clock.sample(SLICES);
        }
        let db = tracer.span("fnr_nerf", "psnr", rep, || psnr(&truth, &img));
        let energy = match (precision, outliers) {
            (None, _) => 1.0,
            (Some(p), false) => gain(p),
            // The outlier path's small overhead, as the library's study applies it.
            (Some(p), true) => gain(p) * 0.97,
        };
        points.push((label.to_string(), db, energy));
    }
    let wall_ms = (wall.elapsed().as_secs_f64() - (clock.spent() - sliced)) * 1e3;
    (
        Study {
            train_s,
            reference_ms,
            render_ms,
            wall_ms,
            table: fig20a_table(&points),
        },
        model,
    )
}

/// The Fig. 20(a) table exactly as `fnr_bench::quality_experiments`
/// renders it, from `(label, psnr, energy gain)` points.
fn fig20a_table(points: &[(String, f64, f64)]) -> Table {
    let fp32 = points[0].1;
    let mut t = Table::new(
        "Fig. 20(a)",
        "PSNR vs energy-efficiency gain at each precision mode",
        &[
            "Config",
            "PSNR [dB]",
            "ΔPSNR vs FP32 [dB]",
            "Energy gain over GPU",
        ],
    );
    for (label, db, gain) in points {
        t.push_row(vec![
            label.clone(),
            format!("{db:.2}"),
            format!("{:+.2}", db - fp32),
            format!("{gain:.1}x"),
        ]);
    }
    t.note("Paper shape: INT16 within 0.3 dB of FP32; plain INT8/INT4 degrade visibly; keeping a small INT16 outlier set recovers INT8 to near-FP32 and INT4 to within ~1.4 dB.");
    t
}

/// Checks a seeded (non-golden) study: the golden's labels and energy
/// column, and finite PSNRs in a sane band.
fn check_seeded(golden_table: &str, table: &Table) -> Option<String> {
    let rendered = table.to_string();
    let cols = |s: &str| -> Vec<(String, String)> {
        s.lines()
            .filter(|l| l.starts_with("| ") && !l.starts_with("| Config"))
            .map(|l| {
                let c: Vec<&str> = l.split('|').map(str::trim).collect();
                (c[1].to_string(), c[4].to_string())
            })
            .collect()
    };
    if cols(golden_table) != cols(&rendered) {
        return Some("labels or energy gains differ from the golden study".into());
    }
    let bad = table.rows.iter().find(|r| {
        r[1].parse::<f64>()
            .map_or(true, |db| !(10.0..=60.0).contains(&db))
    });
    bad.map(|r| format!("PSNR `{}` of `{}` outside 10–60 dB", r[1], r[0]))
}

/// Runs studies until `budget` has been spent (at least one); returns
/// the golden study's trained model for the kernel probe.
pub fn run(seed: u64, budget: Duration, tracer: &Tracer, out: &mut Outcome) -> Option<NgpModel> {
    let golden_table = match golden::load(GOLDEN) {
        Ok(g) => g,
        Err(e) => {
            out.broken(e);
            return None;
        }
    };
    // Set-up: building the model, timed per build over one batch of
    // builds before each study, so the batches span the run.
    let mut setup = PerCall::default();
    let mut clock = RefClock::default();
    let mut rng = SplitMix(seed);
    let started = Instant::now();
    let mut studies: Vec<Study> = Vec::new();
    let mut golden_model = None;
    let mut last = Duration::ZERO;
    // Start a study only if it can end within the budget, at the pace of the last one.
    while studies.is_empty() || started.elapsed() + last <= budget {
        let rep = studies.len() as u64;
        let (model_seed, train_seed) = if rep == 0 {
            GOLDEN_SEEDS
        } else {
            (rng.next_u64(), rng.next_u64())
        };
        setup.batch(SETUP_BATCH, || {
            black_box(NgpModel::new(HashGridConfig::small(), 32, GOLDEN_SEEDS.0));
        });
        clock.sample(SLICES);
        let t = Instant::now();
        let (s, model) = tracer.span("perfbench", "study", rep, || {
            study(model_seed, train_seed, tracer, &mut clock, rep)
        });
        last = t.elapsed();
        out.attempted += 1;
        let verdict = if rep == 0 {
            golden::diff(&golden_table, &s.table.to_string())
        } else {
            check_seeded(&golden_table, &s.table)
        };
        if let Some(d) = verdict {
            out.fail(format!(
                "train-study rep {rep} (seeds {model_seed}/{train_seed}): {d}"
            ));
        }
        if rep == 0 {
            golden_model = Some(model);
        }
        studies.push(s);
    }

    let cfg = config(0);
    let col = |f: &dyn Fn(&Study) -> f64| studies.iter().map(f).collect::<Vec<f64>>();
    let train_s = col(&|s| s.train_s);
    let eval_ms = col(&|s| s.render_ms.iter().sum());
    let rays = (cfg.image_size * cfg.image_size) as f64;
    let rays_trained = (cfg.iters * cfg.batch_rays * studies.len()) as f64;
    let work_per_s = rays_trained / train_s.iter().sum::<f64>();
    let p50_ms = median(&col(&|s| s.wall_ms));
    clock.report(out, setup.seconds(), work_per_s, p50_ms);
    out.layer("nerf.train_ngp_s", median(&train_s), "s");
    out.layer(
        "nerf.eval_rays_per_s",
        RENDERS.len() as f64 * rays / (median(&eval_ms) / 1e3),
        "rays/s",
    );
    out.layer(
        "nerf.render_reference_ms",
        median(&col(&|s| s.reference_ms)),
        "ms",
    );
    let render = |idx: &[usize]| {
        median(
            &studies
                .iter()
                .flat_map(|s| idx.iter().map(|&i| s.render_ms[i]))
                .collect::<Vec<_>>(),
        )
    };
    out.layer("nerf.render_fp32_ms", render(&[0]), "ms");
    out.layer("nerf.render_quantized_ms", render(&[1, 2, 3]), "ms");
    out.layer("nerf.render_outlier_ms", render(&[4, 5]), "ms");
    out.line(format!(
        "train-study: {} studies (first golden), train_ngp {}, study wall {}, eval renders {}",
        studies.len(),
        Summary::of(&train_s).render("s"),
        Summary::of(&col(&|s| s.wall_ms)).render("ms"),
        Summary::of(&eval_ms).render("ms"),
    ));
    golden_model
}

/// Per-point and per-ray costs of the kernels the training step runs,
/// timed in bulk phases over every ray of the held-out view, on a trained
/// model. Each phase calls one public function on every input, so a
/// phase's wall over its call count is the kernel's cost.
pub struct KernelProbe {
    /// Rays in the view.
    pub rays: usize,
    /// Sample points over those rays.
    pub points: usize,
    /// `(metric name, ns per unit)` for each phase.
    pub ns: Vec<(&'static str, f64)>,
}

/// Runs the kernel probe `reps` times and keeps each phase's median.
pub fn kernel_probe(model: &NgpModel, reps: usize, tracer: &Tracer) -> KernelProbe {
    let cfg = config(0);
    let (size, spp) = (cfg.image_size, cfg.samples_per_ray);
    let cam = held_out_camera();
    let truth = render_reference(&MicScene, &cam, size, size, 48);
    let rays: Vec<_> = (0..size * size)
        .map(|i| cam.ray(i % size, i / size, size, size))
        .collect();
    let mut per_phase: Vec<Vec<f64>> = vec![Vec::new(); 7];
    let mut points = 0;
    for rep in 0..reps as u64 {
        let mut phase = |k: usize, name: &'static str, units: usize, f: &mut dyn FnMut()| {
            let t = Instant::now();
            tracer.span("fnr_nerf", name, rep, f);
            per_phase[k].push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
        };
        let mut samples = Vec::new();
        phase(0, "sample_ray", rays.len(), &mut || {
            samples = rays
                .iter()
                .map(|r| sample_ray(r, spp, None))
                .collect::<Vec<_>>();
        });
        let pts: Vec<Vec3> = samples.iter().flatten().map(|s| s.position).collect();
        points = pts.len();
        let dims = model.grid.config().output_dims();
        let mut plans = vec![EncodePlan::default(); pts.len()];
        let mut enc = vec![0.0f32; pts.len() * dims];
        phase(
            1,
            "HashGrid::plan_into+encode_planned",
            pts.len(),
            &mut || {
                for ((p, plan), e) in pts.iter().zip(plans.iter_mut()).zip(enc.chunks_mut(dims)) {
                    model.grid.plan_into(*p, plan);
                    model.grid.encode_planned(plan, e);
                }
            },
        );
        let mut scratch: Vec<MlpScratch> = (0..pts.len()).map(|_| model.mlp.scratch()).collect();
        phase(2, "Mlp::forward_cached_into", pts.len(), &mut || {
            for (e, s) in enc.chunks(dims).zip(scratch.iter_mut()) {
                black_box(model.mlp.forward_cached_into(e, s));
            }
        });
        // Density/colour heads (not timed: part of neither kernel).
        let mut shaded: Vec<Vec<ShadedSample>> = Vec::with_capacity(samples.len());
        let mut k = 0;
        for ray in &samples {
            shaded.push(
                ray.iter()
                    .map(|s| {
                        let raw = scratch[k].output();
                        k += 1;
                        ShadedSample {
                            sigma: softplus(raw[0]),
                            color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
                            delta: s.delta,
                        }
                    })
                    .collect(),
            );
        }
        let mut colors = Vec::new();
        phase(3, "composite", rays.len(), &mut || {
            colors = shaded.iter().map(|s| composite(s)).collect::<Vec<_>>();
        });
        let mut grads = Vec::new();
        phase(4, "composite_backward", rays.len(), &mut || {
            grads = shaded
                .iter()
                .zip(&colors)
                .enumerate()
                .map(|(i, (s, c))| {
                    let gt = truth.get(i % size, i / size);
                    let d_out = [0, 1, 2].map(|ch| 2.0 * (c[ch] - gt[ch]) / 3.0);
                    composite_backward(s, d_out)
                })
                .collect::<Vec<_>>();
        });
        // Head gradients per point (untimed), then the MLP backward.
        let mut d_raw = Vec::with_capacity(pts.len());
        let mut k = 0;
        for ((d_sigma, d_color), ray) in grads.iter().zip(&shaded) {
            for (i, s) in ray.iter().enumerate() {
                let z0 = scratch[k].output()[0];
                d_raw.push([
                    d_sigma[i] * sigmoid(z0),
                    d_color[i][0] * s.color[0] * (1.0 - s.color[0]),
                    d_color[i][1] * s.color[1] * (1.0 - s.color[1]),
                    d_color[i][2] * s.color[2] * (1.0 - s.color[2]),
                ]);
                k += 1;
            }
        }
        let mut mlp_grads = model.mlp.zero_grads();
        let mut d_enc = vec![0.0f32; pts.len() * dims];
        phase(5, "Mlp::backward_into", pts.len(), &mut || {
            for ((s, d), out) in scratch.iter_mut().zip(&d_raw).zip(d_enc.chunks_mut(dims)) {
                out.copy_from_slice(model.mlp.backward_into(s, d, &mut mlp_grads));
            }
        });
        let mut grid_grad = model.grid.zero_grad();
        phase(
            6,
            "HashGrid::accumulate_grad_planned",
            pts.len(),
            &mut || {
                for (plan, d) in plans.iter().zip(d_enc.chunks(dims)) {
                    model.grid.accumulate_grad_planned(plan, d, &mut grid_grad);
                }
            },
        );
        black_box((&mlp_grads, &grid_grad));
    }
    const NAMES: [&str; 7] = [
        "nerf.sample_ray_ns_per_ray",
        "nerf.hashgrid_encode_ns_per_point",
        "nerf.mlp_forward_ns_per_point",
        "nerf.composite_ns_per_ray",
        "nerf.composite_backward_ns_per_ray",
        "nerf.mlp_backward_ns_per_point",
        "nerf.hashgrid_scatter_ns_per_point",
    ];
    KernelProbe {
        rays: rays.len(),
        points,
        ns: NAMES
            .iter()
            .zip(&per_phase)
            .map(|(&n, v)| (n, median(v)))
            .collect(),
    }
}

/// Adds the kernel probe's metrics, the measured GEMM / encoding / other
/// split (the CPU analogue of Fig. 3) and the shape-computed costs.
pub fn report_probe(probe: &KernelProbe, model: &NgpModel, out: &mut Outcome) {
    let get = |name: &str| {
        probe
            .ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    for &(name, ns) in &probe.ns {
        out.layer(name, ns, "ns");
    }
    // Per-ray totals: point kernels run points/rays times per ray.
    let per_ray = probe.points as f64 / probe.rays as f64;
    let gemm =
        per_ray * (get("nerf.mlp_forward_ns_per_point") + get("nerf.mlp_backward_ns_per_point"));
    let encoding = per_ray
        * (get("nerf.hashgrid_encode_ns_per_point") + get("nerf.hashgrid_scatter_ns_per_point"));
    let other = get("nerf.sample_ray_ns_per_ray")
        + get("nerf.composite_ns_per_ray")
        + get("nerf.composite_backward_ns_per_ray");
    let total = gemm + encoding + other;
    out.layer("nerf.split_gemm_pct", 100.0 * gemm / total, "%");
    out.layer("nerf.split_encoding_pct", 100.0 * encoding / total, "%");
    out.layer("nerf.split_other_pct", 100.0 * other / total, "%");
    let macs: usize = model
        .mlp
        .layers()
        .iter()
        .map(|l| l.inputs() * l.outputs())
        .sum();
    let g = model.grid.config();
    let bytes = g.levels * 8 * g.features * std::mem::size_of::<f32>();
    out.layer("nerf.mlp_macs_per_point", macs as f64, "MAC");
    out.layer("nerf.hashgrid_bytes_per_point", bytes as f64, "B");
    out.line(format!(
        "kernel probe over {} rays / {} points: GEMM {:.1} % / encoding {:.1} % / other {:.1} % of the \
         probed step; computed from shapes: {macs} MAC/point, {bytes} B of features gathered per point",
        probe.rays,
        probe.points,
        100.0 * gemm / total,
        100.0 * encoding / total,
        100.0 * other / total
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_check_accepts_the_golden_and_rejects_drifted_gains() {
        let golden_table = golden::load(GOLDEN).expect("golden present");
        let points: Vec<(String, f64, f64)> = vec![
            ("FP32".into(), 25.1, 1.0),
            ("INT16".into(), 24.9, 101.6),
            ("INT8".into(), 24.9, 223.3),
            ("INT4".into(), 24.7, 397.6),
            ("INT8 + INT16 outliers".into(), 25.1, 216.6),
            ("INT4 + INT16 outliers".into(), 25.0, 385.7),
        ];
        assert_eq!(check_seeded(&golden_table, &fig20a_table(&points)), None);
        let mut drifted = points.clone();
        drifted[2].2 = 223.4;
        assert!(check_seeded(&golden_table, &fig20a_table(&drifted)).is_some());
        let mut blurry = points;
        blurry[3].1 = 4.0;
        assert!(check_seeded(&golden_table, &fig20a_table(&blurry)).is_some());
    }
}
