//! `paper-tables`: repeated serial passes over the 17 fast table
//! generators of `fnr_bench` — the accelerator model (`fnr_tensor`
//! formats, `fnr_noc`, `fnr_mac`, `fnr_sim`, `flexnerfer`, `fnr_hw`) on
//! its own, without the serving tail around it. The seed sets the order
//! of the generators in each pass; every output is compared with its
//! golden outside the timed call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fnr_bench::FAST_TABLE_GENERATORS;

use crate::calib::RefClock;
use crate::report::Outcome;
use crate::stats::{median, PerCall, Summary};
use crate::trace::Tracer;
use crate::{golden, SplitMix};

/// The module each generator's work lives in, as the output groups it.
pub fn layer_of(generator: &str) -> &'static str {
    match generator {
        "fig7_format_footprints" | "fig8_optimal_formats" | "fig13_stage_sparsity" => "fnr_tensor",
        "noc_energy_ablation" => "fnr_noc",
        "fig6_bit_scalable_modes" | "fig12_mac_unit_ppa" => "fnr_mac",
        "table3_mac_arrays" | "fig4_mac_utilization" | "fig15_array_breakdowns" => "fnr_sim",
        "fig16_fig17_accelerator_ppa"
        | "fig18_latency_density"
        | "fig19_speedup_efficiency"
        | "fig20b_batch_scaling" => "flexnerfer",
        "table1_gpu_specs"
        | "fig1_gpu_latency"
        | "fig3_runtime_breakdown"
        | "table2_related_works" => "fnr_hw",
        other => panic!("generator `{other}` has no layer; add it to layer_of"),
    }
}

/// The layers in output order.
pub const LAYERS: [&str; 6] = [
    "fnr_tensor",
    "fnr_noc",
    "fnr_mac",
    "fnr_sim",
    "flexnerfer",
    "fnr_hw",
];

/// Passes between two batches of `setup_s` registry builds.
const SETUP_EVERY: u64 = 25;

/// Shortest batch of registry builds behind one `setup_s` sample.
const SETUP_BATCH: Duration = Duration::from_millis(40);

/// A seeded permutation of the generator indices.
pub fn pass_order(rng: &mut SplitMix) -> Vec<usize> {
    let mut order: Vec<usize> = (0..FAST_TABLE_GENERATORS.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Loads every generator's golden.
fn load_goldens() -> Result<Vec<String>, String> {
    FAST_TABLE_GENERATORS
        .iter()
        .map(|&(name, _)| golden::load(name))
        .collect()
}

/// Runs passes until `budget` has been spent measuring (at least one).
pub fn run(seed: u64, budget: Duration, tracer: &Tracer, out: &mut Outcome) {
    // The goldens are the benchmark's own test data: loaded outside
    // every timing.
    let goldens = match load_goldens() {
        Ok(g) => g,
        Err(e) => {
            out.broken(e);
            return;
        }
    };

    let mut rng = SplitMix(seed);
    let n = FAST_TABLE_GENERATORS.len();
    let mut call_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut pass_ms = Vec::new();
    let started = Instant::now();
    let mut pass = 0u64;
    let mut setup = PerCall::default();
    let mut clock = RefClock::default();
    while pass == 0 || started.elapsed() < budget {
        clock.sample(1);
        // Set-up: the program's table service, `table_registry` (one
        // entry per generator), timed per build over a batch of builds
        // every few passes, so the batches span the run.
        if pass.is_multiple_of(SETUP_EVERY) {
            setup.batch(SETUP_BATCH, || {
                black_box(fnr_bench::serving::table_registry());
            });
        }
        let mut wall = 0.0;
        tracer.span("perfbench", "pass", pass, || {
            for i in pass_order(&mut rng) {
                let (name, generator) = FAST_TABLE_GENERATORS[i];
                let t = Instant::now();
                let table = tracer.span(layer_of(name), name, pass, generator);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                wall += ms;
                call_ms[i].push(ms);
                out.attempted += 1;
                if let Some(d) = golden::diff(&goldens[i], &table.to_string()) {
                    out.fail(format!("tables.{name}: {d}"));
                }
            }
        });
        pass_ms.push(wall);
        pass += 1;
    }

    let total_s: f64 = pass_ms.iter().sum::<f64>() / 1e3;
    clock.report(
        out,
        setup.seconds(),
        pass_ms.len() as f64 / total_s,
        median(&pass_ms),
    );
    out.line(format!(
        "paper-tables: {} passes of {n} generators, pass wall {}",
        pass_ms.len(),
        Summary::of(&pass_ms).render("ms")
    ));
    for layer in LAYERS {
        let mut layer_ms = 0.0;
        for (i, &(name, _)) in FAST_TABLE_GENERATORS.iter().enumerate() {
            if layer_of(name) == layer {
                let s = Summary::of(&call_ms[i]);
                layer_ms += s.p50;
                out.layer(&format!("tables.{name}_ms"), s.p50, "ms");
                out.line(format!("  {layer:<10} {name:<28} {}", s.render("ms")));
            }
        }
        out.line(format!(
            "  {layer:<10} {:<28} median sum {layer_ms:.4} ms",
            "(module total)"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_has_a_layer() {
        for &(name, _) in FAST_TABLE_GENERATORS {
            assert!(LAYERS.contains(&layer_of(name)), "{name}");
        }
        assert_eq!(FAST_TABLE_GENERATORS.len(), 17);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(&mut SplitMix(1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..FAST_TABLE_GENERATORS.len()).collect::<Vec<_>>());
        assert_eq!(a, pass_order(&mut SplitMix(1)));
        assert_ne!(a, pass_order(&mut SplitMix(2)));
    }
}
