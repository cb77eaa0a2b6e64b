//! The repository benchmark: four workloads run through the public APIs
//! of `fnr_nerf`, `fnr_bench`, `fnr_serve` and the accelerator-model
//! crates, each checked against the goldens and digests.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-study|serve-bursty|cluster-flash|paper-tables \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run measures the
//! workload untraced and then traced (their difference is the tracing
//! overhead), probes every other workload once, traced, so each layer is
//! measured, counts allocations in a serial pass, and reports the
//! per-layer metrics. On `train-study` and `paper-tables` the timings
//! are scaled to a reference speed (see `calib`). Spans are written to
//! `perfbench/traces/<workload>-seed<N>.json` (Chrome trace-event format).
//! See `perfbench/README.md` for every metric.

mod alloc;
mod calib;
mod cluster;
mod golden;
mod meta;
mod report;
mod serve;
mod stats;
mod tables;
mod trace;
mod train;

use std::time::Duration;

use report::{json_num, json_str, Outcome};
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::GatedCounter = alloc::GatedCounter;

/// The workloads, in the order the trace run probes them.
pub const WORKLOADS: [&str; 4] = [
    "train-study",
    "serve-bursty",
    "cluster-flash",
    "paper-tables",
];

/// Seed used when `--seed` is absent; CI's serve and cluster legs use it.
pub const DEFAULT_SEED: u64 = 42;

/// Seed kept out of tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 1905;

/// SplitMix64: the benchmark's own seeded stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|n| *n == w)
                        .ok_or_else(|| format!("unknown workload `{w}`"))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants an integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds wants an integer".to_string())?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", WORKLOADS.join("|")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `workload` for `budget`, recording into `out`. In a traced run
/// the train study also runs the kernel probe on its golden model.
fn run_workload(workload: &str, seed: u64, budget: Duration, tracer: &Tracer, out: &mut Outcome) {
    match workload {
        "train-study" => {
            let model = train::run(seed, budget, tracer, out);
            if let (true, Some(model)) = (tracer.enabled(), model) {
                let probe = train::kernel_probe(&model, 5, tracer);
                train::report_probe(&probe, &model, out);
            }
        }
        "serve-bursty" => serve::run(seed, budget, tracer, out),
        "cluster-flash" => cluster::run(seed, budget, tracer, out),
        "paper-tables" => tables::run(seed, budget, tracer, out),
        other => unreachable!("workload `{other}` was validated by parse_args"),
    }
}

/// The serial allocation-count pass (traced runs only).
fn count_allocations(out: &mut Outcome) {
    use fnr_nerf::hashgrid::HashGridConfig;
    use fnr_nerf::render::NgpModel;
    let (model_seed, train_seed) = train::GOLDEN_SEEDS;
    let mut model = NgpModel::new(HashGridConfig::small(), 32, model_seed);
    let cfg = train::config(train_seed);
    let (_, n) = alloc::count(|| fnr_nerf::train::train_ngp(&fnr_nerf::MicScene, &mut model, &cfg));
    out.layer("nerf.train_ngp.allocs", n as f64, "count");
    let cam = train::held_out_camera();
    let size = cfg.image_size;
    let (_, n) = alloc::count(|| {
        model.render_quantized(
            &cam,
            size,
            size,
            cfg.samples_per_ray,
            fnr_tensor::Precision::Int8,
        )
    });
    out.layer("nerf.render_quantized.allocs", n as f64, "count");
    for &(name, generator) in fnr_bench::FAST_TABLE_GENERATORS {
        let (_, n) = alloc::count(generator);
        out.layer(&format!("tables.{name}.allocs"), n as f64, "count");
    }
}

/// The traced run: the workload untraced and then traced for half of
/// `budget` each (their difference is the tracing overhead), every other
/// workload once, traced, the serial allocation count, and the spans
/// written out.
fn traced_run(args: &Args, budget: Duration, out: &mut Outcome) {
    let half = budget / 2;
    let mut untraced = Outcome::default();
    run_workload(
        args.workload,
        args.seed,
        half,
        &Tracer::new(false),
        &mut untraced,
    );
    let tracer = Tracer::new(true);
    run_workload(args.workload, args.seed, half, &tracer, out);
    for name in ["work_per_s", "p50_ms"] {
        if let (Some(a), Some(b)) = (untraced.e2e_value(name), out.e2e_value(name)) {
            out.layer(
                &format!("trace.overhead.{name}_pct"),
                100.0 * (b - a) / a,
                "%",
            );
        }
    }
    untraced.layer.clear();
    out.absorb(untraced);
    out.layer.append(&mut out.wall);
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let mut probe = Outcome::default();
        run_workload(other, args.seed, Duration::ZERO, &tracer, &mut probe);
        out.absorb(probe);
    }
    let spans = tracer.spans();
    let (own, wait) = trace::own_ns_by_layer(&spans);
    for (kind, by_layer) in [("self_ms", own), ("wait_ms", wait)] {
        for (layer, ns) in by_layer {
            out.layer(&format!("{kind}.{layer}"), ns as f64 / 1e6, "ms");
        }
    }
    count_allocations(out);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
    {
        Ok(()) => out.line(format!(
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.broken(format!("cannot write trace {}: {e}", path.display())),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = golden::load(train::GOLDEN) {
        // Without the repository around the benchmark there is nothing to check against.
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let budget = Duration::from_secs(args.seconds);
    let jiffies = meta::cpu_jiffies();
    let mut out = Outcome::default();
    let metrics = if args.trace {
        traced_run(&args, budget, &mut out);
        out.layer.clone()
    } else {
        run_workload(
            args.workload,
            args.seed,
            budget,
            &Tracer::new(false),
            &mut out,
        );
        out.e2e("peak_rss_mb", meta::peak_rss_mb(), "MiB");
        out.e2e.clone()
    };

    for l in &out.lines {
        println!("{l}");
    }
    for m in &metrics {
        println!("{:<44} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    for b in &out.broken {
        println!("BROKEN: {b}");
    }
    let correct = out.broken.is_empty();
    println!(
        "record: {}",
        meta::record(&[
            ("workload", json_str(args.workload)),
            ("seed", args.seed.to_string()),
            ("held_out_seed", HELD_OUT_SEED.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", args.trace.to_string()),
            (
                "host_steal_pct",
                json_num(meta::steal_pct(jiffies, meta::cpu_jiffies()))
            ),
        ])
    );
    println!(
        "{}",
        report::result_json(correct, out.attempted.max(1), out.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload cluster-flash --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("cluster-flash", 7, 12, true)
        );
        let a = args("--workload paper-tables").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 10, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err(), "workload is required");
        assert!(args("--workload paper-tables --trace 2").is_err());
        assert!(args("--workload paper-tables --seed").is_err());
    }

    #[test]
    fn splitmix_is_seeded() {
        let (mut a, mut b) = (SplitMix(5), SplitMix(5));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(SplitMix(5).next_u64(), SplitMix(6).next_u64());
        assert!((0..1000).all(|_| a.below(17) < 17));
    }
}
