//! `cluster-flash`: the N-replica cluster DES (`fnr_serve::run_cluster`)
//! on CI's resilience-leg configuration — a flash crowd over 8 replicas
//! with synthetic payloads, one replica slowed 8× at 500 ms, a join at
//! 2 s and a graceful leave at 4 s, the health detector, hedging and
//! CoDel admission. All of the work is DES policy code; none of it
//! renders. Simulated statistics are exact; host time is the measurement.

use std::time::{Duration, Instant};

use fnr_serve::workload::{generate, ArrivalPattern, TimedJob, WorkloadSpec};
use fnr_serve::{
    response_set_digest, run_cluster, synthetic_payload, AdmissionConfig, ClusterConfig,
    ClusterMetrics, ClusterService, FaultPlan, HealthConfig, HedgeConfig, PayloadMode, RetryPolicy,
    RouterConfig, SchedConfig, ServerConfig,
};

use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Requests per replay: CI's million-request leg.
pub const REQUESTS: usize = 1_000_000;

/// Response-set digests pinned per seed for [`REQUESTS`] requests: seed
/// 42 is the value CI's resilience leg prints, 1905 the held-out seed.
/// Other seeds are checked by conservation, payloads and the digest fold.
pub const PINNED_DIGESTS: &[(u64, u64)] =
    &[(42, 0x4e33_1588_8707_92ee), (1905, 0xe688_43d7_bbc4_0d2a)];

/// The flash-crowd schedule of `seed`.
pub fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        requests: REQUESTS,
        seed,
        pattern: ArrivalPattern::FlashCrowd,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(5),
        priority_mix: [0.3, 0.4, 0.3],
        deadline: Some(Duration::from_micros(8000)),
        ..WorkloadSpec::default()
    }
}

/// The resilience-leg cluster: the `serve --mode cluster` defaults plus
/// `--replicas 8 --payload synthetic --queue-capacity 256 --faults
/// slow@500ms:3:8,join@2s,leave@4s:1 --health --hedge-us 2000
/// --codel-target-us 2000 --codel-interval-us 10000`.
pub fn config() -> ClusterConfig {
    let faults = FaultPlan::parse("slow@500ms:3:8,join@2s,leave@4s:1").expect("valid fault plan");
    ClusterConfig {
        replicas: 8,
        server: ServerConfig {
            queue_capacity: 256,
            workers: 2,
            max_batch: 8,
            linger: Duration::from_millis(2),
            sched: SchedConfig::priority_lanes(),
            tables: fnr_bench::serving::table_registry(),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            chunks: 1,
            ..ServerConfig::default()
        },
        router: RouterConfig {
            vnodes: 64,
            seed: 0,
        },
        max_inflight: 1024,
        service: ClusterService {
            service_ns: 500_000,
            per_item_ns: 0,
            cold_start_ns: 2_000_000,
        },
        faults,
        payload: PayloadMode::Synthetic,
        injector: None,
        health: HealthConfig {
            enabled: true,
            ..HealthConfig::default()
        },
        hedge: HedgeConfig {
            delay_ns: 2_000_000,
        },
        admission: AdmissionConfig {
            enabled: true,
            target_ns: 2_000_000,
            interval_ns: 10_000_000,
        },
    }
}

/// One replay.
pub struct Replay {
    /// `workload::generate`, s.
    pub generate_s: f64,
    /// `run_cluster`, host s.
    pub run_s: f64,
    /// Submitted requests.
    pub submitted: usize,
    /// The simulated statistics.
    pub metrics: ClusterMetrics,
    /// Every output check that failed, by name.
    pub broken: Vec<String>,
}

/// Generates `seed`'s schedule and replays it once through the cluster.
pub fn replay(seed: u64, tracer: &Tracer, rep: u64) -> Replay {
    let t = Instant::now();
    let jobs = tracer.span("fnr_serve.workload", "workload::generate", rep, || {
        generate(&spec(seed))
    });
    let generate_s = t.elapsed().as_secs_f64();
    let cfg = config();
    let t = Instant::now();
    let report = tracer.span("fnr_serve.des", "run_cluster", rep, || {
        run_cluster(&cfg, &jobs)
    });
    let run_s = t.elapsed().as_secs_f64();
    let broken = check(seed, &jobs, &report.responses, &report.metrics);
    Replay {
        generate_s,
        run_s,
        submitted: jobs.len(),
        metrics: report.metrics,
        broken,
    }
}

/// `cluster-flash`: replays until `budget` has been spent (at least once).
pub fn run(seed: u64, budget: Duration, tracer: &Tracer, out: &mut Outcome) {
    let started = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    let mut last = Duration::ZERO;
    // Start a replay only if it can end within the budget, at the pace of the last one.
    while replays.is_empty() || started.elapsed() + last <= budget {
        let rep = replays.len() as u64;
        let t = Instant::now();
        let r = tracer.span("perfbench", "replay", rep, || replay(seed, tracer, rep));
        last = t.elapsed();
        out.attempted += 1;
        if !r.broken.is_empty() {
            out.fail(format!(
                "cluster-flash replay {rep}: {}",
                r.broken.join(", ")
            ));
        }
        if rep > 0 && exact_stats(&r.metrics) != exact_stats(&replays[0].metrics) {
            out.fail(format!(
                "cluster-flash replay {rep}: simulated statistics differ from replay 0"
            ));
        }
        replays.push(r);
    }
    let col = |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let run_s = col(&|r| r.run_s);
    let total = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    out.e2e("setup_s", col(&|r| r.generate_s), "s");
    out.e2e(
        "work_per_s",
        total(&|r| r.submitted as f64) / total(&|r| r.run_s),
        "1/s",
    );
    out.e2e("p50_ms", run_s * 1e3, "ms");
    out.layer("cluster.generate_s", col(&|r| r.generate_s), "s");
    out.layer("cluster.run_s", run_s, "s");
    out.layer(
        "cluster.host_ns_per_request",
        col(&|r| r.run_s * 1e9 / r.submitted as f64),
        "ns",
    );
    let first = &replays[0].metrics;
    for (name, v) in exact_stats(first) {
        out.layer(
            name,
            v,
            if name.ends_with("_ms") {
                "ms"
            } else if name.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            },
        );
    }
    out.line(format!(
        "cluster-flash: {} replays of {} requests, run_cluster host {} (in order: {:.3?} s), digest {:#018x}, \
         {} served / {} shed / {} overload-shed / {} hedged (simulated, exact)",
        replays.len(),
        REQUESTS,
        Summary::of(&replays.iter().map(|r| r.run_s).collect::<Vec<_>>()).render("s"),
        replays.iter().map(|r| r.run_s).collect::<Vec<_>>(),
        first.digest,
        first.served,
        first.shed,
        first.overload_shed,
        first.hedged
    ));
}

/// The output checks: conservation, every payload equal to its job's
/// synthetic payload, the reported digest equal to the digest of the
/// responses, and the digest equal to its pin where one exists.
fn check(
    seed: u64,
    jobs: &[TimedJob],
    responses: &[fnr_serve::Response],
    m: &ClusterMetrics,
) -> Vec<String> {
    let mut broken = Vec::new();
    if !m.conserves_submitted() || responses.len() != m.completed {
        broken.push("cluster.conservation".to_string());
    }
    let payloads_ok = responses.iter().all(|r| {
        jobs.get(r.id as usize)
            .is_some_and(|tj| synthetic_payload(&tj.job) == r.bytes)
    });
    if !payloads_ok {
        broken.push("cluster.payloads".to_string());
    }
    if response_set_digest(responses) != m.digest {
        broken.push("cluster.digest_fold".to_string());
    }
    if let Some(&(_, pin)) = PINNED_DIGESTS.iter().find(|(s, _)| *s == seed) {
        if m.digest != pin {
            broken.push(format!(
                "cluster.digest_pin({:#018x} != {pin:#018x})",
                m.digest
            ));
        }
    }
    broken
}

/// The simulated statistics that must repeat bit-for-bit between
/// replays, as `(name, value)`.
pub fn exact_stats(m: &ClusterMetrics) -> Vec<(&'static str, f64)> {
    let cache_hits: u64 = m.replicas.iter().map(|r| r.cache_hits).sum();
    let cache_all: u64 = m
        .replicas
        .iter()
        .map(|r| r.cache_hits + r.cache_misses)
        .sum();
    vec![
        ("cluster.served", m.served as f64),
        ("cluster.shed", m.shed as f64),
        ("cluster.overload_shed", m.overload_shed as f64),
        ("cluster.hedged", m.hedged as f64),
        (
            "cluster.hedge_won_ratio",
            ratio(m.hedge_won as f64, m.hedged as f64),
        ),
        (
            "cluster.cache_hit_ratio",
            ratio(cache_hits as f64, cache_all as f64),
        ),
        ("cluster.suspects", m.suspects as f64),
        ("cluster.virtual_wall_ms", m.wall_ns as f64 / 1e6),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
