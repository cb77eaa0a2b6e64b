//! `serve-bursty`: a live `fnr_serve::Server` driven open-loop by the
//! seeded bursty schedule, replayed at fixed rates, and then saturated:
//! the same schedules submitted all at once, so backpressure paces the
//! submitter and the server's throughput is its capacity.
//!
//! One process, two load threads (one submitter, one waiter), never more
//! than `nproc`. Each request is timed from the instant it was *due*, not
//! from its submit, so a generator stall or a backpressured submit is
//! charged to every request it delays; how late the generator ran is
//! reported on its own.
//!
//! Bias: the waiter calls `Client::wait_outcome` in request-id order, so
//! a request that a priority lane lets overtake its predecessor is
//! observed no earlier than that predecessor's completion. The server's
//! own view (`ServeMetrics::render_ns`) is reported beside it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use fnr_serve::workload::{generate, total_chunks, ArrivalPattern, TimedJob, WorkloadSpec};
use fnr_serve::{
    run_virtual, RenderJob, RenderPrecision, SceneKind, ServeMetrics, Server, ServerConfig,
    VirtualService, WaitOutcome, Workload,
};
use fnr_tensor::Precision;

use crate::report::Outcome;
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;
use crate::SplitMix;

/// Latency limit on the p99 that `max_rps` must keep, ms.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// The fixed rate ladder `max_rps` climbs, req/s. Its first rungs are
/// the reported rate steps.
pub const LADDER: [u32; 10] = [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10_000];

/// The reported rate steps and their metric suffixes; all of them always
/// run. The server's own metrics are reported for the 2k and 3k steps.
pub const STEPS: [(u32, &str); 3] = [(1000, "1k"), (2000, "2k"), (3000, "3k")];

/// The step whose median server-side latency is the end-to-end `p50_ms`:
/// loaded lightly enough that the host's load swings do not tip the
/// server into queueing (at 2k they moved the median from 2.4 to 10 ms).
pub const P50_RATE: u32 = 1000;

/// Requests replayed per rung: enough for a p99 with 20 samples beyond it.
pub const REQUESTS: usize = 2000;

/// Response-set digests pinned per schedule seed for [`REQUESTS`]
/// requests (the default and the held-out seed; `serve --requests 2000
/// --seed S` prints the same values). Other seeds are checked against the
/// virtual-clock harness alone.
pub const PINNED_DIGESTS: &[(u64, u64)] =
    &[(42, 0xdc66_f526_11bb_8229), (1905, 0xca89_3cab_9336_5afb)];

/// The workload spec at `rate` req/s: bursts of 2–12 same-key requests,
/// 15 % table bursts, priority mix 0.25/0.5/0.25, no deadlines.
pub fn spec(seed: u64, requests: usize, rate: u32) -> WorkloadSpec {
    WorkloadSpec {
        requests,
        seed,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_nanos(1_000_000_000 / u64::from(rate)),
        ..WorkloadSpec::default()
    }
}

/// `ServerConfig::default()` serving every fast table generator.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        tables: fnr_bench::serving::table_registry(),
        ..ServerConfig::default()
    }
}

/// When each job is due, ns after the schedule's start.
pub fn due_offsets_ns(jobs: &[TimedJob]) -> Vec<u64> {
    let mut at = 0u64;
    jobs.iter()
        .map(|tj| {
            at += tj.delay_before.as_nanos() as u64;
            at
        })
        .collect()
}

/// How late the generator ran for one request, and the latency charged
/// to it: both count from the due time, so a late submit is charged in
/// full to the request it delayed.
pub fn charge(due_ns: u64, submit_start_ns: u64, observed_ns: u64) -> (u64, u64) {
    (
        submit_start_ns.saturating_sub(due_ns),
        observed_ns.saturating_sub(due_ns),
    )
}

/// One replay of the schedule at one rate.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, req/s (the schedule's rate for a saturated replay).
    pub rate: u32,
    /// Submitted on schedule; `false` for a saturated replay, where every
    /// request is due at the start.
    pub paced: bool,
    /// Requests in the schedule.
    pub requests: usize,
    /// Answered requests' latency from due time to observed completion, ms.
    pub latency_ms: Vec<f64>,
    /// Generator lateness per submitted request, ms.
    pub late_ms: Vec<f64>,
    /// Time parked in `Client::submit_with` per request, µs.
    pub submit_us: Vec<f64>,
    /// Requests rejected at admission, shed, failed or lost to shutdown.
    pub missed: usize,
    /// Last observed completion minus the last due time, ms.
    pub drain_lag_ms: f64,
    /// From the schedule's start to the last observed completion, s.
    pub wall_s: f64,
    /// Registry + job generation + `Server::start`, s.
    pub setup_s: f64,
    /// `Server::start` alone, ms.
    pub start_ms: f64,
    /// `Server::drain`, ms.
    pub drain_ms: f64,
    /// The server's own metrics.
    pub metrics: ServeMetrics,
    /// Conservation held: every chunk unit served, rejected, shed or failed.
    pub conserves: bool,
}

/// p99 of `latency_ms`, or infinity when any request was missed.
pub fn p99_with_misses(latency_ms: &[f64], missed: usize) -> f64 {
    if missed > 0 || latency_ms.is_empty() {
        return f64::INFINITY;
    }
    let mut v = latency_ms.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.99)
}

/// Whether a ladder rung holds: p99 within the limit, every request
/// answered, and the backlog drained within the limit after the last due
/// time (a growing backlog ends the rung far behind its schedule).
pub fn rung_passes(p99_ms: f64, missed: usize, drain_lag_ms: f64) -> bool {
    missed == 0 && p99_ms <= LATENCY_LIMIT_MS && drain_lag_ms <= LATENCY_LIMIT_MS
}

/// Index of the highest rung reached without a failure below it; `None`
/// when the lowest rung fails.
pub fn highest_passing(passes: &[bool]) -> Option<usize> {
    passes.iter().take_while(|&&p| p).count().checked_sub(1)
}

/// `max_rps` from the climbed rungs `(rate, score, passes)`, where a
/// rung's score is the larger of its p99 and its drain lag (ms): the
/// highest passing rung's rate, moved toward the first failing rung by
/// the fraction of the way its score is from the limit (linear
/// interpolation of the crossing), so the figure does not jump by a whole
/// rung when the crossing shifts a little. 0 when the first rung fails.
pub fn max_rps(rungs: &[(u32, f64, bool)]) -> f64 {
    let passes: Vec<bool> = rungs.iter().map(|r| r.2).collect();
    let Some(top) = highest_passing(&passes) else {
        return 0.0;
    };
    let (rate, score, _) = rungs[top];
    match rungs.get(top + 1) {
        Some(&(next, next_score, _)) if next_score.is_finite() && next_score > score => {
            let f = ((LATENCY_LIMIT_MS - score) / (next_score - score)).clamp(0.0, 1.0);
            f64::from(rate) + f * f64::from(next - rate)
        }
        _ => f64::from(rate),
    }
}

/// Saturated throughput from each replay's `(answered requests, wall)`,
/// the wall running from its start to its last observed completion:
/// answers per second over all replays.
pub fn saturated_rps(replays: &[(usize, f64)]) -> f64 {
    let answered: usize = replays.iter().map(|r| r.0).sum();
    answered as f64 / replays.iter().map(|r| r.1).sum::<f64>()
}

/// Distinct schedules replayed per rung so that one climb of the whole
/// ladder fills `budget` (at least one).
pub fn schedules_for(budget: Duration) -> usize {
    let ladder_s: f64 = LADDER.iter().map(|&r| REQUESTS as f64 / f64::from(r)).sum();
    ((budget.as_secs_f64() / ladder_s) as usize).max(1)
}

/// The schedule seeds of a run: `seed` itself, then a stream drawn from it.
pub fn schedule_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    (0..k)
        .map(|i| if i == 0 { seed } else { rng.next_u64() })
        .collect()
}

/// One rung: every schedule replayed at one rate.
pub struct Rung {
    /// Offered rate, req/s.
    pub rate: u32,
    /// One replay per schedule.
    pub steps: Vec<Step>,
}

impl Rung {
    /// Due-to-completion latencies of every replay, pooled.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.steps
            .iter()
            .flat_map(|s| s.latency_ms.iter().copied())
            .collect()
    }

    /// Requests missed over every replay.
    pub fn missed(&self) -> usize {
        self.steps.iter().map(|s| s.missed).sum()
    }

    /// Pooled p99 (infinite when a request was missed).
    pub fn p99_ms(&self) -> f64 {
        p99_with_misses(&self.latency_ms(), self.missed())
    }

    /// Median drain lag over the replays.
    pub fn drain_lag_ms(&self) -> f64 {
        median(
            &self
                .steps
                .iter()
                .map(|s| s.drain_lag_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// `(rate, score, passes)` for [`max_rps`].
    pub fn verdict(&self) -> (u32, f64, bool) {
        let (p99, lag) = (self.p99_ms(), self.drain_lag_ms());
        (
            self.rate,
            p99.max(lag),
            rung_passes(p99, self.missed(), lag),
        )
    }
}

/// Fills the process-wide prepared-quantized-model cache (one request per
/// scene and integer precision), so no timed step pays a one-time build.
pub fn warm_up() {
    let server = Server::start(&ServerConfig::default());
    let client = server.client();
    let mut ids = Vec::new();
    for scene in SceneKind::ALL {
        for p in [Precision::Int16, Precision::Int8, Precision::Int4] {
            let job = Workload::Render(RenderJob {
                scene,
                precision: RenderPrecision::Quantized(p),
                width: 4,
                height: 4,
                spp: 4,
                camera_seed: 1,
            });
            ids.push(client.submit(job).expect("warm-up server admits"));
        }
    }
    for id in ids {
        client.wait(id).expect("warm-up request answered");
    }
    server.drain();
}

/// The response-set digest the live server must reproduce for `jobs`,
/// from the single-threaded virtual-clock harness. Payloads are a pure
/// function of each job and no job has a deadline, so every job is served
/// in both modes and the digests must agree.
pub fn oracle_digest(jobs: &[TimedJob]) -> u64 {
    let service = VirtualService {
        service_ns: 500_000,
        per_item_ns: 0,
    };
    run_virtual(&server_config(), jobs, service).metrics.digest
}

/// Replays `requests` jobs of `seed`'s schedule at `rate` req/s against a
/// fresh server; unpaced, every job is due at the start and the submitter
/// runs as fast as backpressure lets it.
pub fn run_step(seed: u64, requests: usize, rate: u32, paced: bool, tracer: &Tracer) -> Step {
    let setup = Instant::now();
    let cfg = tracer.span("fnr_bench", "table_registry", 0, server_config);
    let jobs = tracer.span("fnr_serve.workload", "workload::generate", 0, || {
        generate(&spec(seed, requests, rate))
    });
    let due = if paced {
        due_offsets_ns(&jobs)
    } else {
        vec![0; jobs.len()]
    };
    let start = Instant::now();
    let server = tracer.span("fnr_serve.live", "Server::start", 0, || Server::start(&cfg));
    let start_ms = start.elapsed().as_secs_f64() * 1e3;
    let setup_s = setup.elapsed().as_secs_f64();
    let client = server.client();

    let n = jobs.len();
    let mut submit_ns = vec![0u64; n];
    // Lead time so the first due instant is not already in the past.
    let t0 = Instant::now() + Duration::from_millis(2);
    let since_t0 = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let (tx, rx) = mpsc::channel::<(usize, u64, Option<u64>)>();
    let waited = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let (mut latency_ms, mut late_ms) = (Vec::with_capacity(n), Vec::with_capacity(n));
            let (mut missed, mut last_done) = (0usize, 0u64);
            for (i, submit_start, id) in rx {
                let outcome = id.map(|id| {
                    tracer.wait("fnr_serve.live", "Client::wait_outcome", id, || {
                        client.wait_outcome(id)
                    })
                });
                let done = since_t0(Instant::now());
                last_done = last_done.max(done);
                let (late, latency) = charge(due[i], submit_start, done);
                late_ms.push(late as f64 / 1e6);
                match outcome {
                    Some(WaitOutcome::Answered(_)) => latency_ms.push(latency as f64 / 1e6),
                    _ => missed += 1,
                }
            }
            (latency_ms, late_ms, missed, last_done)
        });
        for (i, tj) in jobs.iter().enumerate() {
            let due_at = t0 + Duration::from_nanos(due[i]);
            let now = Instant::now();
            if due_at > now {
                tracer.wait("perfbench", "pace", i as u64, || {
                    std::thread::sleep(due_at - now)
                });
            }
            let submit_start = since_t0(Instant::now());
            // Parks while the lane is full (backpressure).
            let id = tracer.wait("fnr_serve.live", "Client::submit_with", i as u64, || {
                client.submit_with(tj.job.clone(), tj.priority, tj.deadline)
            });
            submit_ns[i] = since_t0(Instant::now()) - submit_start;
            tx.send((i, submit_start, id.ok()))
                .expect("waiter thread alive");
        }
        drop(tx);
        tracer
            .wait("perfbench", "join waiter", 0, || waiter.join())
            .expect("waiter thread panicked")
    });
    let (latency_ms, late_ms, missed, last_done) = waited;

    let drain = Instant::now();
    let report = tracer.span("fnr_serve.live", "Server::drain", 0, || server.drain());
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    let m = report.metrics;
    let conserves = report.responses.len() == m.requests
        && m.chunks_served + m.rejected + m.shed + m.failed == total_chunks(&jobs, cfg.chunks);
    let last_due = due.last().copied().unwrap_or(0);
    Step {
        rate,
        paced,
        requests: n,
        latency_ms,
        late_ms,
        submit_us: submit_ns.iter().map(|&x| x as f64 / 1e3).collect(),
        missed,
        drain_lag_ms: last_done.saturating_sub(last_due) as f64 / 1e6,
        wall_s: last_done as f64 / 1e9,
        setup_s,
        start_ms,
        drain_ms,
        metrics: m,
        conserves,
    }
}

/// Climbs [`LADDER`], replaying every schedule at each rung. The
/// reported steps always run; above them the climb stops at the first
/// failing rung.
pub fn climb(seeds: &[u64], tracer: &Tracer) -> Vec<Rung> {
    let mut rungs = Vec::new();
    for &rate in &LADDER {
        let steps = seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| {
                tracer.span("perfbench", "rung", k as u64, || {
                    run_step(seed, REQUESTS, rate, true, tracer)
                })
            })
            .collect();
        let rung = Rung { rate, steps };
        let pass = rung.verdict().2;
        rungs.push(rung);
        if !pass && rate >= STEPS[STEPS.len() - 1].0 {
            break;
        }
    }
    rungs
}

/// Climbs the ladder once with as many schedules per rung as half of
/// `budget` allows, replays those schedules saturated until the rest of
/// `budget` is spent (at least once), then checks every replay against
/// its schedule's digest.
pub fn run(seed: u64, budget: Duration, tracer: &Tracer, out: &mut Outcome) {
    let t = Instant::now();
    warm_up();
    let warm_up_ms = t.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let seeds = schedule_seeds(seed, schedules_for(budget / 2));
    let rungs = climb(&seeds, tracer);
    let mut saturated: Vec<(usize, Step)> = Vec::new();
    while saturated.is_empty() || started.elapsed() < budget {
        let k = saturated.len() % seeds.len();
        let step = tracer.span("perfbench", "saturated", k as u64, || {
            run_step(seeds[k], REQUESTS, LADDER[0], false, tracer)
        });
        saturated.push((k, step));
    }

    // Output checks, outside the timed climb: at every rate the live
    // response set must equal the virtual harness's for its schedule (and
    // the pin, where one exists), and every replay must conserve its
    // chunk units.
    let mut digests = Vec::new();
    for (k, &s) in seeds.iter().enumerate() {
        let expected = oracle_digest(&generate(&spec(s, REQUESTS, LADDER[0])));
        digests.push(format!("{s}:{expected:#018x}"));
        if let Some(&(_, pin)) = PINNED_DIGESTS.iter().find(|(p, _)| *p == s) {
            if expected != pin {
                out.broken(format!(
                    "serve: schedule {s}: virtual digest {expected:#018x} != pinned {pin:#018x}"
                ));
            }
        }
        let replays = rungs.iter().map(|r| &r.steps[k]).chain(
            saturated
                .iter()
                .filter(|(j, _)| *j == k)
                .map(|(_, step)| step),
        );
        for step in replays {
            let rate = if step.paced {
                format!("{} req/s", step.rate)
            } else {
                "saturation".to_string()
            };
            out.attempted += step.requests as u64;
            out.failed += step.missed as u64;
            if !step.conserves {
                out.fail(format!(
                    "serve: schedule {s} at {rate}: conservation broken"
                ));
            }
            if step.metrics.digest != expected {
                out.fail(format!(
                    "serve: schedule {s} at {rate}: digest {:#018x} != expected {expected:#018x}",
                    step.metrics.digest
                ));
            }
        }
    }

    let verdicts: Vec<(u32, f64, bool)> = rungs.iter().map(Rung::verdict).collect();
    let max = max_rps(&verdicts);
    let saturated: Vec<Step> = saturated.into_iter().map(|(_, step)| step).collect();
    let all_steps = || rungs.iter().flat_map(|r| r.steps.iter()).chain(&saturated);
    out.e2e(
        "setup_s",
        median(&all_steps().map(|s| s.setup_s).collect::<Vec<_>>()),
        "s",
    );
    let step = |rate: u32| {
        rungs
            .iter()
            .find(|r| r.rate == rate)
            .expect("the reported steps always run")
    };
    let replays: Vec<(usize, f64)> = saturated
        .iter()
        .map(|s| (s.latency_ms.len(), s.wall_s))
        .collect();
    out.e2e("work_per_s", saturated_rps(&replays), "1/s");
    // The server's own view (admission to completion): the outside view
    // adds the load threads' wake-ups, which the host's steal stretches
    // inflate most. The outside view is the per-layer `p50_ms.1k`.
    let server_p50 = step(P50_RATE)
        .steps
        .iter()
        .map(|s| s.metrics.render_ns.p50 as f64 / 1e6);
    out.e2e("p50_ms", median(&server_p50.collect::<Vec<_>>()), "ms");
    out.line(format!(
        "serve-bursty: {} schedules x {REQUESTS} requests per rung, warm-up {warm_up_ms:.1} ms, max_rps {max:.1}, \
         response-set digest per schedule seed {}",
        seeds.len(),
        digests.join(" ")
    ));
    let sat_rps: Vec<f64> = saturated
        .iter()
        .map(|s| s.latency_ms.len() as f64 / s.wall_s)
        .collect();
    out.line(format!(
        "  saturated: {} replays, throughput per replay {}",
        saturated.len(),
        Summary::of(&sat_rps).render("req/s")
    ));
    for (r, (_, score, pass)) in rungs.iter().zip(&verdicts) {
        out.line(format!(
            "  rung {:>5} req/s: pooled {}, missed {}, median drain lag {:.2} ms, score {score:.2} ms, {}",
            r.rate,
            Summary::of(&r.latency_ms()).render("ms"),
            r.missed(),
            r.drain_lag_ms(),
            if *pass { "pass" } else { "FAIL" }
        ));
    }
    out.layer("max_rps", max, "req/s");
    out.layer(
        "serve.start_ms",
        median(&all_steps().map(|s| s.start_ms).collect::<Vec<_>>()),
        "ms",
    );
    out.layer(
        "serve.drain_ms",
        median(&all_steps().map(|s| s.drain_ms).collect::<Vec<_>>()),
        "ms",
    );
    for (rate, tag) in STEPS {
        let rung = step(rate);
        let steps = &rung.steps;
        let med = |f: &dyn Fn(&Step) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
        let latency = Summary::of(&rung.latency_ms());
        out.layer(&format!("p50_ms.{tag}"), latency.p50, "ms");
        out.layer(&format!("p99_ms.{tag}"), rung.p99_ms(), "ms");
        let p99 = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, 0.99)
        };
        let ns = |x: u64| x as f64 / 1e6;
        let metrics: [StepMetric; 14] = [
            ("serve.submit_us.p99", &|s| p99(&s.submit_us), "us"),
            ("serve.gen_late_ms.p99", &|s| p99(&s.late_ms), "ms"),
            ("serve.queue_ms.p50", &|s| ns(s.metrics.queue_ns.p50), "ms"),
            ("serve.queue_ms.p99", &|s| ns(s.metrics.queue_ns.p99), "ms"),
            (
                "serve.service_ms.p50",
                &|s| ns(s.metrics.service_ns.p50),
                "ms",
            ),
            (
                "serve.service_ms.p99",
                &|s| ns(s.metrics.service_ns.p99),
                "ms",
            ),
            (
                "serve.occupancy",
                &|s| s.metrics.mean_occupancy,
                "req/batch",
            ),
            (
                "serve.coalescable_occupancy",
                &|s| s.metrics.coalescable_occupancy,
                "req/batch",
            ),
            (
                "serve.flush_timeout_share",
                &|s| flush_timeout_share(&s.metrics),
                "ratio",
            ),
            (
                "serve.server_latency_ms.p99",
                &|s| ns(s.metrics.render_ns.p99),
                "ms",
            ),
            ("serve.rejected", &|s| s.metrics.rejected as f64, "count"),
            ("serve.shed", &|s| s.metrics.shed as f64, "count"),
            ("serve.failed", &|s| s.metrics.failed as f64, "count"),
            (
                "serve.worker_restarts",
                &|s| s.metrics.worker_restarts as f64,
                "count",
            ),
        ];
        if rate != P50_RATE {
            for (name, f, unit) in metrics {
                out.layer(&format!("{name}.{tag}"), med(f), unit);
            }
        }
        let pooled = |f: &dyn Fn(&Step) -> &Vec<f64>| {
            steps
                .iter()
                .flat_map(|s| f(s).iter().copied())
                .collect::<Vec<_>>()
        };
        out.line(format!(
            "  {tag}: latency from due {}; generator late {}; submit parked {}; server-side latency p50 \
             {:.4} ms, p99 {:.4} ms (the outside view waits in id order, so an overtaken request is \
             charged its predecessor's completion)",
            latency.render("ms"),
            Summary::of(&pooled(&|s| &s.late_ms)).render("ms"),
            Summary::of(&pooled(&|s| &s.submit_us)).render("us"),
            med(&|s| ns(s.metrics.render_ns.p50)),
            med(&|s| ns(s.metrics.render_ns.p99)),
        ));
    }
}

/// A per-step metric: name, how to read it from a step, unit.
type StepMetric<'a> = (&'a str, &'a dyn Fn(&Step) -> f64, &'static str);

/// Share of batches flushed by the linger timeout.
fn flush_timeout_share(m: &ServeMetrics) -> f64 {
    let all = m.flushed_size + m.flushed_timeout + m.flushed_drain;
    if all == 0 {
        0.0
    } else {
        m.flushed_timeout as f64 / all as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rps_interpolates_the_limit_crossing() {
        // Passing 2k and 3k, failing 4k at a score of 80 ms: the 50 ms
        // crossing sits a quarter of the way from 3k (score 40) to 4k.
        let r = [(2000, 20.0, true), (3000, 40.0, true), (4000, 80.0, false)];
        assert_eq!(max_rps(&r), 3250.0);
        // A failing rung that missed requests moves nothing.
        assert_eq!(
            max_rps(&[(2000, 20.0, true), (3000, f64::INFINITY, false)]),
            2000.0
        );
        // The whole ladder passing reports its top rung.
        assert_eq!(max_rps(&[(2000, 20.0, true), (3000, 30.0, true)]), 3000.0);
        // A failure below stops the climb even if a higher rung passed.
        assert_eq!(
            max_rps(&[(2000, 20.0, true), (3000, 60.0, false), (4000, 30.0, true)]),
            2000.0 + 1000.0 * 0.75
        );
        assert_eq!(max_rps(&[(2000, 60.0, false)]), 0.0);
    }

    #[test]
    fn saturated_throughput_is_answers_over_summed_wall() {
        // 300 answers in 0.1 s and 500 in 0.3 s: 800 over 0.4 s, not the
        // mean of the per-replay rates.
        assert_eq!(saturated_rps(&[(300, 0.1), (500, 0.3)]), 2000.0);
        assert_eq!(saturated_rps(&[(0, 1.0)]), 0.0);
    }

    #[test]
    fn schedules_fill_the_budget() {
        assert_eq!(schedules_for(Duration::ZERO), 1);
        let one = schedules_for(Duration::from_secs(20));
        assert!(one > 1 && schedules_for(Duration::from_secs(40)) >= 2 * one - 1);
        let seeds = schedule_seeds(42, 3);
        assert_eq!(seeds[0], 42, "the first schedule is the pinned one");
        assert_eq!(seeds, schedule_seeds(42, 3));
        assert_ne!(seeds[1], seeds[2]);
    }

    #[test]
    fn ladder_stops_at_first_failing_rung() {
        assert_eq!(highest_passing(&[true, true, false, true]), Some(1));
        assert_eq!(highest_passing(&[true, true, true]), Some(2));
        assert_eq!(highest_passing(&[false, true]), None);
        assert_eq!(highest_passing(&[]), None);
    }

    #[test]
    fn rung_rule_needs_limit_every_answer_and_no_backlog() {
        assert!(rung_passes(49.9, 0, 3.0));
        assert!(rung_passes(LATENCY_LIMIT_MS, 0, LATENCY_LIMIT_MS));
        assert!(!rung_passes(50.1, 0, 3.0), "p99 over the limit");
        assert!(
            !rung_passes(10.0, 1, 3.0),
            "a missed request fails the rung"
        );
        assert!(
            !rung_passes(10.0, 0, 400.0),
            "a backlog left at the end fails the rung"
        );
    }

    #[test]
    fn lateness_is_charged_to_the_request_it_delays() {
        // Due at 1 ms, the generator got to it at 4 ms, the answer was
        // observed at 6 ms: 3 ms late, and 5 ms of latency, not 2.
        assert_eq!(
            charge(1_000_000, 4_000_000, 6_000_000),
            (3_000_000, 5_000_000)
        );
        // An early generator is never credited.
        assert_eq!(charge(5_000_000, 4_000_000, 6_000_000), (0, 1_000_000));
    }

    #[test]
    fn missed_requests_fail_the_latency_limit() {
        assert_eq!(p99_with_misses(&[1.0, 2.0], 1), f64::INFINITY);
        assert_eq!(p99_with_misses(&[], 0), f64::INFINITY);
        assert_eq!(p99_with_misses(&[1.0, 2.0], 0), 2.0);
    }

    #[test]
    fn due_offsets_accumulate_and_scale_with_rate() {
        let slow = generate(&spec(7, 200, 1000));
        let fast = generate(&spec(7, 200, 4000));
        let (a, b) = (due_offsets_ns(&slow), due_offsets_ns(&fast));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 200);
        // Same jobs, a quarter of the gaps.
        assert!(a.iter().zip(&b).all(|(x, y)| *x == 4 * y));
        // The mean rate is the offered rate.
        let rate = 200.0 / (*a.last().unwrap() as f64 / 1e9);
        assert!((rate - 1000.0).abs() / 1000.0 < 0.1, "offered {rate} req/s");
    }
}
