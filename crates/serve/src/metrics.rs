//! The outcome ledger every serving mode records into, and the aggregate
//! serving report folded from it.

use std::collections::HashMap;

use crate::batch::{Batch, FlushReason};
use crate::request::{BatchKey, Request};
use crate::sched::{Priority, SchedConfig};

/// How one chunk unit left a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Rendered and answered after `service_ns` of batch execution;
    /// `late` if it finished at or past its deadline (it started in time,
    /// else it would have been shed) — counted as `expired`.
    Served { service_ns: u64, late: bool },
    /// Dropped at dequeue: its deadline passed while it queued.
    Shed,
    /// Terminated as `Failed` (quarantine, open breaker, injected fault).
    Failed,
}

/// One terminal record: which chunk unit ended how, and how long it
/// queued first. Unchunked requests are a single chunk (`of == 1`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Terminal {
    id: u64,
    priority: Priority,
    /// Chunks the parent request was split into.
    of: u32,
    /// Admission → execution start (served), or → the shed/fail decision.
    queue_ns: u64,
    outcome: Outcome,
}

impl Terminal {
    fn at(req: &Request, now_ns: u64, outcome: Outcome) -> Self {
        Terminal {
            id: req.id,
            priority: req.priority,
            of: req.chunk.of,
            queue_ns: now_ns.saturating_sub(req.arrival_ns),
            outcome,
        }
    }

    /// `req` started service at `start_ns` in a batch that took
    /// `service_ns`.
    pub(crate) fn served(req: &Request, start_ns: u64, service_ns: u64) -> Self {
        let late = req.deadline_ns.is_some_and(|d| start_ns.saturating_add(service_ns) >= d);
        Terminal::at(req, start_ns, Outcome::Served { service_ns, late })
    }

    /// `req` was shed at `now_ns`.
    pub(crate) fn shed(req: &Request, now_ns: u64) -> Self {
        Terminal::at(req, now_ns, Outcome::Shed)
    }

    /// `req` failed terminally at `now_ns`.
    pub(crate) fn failed(req: &Request, now_ns: u64) -> Self {
        Terminal::at(req, now_ns, Outcome::Failed)
    }
}

/// Record for one executed batch.
#[derive(Debug, Clone)]
struct BatchMetric {
    key: BatchKey,
    size: usize,
    service_ns: u64,
    flush: FlushReason,
}

/// Everything one serving pipeline decided about its traffic, in chunk
/// units: per-lane admission rejects and brownout downgrades, one
/// [`Terminal`] per served, shed or failed chunk, and one record per
/// executed batch — plus the live supervisor's retry and respawn counts
/// and the breaker's totals. The live server, the virtual pipeline and
/// the cluster hedge arbiter all record here, and
/// [`ServeMetrics::aggregate`] folds it — so every mode counts the same
/// way.
#[derive(Debug, Clone)]
pub(crate) struct Ledger {
    sched: SchedConfig,
    rejected: Vec<usize>,
    degraded: Vec<usize>,
    terminals: Vec<Terminal>,
    batches: Vec<BatchMetric>,
    /// Re-execution attempts of quarantined requests (each retry counts).
    pub(crate) retried: usize,
    /// Crashed workers the supervisor respawned.
    pub(crate) worker_restarts: usize,
    /// Times a per-key circuit breaker tripped open.
    pub(crate) breaker_opened: usize,
    /// Half-open probes the breaker admitted after cooldowns.
    pub(crate) breaker_half_open_probes: usize,
}

impl Ledger {
    /// An empty ledger over `sched`'s lanes.
    pub(crate) fn new(sched: &SchedConfig) -> Self {
        let lanes = sched.lanes.len();
        Ledger {
            sched: sched.clone(),
            rejected: vec![0; lanes],
            degraded: vec![0; lanes],
            terminals: Vec::new(),
            batches: Vec::new(),
            retried: 0,
            worker_restarts: 0,
            breaker_opened: 0,
            breaker_half_open_probes: 0,
        }
    }

    /// Batches executed so far.
    pub(crate) fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// `units` chunk units of a `priority` request never entered their
    /// lane (full or zero-capacity lane, or admission closed).
    pub(crate) fn reject(&mut self, priority: Priority, units: usize) {
        self.rejected[self.sched.lane_of(priority)] += units;
    }

    /// The brownout downgraded a request drained from `lane`.
    pub(crate) fn degrade(&mut self, lane: usize) {
        self.degraded[lane] += 1;
    }

    /// Records one chunk's terminal outcome.
    pub(crate) fn record(&mut self, t: Terminal) {
        self.terminals.push(t);
    }

    /// Records one executed batch (all its members, including any whose
    /// completion is then suppressed).
    pub(crate) fn batch(&mut self, batch: &Batch, service_ns: u64) {
        self.batches.push(BatchMetric {
            key: batch.key.clone(),
            size: batch.requests.len(),
            service_ns,
            flush: batch.flush,
        });
    }

    /// Panics, with the numbers, unless each of `submitted` chunk units
    /// terminated exactly once: served, shed, rejected or failed in one
    /// of `ledgers`, or among the `front_door` units a cluster router
    /// dropped before any replica saw them.
    pub(crate) fn assert_conserved<'a>(
        ledgers: impl IntoIterator<Item = &'a Ledger>,
        front_door: usize,
        submitted: usize,
    ) {
        let (mut served, mut shed, mut rejected, mut failed) = (0, 0, 0, 0);
        for l in ledgers {
            rejected += l.rejected.iter().sum::<usize>();
            for t in &l.terminals {
                match t.outcome {
                    Outcome::Served { .. } => served += 1,
                    Outcome::Shed => shed += 1,
                    Outcome::Failed => failed += 1,
                }
            }
        }
        assert!(
            served + shed + rejected + failed + front_door == submitted,
            "chunk conservation violated: served {served} + shed {shed} + rejected {rejected} \
             + failed {failed} + front door {front_door} != submitted chunks {submitted}"
        );
    }
}

/// Aggregated per-lane serving outcome: every admitted request of the lane
/// is `served`, `shed`, or `failed`; `expired` is the subset of `served`
/// that finished past its deadline and `degraded` the subset served at a
/// browned-out precision.
#[derive(Debug, Clone)]
pub struct LaneStats {
    /// Lane label.
    pub name: String,
    /// Drain weight.
    pub weight: u64,
    /// Requests admitted to this lane (`served + shed + failed`).
    pub submitted: usize,
    /// Requests rendered and answered.
    pub served: usize,
    /// Requests dropped at dequeue because their deadline passed while
    /// queued.
    pub shed: usize,
    /// Served requests that finished after their deadline.
    pub expired: usize,
    /// Requests rejected at admission.
    pub rejected: usize,
    /// Requests that terminated as `Failed` under quarantine (or against
    /// an open circuit breaker).
    pub failed: usize,
    /// Served requests the brownout downgraded to a cheaper precision.
    pub degraded: usize,
    /// Queue-latency histogram over every admitted request (served, shed
    /// and failed alike — all experienced the queue).
    pub queue_hist: LatencyHistogram,
}

/// Simple summary statistics over a set of nanosecond samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct NsStats {
    /// Arithmetic mean.
    pub mean: u64,
    /// 50th percentile (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl NsStats {
    /// Computes stats from samples (all zeros when empty).
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return NsStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        // Total on every input: `clamp(1, 0)` panics (min > max), so an
        // empty set short-circuits to 0 instead of relying on the guard
        // above staying in place.
        let rank = |p: f64| match sorted.len() {
            0 => 0,
            n => sorted[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1],
        };
        NsStats {
            mean: (sorted.iter().map(|&v| v as u128).sum::<u128>() / sorted.len() as u128) as u64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Escapes a string for embedding in the hand-rolled JSON record. Lane
/// names are the one string callers control (every other string in the
/// record is a literal this crate owns), so they must not be able to
/// break the document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Number of histogram buckets: one per edge plus the overflow bucket.
pub(crate) const LATENCY_BUCKETS: usize = LATENCY_EDGES_NS.len() + 1;

/// Fixed upper edges (exclusive, ns) of the latency histogram: log-4
/// spaced from 1 µs to ~16.8 s. Fixed — never derived from the data — so
/// bucket counts from different runs, machines and CI legs are directly
/// comparable, and a tail shift shows up as counts migrating to higher
/// buckets.
pub(crate) const LATENCY_EDGES_NS: [u64; 13] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
    16_777_216_000,
];

/// Fixed-bucket latency histogram over 13 fixed log-4 edges from 1 µs to
/// ~16.8 s (listed as `edges_ns` in every JSON record). Bucket `i` counts
/// samples in `[edge(i-1), edge(i))`; the last bucket counts everything
/// at or above the final edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: [0; LATENCY_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Adds one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = LATENCY_EDGES_NS
            .iter()
            .position(|&edge| ns < edge)
            .unwrap_or(LATENCY_EDGES_NS.len());
        self.counts[bucket] += 1;
    }

    /// Builds a histogram from samples.
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut h = LatencyHistogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Per-bucket counts, lowest bucket first (overflow last).
    pub fn counts(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The exact bucketwise sum of two histograms — the fixed edges make
    /// merging lossless, so a cluster-wide histogram is *identical* to
    /// re-bucketing every underlying sample (the schema tests pin this).
    pub fn merge(&self, other: &LatencyHistogram) -> LatencyHistogram {
        let mut out = *self;
        for (a, b) in out.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        out
    }

    /// The `{ "edges_ns": [...], "counts": [...] }` JSON fragment.
    fn to_json(self) -> String {
        let join = |it: &mut dyn Iterator<Item = u64>| {
            it.map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        };
        format!(
            "{{ \"edges_ns\": [{}], \"counts\": [{}] }}",
            join(&mut LATENCY_EDGES_NS.iter().copied()),
            join(&mut self.counts.iter().copied())
        )
    }
}

/// Aggregate metrics for one serving run.
///
/// With streaming on (`chunks > 1`) the per-lane counters, `shed`,
/// `rejected`, `failed` and the queue/service stats are **chunk units**;
/// `requests` counts whole answered renders and `chunks_served` the
/// served chunk units. At chunk count 1 the two units coincide and every
/// field reproduces its pre-streaming value exactly.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Whole requests answered (every chunk served and reassembled).
    pub requests: usize,
    /// Chunk units served, summed over requests (`== requests` at chunk
    /// count 1).
    pub chunks_served: usize,
    /// Requests rejected at admission (zero-capacity or full lane, or a
    /// closed queue), summed over lanes.
    pub rejected: usize,
    /// Requests shed at dequeue (deadline passed while queued), summed
    /// over lanes.
    pub shed: usize,
    /// Served requests that finished after their deadline, summed over
    /// lanes.
    pub expired: usize,
    /// Requests that terminated as `Failed` (quarantine exhausted their
    /// retries, or their key's breaker was open), summed over lanes.
    pub failed: usize,
    /// Served requests the brownout downgraded to a cheaper precision,
    /// summed over lanes.
    pub degraded: usize,
    /// Re-execution attempts of quarantined requests.
    pub retried: usize,
    /// Crashed workers the supervisor respawned.
    pub worker_restarts: usize,
    /// Times a per-key circuit breaker tripped open.
    pub breaker_opened: usize,
    /// Half-open probes the breaker admitted after cooldowns.
    pub breaker_half_open_probes: usize,
    /// Per-lane outcome counters and queue-latency histograms.
    pub lanes: Vec<LaneStats>,
    /// Batches executed.
    pub batches: usize,
    /// Mean batch size over all batches.
    pub mean_occupancy: f64,
    /// Mean batch size restricted to the coalescable portion of the
    /// workload: batches whose key received more than one request over the
    /// whole run (a key requested once can never coalesce, so it says
    /// nothing about the batcher).
    pub coalescable_occupancy: f64,
    /// Batches flushed by the size threshold.
    pub flushed_size: usize,
    /// Batches flushed by linger timeout.
    pub flushed_timeout: usize,
    /// Batches flushed by shutdown drain.
    pub flushed_drain: usize,
    /// Queue-latency stats (submit → execution start), per chunk.
    pub queue_ns: NsStats,
    /// Batch service-time stats.
    pub service_ns: NsStats,
    /// Time-to-first-chunk stats: per answered request, the *smallest*
    /// chunk end-to-end latency — when the stream's first byte band was
    /// ready. Equals `render_ns` at chunk count 1.
    pub first_chunk_ns: NsStats,
    /// Full-render latency stats: per answered request, the *largest*
    /// chunk end-to-end latency — when the whole response was ready.
    pub render_ns: NsStats,
    /// Fixed-bucket histogram of per-request end-to-end latency (the
    /// `render_ns` samples: queue wait + batch service of the slowest
    /// chunk), for CI-diffable tail tracking.
    pub latency_hist: LatencyHistogram,
    /// Fixed-bucket histogram of the time-to-first-chunk samples.
    pub first_chunk_hist: LatencyHistogram,
    /// Whole-run wall time.
    pub wall_ns: u64,
    /// Worker threads the server ran.
    pub workers: usize,
    /// `fnr_par` width during the run (inner render parallelism).
    pub threads: usize,
    /// Order-canonical digest of the response set.
    pub digest: u64,
}

impl ServeMetrics {
    /// Folds a pipeline's [`Ledger`] (lane order comes from its
    /// `SchedConfig`) plus the digest of its answers and the run's clock
    /// into the report.
    pub(crate) fn aggregate(ledger: &Ledger, digest: u64, wall_ns: u64, workers: usize) -> Self {
        let mut lanes: Vec<LaneStats> = ledger
            .sched
            .lanes
            .iter()
            .enumerate()
            .map(|(li, l)| LaneStats {
                name: l.name.clone(),
                weight: l.weight,
                submitted: 0,
                served: 0,
                shed: 0,
                expired: 0,
                rejected: ledger.rejected[li],
                failed: 0,
                degraded: ledger.degraded[li],
                queue_hist: LatencyHistogram::new(),
            })
            .collect();
        // Group served chunks by parent request: a parent every chunk of
        // which was served is an answered request. Its *fastest* chunk
        // latency is the time-to-first-chunk (the stream had bytes), its
        // *slowest* is the full-render latency (the stream completed). At
        // chunk count 1 both equal the single chunk's latency.
        let mut parents: HashMap<u64, (u32, u32, u64, u64)> = HashMap::new();
        let mut queue_samples = Vec::new();
        for t in &ledger.terminals {
            // Served, shed and failed all passed through the queue: the
            // lane histogram counts every admitted chunk.
            let lane = &mut lanes[ledger.sched.lane_of(t.priority)];
            lane.submitted += 1;
            lane.queue_hist.record(t.queue_ns);
            match t.outcome {
                Outcome::Served { service_ns, late } => {
                    lane.served += 1;
                    lane.expired += usize::from(late);
                    queue_samples.push(t.queue_ns);
                    let lat = t.queue_ns + service_ns;
                    let e = parents.entry(t.id).or_insert((0, t.of, u64::MAX, 0));
                    e.0 += 1;
                    e.2 = e.2.min(lat);
                    e.3 = e.3.max(lat);
                }
                Outcome::Shed => lane.shed += 1,
                Outcome::Failed => lane.failed += 1,
            }
        }
        let mut first_samples = Vec::new();
        let mut full_samples = Vec::new();
        for &(count, of, min, max) in parents.values() {
            if count == of {
                first_samples.push(min);
                full_samples.push(max);
            }
        }
        let batches = &ledger.batches;
        let mut key_totals: HashMap<&BatchKey, usize> = HashMap::new();
        for b in batches {
            *key_totals.entry(&b.key).or_insert(0) += b.size;
        }
        let mean = |sizes: &mut dyn Iterator<Item = usize>| {
            let (n, sum) = sizes.fold((0usize, 0usize), |(n, sum), s| (n + 1, sum + s));
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64
            }
        };
        let flushed = |f: FlushReason| batches.iter().filter(|b| b.flush == f).count();
        ServeMetrics {
            requests: full_samples.len(),
            chunks_served: queue_samples.len(),
            rejected: lanes.iter().map(|l| l.rejected).sum(),
            shed: lanes.iter().map(|l| l.shed).sum(),
            expired: lanes.iter().map(|l| l.expired).sum(),
            failed: lanes.iter().map(|l| l.failed).sum(),
            degraded: lanes.iter().map(|l| l.degraded).sum(),
            retried: ledger.retried,
            worker_restarts: ledger.worker_restarts,
            breaker_opened: ledger.breaker_opened,
            breaker_half_open_probes: ledger.breaker_half_open_probes,
            lanes,
            batches: batches.len(),
            mean_occupancy: mean(&mut batches.iter().map(|b| b.size)),
            // Only keys that received more than one request over the run
            // can coalesce at all.
            coalescable_occupancy: mean(
                &mut batches.iter().filter(|b| key_totals[&b.key] > 1).map(|b| b.size),
            ),
            flushed_size: flushed(FlushReason::Size),
            flushed_timeout: flushed(FlushReason::Timeout),
            flushed_drain: flushed(FlushReason::Drain),
            queue_ns: NsStats::from_samples(&queue_samples),
            service_ns: NsStats::from_samples(
                &batches.iter().map(|b| b.service_ns).collect::<Vec<_>>(),
            ),
            first_chunk_ns: NsStats::from_samples(&first_samples),
            render_ns: NsStats::from_samples(&full_samples),
            latency_hist: LatencyHistogram::from_samples(&full_samples),
            first_chunk_hist: LatencyHistogram::from_samples(&first_samples),
            wall_ns,
            workers,
            threads: fnr_par::current_num_threads(),
            digest,
        }
    }

    /// Renders the `flexnerfer-serve-bench/4` JSON record (hand-rolled,
    /// mirroring the `flexnerfer-repro-bench/2` trajectory format: every
    /// value is a number or a string this crate controls). Schema `/2`
    /// extended `/1` with the scheduler's `shed`/`expired` totals and the
    /// per-lane `lanes` array; `/3` added the robustness counters —
    /// `failed`/`retried`/`degraded`/`worker_restarts` totals, the
    /// `breaker` object, and per-lane `failed`/`degraded`; `/4` adds the
    /// streaming fields — `chunks_served`, the `first_chunk_ns` /
    /// `render_ns` stats, `first_chunk_hist`, a `p99` in every stats
    /// object — and re-bases the per-lane counters on chunk units
    /// (identical to `/3` at chunk count 1).
    pub fn to_json(&self) -> String {
        let stats = |s: &NsStats| {
            format!(
                "{{ \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }}",
                s.mean, s.p50, s.p95, s.p99, s.max
            )
        };
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"flexnerfer-serve-bench/4\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!("  \"chunks_served\": {},\n", self.chunks_served));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"shed\": {},\n", self.shed));
        out.push_str(&format!("  \"expired\": {},\n", self.expired));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!("  \"retried\": {},\n", self.retried));
        out.push_str(&format!("  \"degraded\": {},\n", self.degraded));
        out.push_str(&format!("  \"worker_restarts\": {},\n", self.worker_restarts));
        out.push_str(&format!(
            "  \"breaker\": {{ \"opened\": {}, \"half_open_probes\": {} }},\n",
            self.breaker_opened, self.breaker_half_open_probes
        ));
        out.push_str("  \"lanes\": [\n");
        out.push_str(&lanes_json(&self.lanes, "    "));
        out.push_str("  ],\n");
        out.push_str(&format!("  \"batches\": {},\n", self.batches));
        out.push_str(&format!("  \"mean_batch_occupancy\": {:.4},\n", self.mean_occupancy));
        out.push_str(&format!("  \"coalescable_occupancy\": {:.4},\n", self.coalescable_occupancy));
        out.push_str(&format!(
            "  \"flushes\": {{ \"size\": {}, \"timeout\": {}, \"drain\": {} }},\n",
            self.flushed_size, self.flushed_timeout, self.flushed_drain
        ));
        out.push_str(&format!("  \"queue_ns\": {},\n", stats(&self.queue_ns)));
        out.push_str(&format!("  \"service_ns\": {},\n", stats(&self.service_ns)));
        out.push_str(&format!("  \"first_chunk_ns\": {},\n", stats(&self.first_chunk_ns)));
        out.push_str(&format!("  \"render_ns\": {},\n", stats(&self.render_ns)));
        out.push_str(&format!("  \"request_latency_hist\": {},\n", self.latency_hist.to_json()));
        out.push_str(&format!("  \"first_chunk_hist\": {},\n", self.first_chunk_hist.to_json()));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"digest\": \"{:#018x}\"\n", self.digest));
        out.push_str("}\n");
        out
    }
}

/// Renders a `lanes` array body (one line per lane, `indent`-prefixed),
/// shared by the serve and cluster schemas so per-lane counter shapes
/// stay identical between them.
fn lanes_json(lanes: &[LaneStats], indent: &str) -> String {
    let mut out = String::new();
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!(
            "{indent}{{ \"name\": \"{}\", \"weight\": {}, \"submitted\": {}, \"served\": {}, \
             \"shed\": {}, \"expired\": {}, \"rejected\": {}, \"failed\": {}, \"degraded\": {}, \
             \"queue_hist\": {} }}{}\n",
            json_escape(&lane.name),
            lane.weight,
            lane.submitted,
            lane.served,
            lane.shed,
            lane.expired,
            lane.rejected,
            lane.failed,
            lane.degraded,
            lane.queue_hist.to_json(),
            if i + 1 == lanes.len() { "" } else { "," }
        ));
    }
    out
}

/// One replica's view of a cluster run: its full single-server metrics
/// plus the cluster-layer counters (routing, failover, faults, cache).
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Replica index (ring identity).
    pub replica: usize,
    /// Whether the replica was alive when the run ended.
    pub alive: bool,
    /// Kill events this replica absorbed.
    pub kills: usize,
    /// Restart events this replica absorbed.
    pub restarts: usize,
    /// Fresh submissions the router sent here (failovers excluded).
    pub routed: usize,
    /// Orphans of this replica's kills that were re-admitted elsewhere.
    pub failed_over_out: usize,
    /// Orphans of other replicas' kills re-admitted here.
    pub failed_over_in: usize,
    /// Model-cache hits (a batch whose `(scene, precision)` model was
    /// already resident).
    pub cache_hits: u64,
    /// Model-cache misses (the batch paid the modeled cold-start cost).
    pub cache_misses: u64,
    /// Virtual time this replica's workers spent serving batches.
    pub busy_ns: u64,
    /// Times the failure detector marked this replica Suspect (a
    /// `Healthy → Suspect` crossing, counted once per crossing).
    pub suspects: usize,
    /// Gray-failure service-time multiplier in effect when the run ended
    /// (1 = nominal; set by `slow@T:R:F` fault events).
    pub slow_factor: u64,
    /// Whether the replica left the ring gracefully (`leave@T:R`) and
    /// finished draining before the run ended.
    pub departed: bool,
    /// The replica's own single-server aggregate (lane counters, queue
    /// histograms, digest over the responses it served).
    pub metrics: ServeMetrics,
}

/// Aggregate metrics for one cluster simulation run: cluster-wide totals
/// plus every replica's [`ReplicaStats`]. The cluster latency histogram
/// is the exact bucketwise merge of the replica histograms.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Per-replica stats, in replica-index order.
    pub replicas: Vec<ReplicaStats>,
    /// Jobs in the submitted schedule.
    pub submitted: usize,
    /// Chunk units across the submitted schedule (`== submitted` at
    /// chunk count 1). The conservation law balances in these units.
    pub submitted_chunks: usize,
    /// Chunk units served (answered with payload bytes), summed over
    /// replicas. With streaming on, one request's chunks may be served
    /// by different replicas after a failover.
    pub served: usize,
    /// Whole requests answered: parents whose every chunk was served
    /// somewhere in the cluster and reassembled (`== served` at chunk
    /// count 1).
    pub completed: usize,
    /// Requests shed by replica schedulers (deadline passed while
    /// queued), summed over replicas.
    pub shed: usize,
    /// Requests the front door dropped: no routable replica with
    /// inflight headroom existed (fresh submissions and failover
    /// re-admissions alike), or CoDel overload admission shed the
    /// arrival. Superset of `overload_shed`.
    pub front_door_shed: usize,
    /// The CoDel overload-admission subset of `front_door_shed`.
    pub overload_shed: usize,
    /// Requests that got a hedge copy placed on a second replica.
    pub hedged: usize,
    /// Hedged requests whose hedge copy completed first.
    pub hedge_won: usize,
    /// Hedged requests whose hedge copy lost or was wasted.
    pub hedge_wasted: usize,
    /// Replicas added by scale-out (`join@T`) events.
    pub joins: usize,
    /// Replicas drained by scale-in (`leave@T:R`) events.
    pub leaves: usize,
    /// `Healthy → Suspect` detector crossings, summed over replicas.
    pub suspects: usize,
    /// Served requests that finished past their deadline, summed over
    /// replicas.
    pub expired: usize,
    /// Requests rejected at a replica's admission (full lane), summed
    /// over replicas.
    pub rejected: usize,
    /// Requests that terminated as `Failed` (fault injection / quarantine)
    /// on a replica, summed over replicas.
    pub failed: usize,
    /// Orphaned requests successfully re-admitted on another replica.
    pub failed_over: usize,
    /// Kill events executed by the fault plan.
    pub kills: usize,
    /// Restart events executed by the fault plan.
    pub restarts: usize,
    /// Exact merge of the per-replica end-to-end latency histograms.
    pub latency_hist: LatencyHistogram,
    /// Exact merge of the per-replica time-to-first-chunk histograms.
    pub first_chunk_hist: LatencyHistogram,
    /// Virtual wall clock when the last replica went idle.
    pub wall_ns: u64,
    /// Virtual workers per replica.
    pub workers_per_replica: usize,
    /// `fnr_par` width during the run (render fan-out only).
    pub threads: usize,
    /// Order-canonical digest over the whole cluster's response set.
    pub digest: u64,
}

impl ClusterMetrics {
    /// Every submitted chunk unit must terminate exactly once somewhere
    /// in the cluster: served, scheduler-shed, rejected at an admission
    /// edge, failed under fault injection, or dropped at the front door.
    /// Failover moves a chunk, it never duplicates or loses one — this
    /// is the conservation law the chaos suite (and the CLI self-check)
    /// enforce. At chunk count 1 the units are whole requests and the
    /// balance is against `submitted` itself.
    pub fn conserves_submitted(&self) -> bool {
        self.served + self.shed + self.rejected + self.failed + self.front_door_shed
            == self.submitted_chunks
    }

    /// Renders the `flexnerfer-cluster-bench/4` JSON record (hand-rolled
    /// like the serve/repro records: every value is a number or a string
    /// this crate controls). Schema `/3` added the resilience-layer totals
    /// (`overload_shed`, `hedged`/`hedge_won`/`hedge_wasted`, `joins`,
    /// `leaves`, `suspects`) and per-replica `suspects`/`slow_factor`/
    /// `departed`; `/2` added the `failed` totals (and the per-lane
    /// `failed`/`degraded` counters inherited from the serve lanes
    /// array); `/4` adds the streaming fields — `submitted_chunks`,
    /// `completed`, `first_chunk_hist` — and re-bases `served`/`shed`/
    /// `rejected`/`failed` on chunk units (identical to `/3` at chunk
    /// count 1).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"flexnerfer-cluster-bench/4\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"replicas\": {},\n", self.replicas.len()));
        out.push_str(&format!("  \"workers_per_replica\": {},\n", self.workers_per_replica));
        out.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        out.push_str(&format!("  \"submitted_chunks\": {},\n", self.submitted_chunks));
        out.push_str(&format!("  \"completed\": {},\n", self.completed));
        out.push_str(&format!("  \"served\": {},\n", self.served));
        out.push_str(&format!("  \"shed\": {},\n", self.shed));
        out.push_str(&format!("  \"front_door_shed\": {},\n", self.front_door_shed));
        out.push_str(&format!("  \"overload_shed\": {},\n", self.overload_shed));
        out.push_str(&format!("  \"expired\": {},\n", self.expired));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!("  \"failed_over\": {},\n", self.failed_over));
        out.push_str(&format!(
            "  \"hedging\": {{ \"hedged\": {}, \"won\": {}, \"wasted\": {} }},\n",
            self.hedged, self.hedge_won, self.hedge_wasted
        ));
        out.push_str(&format!("  \"kills\": {},\n", self.kills));
        out.push_str(&format!("  \"restarts\": {},\n", self.restarts));
        out.push_str(&format!("  \"joins\": {},\n", self.joins));
        out.push_str(&format!("  \"leaves\": {},\n", self.leaves));
        out.push_str(&format!("  \"suspects\": {},\n", self.suspects));
        out.push_str("  \"replica_stats\": [\n");
        for (i, r) in self.replicas.iter().enumerate() {
            let m = &r.metrics;
            let hit_ratio = if r.cache_hits + r.cache_misses == 0 {
                0.0
            } else {
                r.cache_hits as f64 / (r.cache_hits + r.cache_misses) as f64
            };
            let utilization = if self.wall_ns == 0 {
                0.0
            } else {
                r.busy_ns as f64 / self.wall_ns as f64
            };
            out.push_str(&format!(
                "    {{ \"replica\": {}, \"alive\": {}, \"departed\": {}, \"kills\": {}, \
                 \"restarts\": {}, \"suspects\": {}, \"slow_factor\": {}, \
                 \"routed\": {}, \"failed_over_out\": {}, \"failed_over_in\": {}, \
                 \"served\": {}, \"shed\": {}, \"expired\": {}, \"rejected\": {}, \
                 \"failed\": {}, \
                 \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_ratio\": {:.4} }}, \
                 \"utilization\": {:.4}, \"digest\": \"{:#018x}\",\n",
                r.replica,
                r.alive,
                r.departed,
                r.kills,
                r.restarts,
                r.suspects,
                r.slow_factor,
                r.routed,
                r.failed_over_out,
                r.failed_over_in,
                m.chunks_served,
                m.shed,
                m.expired,
                m.rejected,
                m.failed,
                r.cache_hits,
                r.cache_misses,
                hit_ratio,
                utilization,
                m.digest,
            ));
            out.push_str("      \"lanes\": [\n");
            out.push_str(&lanes_json(&m.lanes, "        "));
            out.push_str("      ],\n");
            out.push_str(&format!(
                "      \"request_latency_hist\": {} }}{}\n",
                m.latency_hist.to_json(),
                if i + 1 == self.replicas.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"request_latency_hist\": {},\n", self.latency_hist.to_json()));
        out.push_str(&format!("  \"first_chunk_hist\": {},\n", self.first_chunk_hist.to_json()));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"digest\": \"{:#018x}\"\n", self.digest));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ChunkSpan, RenderJob, RenderPrecision, SceneKind, Workload};
    use crate::sched::LaneConfig;

    fn bm(key: BatchKey, size: usize, flush: FlushReason) -> BatchMetric {
        BatchMetric { key, size, service_ns: 1000, flush }
    }

    /// A ledger over `n` lanes named `lane{i}`; lane `i` takes the
    /// `Priority::ALL[i]` class (the rest fold onto the last lane).
    fn ledger_named(names: &[&str]) -> Ledger {
        let n = names.len();
        Ledger::new(&SchedConfig {
            lanes: names
                .iter()
                .map(|name| LaneConfig { name: name.to_string(), weight: 1, capacity: None })
                .collect(),
            lane_by_class: [0, 1.min(n - 1), 2.min(n - 1)],
        })
    }

    fn ledger(n: usize) -> Ledger {
        let names: Vec<String> = (0..n).map(|i| format!("lane{i}")).collect();
        ledger_named(&names.iter().map(String::as_str).collect::<Vec<_>>())
    }

    /// Chunk `index` of `of` of request `id`, admitted at t = 0 to `lane`.
    fn req(id: u64, lane: usize, index: u32, of: u32, deadline_ns: Option<u64>) -> Request {
        Request {
            id,
            priority: Priority::ALL[lane],
            arrival_ns: 0,
            deadline_ns,
            chunk: ChunkSpan { index, of },
            job: Workload::Render(RenderJob {
                scene: SceneKind::Mic,
                precision: RenderPrecision::Fp32,
                width: 4,
                height: 4,
                spp: 2,
                camera_seed: id,
            }),
        }
    }

    /// A whole request served after `queue_ns` queued and 50 µs of
    /// service; `late` sets a deadline it misses.
    fn served(l: &mut Ledger, id: u64, lane: usize, queue_ns: u64, late: bool) {
        let r = req(id, lane, 0, 1, late.then_some(queue_ns));
        l.record(Terminal::served(&r, queue_ns, 50_000));
    }

    fn fold(l: &Ledger) -> ServeMetrics {
        ServeMetrics::aggregate(l, 0, 0, 1)
    }

    #[test]
    fn ns_stats_percentiles() {
        let s = NsStats::from_samples(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 100);
        assert_eq!(s.p99, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean, 55);
        assert_eq!(NsStats::from_samples(&[]).max, 0);
        let wide: Vec<u64> = (1..=200).collect();
        assert_eq!(NsStats::from_samples(&wide).p99, 198, "nearest-rank p99 of 1..=200");
    }

    /// A run that served nothing must yield all-zero stats everywhere a
    /// percentile is computed — no panic from `clamp(1, 0)` on an empty
    /// sorted set.
    #[test]
    fn ns_stats_empty_and_singleton_are_total() {
        let empty = NsStats::from_samples(&[]);
        assert_eq!((empty.mean, empty.p50, empty.p95, empty.max), (0, 0, 0, 0));
        let one = NsStats::from_samples(&[7]);
        assert_eq!((one.mean, one.p50, one.p95, one.max), (7, 7, 7, 7));
    }

    /// Aggregating a run with zero requests of any kind (the zero-served
    /// case) must not panic and must report zeros.
    #[test]
    fn aggregate_of_zero_served_run_is_all_zero() {
        let m = fold(&ledger(2));
        assert_eq!(m.requests, 0);
        assert_eq!(m.queue_ns.max, 0);
        assert_eq!(m.service_ns.p95, 0);
        assert!(!m.to_json().is_empty(), "empty run still serializes");
    }

    #[test]
    fn coalescable_occupancy_excludes_singleton_keys() {
        let k1 = BatchKey::Render(SceneKind::Mic, crate::request::RenderPrecision::Fp32);
        let k2 = BatchKey::Table("lonely".into());
        // k1 got 4 requests over 2 batches (coalescable); k2 got exactly 1.
        let mut l = ledger(1);
        l.batches = vec![
            bm(k1.clone(), 3, FlushReason::Size),
            bm(k1.clone(), 1, FlushReason::Drain),
            bm(k2, 1, FlushReason::Timeout),
        ];
        let m = fold(&l);
        assert!((m.mean_occupancy - 5.0 / 3.0).abs() < 1e-9);
        assert!((m.coalescable_occupancy - 2.0).abs() < 1e-9, "k2 excluded: (3+1)/2");
        assert_eq!(m.flushed_size, 1);
        assert_eq!(m.flushed_timeout, 1);
        assert_eq!(m.flushed_drain, 1);
    }

    #[test]
    fn json_contains_schema_lanes_and_digest() {
        let mut l = ledger(2);
        l.reject(Priority::Interactive, 2);
        served(&mut l, 0, 0, 100, true);
        l.record(Terminal::shed(&req(9, 1, 0, 1, None), 5_000));
        l.record(Terminal::failed(&req(10, 0, 0, 1, None), 7_000));
        l.degrade(0);
        l.worker_restarts = 1;
        l.retried = 2;
        l.breaker_opened = 1;
        l.breaker_half_open_probes = 1;
        let m = ServeMetrics::aggregate(&l, 0, 42, 3);
        let j = m.to_json();
        // The schema bump: /4 carries the streaming fields alongside
        // everything /3 had (robustness counters, lanes array, totals).
        assert!(j.contains("\"schema\": \"flexnerfer-serve-bench/4\""));
        assert!(j.contains("\"chunks_served\": 1,"));
        assert!(j.contains("\"first_chunk_ns\": {"));
        assert!(j.contains("\"render_ns\": {"));
        assert!(j.contains("\"first_chunk_hist\": { \"edges_ns\": [1000, "));
        assert!(j.contains("\"p99\": "));
        assert!(j.contains("\"rejected\": 2"));
        assert!(j.contains("\"shed\": 1,"));
        assert!(j.contains("\"expired\": 1,"));
        assert!(j.contains("\n  \"failed\": 1,"));
        assert!(j.contains("\n  \"retried\": 2,"));
        assert!(j.contains("\n  \"degraded\": 1,"));
        assert!(j.contains("\n  \"worker_restarts\": 1,"));
        assert!(j.contains("\"breaker\": { \"opened\": 1, \"half_open_probes\": 1 }"));
        assert!(j.contains("\"lanes\": ["));
        assert!(j.contains(
            "\"name\": \"lane0\", \"weight\": 1, \"submitted\": 2, \"served\": 1, \"shed\": 0, \
             \"expired\": 1, \"rejected\": 2, \"failed\": 1, \"degraded\": 1, \
             \"queue_hist\": { \"edges_ns\": [1000, "
        ));
        assert!(j.contains("\"name\": \"lane1\", \"weight\": 1, \"submitted\": 1, \"served\": 0, \"shed\": 1,"));
        assert!(j.contains("\"digest\": \"0x"));
        assert!(j.contains("\"request_latency_hist\": { \"edges_ns\": [1000, "));
    }

    #[test]
    fn lane_names_are_json_escaped() {
        let j = fold(&ledger_named(&["ti\"er\\1\n"])).to_json();
        assert!(
            j.contains("\"name\": \"ti\\\"er\\\\1\\u000a\""),
            "hostile lane name must not break the record: {j}"
        );
    }

    #[test]
    fn lane_stats_partition_admitted_requests() {
        let mut l = ledger(3);
        served(&mut l, 0, 0, 100, false);
        served(&mut l, 1, 0, 200, true);
        served(&mut l, 2, 1, 300, false);
        l.record(Terminal::shed(&req(3, 0, 0, 1, None), 400));
        l.record(Terminal::shed(&req(4, 2, 0, 1, None), 500));
        l.record(Terminal::failed(&req(5, 1, 0, 1, None), 600));
        let m = fold(&l);
        assert_eq!(m.requests, 3);
        assert_eq!(m.shed, 2);
        assert_eq!(m.expired, 1);
        assert_eq!(m.failed, 1);
        for lane in &m.lanes {
            assert_eq!(lane.submitted, lane.served + lane.shed + lane.failed, "{}", lane.name);
            // Served, shed and failed all pass through the queue: the
            // histogram counts every admitted request.
            assert_eq!(lane.queue_hist.total() as usize, lane.submitted, "{}", lane.name);
        }
        assert_eq!(m.lanes[0].submitted, 3);
        assert_eq!(m.lanes[0].expired, 1);
        assert_eq!(m.lanes[1].submitted, 2);
        assert_eq!(m.lanes[1].failed, 1);
        assert_eq!(m.lanes[2].shed, 1);
    }

    #[test]
    #[should_panic(
        expected = "served 1 + shed 1 + rejected 2 + failed 0 + front door 1 != submitted chunks 6"
    )]
    fn conservation_check_names_every_term() {
        let mut l = ledger(2);
        served(&mut l, 0, 0, 100, false);
        l.record(Terminal::shed(&req(1, 1, 0, 1, None), 10));
        l.reject(Priority::Standard, 2);
        Ledger::assert_conserved([&l], 1, 5);
        Ledger::assert_conserved([&l], 1, 6);
    }

    #[test]
    fn first_chunk_and_full_render_latencies_group_per_parent() {
        // Parent 0: two chunks at latencies 50_100 / 50_300 (queue +
        // 50_000 service). Parent 1: one whole chunk at 50_200. Parent 2
        // is incomplete (1 of 2 chunks served) — chunk counted, request
        // not.
        let mut l = ledger(1);
        let chunks = [(0, 100, 0, 2), (0, 300, 1, 2), (1, 200, 0, 1), (2, 400, 0, 2)];
        for (id, queue_ns, index, of) in chunks {
            l.record(Terminal::served(&req(id, 0, index, of, None), queue_ns, 50_000));
        }
        let m = fold(&l);
        assert_eq!(m.requests, 2, "only complete parents are answered requests");
        assert_eq!(m.chunks_served, 4);
        assert_eq!(m.first_chunk_ns.max, 50_200, "per-parent minima: 50_100 and 50_200");
        assert_eq!(m.render_ns.max, 50_300, "per-parent maxima: 50_300 and 50_200");
        assert_eq!(m.first_chunk_hist.total(), 2);
        assert_eq!(m.latency_hist.total(), 2);
        // The lane counters stay chunk-granular.
        assert_eq!(m.lanes[0].served, 4);
    }

    #[test]
    fn histogram_buckets_by_fixed_edges() {
        let mut h = LatencyHistogram::new();
        h.record(0); // below the first edge
        h.record(999);
        h.record(1_000); // exactly an edge → next bucket
        h.record(5_000_000); // 5 ms → the (4.096 ms, 16.384 ms] bucket
        h.record(u64::MAX); // overflow bucket
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[7], 1);
        assert_eq!(h.counts()[LATENCY_BUCKETS - 1], 1);
        assert_eq!(h.total(), 5);
    }

    /// A latency exactly at a log-4 bucket edge must land deterministically
    /// in the bucket *above* the edge (edges are exclusive upper bounds) on
    /// every recording path — `record`, `from_samples`, and a `merge` of
    /// partial histograms. Pins every one of the 13 edges so an off-by-one
    /// in any path shows up as a bucket migration.
    #[test]
    fn every_log4_edge_value_lands_in_one_deterministic_bucket() {
        for (i, &edge) in LATENCY_EDGES_NS.iter().enumerate() {
            let mut at = LatencyHistogram::new();
            at.record(edge);
            assert_eq!(at.counts()[i + 1], 1, "sample == edge {edge} lands above the edge");
            assert_eq!(at.total(), 1, "edge {edge} is counted exactly once");
            let mut below = LatencyHistogram::new();
            below.record(edge - 1);
            assert_eq!(below.counts()[i], 1, "edge-1 stays below edge {edge}");
            assert_eq!(
                LatencyHistogram::from_samples(&[edge, edge - 1]),
                at.merge(&below),
                "from_samples and record agree at edge {edge}"
            );
        }
    }

    /// Merging histograms whose samples straddle the edges is exactly the
    /// histogram of the combined sample set — the cluster-wide merge can
    /// never move an edge-valued sample to a different bucket.
    #[test]
    fn histogram_merge_is_exact_for_edge_valued_samples() {
        let samples: Vec<u64> =
            LATENCY_EDGES_NS.iter().flat_map(|&e| [e - 1, e, e + 1]).collect();
        for split in [1, 7, samples.len() / 2, samples.len() - 1] {
            let (a, b) = samples.split_at(split);
            let merged =
                LatencyHistogram::from_samples(a).merge(&LatencyHistogram::from_samples(b));
            assert_eq!(merged, LatencyHistogram::from_samples(&samples), "split at {split}");
        }
    }

    #[test]
    fn histogram_totals_match_request_count_in_aggregate() {
        let mut l = ledger(1);
        for i in 0..17 {
            served(&mut l, i, 0, i * 100_000, false);
        }
        let m = fold(&l);
        assert_eq!(m.latency_hist.total(), 17);
        // Edges are compile-time constants, so bucket identity is stable.
        assert_eq!(m.latency_hist.counts().len(), LATENCY_BUCKETS);
    }
}
