//! One replica's serving pipeline on a virtual clock: per-lane bounded
//! queues → the [`Dispatcher`] (the same scheduler, brownout and batcher
//! the threaded server runs) → a `2 × workers` batch queue → virtual
//! workers, recording into the same [`Ledger`] the threaded server keeps.
//!
//! The pipeline owns no event loop: the cluster simulator
//! ([`crate::cluster::run_cluster`]) advances every replica's timers on
//! one shared clock, and [`crate::run_virtual`] *is* that simulator with
//! one fault-free replica. Every scheduling decision is a deterministic
//! function of the admitted schedule and the clock; batches are only
//! *decided* here and rendered for real afterwards, so thread width can
//! never move an outcome. Besides the dispatch core a replica keeps an
//! inflight gauge (router admission control), a per-`(scene, precision)`
//! model cache whose cold misses stretch the batch's virtual service
//! time, and [`VirtualPipeline::kill`] — the fault-injection hook that
//! orphans everything in flight so the front door can fail it over.

use std::collections::{HashSet, VecDeque};

use crate::batch::Batch;
use crate::cluster::ClusterService;
use crate::dispatch::{Dispatch, Dispatcher};
use crate::fault::{FaultInjector, InjectedFault};
use crate::metrics::{Ledger, Terminal};
use crate::request::{BatchKey, ChunkSpan, Request};
use crate::server::ServerConfig;
use crate::workload::TimedJob;

/// Chunk `chunk` of the scheduled job `tj`, arriving as request `id` at
/// virtual time `at`.
pub(crate) fn arrival(id: u64, at: u64, tj: &TimedJob, chunk: ChunkSpan) -> Request {
    Request {
        id,
        priority: tj.priority,
        arrival_ns: at,
        deadline_ns: tj.deadline.map(|d| at + d.as_nanos() as u64),
        chunk,
        job: tj.job.clone(),
    }
}

/// One virtual worker: when it frees up, and the batch it is serving (so
/// a kill can orphan in-service work instead of silently completing it).
struct VWorker {
    free_at: u64,
    running: Option<Running>,
}

/// A batch in service on a virtual worker.
struct Running {
    batch: Batch,
    start_ns: u64,
    service_ns: u64,
}

/// One externally visible pipeline event, emitted (only when event
/// tracking is on) at the instant it happens, in event order. The cluster layer drains these after every fire/pump to feed
/// the failure detector (completions are the heartbeat), the CoDel
/// admission controller (queue delays at service start) and the hedging
/// arbiter (who started/completed/lost first).
#[derive(Debug, Clone, Copy)]
pub(crate) enum PipeEvent {
    /// A virtual worker took the chunk's batch after `queue_ns` waiting.
    Started { id: u64, chunk: u32, queue_ns: u64 },
    /// The chunk's batch completed service (it will be served).
    Completed { id: u64, chunk: u32 },
    /// A hedge-tracked copy was shed by the scheduler or failed by the
    /// chaos injector; its terminal record is deferred to the cluster
    /// arbiter, which commits it only if no other copy survives (only
    /// emitted for chunks marked via [`VirtualPipeline::mark_hedged`]).
    Lost { id: u64, chunk: u32, terminal: Terminal },
}

/// What [`VirtualPipeline::cancel`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CancelOutcome {
    /// The copy was still queued (lane, batcher, stalled or batch queue)
    /// and has been removed without a trace.
    Queued,
    /// The copy is in service on a virtual worker: it will finish, but
    /// its completion is suppressed — no metric, no response.
    InService,
    /// No live copy with that id exists here.
    NotFound,
}

/// The modeled per-replica model cache: which `(scene, precision)` render
/// keys are warm, plus cumulative hit/miss counters. A cold key stretches
/// its first batch by the configured cold-start cost (quantize, calibrate,
/// weight upload); a kill empties the warm set but keeps the counters —
/// restarts are exactly what makes hit ratios interesting.
struct ModelCache {
    warm: HashSet<BatchKey>,
    hits: u64,
    misses: u64,
}

/// The deterministic virtual pipeline for one (replica) server.
pub(crate) struct VirtualPipeline {
    cfg: ServerConfig,
    caps: Vec<usize>,
    batch_q_cap: usize,
    /// Per-batch, per-member and cold-start service costs.
    service: ClusterService,
    /// Gray-failure injection: every batch's virtual service time is
    /// multiplied by this (the `slow@T:R:F` fault). 1 = nominal speed.
    slow_factor: u64,
    cache: ModelCache,
    /// Seeded chaos: a poisoned request fails the moment a worker would
    /// take its batch (mirroring the live quarantine outcome, minus the
    /// real-time retry loop); a delayed one stretches its batch's virtual
    /// service time. Same seeds as live mode, same poisoned set.
    injector: Option<FaultInjector>,
    dispatch: Dispatcher,
    vlanes: Vec<VecDeque<Request>>,
    /// Batches flushed while the batch queue was full: the dispatcher
    /// stalls behind them, exactly like the threaded scheduler parked in
    /// `send()` — which is where queueing (and deadline shedding) comes
    /// from under saturation.
    stalled: VecDeque<Batch>,
    batch_q: VecDeque<Batch>,
    workers: Vec<VWorker>,
    /// Requests admitted and not yet terminal (served, shed, or orphaned
    /// by a kill) — the router's per-replica admission-control gauge.
    inflight: usize,
    /// Whether to emit [`PipeEvent`]s (health, hedging or admission
    /// control on). Off otherwise, so a plain run pays nothing.
    track_events: bool,
    /// Events since the last [`VirtualPipeline::take_events`].
    events: Vec<PipeEvent>,
    /// `(id, chunk)` keys whose terminal outcomes are arbitrated by the
    /// cluster hedging layer: sheds/failures are emitted as events instead
    /// of recorded, completions are recorded *and* emitted (first
    /// completion wins).
    hedged: HashSet<(u64, u32)>,
    /// Losing hedge copies currently in service: their completion is
    /// dropped — no request metric, no response, the work was wasted.
    suppressed: HashSet<(u64, u32)>,
    pub(crate) decided: Vec<Batch>,
    /// Every outcome this pipeline decided (a kill does not reset it).
    pub(crate) ledger: Ledger,
    /// Total virtual time the workers spent serving completed batches.
    pub(crate) busy_ns: u64,
    pub(crate) wall_ns: u64,
}

impl VirtualPipeline {
    /// A cold pipeline for `cfg` under the `service` cost model (cold
    /// render keys pay `service.cold_start_ns` extra on their first batch
    /// after a cold start). `injector` optionally adds seeded chaos (the
    /// same injector type — and seeds — the live server takes);
    /// `track_events` turns on [`PipeEvent`] emission.
    pub(crate) fn new(
        cfg: &ServerConfig,
        service: ClusterService,
        injector: Option<FaultInjector>,
        track_events: bool,
    ) -> Self {
        let caps = cfg.sched.capacities(cfg.queue_capacity);
        let workers = cfg.workers.max(1);
        VirtualPipeline {
            batch_q_cap: workers * 2,
            service: ClusterService { service_ns: service.service_ns.max(1), ..service },
            slow_factor: 1,
            cache: ModelCache { warm: HashSet::new(), hits: 0, misses: 0 },
            injector: injector.filter(|i| !i.is_empty()),
            dispatch: Dispatcher::new(cfg),
            vlanes: caps.iter().map(|_| VecDeque::new()).collect(),
            stalled: VecDeque::new(),
            batch_q: VecDeque::new(),
            workers: (0..workers).map(|_| VWorker { free_at: 0, running: None }).collect(),
            inflight: 0,
            track_events,
            events: Vec::new(),
            hedged: HashSet::new(),
            suppressed: HashSet::new(),
            decided: Vec::new(),
            ledger: Ledger::new(&cfg.sched),
            busy_ns: 0,
            wall_ns: 0,
            caps,
            cfg: cfg.clone(),
        }
    }

    /// Requests admitted and not yet terminal.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight
    }

    /// Sets the gray-failure service-time multiplier (`slow@T:R:F`);
    /// factor 1 restores nominal speed. Batches already in service keep
    /// their committed completion time — only future takes slow down.
    pub(crate) fn set_slow_factor(&mut self, factor: u32) {
        self.slow_factor = u64::from(factor).max(1);
    }

    /// The current gray-failure multiplier.
    pub(crate) fn slow_factor(&self) -> u64 {
        self.slow_factor
    }

    /// Drains the events emitted since the last call, in event order.
    pub(crate) fn take_events(&mut self) -> Vec<PipeEvent> {
        std::mem::take(&mut self.events)
    }

    /// Marks the `(id, chunk)` copy as hedge-arbitrated: its shed/failure
    /// is deferred to the cluster (emitted as an event), its completion is
    /// emitted too.
    pub(crate) fn mark_hedged(&mut self, id: u64, chunk: u32) {
        self.hedged.insert((id, chunk));
    }

    /// Whether any virtual worker is in service right now (the failure
    /// detector only expects progress from a busy replica).
    pub(crate) fn is_busy(&self) -> bool {
        self.workers.iter().any(|w| w.running.is_some())
    }

    /// Cancels the live copy of `(id, chunk)`, wherever it sits: removed
    /// outright if still queued, suppressed (completes without a trace) if
    /// already in service. The hedging layer calls this on the losing copy
    /// the instant the winning copy completes.
    pub(crate) fn cancel(&mut self, id: u64, chunk: ChunkSpan) -> CancelOutcome {
        self.hedged.remove(&(id, chunk.index));
        for lane in &mut self.vlanes {
            if let Some(pos) = lane.iter().position(|r| r.id == id && r.chunk == chunk) {
                lane.remove(pos);
                self.inflight -= 1;
                return CancelOutcome::Queued;
            }
        }
        if self.dispatch.batcher.remove(id, chunk).is_some() {
            self.inflight -= 1;
            return CancelOutcome::Queued;
        }
        fn pull(q: &mut VecDeque<Batch>, id: u64, chunk: ChunkSpan) -> bool {
            for bi in 0..q.len() {
                if let Some(ri) =
                    q[bi].requests.iter().position(|r| r.id == id && r.chunk == chunk)
                {
                    q[bi].requests.remove(ri);
                    if q[bi].requests.is_empty() {
                        q.remove(bi);
                    }
                    return true;
                }
            }
            false
        }
        if pull(&mut self.stalled, id, chunk) || pull(&mut self.batch_q, id, chunk) {
            self.inflight -= 1;
            return CancelOutcome::Queued;
        }
        let in_service = self.workers.iter().any(|w| {
            w.running
                .as_ref()
                .is_some_and(|run| run.batch.requests.iter().any(|r| r.id == id && r.chunk == chunk))
        });
        if in_service {
            self.suppressed.insert((id, chunk.index));
            return CancelOutcome::InService;
        }
        CancelOutcome::NotFound
    }

    /// Cumulative `(hits, misses)` of the modeled model cache.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// Admits `req` at virtual time `at`. A full (or zero-capacity) lane
    /// rejects — a virtual open-loop submitter cannot park. Returns whether
    /// the chunk entered its lane. A failed-over request keeps its original
    /// `arrival_ns` and deadline, so its queue latency honestly includes
    /// the time it wasted on the dead replica.
    pub(crate) fn admit_request(&mut self, req: Request, at: u64) -> bool {
        self.wall_ns = self.wall_ns.max(at);
        if !self.lane_has_room(&req) {
            self.ledger.reject(req.priority, 1);
            return false;
        }
        self.vlanes[self.cfg.sched.lane_of(req.priority)].push_back(req);
        self.inflight += 1;
        true
    }

    /// Admits a hedge clone at virtual time `at` **without** counting a
    /// rejection on failure: a clone that finds no lane room simply never
    /// existed (the primary copy still owns the request), so it must not
    /// perturb the conservation law.
    pub(crate) fn admit_hedge(&mut self, req: Request, at: u64) -> bool {
        self.lane_has_room(&req) && self.admit_request(req, at)
    }

    /// Whether `req`'s lane can take one more chunk (a zero-capacity lane
    /// never can).
    fn lane_has_room(&self, req: &Request) -> bool {
        let lane = self.cfg.sched.lane_of(req.priority);
        self.vlanes[lane].len() < self.caps[lane]
    }

    /// Earliest pending timer: a busy worker finishing or a linger expiry.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        let completion = self
            .workers
            .iter()
            .filter(|w| w.running.is_some())
            .map(|w| w.free_at)
            .filter(|&t| t > now)
            .min();
        let linger = self.dispatch.batcher.next_deadline().map(|d| d.max(now));
        match (completion, linger) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// One timer firing at `t`: finished batches complete, linger-expired
    /// groups flush, then the pipeline pumps to its fixpoint.
    pub(crate) fn fire(&mut self, t: u64) {
        self.complete_finished(t);
        for b in self.dispatch.batcher.expire(t) {
            self.stalled.push_back(b);
        }
        self.pump(t);
    }

    /// Retires every in-service batch whose completion time has passed:
    /// records its metrics (against its stored start time) and locks it
    /// into the decided trace. Runs before any new work is assigned, so a
    /// kill at `t` can only orphan batches still genuinely in service.
    fn complete_finished(&mut self, now: u64) {
        for w in &mut self.workers {
            if w.free_at <= now {
                if let Some(run) = w.running.take() {
                    let full_size = run.batch.requests.len();
                    self.ledger.batch(&run.batch, run.service_ns);
                    let mut batch = run.batch;
                    if !self.suppressed.is_empty() {
                        // Losing hedge copies finish without a trace: the
                        // winner already carries the request's record.
                        let suppressed = &mut self.suppressed;
                        batch.requests.retain(|req| !suppressed.remove(&(req.id, req.chunk.index)));
                    }
                    for req in &batch.requests {
                        self.ledger.record(Terminal::served(req, run.start_ns, run.service_ns));
                        if self.track_events {
                            self.hedged.remove(&(req.id, req.chunk.index));
                            self.events
                                .push(PipeEvent::Completed { id: req.id, chunk: req.chunk.index });
                        }
                    }
                    self.busy_ns += run.service_ns;
                    self.inflight -= full_size;
                    if !batch.requests.is_empty() {
                        self.decided.push(batch);
                    }
                }
            }
        }
    }

    /// The virtual service time of `batch`: the flat per-batch cost, plus
    /// the size-aware per-member cost, plus the cold-start cost when the
    /// modeled cache misses on a render key (table batches carry no model
    /// and never pay it) — all stretched by the gray-failure slow factor.
    /// Chaos-injected delays are added by the caller, unscaled.
    fn service_for(&mut self, batch: &Batch) -> u64 {
        let s = self.service;
        let mut svc =
            s.service_ns.saturating_add(s.per_item_ns.saturating_mul(batch.requests.len() as u64));
        if matches!(batch.key, BatchKey::Render(..)) {
            if self.cache.warm.insert(batch.key.clone()) {
                self.cache.misses += 1;
                svc = svc.saturating_add(s.cold_start_ns);
            } else {
                self.cache.hits += 1;
            }
        }
        svc.saturating_mul(self.slow_factor)
    }

    /// Applies the chaos injector to a batch a worker is about to take:
    /// poisoned members fail on the spot (the virtual analogue of the live
    /// supervisor's quarantine verdict), delayed members stretch the
    /// batch's service time by the largest member delay. Returns `None`
    /// when no member survives, else the surviving batch and the extra
    /// service nanoseconds.
    fn apply_faults(&mut self, mut batch: Batch, now: u64) -> Option<(Batch, u64)> {
        let Some(inj) = self.injector else { return Some((batch, 0)) };
        let mut delay_ns = 0u64;
        let mut survivors = Vec::with_capacity(batch.requests.len());
        for req in batch.requests.drain(..) {
            match inj.decide(&req.job) {
                Some(InjectedFault::Panic) => {
                    self.settle(&req, Terminal::failed(&req, now));
                    self.inflight -= 1;
                }
                Some(InjectedFault::Delay(d)) => {
                    delay_ns = delay_ns.max(d);
                    survivors.push(req);
                }
                None => survivors.push(req),
            }
        }
        if survivors.is_empty() {
            return None;
        }
        batch.requests = survivors;
        Some((batch, delay_ns))
    }

    /// Commits a shed or failed chunk's terminal record — or, for a
    /// hedge-arbitrated copy, defers it to the cluster, which commits it
    /// only if no other copy survives. A suppressed losing copy (already
    /// superseded by its twin's completion) records nothing.
    fn settle(&mut self, req: &Request, terminal: Terminal) {
        let key = (req.id, req.chunk.index);
        if self.track_events && self.hedged.remove(&key) {
            self.events.push(PipeEvent::Lost { id: key.0, chunk: key.1, terminal });
        } else if !self.suppressed.remove(&key) {
            self.ledger.record(terminal);
        }
    }

    /// One fixpoint pass of the virtual pipeline at time `now`: idle
    /// workers take queued batches, freed queue slots unblock stalled
    /// flushes, and an unblocked scheduler keeps draining the lanes.
    pub(crate) fn pump(&mut self, now: u64) {
        self.complete_finished(now);
        loop {
            let mut progress = false;
            // Idle workers pick up queued batches (in queue order).
            while !self.batch_q.is_empty() {
                match self.workers.iter_mut().position(|w| w.free_at <= now && w.running.is_none())
                {
                    Some(wi) => {
                        let batch = self.batch_q.pop_front().expect("non-empty");
                        let (batch, delay_ns) = match self.apply_faults(batch, now) {
                            Some(survivors) => survivors,
                            None => {
                                // Every member was poisoned: nothing to run.
                                progress = true;
                                continue;
                            }
                        };
                        let service_ns = self.service_for(&batch) + delay_ns;
                        if self.track_events {
                            for req in &batch.requests {
                                self.events.push(PipeEvent::Started {
                                    id: req.id,
                                    chunk: req.chunk.index,
                                    queue_ns: now - req.arrival_ns,
                                });
                            }
                        }
                        self.workers[wi].free_at = now + service_ns;
                        self.workers[wi].running =
                            Some(Running { batch, start_ns: now, service_ns });
                        progress = true;
                    }
                    None => break,
                }
            }
            // Freed slots admit stalled flushes.
            while !self.stalled.is_empty() && self.batch_q.len() < self.batch_q_cap {
                self.batch_q.push_back(self.stalled.pop_front().expect("non-empty"));
                progress = true;
            }
            // The dispatcher drains lanes only while nothing is stalled
            // ahead of it (the threaded scheduler parks in send() likewise).
            if self.stalled.is_empty() {
                match self.dispatch.step(&mut self.vlanes, now) {
                    Some(Dispatch::Offered { lane, degraded, flushed }) => {
                        if degraded {
                            self.ledger.degrade(lane);
                        }
                        self.stalled.extend(flushed);
                        progress = true;
                    }
                    Some(Dispatch::Shed { req }) => {
                        self.settle(&req, Terminal::shed(&req, now));
                        self.inflight -= 1;
                        progress = true;
                    }
                    None => {}
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Whether any admitted request is still queued, pending, or in
    /// service.
    pub(crate) fn has_pending(&self) -> bool {
        self.vlanes.iter().any(|l| !l.is_empty())
            || !self.dispatch.batcher.is_empty()
            || !self.stalled.is_empty()
            || !self.batch_q.is_empty()
            || self.workers.iter().any(|w| w.running.is_some())
    }

    /// Locks in the final wall clock once no more events will reach this
    /// pipeline.
    pub(crate) fn finalize(&mut self, now: u64) {
        self.wall_ns = self.wall_ns.max(now);
    }

    /// Kills the replica at virtual time `t`: everything in flight —
    /// queued in a lane, pending in the batcher, stalled, queued for a
    /// worker, or in service — is orphaned and returned (in admission-id
    /// order) for the front door to fail over or shed. Scheduler and
    /// batcher state restart fresh and the model cache goes cold; the
    /// terminal counters (served/shed/rejected) and cache hit/miss
    /// totals survive, because a crash cannot un-serve history.
    pub(crate) fn kill(&mut self, t: u64) -> Vec<Request> {
        // Work that finished strictly by `t` completed before the crash.
        self.complete_finished(t);
        let mut orphans: Vec<Request> = Vec::new();
        for lane in &mut self.vlanes {
            orphans.extend(lane.drain(..));
        }
        for b in self.dispatch.batcher.drain() {
            orphans.extend(b.requests);
        }
        for b in self.stalled.drain(..) {
            orphans.extend(b.requests);
        }
        for b in self.batch_q.drain(..) {
            orphans.extend(b.requests);
        }
        for w in &mut self.workers {
            if let Some(run) = w.running.take() {
                orphans.extend(run.batch.requests);
            }
            w.free_at = 0;
        }
        if !self.suppressed.is_empty() {
            // A losing hedge copy orphaned by the crash stays a loser:
            // the winner already carries the request, so it just vanishes.
            let suppressed = &mut self.suppressed;
            orphans.retain(|r| !suppressed.remove(&(r.id, r.chunk.index)));
        }
        self.hedged.clear();
        orphans.sort_unstable_by_key(|r| (r.id, r.chunk.index));
        self.dispatch = Dispatcher::new(&self.cfg);
        self.cache.warm.clear();
        self.inflight = 0;
        self.wall_ns = self.wall_ns.max(t);
        orphans
    }
}
