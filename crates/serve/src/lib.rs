//! Batched render-request serving front-end for the FlexNeRFer
//! reproduction.
//!
//! The ROADMAP's north star is serving heavy render traffic; this crate is
//! the request-level runtime above the data-parallel substrate:
//!
//! * bounded per-class admission lanes with backpressure and a
//!   zero-capacity hard-reject posture,
//! * **one clock-injected dispatch core** that every mode runs: the
//!   weighted-deficit scheduler ([`sched`]) with per-key fairness and
//!   deadline shedding, the precision [`Brownout`], and a batcher that
//!   coalesces compatible requests — same scene/model/precision — into one
//!   batched render or one shared table regeneration (the per-batch
//!   format/precision amortization is exactly where the paper's adaptive
//!   datapath pays off per request). It takes `u64` nanoseconds on its
//!   caller's clock and does no threading itself: the live [`Server`]
//!   drives it from a scheduler thread over [`fnr_par::mpmc::Lanes`] and
//!   the server epoch, while [`run_cluster`] drives it from one
//!   discrete-event loop on a virtual clock — and [`run_virtual`] *is*
//!   that loop with one fault-free replica, by construction,
//! * **one outcome ledger** per pipeline: every reject, shed, downgrade,
//!   failure, served chunk, retry, worker respawn and breaker trip is
//!   recorded there, and [`ServeMetrics`] is a fold over it — so every
//!   mode counts the same way, and the virtual and cluster runs check
//!   chunk conservation against it,
//! * a supervised worker pool ([`supervise`]) driving `fnr_nerf`'s
//!   batched render entry points and registered `fnr_bench` table
//!   generators — panicking batches are bisected to isolate poisoned
//!   requests, crashed workers respawn within a bounded budget, and the
//!   [`fault`] module adds retries, a per-key circuit breaker and seeded
//!   chaos injection (retry, breaker and bisection act on real panics, so
//!   they are live-only),
//! * per-request / per-batch metrics ([`ServeMetrics`], queue latency,
//!   service time, first-chunk latency, batch occupancy, failure/degrade
//!   counters) with a JSON report in the `flexnerfer-serve-bench/4`
//!   schema, sibling to `repro --json`'s `flexnerfer-repro-bench/2`.
//!
//! # Streaming
//!
//! A render request is split at admission into a fixed row-band partition
//! of [`effective_chunks`] sub-jobs ([`ChunkSpan`]), each flowing through
//! lanes, scheduler, batcher, and workers independently; chunk payloads
//! concatenate in row order to exactly the unchunked image bytes, so the
//! whole-render digest is invariant in the chunk count. `chunks = 1` is
//! byte-for-byte the old one-shot path.
//!
//! # Determinism
//!
//! Response bytes are a pure function of each request, so the response
//! *set* is byte-identical at any `FNR_THREADS`, worker count, batch
//! composition, or chunk count; [`response_set_digest`] is
//! order-canonical over the set and is what CI diffs between its serial
//! and parallel legs (and between its chunked and unchunked legs). Timing
//! only moves metrics, never payloads.
//!
//! ```
//! use fnr_serve::{run, ServerConfig, Workload, RenderJob, SceneKind, RenderPrecision};
//!
//! let cfg = ServerConfig::default();
//! let (_ids, report) = run(&cfg, |client| {
//!     let id = client
//!         .submit(Workload::Render(RenderJob {
//!             scene: SceneKind::Mic,
//!             precision: RenderPrecision::Fp32,
//!             width: 4,
//!             height: 4,
//!             spp: 2,
//!             camera_seed: 7,
//!         }))
//!         .unwrap();
//!     client.wait(id).expect("answered")
//! });
//! assert_eq!(report.responses.len(), 1);
//! ```

#![warn(missing_docs)]

mod batch;
pub mod cluster;
mod dispatch;
mod driver;
pub mod fault;
pub mod health;
mod metrics;
mod request;
pub mod router;
pub mod sched;
mod server;
pub mod supervise;
mod vclock;
pub mod workload;

pub use cluster::{
    run_cluster, ClusterConfig, ClusterReport, ClusterService, FaultPlan, PayloadMode,
};
pub use driver::{
    run_closed_loop, run_closed_loop_thinking, run_open_loop, run_virtual, ThinkTime,
    VirtualService,
};
pub use fault::{BreakerConfig, Brownout, BrownoutConfig, FaultInjector, RetryPolicy};
pub use health::{AdmissionConfig, HealthConfig, HealthDetector, HealthState, HedgeConfig};
pub use metrics::{ClusterMetrics, LaneStats, LatencyHistogram, NsStats, ReplicaStats, ServeMetrics};
pub use request::{
    effective_chunks, response_set_digest, synthetic_payload, BatchKey, ChunkOutcome, ChunkSpan,
    RenderJob, RenderPrecision, Request, Response, SceneKind, Workload,
};
pub use router::{HashRing, RouterConfig, MAX_REPLICAS};
pub use sched::{LaneScheduler, Priority, SchedConfig, SchedStep};
pub use server::{
    run, Client, ServeReport, Server, ServerConfig, SubmitError, TableFn, TableRegistry,
    WaitOutcome,
};
pub use supervise::SuperviseConfig;
