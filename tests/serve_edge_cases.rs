//! Serving-runtime edge cases: admission under zero capacity, all-lanes-
//! full backpressure, shed-everything deadlines, the single-lane FIFO
//! digest pin, worker failure under multi-lane pop, flush-policy
//! behaviour under real threading, and a short closed-loop soak.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fnr_serve::workload::{generate, ArrivalPattern, WorkloadSpec};
use fnr_serve::{
    response_set_digest, run, run_closed_loop, run_open_loop, ChunkOutcome, Priority, RenderJob,
    RenderPrecision, SceneKind, SchedConfig, ServerConfig, SubmitError, WaitOutcome, Workload,
};

fn tiny_render(seed: u64) -> Workload {
    Workload::Render(RenderJob {
        scene: SceneKind::Mic,
        precision: RenderPrecision::Fp32,
        width: 4,
        height: 4,
        spp: 2,
        camera_seed: seed,
    })
}

#[test]
fn zero_capacity_queue_rejects_blocking_and_nonblocking_submits() {
    let cfg = ServerConfig { queue_capacity: 0, ..ServerConfig::default() };
    let (results, report) = run(&cfg, |client| {
        let blocking = client.submit(tiny_render(0));
        let nonblocking = client.try_submit(tiny_render(1));
        (blocking, nonblocking)
    });
    assert_eq!(results.0, Err(SubmitError::Rejected), "blocking submit must not park forever");
    assert_eq!(results.1, Err(SubmitError::Rejected));
    assert_eq!(report.metrics.rejected, 2);
    assert_eq!(report.metrics.requests, 0);
    assert!(report.responses.is_empty());
}

/// All lanes full: non-blocking submits must reject and blocking submits
/// must park (true backpressure) — then drain once capacity returns.
#[test]
fn all_lanes_full_backpressure_rejects_try_submit_and_parks_blocking_submit() {
    // A gated generator wedges the lone worker; max_batch 1 makes every
    // request its own batch, so the pipeline saturates (1 executing +
    // 2 batch-queue slots + the scheduler blocked on its hand-off) and
    // further arrivals stack in their 2-slot lane until it fills.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut cfg = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        max_batch: 1,
        ..ServerConfig::default()
    };
    let gate_in_worker = Arc::clone(&gate);
    cfg.tables.register(
        "gated",
        Arc::new(move || {
            let (lock, cv) = &*gate_in_worker;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            b"gated".to_vec()
        }),
    );
    let (all_ids, report) = run(&cfg, |client| {
        let mut admitted = Vec::new();
        let mut saw_reject = false;
        // The pipeline absorbs a bounded handful; well before 32 submits
        // the standard lane must report Full.
        for _ in 0..32 {
            match client.try_submit(Workload::Table("gated".into())) {
                Ok(id) => admitted.push(id),
                Err(SubmitError::Rejected) => {
                    saw_reject = true;
                    break;
                }
                Err(e) => panic!("unexpected submit error {e:?}"),
            }
            // Give the scheduler a beat so absorption settles and the
            // rejection genuinely means "every slot ahead is taken".
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_reject, "a wedged pipeline must eventually reject try_submit");
        // A blocking submit on the full lane parks instead of rejecting.
        let parked_returned = AtomicBool::new(false);
        std::thread::scope(|s| {
            let flag = &parked_returned;
            let parked = s.spawn(move || {
                let id = client.submit(Workload::Table("gated".into())).expect("parks, then admits");
                flag.store(true, Ordering::SeqCst);
                id
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(
                !parked_returned.load(Ordering::SeqCst),
                "blocking submit must park while every lane slot is taken"
            );
            // Open the gate: the pipeline drains and the parked submit lands.
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            admitted.push(parked.join().expect("parked submitter"));
        });
        for &id in &admitted {
            assert!(
                matches!(client.wait_outcome(id), WaitOutcome::Answered(_)),
                "request {id} must answer after the gate opens"
            );
        }
        admitted
    });
    assert_eq!(report.metrics.requests, all_ids.len(), "everything admitted was answered");
    assert!(report.metrics.rejected >= 1, "the rejection was counted");
    assert_eq!(report.metrics.shed, 0);
}

/// Deadline zero: the whole workload is expired on arrival — every
/// request sheds, none renders, and the digest is the empty set's.
#[test]
fn deadline_zero_sheds_the_entire_workload() {
    let spec = WorkloadSpec {
        requests: 40,
        seed: 11,
        pattern: ArrivalPattern::Bursty,
        mean_gap: Duration::from_micros(10),
        deadline: Some(Duration::ZERO),
        ..WorkloadSpec::default()
    };
    let report = run_open_loop(&ServerConfig::default(), &generate(&spec));
    assert!(report.responses.is_empty(), "an expired request is never rendered");
    assert_eq!(report.metrics.requests, 0);
    assert_eq!(report.metrics.shed + report.metrics.rejected, 40, "all 40 accounted");
    assert!(report.metrics.shed > 0, "sheds, not rejects, do the dropping here");
    assert_eq!(report.metrics.digest, response_set_digest(&[]), "empty-set digest");
    for lane in &report.metrics.lanes {
        assert_eq!(lane.served, 0, "lane {} served an expired request", lane.name);
        assert_eq!(lane.submitted, lane.shed);
    }
}

/// The degenerate single-lane no-deadline config is the pre-scheduler
/// FIFO server: on CI's exact 1000-request seed-42 bursty workload it
/// must reproduce the pre-PR response-set digest bit for bit.
#[test]
fn single_lane_no_deadline_reproduces_the_pre_scheduler_fifo_digest() {
    let spec = WorkloadSpec {
        requests: 1000,
        seed: 42,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(150),
        ..WorkloadSpec::default()
    };
    let cfg = ServerConfig {
        queue_capacity: 256,
        sched: SchedConfig::single_lane(),
        tables: fnr_bench::serving::table_registry(),
        ..ServerConfig::default()
    };
    let report = run_open_loop(&cfg, &generate(&spec));
    assert_eq!(report.responses.len(), 1000);
    assert_eq!(
        report.metrics.digest, 0xda74_9e53_2f3d_ecd8,
        "single-lane scheduling moved the FIFO workload's response bytes"
    );
    assert_eq!(report.metrics.lanes.len(), 1);
    assert_eq!(report.metrics.lanes[0].served, 1000);
}

#[test]
fn worker_panic_is_quarantined_and_the_pool_keeps_serving() {
    // Unknown table name → the executing worker panics. The supervisor
    // must quarantine the poisoned request (a `Failed` outcome carrying
    // the panic reason — the waiter unblocks, nothing deadlocks),
    // respawn the worker, and keep every lane serving.
    let cfg = ServerConfig::default(); // empty registry: any table lookup panics
    let (_, report) = run(&cfg, |client| {
        let poisoned =
            client.submit(Workload::Table("definitely-not-registered".into())).unwrap();
        match client.wait_outcome(poisoned) {
            WaitOutcome::Failed(reason) => assert!(
                reason.contains("definitely-not-registered"),
                "original panic reason must surface in the failure: {reason}"
            ),
            other => panic!("poisoned request must resolve Failed, got {other:?}"),
        }
        // Follow-up submits on *every* lane must still be admitted and
        // answered — worker death is the supervisor's problem, not the
        // client's.
        for p in Priority::ALL {
            let id = client
                .submit_with(tiny_render(p.index() as u64), p, None)
                .unwrap_or_else(|e| panic!("lane {} stopped admitting: {e:?}", p.name()));
            assert!(
                client.wait(id).is_some(),
                "lane {} stopped serving after the quarantine",
                p.name()
            );
        }
    });
    assert_eq!(report.metrics.failed, 1, "exactly the poisoned request fails");
    assert_eq!(report.metrics.requests, 3, "the three follow-ups all serve");
    assert!(report.metrics.worker_restarts >= 1, "the crashed worker must respawn");
}

#[test]
fn drive_closure_panic_shuts_down_instead_of_deadlocking() {
    // A panic in the drive closure must close the admission queue on the
    // way out (otherwise run() joins role threads parked forever) and
    // resurface from run().
    let cfg = ServerConfig::default();
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run(&cfg, |client| {
            client.submit(tiny_render(0)).unwrap();
            panic!("driver exploded mid-flight");
        })
    }));
    assert!(start.elapsed() < Duration::from_secs(30), "run() must not hang on a drive panic");
    let payload = outcome.expect_err("drive panic must resurface");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("<other>");
    assert!(msg.contains("driver exploded"), "original panic preserved: {msg}");
}

/// A wait on an id the server never admitted must resolve `Closed` at
/// once instead of parking until the server drains — inside `run(..)`
/// that drain only comes after the drive closure returns, so a parked
/// waiter would hang the closure forever.
#[test]
fn waits_on_never_admitted_ids_resolve_closed_without_hanging() {
    let cfg = ServerConfig { chunks: 2, ..ServerConfig::default() };
    let ((outcome, waiter), report) = run(&cfg, |client| {
        let admitted = client.submit(tiny_render(0)).unwrap();
        let unknown = admitted + 1_000;
        let c = client.clone();
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send((
                c.wait(unknown),
                c.wait_outcome(unknown),
                c.wait_chunk(unknown, 0),
                c.wait_chunk(admitted, 7),
            ));
        });
        (rx.recv_timeout(Duration::from_secs(2)), waiter)
    });
    // The drain has closed the board, so even a parked waiter is done.
    waiter.join().expect("waiter thread panicked");
    assert_eq!(
        outcome,
        Ok((None, WaitOutcome::Closed, ChunkOutcome::Closed, ChunkOutcome::Closed)),
        "unknown ids and out-of-range chunks resolve Closed without waiting for drain"
    );
    assert_eq!(report.responses.len(), 1, "the admitted request still serves");
}

#[test]
fn batcher_flushes_on_size_threshold_before_linger_expires() {
    // Huge linger: only the size threshold can flush. Submitting exactly
    // max_batch same-key requests must produce one full batch, quickly.
    let cfg = ServerConfig {
        max_batch: 4,
        linger: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let start = Instant::now();
    let (_, report) = run(&cfg, |client| {
        let ids: Vec<u64> = (0..4).map(|i| client.submit(tiny_render(i)).unwrap()).collect();
        for id in ids {
            assert!(client.wait(id).is_some(), "size-flushed batch answers before shutdown");
        }
    });
    assert!(start.elapsed() < Duration::from_secs(60), "must not wait out the linger");
    assert!(report.metrics.flushed_size >= 1, "size flush recorded");
    assert_eq!(report.metrics.requests, 4);
}

#[test]
fn batcher_flushes_on_linger_timeout_when_undersized() {
    // Huge size threshold: only the linger can flush. A single request
    // must still be answered (while the server is up — not at drain).
    let cfg = ServerConfig {
        max_batch: 1000,
        linger: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let (_, report) = run(&cfg, |client| {
        let id = client.submit(tiny_render(7)).unwrap();
        assert!(client.wait(id).is_some(), "linger flush answers a lone request");
    });
    assert!(
        report.metrics.flushed_timeout >= 1,
        "timeout flush recorded: {} size / {} timeout / {} drain",
        report.metrics.flushed_size,
        report.metrics.flushed_timeout,
        report.metrics.flushed_drain
    );
}

/// Closed-loop soak (~1 s budget): several clients hammering a small
/// server must neither deadlock nor skip requests, and admission ids must
/// be monotone.
#[test]
fn closed_loop_soak_completes_without_deadlock_and_ids_are_monotone() {
    let spec = WorkloadSpec {
        requests: 160,
        seed: 7,
        pattern: ArrivalPattern::Bursty,
        mean_gap: Duration::from_micros(10),
        ..WorkloadSpec::default()
    };
    let jobs = generate(&spec);
    let cfg = ServerConfig { workers: 3, queue_capacity: 8, ..ServerConfig::default() };
    let start = Instant::now();
    let report = run_closed_loop(&cfg, &jobs, 6);
    assert!(start.elapsed() < Duration::from_secs(30), "soak must terminate promptly");
    assert_eq!(report.metrics.requests, 160, "every request answered");
    assert_eq!(report.metrics.rejected, 0, "blocking submits never drop");
    let ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), 160);
    for w in ids.windows(2) {
        assert!(w[0] < w[1], "sorted response ids must be strictly increasing");
    }
    assert_eq!(*ids.last().unwrap(), 159, "admission ids are dense 0..n");
}

/// Per-client monotonicity under contention: ids observed by each client
/// thread must strictly increase in its own submission order.
#[test]
fn request_ids_are_monotone_per_client_under_contention() {
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let sequences: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    let counter = AtomicU64::new(0);
    let (_, report) = run(&cfg, |client| {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let seqs = Arc::clone(&sequences);
                let counter = &counter;
                let client = &*client;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..20 {
                        let seed = counter.fetch_add(1, Ordering::Relaxed);
                        if let Ok(id) = client.submit(tiny_render(seed)) {
                            mine.push(id);
                        }
                    }
                    seqs.lock().unwrap().push(mine);
                });
            }
        });
    });
    assert_eq!(report.metrics.requests, 80);
    let seqs = sequences.lock().unwrap();
    assert_eq!(seqs.len(), 4);
    let mut all: Vec<u64> = Vec::new();
    for seq in seqs.iter() {
        assert_eq!(seq.len(), 20);
        for w in seq.windows(2) {
            assert!(w[0] < w[1], "a client observed non-monotone ids: {seq:?}");
        }
        all.extend_from_slice(seq);
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 80, "ids are globally unique");
}
