//! The one dispatch decision every serving mode shares: a clock-injected
//! state machine owning the [`LaneScheduler`], the [`Batcher`] and the
//! [`Brownout`] controller.
//!
//! [`Dispatcher::step`] takes the lane queues and `now_ns` on the caller's
//! clock and turns the scheduler's next decision into a shed, or a
//! (possibly browned-out) batcher offer. The threaded server calls it
//! under the admission lock (`fnr_par::mpmc::Lanes::recv_with`) with real
//! elapsed time; the virtual and cluster pipelines call it from their
//! event loop with virtual time. Both record what it returns into their
//! [`crate::metrics::Ledger`], so every policy here — deadline shedding,
//! per-key fairness, coalescing, precision brownout — behaves the same in
//! every mode.

use std::collections::VecDeque;

use crate::batch::{Batch, Batcher};
use crate::fault::{degrade_precision, Brownout};
use crate::request::{Request, Workload};
use crate::sched::{LaneScheduler, Priority, SchedStep};
use crate::server::ServerConfig;

/// What one [`Dispatcher::step`] did with the request it drained.
#[derive(Debug)]
pub(crate) enum Dispatch {
    /// The request's deadline passed while it queued: dropped, never
    /// rendered.
    Shed {
        /// The dropped request.
        req: Request,
    },
    /// The request went to the batcher.
    Offered {
        /// Lane it was drained from.
        lane: usize,
        /// Whether the brownout downgraded it one precision step first.
        degraded: bool,
        /// The batch its arrival completed, if it hit the size threshold.
        flushed: Option<Batch>,
    },
}

/// Scheduler + batcher + brownout, driven by an injected clock.
pub(crate) struct Dispatcher {
    sched: LaneScheduler,
    /// The coalescing stage; callers flush it on linger deadlines
    /// (`expire`), at shutdown (`drain`) and for hedge cancellation
    /// (`remove`).
    pub(crate) batcher: Batcher,
    brownout: Brownout,
}

impl Dispatcher {
    /// A fresh dispatcher for `cfg`'s lanes, batching and brownout policy.
    pub(crate) fn new(cfg: &ServerConfig) -> Self {
        Dispatcher {
            sched: LaneScheduler::new(&cfg.sched),
            batcher: Batcher::new(cfg.max_batch, cfg.linger),
            brownout: Brownout::new(cfg.brownout),
        }
    }

    /// One decision over `lanes` at `now_ns`; `None` when every lane is
    /// empty. The brownout observes the total queue depth as it stood
    /// before the step; while it is engaged, Standard and Batch renders
    /// drop one precision step on their way into the batcher.
    pub(crate) fn step(
        &mut self,
        lanes: &mut [VecDeque<Request>],
        now_ns: u64,
    ) -> Option<Dispatch> {
        let depth = lanes.iter().map(VecDeque::len).sum();
        let step = self.sched.step(lanes, now_ns)?;
        let browned_out = self.brownout.observe(depth);
        Some(match step {
            SchedStep::Shed { req, .. } => Dispatch::Shed { req },
            SchedStep::Serve { lane, mut req } => {
                let mut degraded = false;
                if browned_out && req.priority != Priority::Interactive {
                    if let Workload::Render(j) = &mut req.job {
                        if let Some(lower) = degrade_precision(j.precision) {
                            j.precision = lower;
                            degraded = true;
                        }
                    }
                }
                Dispatch::Offered {
                    lane,
                    degraded,
                    flushed: self.batcher.offer(req, now_ns),
                }
            }
        })
    }
}
