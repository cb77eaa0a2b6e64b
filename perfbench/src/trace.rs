//! Outside-in spans: the benchmark wraps each call it makes into a layer's
//! public functions in a span (name, layer, start, end, parent, id), keeps
//! the spans in memory and writes them out when the run ends.
//!
//! A layer's own time is the duration of its spans minus the part their
//! child spans cover. Spans opened with [`Tracer::wait`] wrap a call that
//! parks the calling thread (a pacing sleep, backpressure, waiting for a
//! completion): their own time is the layer's wait time, kept apart from
//! its self time. Parents are tracked per thread, so a span opened on the
//! serve waiter thread never parents one on the submitter thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call the span wraps, e.g. `train_ngp`.
    pub name: &'static str,
    /// The module (layer) the call belongs to, e.g. `fnr_nerf`.
    pub layer: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Workload-level id: a request id, a repetition or a pass number.
    pub id: u64,
    /// Small per-thread number for the trace viewer.
    pub tid: u64,
    /// The call parks the thread: its own time is wait time.
    pub wait: bool,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Span recorder; a disabled tracer makes [`Tracer::span`] a plain call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` of layer `layer`.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.record(layer, name, id, false, f)
    }

    /// Runs `f`, a call that parks the thread, inside a wait span.
    pub fn wait<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.record(layer, name, id, true, f)
    }

    fn record<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        wait: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let tid = TID.with(|t| *t);
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span store poisoned by a panic");
            spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: 0,
                parent,
                id,
                tid,
                wait,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(index));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned by a panic")[index].end_ns = end_ns;
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .clone()
    }
}

/// Own time per layer in nanoseconds, each span's duration minus the
/// durations of its direct children: `(self, wait)`, where wait time is
/// the own time of wait spans and self time that of every other span.
pub fn own_ns_by_layer(
    spans: &[Span],
) -> (BTreeMap<&'static str, u64>, BTreeMap<&'static str, u64>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let (mut own, mut wait) = (BTreeMap::new(), BTreeMap::new());
    for (s, c) in spans.iter().zip(&child_ns) {
        let ns = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c);
        *(if s.wait { &mut wait } else { &mut own })
            .entry(s.layer)
            .or_insert(0) += ns;
    }
    (own, wait)
}

/// Chrome trace-event JSON (`ph: "X"` complete events), openable in
/// Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{},\"wait\":{}}}}}{}\n",
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.wait,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            wait: false,
            name: "x",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("fnr_bench", 0, 100, None),
            span("fnr_tensor", 10, 40, Some(0)),
            span("fnr_tensor", 50, 60, Some(0)),
            span("fnr_par", 12, 20, Some(1)),
        ];
        let (by, wait) = own_ns_by_layer(&spans);
        assert_eq!(by["fnr_bench"], 60);
        assert_eq!(by["fnr_tensor"], 22 + 10);
        assert_eq!(by["fnr_par"], 8);
        assert!(wait.is_empty());
        // Self times partition the root span.
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn wait_spans_count_as_wait_not_self_time() {
        let spans = vec![
            span("perfbench", 0, 100, None),
            Span {
                wait: true,
                ..span("perfbench", 10, 70, Some(0))
            },
            Span {
                wait: true,
                ..span("fnr_serve.live", 0, 500, None)
            },
        ];
        let (own, wait) = own_ns_by_layer(&spans);
        assert_eq!(
            own["perfbench"], 40,
            "the sleep leaves its parent's self time"
        );
        assert_eq!(wait["perfbench"], 60);
        assert_eq!(wait["fnr_serve.live"], 500);
        assert!(!own.contains_key("fnr_serve.live"));
        let t = Tracer::new(true);
        t.wait("a", "park", 1, || ());
        assert!(t.spans()[0].wait);
    }

    #[test]
    fn nested_spans_record_parents_per_thread() {
        let t = Tracer::new(true);
        let v = t.span("a", "outer", 1, || t.span("b", "inner", 2, || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let other =
            std::thread::scope(|s| s.spawn(|| t.span("c", "other", 3, || 1)).join().unwrap());
        assert_eq!(other, 1);
        assert_eq!(
            t.spans()[2].parent,
            None,
            "a span on another thread has no parent here"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", "x", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
