//! The trace collector: a bounded, lock-cheap sink for spans.
//!
//! Design constraints (mirrored from the exporters' contracts):
//!
//! - **lock-cheap**: a [`SpanGuard`] accumulates its attributes and events
//!   in thread-local storage (the guard itself) and takes the collector
//!   lock exactly once, at span close, to flush the finished span;
//! - **bounded**: the ring buffer holds at most `capacity` spans; overflow
//!   evicts the oldest span and is *accounted* ([`Trace::dropped`]), never
//!   silent;
//! - **deterministic ordering**: [`TraceCollector::snapshot`] sorts by
//!   `(start_ns, id)`, so the rendered shape of a trace does not depend on
//!   which worker thread flushed first.

use crate::span::{AttrValue, Event, Span, SpanId};
use pstack_sync::{sites, Ordering, SyncAtomicU64, SyncMutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Process-wide small-integer thread ids (0 is reserved for "unassigned").
// Relaxed fetch_add: tid dispenser — uniqueness is the whole contract (see
// the `trace.tid` entry in `pstack_sync::sites`).
static NEXT_TID: SyncAtomicU64 = SyncAtomicU64::new(sites::TRACE_TID, 1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Small integer identifying the calling thread, assigned on first use.
pub(crate) fn current_tid() -> u64 {
    TID.with(|cell| {
        let v = cell.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(v);
            v
        }
    })
}

/// A finished, ordered view of everything a collector holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Spans sorted by `(start_ns, id)`.
    pub spans: Vec<Span>,
    /// Spans evicted by ring overflow (they are *not* in `spans`).
    pub dropped: u64,
}

impl Trace {
    /// Total spans retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace retained no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans with this name, in trace order.
    pub fn by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

struct Ring {
    spans: VecDeque<Span>,
    dropped: u64,
}

/// Bounded sink for [`Span`]s; shared by reference across worker threads.
pub struct TraceCollector {
    capacity: usize,
    epoch: Instant,
    next_id: SyncAtomicU64,
    inner: SyncMutex<Ring>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// Default ring capacity: enough for every span of a full-scale paper
    /// figure at the default budgets.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A collector with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A collector retaining at most `capacity` spans (the oldest are
    /// evicted first; evictions are counted, not silent).
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        TraceCollector {
            capacity,
            epoch: Instant::now(),
            // Relaxed: span-id dispenser; snapshot order is reconstructed
            // from (start_ns, id), so ids only need to be unique.
            next_id: SyncAtomicU64::new(sites::TRACE_SPAN_ID, 1),
            inner: SyncMutex::new(
                sites::TRACE_RING,
                Ring {
                    spans: VecDeque::new(),
                    dropped: 0,
                },
            ),
        }
    }

    /// Monotonic nanoseconds since this collector was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a root span. The span is recorded when the guard closes (or
    /// drops).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.open(name, None)
    }

    /// Open a span under `parent`.
    pub fn child(&self, name: &str, parent: SpanId) -> SpanGuard<'_> {
        self.open(name, Some(parent))
    }

    /// Record an instantaneous moment as a zero-duration span (renders as a
    /// point in the Chrome viewer). Returns its id.
    pub fn instant(
        &self,
        parent: Option<SpanId>,
        name: &str,
        attrs: Vec<(String, AttrValue)>,
    ) -> SpanId {
        let mut guard = self.open(name, parent);
        guard
            .span
            .as_mut()
            .expect("open guard holds its span")
            .attrs = attrs;
        guard.id()
        // guard drops here: dur_ns ~ 0
    }

    fn open(&self, name: &str, parent: Option<SpanId>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let wall_start_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        SpanGuard {
            collector: self,
            span: Some(Span {
                id,
                parent,
                name: name.to_string(),
                tid: current_tid(),
                start_ns: self.now_ns(),
                dur_ns: 0,
                wall_start_us,
                attrs: Vec::new(),
                events: Vec::new(),
            }),
        }
    }

    fn push(&self, span: Span) {
        let mut ring = self.inner.lock();
        if ring.spans.len() == self.capacity {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(span);
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().spans.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// An ordered copy of the current contents (the ring is untouched).
    pub fn snapshot(&self) -> Trace {
        let ring = self.inner.lock();
        let mut spans: Vec<Span> = ring.spans.iter().cloned().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Trace {
            spans,
            dropped: ring.dropped,
        }
    }

    /// Drain the ring into an ordered trace, resetting the drop counter.
    pub fn take(&self) -> Trace {
        let mut ring = self.inner.lock();
        let mut spans: Vec<Span> = ring.spans.drain(..).collect();
        let dropped = std::mem::take(&mut ring.dropped);
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Trace { spans, dropped }
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// An open span. Attributes and events accumulate locally (no lock); the
/// span flushes to the collector exactly once, when the guard closes or
/// drops.
pub struct SpanGuard<'a> {
    collector: &'a TraceCollector,
    span: Option<Span>,
}

impl SpanGuard<'_> {
    /// The span's stable id (usable as a parent for children on other
    /// threads).
    pub fn id(&self) -> SpanId {
        self.span.as_ref().expect("open guard holds its span").id
    }

    /// Attach a typed attribute.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        self.span
            .as_mut()
            .expect("open guard holds its span")
            .attrs
            .push((key.to_string(), value.into()));
    }

    /// Record an instantaneous moment inside this span.
    pub fn event(&mut self, name: &str) {
        self.event_with(name, Vec::new());
    }

    /// Record an instantaneous moment with attributes.
    pub fn event_with(&mut self, name: &str, attrs: Vec<(String, AttrValue)>) {
        let at_ns = self.collector.now_ns();
        self.span
            .as_mut()
            .expect("open guard holds its span")
            .events
            .push(Event {
                name: name.to_string(),
                at_ns,
                attrs,
            });
    }

    /// Open a child span of this one.
    pub fn child(&self, name: &str) -> SpanGuard<'_> {
        self.collector.child(name, self.id())
    }

    /// Close the span now (equivalent to dropping the guard).
    pub fn close(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.dur_ns = self.collector.now_ns().saturating_sub(span.start_ns);
            self.collector.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_flush_in_deterministic_order() {
        let collector = TraceCollector::new();
        {
            let mut root = collector.span("root");
            root.attr("k", 1i64);
            {
                let mut child = root.child("child");
                child.event("tick");
            }
            root.event_with("done", vec![("ok".into(), AttrValue::Bool(true))]);
        }
        let trace = collector.snapshot();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped, 0);
        // Sorted by start: root opened first.
        assert_eq!(trace.spans[0].name, "root");
        assert_eq!(trace.spans[1].name, "child");
        assert_eq!(trace.spans[1].parent, Some(trace.spans[0].id));
        assert_eq!(trace.spans[0].events.len(), 1);
        assert_eq!(trace.spans[1].events[0].name, "tick");
        assert_eq!(trace.spans[0].attr("k"), Some(&AttrValue::Int(1)));
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_accounts() {
        let collector = TraceCollector::with_capacity(4);
        for i in 0..10 {
            let mut s = collector.span("s");
            s.attr("i", i as i64);
        }
        assert_eq!(collector.len(), 4);
        assert_eq!(collector.dropped(), 6);
        let trace = collector.snapshot();
        assert_eq!(trace.dropped, 6);
        // The survivors are the newest four, still in open order.
        let kept: Vec<i64> = trace
            .spans
            .iter()
            .map(|s| match s.attr("i") {
                Some(AttrValue::Int(i)) => *i,
                other => panic!("unexpected attr {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn take_drains_and_resets() {
        let collector = TraceCollector::with_capacity(2);
        for _ in 0..3 {
            collector.span("s").close();
        }
        let trace = collector.take();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped, 1);
        assert!(collector.is_empty());
        assert_eq!(collector.dropped(), 0);
    }

    #[test]
    fn instants_are_zero_duration_spans() {
        let collector = TraceCollector::new();
        let parent = collector.span("root");
        let id = collector.instant(
            Some(parent.id()),
            "moment",
            vec![("n".into(), AttrValue::Int(3))],
        );
        parent.close();
        let trace = collector.snapshot();
        let moment = trace
            .spans
            .iter()
            .find(|s| s.id == id)
            .expect("instant recorded");
        assert_eq!(moment.name, "moment");
        assert_eq!(moment.attr("n"), Some(&AttrValue::Int(3)));
        assert!(moment.dur_ns < 1_000_000, "instants are ~zero duration");
    }

    #[test]
    fn collector_is_shareable_across_scoped_threads() {
        let collector = TraceCollector::new();
        let root_id = {
            let root = collector.span("root");
            let id = root.id();
            std::thread::scope(|scope| {
                for w in 0..4usize {
                    let collector = &collector;
                    scope.spawn(move || {
                        let mut span = collector.child("work", id);
                        span.attr("worker", w);
                    });
                }
            });
            id
        };
        let trace = collector.snapshot();
        assert_eq!(trace.len(), 5);
        let workers: Vec<&Span> = trace.by_name("work").collect();
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().all(|s| s.parent == Some(root_id)));
        // Each worker thread got its own small-integer tid.
        let tids: std::collections::HashSet<u64> = workers.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }
}
