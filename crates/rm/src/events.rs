//! Deterministic, serializable event heap for the event-driven scheduler.
//!
//! The per-tick [`Scheduler`](crate::Scheduler) re-scans every node and the
//! whole queue each quantum; at fleet scale (thousands of nodes, tens of
//! thousands of queued jobs) almost all of that work is no-ops. The
//! event-driven drain instead keeps a time-ordered heap of the things that
//! can actually change a schedule:
//!
//! - **job arrivals** ([`EventKind::Arrival`]) — pushed at submit time;
//! - **budget changes** ([`EventKind::BudgetChange`]) — scheduled
//!   demand-response events (E1 at fleet scale);
//! - **control-interval ticks** ([`EventKind::Tick`]) — the quantum grid,
//!   materialized only while jobs are running;
//! - **job completions** ([`EventKind::Completion`]) — recorded as the
//!   physics detects them (completion times are emergent, not known at
//!   submit, so these enter the heap at detection time);
//! - **fault events** ([`EventKind::NodeFail`], [`EventKind::NodeRecover`],
//!   [`EventKind::JobFail`], [`EventKind::CapStick`],
//!   [`EventKind::TelemetryDropout`]) — RM-class failures injected by
//!   `pstack-faults` fleet plans. Routing faults through the same heap is
//!   what keeps chaos runs byte-identical per seed: a fault is just another
//!   time-ordered event, so replay and checkpoint/resume cover it for free.
//!
//! Two entries at the same timestamp pop in declared kind order
//! ([`EventKind::rank`]: budget changes first, then faults (fail before
//! recover before the rest), then arrivals before ticks before completions)
//! and then in insertion order, which makes whole-drain replays
//! bit-reproducible. The heap serializes through the vendored `serde` value
//! model, so a mid-drain scheduler can checkpoint its pending events through
//! `pstack-ckpt` and resume (see the kill-at-decile test in
//! `tests/event_equivalence.rs`).
//!
//! The tests drive this heap through an adversarial push/pop sequence and
//! check that the cursor never regresses, same-instant events pop in rank
//! order, and no event is lost.

use crate::scheduler::EmergencyResponse;
use crate::spec::JobId;
use pstack_sim::SimTime;
use serde::{Deserialize, Error, Serialize, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Apply a new system power budget (demand-response / corridor event).
    BudgetChange {
        /// New budget, watts (`None` = unlimited).
        budget_w: Option<f64>,
        /// How committed load is shed if the budget no longer covers it.
        response: EmergencyResponse,
    },
    /// A node crashes. An idle node powers off; a node inside a running
    /// job kills the job, which is requeued under its retry budget.
    NodeFail {
        /// Hardware id ([`pstack_hwmodel::NodeId`]) of the failing node.
        node: usize,
    },
    /// A previously failed node reboots (knobs reset) and rejoins the
    /// idle pool.
    NodeRecover {
        /// Hardware id of the recovering node.
        node: usize,
    },
    /// A running job aborts (software failure). Requeued under the same
    /// retry budget as a node-crash kill; a no-op if the job is not
    /// currently running.
    JobFail(JobId),
    /// The node-level power-cap actuator sticks: the RM's out-of-band cap
    /// writes to this node are dropped until `until`.
    CapStick {
        /// Hardware id of the node with the stuck actuator.
        node: usize,
        /// When the actuator unsticks and cap writes land again.
        until: SimTime,
    },
    /// The fleet aggregation tree drops this scheduler's telemetry until
    /// `until`. Pure observability fault — never changes scheduling.
    TelemetryDropout {
        /// When samples start flowing again.
        until: SimTime,
    },
    /// A job reaches its submit time and becomes eligible for scheduling.
    Arrival(JobId),
    /// A control-interval tick boundary (the quantum grid).
    Tick,
    /// A running job's physics completed.
    Completion(JobId),
}

impl EventKind {
    /// Same-timestamp processing priority: budget changes apply before the
    /// arrivals they may gate; fault state lands next (a fail before the
    /// recover that may undo it, both before job/actuator/telemetry faults)
    /// so the scheduling pass sees the degraded capacity; then arrivals
    /// before the tick that schedules them, ticks before the completions
    /// they detect.
    pub fn rank(&self) -> u32 {
        match self {
            EventKind::BudgetChange { .. } => 0,
            EventKind::NodeFail { .. } => 1,
            EventKind::NodeRecover { .. } => 2,
            EventKind::JobFail(_) => 3,
            EventKind::CapStick { .. } => 4,
            EventKind::TelemetryDropout { .. } => 5,
            EventKind::Arrival(_) => 6,
            EventKind::Tick => 7,
            EventKind::Completion(_) => 8,
        }
    }

    /// Stable label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::BudgetChange { .. } => "budget_change",
            EventKind::NodeFail { .. } => "node_fail",
            EventKind::NodeRecover { .. } => "node_recover",
            EventKind::JobFail(_) => "job_fail",
            EventKind::CapStick { .. } => "cap_stick",
            EventKind::TelemetryDropout { .. } => "telemetry_dropout",
            EventKind::Arrival(_) => "arrival",
            EventKind::Tick => "tick",
            EventKind::Completion(_) => "completion",
        }
    }
}

/// One event as popped from the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    /// Absolute fire time.
    pub time: SimTime,
    /// Insertion sequence number (unique per heap).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

#[derive(Debug, Clone)]
struct HeapEntry {
    time: SimTime,
    rank: u32,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, rank, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Time-ordered event heap with a monotone processing cursor.
///
/// The workspace's one discrete-event queue. Pushing an event at a past
/// timestamp is allowed (a job may be submitted with a retroactive arrival
/// time); it simply fires at the next [`EventHeap::pop_due`]. The *cursor* —
/// the largest fire time processed so far — never moves backwards.
#[derive(Debug, Clone, Default)]
pub struct EventHeap {
    entries: BinaryHeap<HeapEntry>,
    next_seq: u64,
    cursor: SimTime,
    popped: u64,
}

impl EventHeap {
    /// Empty heap with the cursor at time zero.
    pub fn new() -> Self {
        EventHeap {
            entries: BinaryHeap::new(),
            next_seq: 0,
            cursor: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Schedule `kind` to fire at absolute `time`. Past times are allowed
    /// and fire immediately at the next `pop_due`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(HeapEntry {
            time,
            rank: kind.rank(),
            seq,
            kind,
        });
    }

    /// Pop the earliest pending event whose fire time is `<= now`, advancing
    /// the cursor to `max(cursor, fire time)`. `None` if nothing is due.
    pub fn pop_due(&mut self, now: SimTime) -> Option<ScheduledEvent> {
        match self.entries.peek() {
            Some(e) if e.time <= now => {}
            _ => return None,
        }
        let e = self.entries.pop().expect("peeked");
        self.cursor = self.cursor.max(e.time);
        self.popped += 1;
        Some(ScheduledEvent {
            time: e.time,
            seq: e.seq,
            kind: e.kind,
        })
    }

    /// Fire time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.peek().map(|e| e.time)
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The processing cursor: the largest fire time popped so far.
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Total events popped over the heap's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Pending entries in pop order (diagnostics, serialization, tests).
    pub fn pending(&self) -> Vec<ScheduledEvent> {
        let mut v: Vec<&HeapEntry> = self.entries.iter().collect();
        v.sort_by(|a, b| {
            a.time
                .cmp(&b.time)
                .then_with(|| a.rank.cmp(&b.rank))
                .then_with(|| a.seq.cmp(&b.seq))
        });
        v.into_iter()
            .map(|e| ScheduledEvent {
                time: e.time,
                seq: e.seq,
                kind: e.kind,
            })
            .collect()
    }
}

impl PartialEq for EventHeap {
    fn eq(&self, other: &Self) -> bool {
        self.next_seq == other.next_seq
            && self.cursor == other.cursor
            && self.popped == other.popped
            && self.pending() == other.pending()
    }
}

// Manual serde: SimTime carries no serde impls and the heap's interior order
// is an implementation detail — the wire form is the pop-ordered entry list.

fn kind_to_value(kind: &EventKind) -> Value {
    match kind {
        EventKind::BudgetChange { budget_w, response } => Value::Map(vec![
            ("kind".into(), Value::Str("budget_change".into())),
            ("budget_w".into(), budget_w.to_value()),
            (
                "response".into(),
                Value::Str(
                    match response {
                        EmergencyResponse::PauseJobs => "pause_jobs",
                        EmergencyResponse::TightenCaps => "tighten_caps",
                    }
                    .into(),
                ),
            ),
        ]),
        EventKind::NodeFail { node } => Value::Map(vec![
            ("kind".into(), Value::Str("node_fail".into())),
            ("node".into(), Value::UInt(*node as u64)),
        ]),
        EventKind::NodeRecover { node } => Value::Map(vec![
            ("kind".into(), Value::Str("node_recover".into())),
            ("node".into(), Value::UInt(*node as u64)),
        ]),
        EventKind::JobFail(id) => Value::Map(vec![
            ("kind".into(), Value::Str("job_fail".into())),
            ("job".into(), Value::UInt(id.0)),
        ]),
        EventKind::CapStick { node, until } => Value::Map(vec![
            ("kind".into(), Value::Str("cap_stick".into())),
            ("node".into(), Value::UInt(*node as u64)),
            ("until_us".into(), Value::UInt(until.as_micros())),
        ]),
        EventKind::TelemetryDropout { until } => Value::Map(vec![
            ("kind".into(), Value::Str("telemetry_dropout".into())),
            ("until_us".into(), Value::UInt(until.as_micros())),
        ]),
        EventKind::Arrival(id) => Value::Map(vec![
            ("kind".into(), Value::Str("arrival".into())),
            ("job".into(), Value::UInt(id.0)),
        ]),
        EventKind::Tick => Value::Map(vec![("kind".into(), Value::Str("tick".into()))]),
        EventKind::Completion(id) => Value::Map(vec![
            ("kind".into(), Value::Str("completion".into())),
            ("job".into(), Value::UInt(id.0)),
        ]),
    }
}

fn kind_from_value(v: &Value) -> Result<EventKind, Error> {
    let kind = String::from_value(v.field("kind"))?;
    match kind.as_str() {
        "budget_change" => Ok(EventKind::BudgetChange {
            budget_w: Option::<f64>::from_value(v.field("budget_w"))?,
            response: match String::from_value(v.field("response"))?.as_str() {
                "pause_jobs" => EmergencyResponse::PauseJobs,
                "tighten_caps" => EmergencyResponse::TightenCaps,
                other => return Err(Error::msg(format!("unknown response {other:?}"))),
            },
        }),
        "node_fail" => Ok(EventKind::NodeFail {
            node: u64::from_value(v.field("node"))? as usize,
        }),
        "node_recover" => Ok(EventKind::NodeRecover {
            node: u64::from_value(v.field("node"))? as usize,
        }),
        "job_fail" => Ok(EventKind::JobFail(JobId(u64::from_value(v.field("job"))?))),
        "cap_stick" => Ok(EventKind::CapStick {
            node: u64::from_value(v.field("node"))? as usize,
            until: SimTime::from_micros(u64::from_value(v.field("until_us"))?),
        }),
        "telemetry_dropout" => Ok(EventKind::TelemetryDropout {
            until: SimTime::from_micros(u64::from_value(v.field("until_us"))?),
        }),
        "arrival" => Ok(EventKind::Arrival(JobId(u64::from_value(v.field("job"))?))),
        "tick" => Ok(EventKind::Tick),
        "completion" => Ok(EventKind::Completion(JobId(u64::from_value(
            v.field("job"),
        )?))),
        other => Err(Error::msg(format!("unknown event kind {other:?}"))),
    }
}

impl Serialize for EventHeap {
    fn to_value(&self) -> Value {
        let events: Vec<Value> = self
            .pending()
            .into_iter()
            .map(|e| {
                Value::Map(vec![
                    ("time_us".into(), Value::UInt(e.time.as_micros())),
                    ("seq".into(), Value::UInt(e.seq)),
                    ("event".into(), kind_to_value(&e.kind)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("next_seq".into(), Value::UInt(self.next_seq)),
            ("cursor_us".into(), Value::UInt(self.cursor.as_micros())),
            ("popped".into(), Value::UInt(self.popped)),
            ("events".into(), Value::Seq(events)),
        ])
    }
}

impl Deserialize for EventHeap {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut heap = EventHeap {
            entries: BinaryHeap::new(),
            next_seq: u64::from_value(v.field("next_seq"))?,
            cursor: SimTime::from_micros(u64::from_value(v.field("cursor_us"))?),
            popped: u64::from_value(v.field("popped"))?,
        };
        let events = match v.field("events") {
            Value::Seq(items) => items,
            other => {
                return Err(Error::msg(format!(
                    "expected events seq, got {}",
                    other.kind()
                )))
            }
        };
        for ev in events {
            let kind = kind_from_value(ev.field("event"))?;
            heap.entries.push(HeapEntry {
                time: SimTime::from_micros(u64::from_value(ev.field("time_us"))?),
                rank: kind.rank(),
                seq: u64::from_value(ev.field("seq"))?,
                kind,
            });
        }
        Ok(heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_then_rank_then_seq_order() {
        let mut h = EventHeap::new();
        h.push(t(5), EventKind::Tick);
        h.push(t(5), EventKind::Arrival(JobId(1)));
        h.push(
            t(5),
            EventKind::BudgetChange {
                budget_w: Some(1000.0),
                response: EmergencyResponse::PauseJobs,
            },
        );
        h.push(t(1), EventKind::Completion(JobId(9)));
        let order: Vec<&'static str> = std::iter::from_fn(|| h.pop_due(t(100)))
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(order, ["completion", "budget_change", "arrival", "tick"]);
    }

    /// One pop of a recorded drain: (fire time, cursor after the pop, rank).
    type Pop = (SimTime, SimTime, u32);

    /// Push out-of-order events, a same-instant cluster of all nine kinds
    /// in reverse rank order, and a retroactive push mid-drain; return the
    /// pops, the number of events pushed, and the heap after the drain.
    fn adversarial_drain() -> (Vec<Pop>, usize, EventHeap) {
        let mut h = EventHeap::new();
        let cluster = [
            EventKind::Completion(JobId(7)),
            EventKind::Tick,
            EventKind::Arrival(JobId(3)),
            EventKind::TelemetryDropout { until: t(100) },
            EventKind::CapStick {
                node: 2,
                until: t(100),
            },
            EventKind::JobFail(JobId(5)),
            EventKind::NodeRecover { node: 1 },
            EventKind::NodeFail { node: 1 },
            EventKind::BudgetChange {
                budget_w: Some(1000.0),
                response: EmergencyResponse::TightenCaps,
            },
        ];
        let mut pushed = cluster.len() + 3;
        for kind in cluster {
            h.push(t(40), kind);
        }
        h.push(t(10), EventKind::Arrival(JobId(1)));
        h.push(t(90), EventKind::Tick);
        h.push(t(5), EventKind::Arrival(JobId(0)));
        let mut pops = Vec::new();
        let mut retro = Some(EventKind::Arrival(JobId(9)));
        while let Some(ev) = h.pop_due(t(3600)) {
            pops.push((ev.time, h.cursor(), ev.kind.rank()));
            if let Some(kind) = retro.take_if(|_| ev.time == t(40)) {
                h.push(t(20), kind);
                pushed += 1;
            }
        }
        h.push(t(7200), EventKind::Tick); // past the horizon: stays pending
        (pops, pushed + 1, h)
    }

    /// PSA020: the cursor tracks `max(previous cursor, fire time)` and so
    /// never regresses, same-instant pops come in rank order, and every
    /// pushed event was popped or is still pending.
    fn schedule_problems(pops: &[Pop], pushed: usize, heap: &EventHeap) -> Vec<String> {
        let mut out = Vec::new();
        let mut prev = SimTime::ZERO;
        for (i, &(time, cursor, _)) in pops.iter().enumerate() {
            if cursor != prev.max(time) {
                out.push(format!(
                    "pop {i}: cursor {cursor:?} after {prev:?} at {time:?}"
                ));
            }
            prev = cursor;
        }
        for (i, w) in pops.windows(2).enumerate() {
            if w[0].0 == w[1].0 && w[0].2 > w[1].2 {
                out.push(format!(
                    "pop {}: same-instant events out of rank order",
                    i + 1
                ));
            }
        }
        if heap.popped() != pops.len() as u64 || pops.len() + heap.len() != pushed {
            out.push(format!(
                "{pushed} pushed, {} popped, {} pending",
                pops.len(),
                heap.len()
            ));
        }
        out
    }

    #[test]
    fn adversarial_drain_keeps_the_schedule_contract() {
        let (pops, pushed, heap) = adversarial_drain();
        assert_eq!(
            schedule_problems(&pops, pushed, &heap),
            Vec::<String>::new()
        );
        // The exercise covers a retroactive pop behind the cursor and the
        // full nine-kind cluster.
        assert!(pops.iter().any(|&(time, cursor, _)| time < cursor));
        assert_eq!(pops.iter().filter(|p| p.0 == t(40)).count(), 9);

        let mut regressed = pops.clone();
        regressed.last_mut().expect("pops").1 = SimTime::ZERO;
        assert!(!schedule_problems(&regressed, pushed, &heap).is_empty());
        let mut reordered = pops.clone();
        let i = pops
            .windows(2)
            .position(|w| w[0].0 == w[1].0)
            .expect("cluster");
        (reordered[i].2, reordered[i + 1].2) = (pops[i + 1].2, pops[i].2);
        assert!(schedule_problems(&reordered, pushed, &heap)[0].contains("rank order"));
        assert!(!schedule_problems(&pops, pushed + 1, &heap).is_empty());
    }

    #[test]
    fn fifo_tie_break_within_kind() {
        let mut h = EventHeap::new();
        for id in 0..50u64 {
            h.push(t(3), EventKind::Arrival(JobId(id)));
        }
        for id in 0..50u64 {
            match h.pop_due(t(3)).expect("due").kind {
                EventKind::Arrival(j) => assert_eq!(j, JobId(id)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn pop_due_respects_now_and_cursor_is_monotone() {
        let mut h = EventHeap::new();
        h.push(t(10), EventKind::Tick);
        h.push(t(4), EventKind::Tick);
        assert!(h.pop_due(t(3)).is_none());
        assert_eq!(h.pop_due(t(4)).expect("due").time, t(4));
        assert_eq!(h.cursor(), t(4));
        // A retroactive push must not move the cursor backwards when popped.
        h.push(t(2), EventKind::Arrival(JobId(7)));
        assert_eq!(h.pop_due(t(4)).expect("due").time, t(2));
        assert_eq!(h.cursor(), t(4), "cursor never regresses");
        assert_eq!(h.pop_due(t(10)).expect("due").time, t(10));
        assert_eq!(h.cursor(), t(10));
        assert_eq!(h.popped(), 3);
    }

    #[test]
    fn serde_round_trip_preserves_pop_sequence() {
        let mut h = EventHeap::new();
        h.push(t(7), EventKind::Arrival(JobId(2)));
        h.push(
            t(3),
            EventKind::BudgetChange {
                budget_w: None,
                response: EmergencyResponse::TightenCaps,
            },
        );
        h.push(t(3), EventKind::Tick);
        h.push(
            t(9),
            EventKind::BudgetChange {
                budget_w: Some(1234.5),
                response: EmergencyResponse::PauseJobs,
            },
        );
        let _ = h.pop_due(t(3)).expect("due");
        let mut back = EventHeap::from_value(&h.to_value()).expect("round trip");
        assert_eq!(h, back);
        let mut orig = h.clone();
        loop {
            let a = orig.pop_due(SimTime::MAX);
            let b = back.pop_due(SimTime::MAX);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn fault_kinds_rank_between_budget_changes_and_arrivals() {
        let mut h = EventHeap::new();
        h.push(t(5), EventKind::Completion(JobId(1)));
        h.push(t(5), EventKind::Arrival(JobId(2)));
        h.push(t(5), EventKind::TelemetryDropout { until: t(6) });
        h.push(
            t(5),
            EventKind::CapStick {
                node: 3,
                until: t(7),
            },
        );
        h.push(t(5), EventKind::JobFail(JobId(2)));
        h.push(t(5), EventKind::NodeRecover { node: 0 });
        h.push(t(5), EventKind::NodeFail { node: 0 });
        h.push(
            t(5),
            EventKind::BudgetChange {
                budget_w: None,
                response: EmergencyResponse::PauseJobs,
            },
        );
        h.push(t(5), EventKind::Tick);
        let order: Vec<&'static str> = std::iter::from_fn(|| h.pop_due(t(5)))
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(
            order,
            [
                "budget_change",
                "node_fail",
                "node_recover",
                "job_fail",
                "cap_stick",
                "telemetry_dropout",
                "arrival",
                "tick",
                "completion",
            ]
        );
    }

    #[test]
    fn fault_kinds_serde_round_trip() {
        let mut h = EventHeap::new();
        h.push(t(10), EventKind::NodeFail { node: 17 });
        h.push(t(25), EventKind::NodeRecover { node: 17 });
        h.push(t(12), EventKind::JobFail(JobId(4)));
        h.push(
            t(14),
            EventKind::CapStick {
                node: 9,
                until: t(44),
            },
        );
        h.push(t(16), EventKind::TelemetryDropout { until: t(90) });
        let _ = h.pop_due(t(10)).expect("due");
        let mut back = EventHeap::from_value(&h.to_value()).expect("round trip");
        assert_eq!(h, back);
        let mut orig = h.clone();
        loop {
            let a = orig.pop_due(SimTime::MAX);
            let b = back.pop_due(SimTime::MAX);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pending_lists_pop_order_without_mutation() {
        let mut h = EventHeap::new();
        h.push(t(2) + SimDuration::from_millis(500), EventKind::Tick);
        h.push(t(1), EventKind::Arrival(JobId(0)));
        let pending = h.pending();
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].time, t(1));
        assert_eq!(h.len(), 2, "pending() must not consume");
    }
}
