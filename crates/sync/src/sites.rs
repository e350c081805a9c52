//! The canonical registry of synchronization sites.
//!
//! Every [`SyncMutex`](crate::SyncMutex)/atomic in workspace library code
//! is constructed with one of these labels, and each declaration carries
//! its place in the lock hierarchy ([`SiteDecl::rank`],
//! [`SiteDecl::may_acquire`]), so a site cannot be declared without one.
//! The tests below hold the hierarchy rank-consistent (and therefore
//! acyclic); the schedule explorer asserts at runtime that every
//! *observed* site is declared here and every observed edge climbs in
//! rank, so the registry cannot silently drift from reality.
//!
//! Memory-ordering rationale for atomic sites lives on each
//! [`SiteDecl::ordering`] entry (and as a comment at the construction
//! site); the schedule-explorer grid in `tests/concurrency_audit.rs` is
//! what lets the `Relaxed` choices below claim "proven schedule-invariant"
//! rather than "probably fine".

/// What kind of primitive a site labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A [`SyncMutex`](crate::SyncMutex) (participates in the lock-order
    /// graph and the declared hierarchy).
    Mutex,
    /// A [`SyncRwLock`](crate::SyncRwLock).
    RwLock,
    /// A [`SyncCondvar`](crate::SyncCondvar).
    Condvar,
    /// A [`SyncAtomicUsize`](crate::SyncAtomicUsize) /
    /// [`SyncAtomicU64`](crate::SyncAtomicU64) — never *held*, so it takes
    /// no part in inversion detection, but acquisitions are still counted
    /// and perturbed under chaos.
    Atomic,
}

/// One declared synchronization site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteDecl {
    /// Stable label, e.g. `"trace.ring"`. Dotted: `<crate area>.<object>`.
    pub label: &'static str,
    /// Primitive kind.
    pub kind: SiteKind,
    /// Owning crate (for diagnostics).
    pub owner: &'static str,
    /// For atomics: the memory-ordering choice and why it is sufficient.
    /// For locks: what the critical section protects.
    pub ordering: &'static str,
    /// Lock-hierarchy rank: while this site is held, only sites of
    /// strictly greater rank may be acquired (outer locks rank lower).
    pub rank: u32,
    /// Sites this one may acquire while held; every other site is a leaf.
    pub may_acquire: &'static [&'static str],
}

/// The bounded span ring inside `pstack_trace::TraceCollector` — taken once
/// per span close (flush) and on snapshot/drain.
pub const TRACE_RING: &str = "trace.ring";
/// Process-wide small-integer thread-id allocator in `pstack-trace`.
pub const TRACE_TID: &str = "trace.tid";
/// Per-collector span-id allocator in `pstack-trace`.
pub const TRACE_SPAN_ID: &str = "trace.span_id";
/// The work-queue cursor the `fan_out` worker pool claims indices from.
pub const POOL_CURSOR: &str = "autotune.pool.cursor";
/// One result slot per fresh configuration in the `fan_out` worker pool.
pub const POOL_SLOT: &str = "autotune.pool.slot";
/// The scratch-directory uniquifier in `pstack-ckpt`.
pub const CKPT_SCRATCH: &str = "ckpt.scratch_counter";
/// The cross-incarnation kill counter in `pstack_faults::SessionSupervisor`.
pub const FAULTS_KILLS: &str = "faults.supervisor.kills";
/// The slow-evaluation counter in `pstack_faults::FaultyEvaluator`.
pub const FAULTS_SLOWDOWNS: &str = "faults.evaluator.slowdowns";
/// The process-wide appended-record counter in `pstack-history`.
pub const HISTORY_APPENDS: &str = "history.appends";
/// The in-process append/compaction gate in `pstack_history::HistoryStore`.
pub const HISTORY_SHARD: &str = "history.shard";
/// The processed-event counter in `pstack_rm::fleet::EnclaveSet`.
pub const RM_EVENTS: &str = "rm.events";
/// The site aggregation tree in `pstack_rm::fleet::EnclaveSet`.
pub const RM_SITE_TREE: &str = "rm.site_tree";

/// Every declared site, in stable label order.
pub fn all() -> &'static [SiteDecl] {
    &[
        SiteDecl {
            label: POOL_CURSOR,
            kind: SiteKind::Atomic,
            owner: "pstack-autotune",
            ordering: "Relaxed fetch_add: a pure index dispenser. Each index is claimed by \
                       exactly one worker because fetch_add is atomic regardless of ordering; \
                       the claimed slot's *contents* are published by the scoped-thread join, \
                       not by this counter, so no acquire/release pairing is needed.",
            rank: 10,
            may_acquire: &[],
        },
        SiteDecl {
            label: POOL_SLOT,
            kind: SiteKind::Mutex,
            owner: "pstack-autotune",
            ordering: "Protects one evaluation result. Held only for the final store; the \
                       read side uses get_mut after the scope joins, so contention is \
                       impossible by construction and poisoning is recovered.",
            rank: 20,
            may_acquire: &[TRACE_RING],
        },
        SiteDecl {
            label: CKPT_SCRATCH,
            kind: SiteKind::Atomic,
            owner: "pstack-ckpt",
            ordering: "Relaxed fetch_add: a process-unique directory suffix. Uniqueness \
                       needs atomicity only; no other memory is published through it.",
            rank: 40,
            may_acquire: &[],
        },
        SiteDecl {
            label: FAULTS_SLOWDOWNS,
            kind: SiteKind::Atomic,
            owner: "pstack-faults",
            ordering: "Relaxed fetch_add/load: a monotone statistics counter read after \
                       the evaluation pool has joined (the join is the synchronization \
                       point), so no ordering stronger than Relaxed adds anything.",
            rank: 41,
            may_acquire: &[],
        },
        SiteDecl {
            label: FAULTS_KILLS,
            kind: SiteKind::Atomic,
            owner: "pstack-faults",
            ordering: "Relaxed load + fetch_add (downgraded from SeqCst): the interrupt \
                       hook runs only on the driver thread, one incarnation at a time, so \
                       the check-then-increment is single-threaded in practice; the \
                       schedule-explorer grid asserts kill schedules stay byte-identical \
                       across adversarial interleavings.",
            rank: 42,
            may_acquire: &[],
        },
        SiteDecl {
            label: HISTORY_APPENDS,
            kind: SiteKind::Atomic,
            owner: "pstack-history",
            ordering: "Relaxed fetch_add/load: a monotone diagnostics counter of appended \
                       records. Readers only consult it after joining the writer threads \
                       (the join is the synchronization point), so Relaxed suffices.",
            rank: 46,
            may_acquire: &[],
        },
        SiteDecl {
            label: HISTORY_SHARD,
            kind: SiteKind::Mutex,
            owner: "pstack-history",
            ordering: "Serializes every store append/compaction in this process so a shard \
                       log sees one in-process writer at a time. While held it takes only \
                       the cross-process advisory lock file and bumps the history.appends \
                       diagnostics counter (declared ranked above it); no other in-process \
                       primitive is acquired under it.",
            rank: 45,
            may_acquire: &[HISTORY_APPENDS],
        },
        SiteDecl {
            label: RM_EVENTS,
            kind: SiteKind::Atomic,
            owner: "pstack-rm",
            ordering: "Relaxed fetch_add/load: a monotone diagnostics counter of scheduler \
                       events processed across an enclave drain. Enclaves drain one at a \
                       time on the driver thread and readers consult the total only after \
                       the drain returns, so atomicity alone is the whole contract.",
            rank: 47,
            may_acquire: &[],
        },
        SiteDecl {
            label: RM_SITE_TREE,
            kind: SiteKind::Mutex,
            owner: "pstack-rm",
            ordering: "Protects the GEOPM-style site aggregation tree while per-enclave \
                       metrics are folded up to the root. Leaf lock: nothing else is \
                       acquired while it is held.",
            rank: 48,
            may_acquire: &[],
        },
        SiteDecl {
            label: TRACE_RING,
            kind: SiteKind::Mutex,
            owner: "pstack-trace",
            ordering: "Protects the bounded span ring and its drop counter. Leaf lock: \
                       nothing else is ever acquired while it is held.",
            rank: 50,
            may_acquire: &[],
        },
        SiteDecl {
            label: TRACE_SPAN_ID,
            kind: SiteKind::Atomic,
            owner: "pstack-trace",
            ordering: "Relaxed fetch_add: span-id dispenser. Ids must be unique, not \
                       ordered; snapshot ordering is reconstructed from (start_ns, id).",
            rank: 51,
            may_acquire: &[],
        },
        SiteDecl {
            label: TRACE_TID,
            kind: SiteKind::Atomic,
            owner: "pstack-trace",
            ordering: "Relaxed fetch_add: thread-id dispenser, same argument as the \
                       span-id site — uniqueness is the whole contract.",
            rank: 52,
            may_acquire: &[],
        },
    ]
}

/// Whether `label` is a declared site.
pub fn is_declared(label: &str) -> bool {
    all().iter().any(|s| s.label == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_labels_unique_and_sorted() {
        let labels: Vec<&str> = all().iter().map(|s| s.label).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(labels, sorted, "site labels must be unique and in order");
    }

    /// Every `may_acquire` target is a declared site of strictly greater
    /// rank. Ranks strictly increase along every edge, so the relation is
    /// acyclic: an ABBA deadlock cannot be declared.
    fn hierarchy_problems(sites: &[SiteDecl]) -> Vec<String> {
        let mut out = Vec::new();
        for s in sites {
            for &target in s.may_acquire {
                match sites.iter().find(|t| t.label == target) {
                    None => out.push(format!("{} may acquire undeclared {target}", s.label)),
                    Some(t) if t.rank <= s.rank => out.push(format!(
                        "{} (rank {}) may acquire {target} (rank {})",
                        s.label, s.rank, t.rank
                    )),
                    Some(_) => {}
                }
            }
        }
        out
    }

    #[test]
    fn hierarchy_is_rank_consistent_and_acyclic() {
        assert_eq!(hierarchy_problems(all()), Vec::<String>::new());
        // An injected back edge closes a cycle and inverts a rank.
        let mut cyclic = all().to_vec();
        let ring = cyclic
            .iter_mut()
            .find(|s| s.label == TRACE_RING)
            .expect("ring");
        ring.may_acquire = &[POOL_SLOT];
        assert_eq!(hierarchy_problems(&cyclic).len(), 1);
        let mut dangling = all().to_vec();
        dangling[0].may_acquire = &["nowhere.lock"];
        assert!(hierarchy_problems(&dangling)[0].contains("undeclared"));
    }

    #[test]
    fn every_site_documents_its_ordering() {
        for s in all() {
            assert!(
                s.ordering.len() > 20,
                "site {} must carry a real ordering/critical-section rationale",
                s.label
            );
        }
    }
}
