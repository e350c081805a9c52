//! Crash-safe tuning sessions: write-ahead checkpointing and resume.
//!
//! Long campaigns die — node reboots, queue-manager kills, power caps
//! tripping the very job that tunes them. This module makes every driver
//! optionally durable: with [`Tuner::checkpoint`] set, the tuner keeps a
//! session directory containing
//!
//! - a **write-ahead log** (`session.wal`): one [`EvalRecord`] appended —
//!   and, per the fsync policy, flushed — *before* the in-memory search
//!   observes an evaluation's outcome, so no completed evaluation is ever
//!   repeated after a crash;
//! - a **snapshot** (`session.snap`): the full [`SessionSnapshot`] (database,
//!   evaluation cache, RNG state, search-algorithm state, quarantine ledger,
//!   fault log) written atomically every few records, after which the WAL is
//!   compacted.
//!
//! [`Tuner::resume`] (and the `resume_*` siblings) reload the snapshot,
//! re-drive the search from it, and *replay* the WAL tail: each logged
//! record answers the re-suggested configuration it belongs to without
//! re-evaluating. Because every driver is deterministic given its seed, the
//! resumed run reproduces the uninterrupted run's [`TuneReport`](crate::TuneReport)
//! byte-for-byte — for any kill point and any worker count. A resumed
//! session that diverges from its log (wrong config at an ordinal) is a
//! typed [`TuneError::Checkpoint`], never a silently wrong report.
//!
//! Storage-format concerns (framing, checksums, atomic rename, torn-tail
//! recovery) live in the `pstack-ckpt` crate; this module owns the schema.

use crate::db::PerfDatabase;
use crate::faultlog::FaultLog;
use crate::resilient::Robustness;
use crate::search::SearchAlgorithm;
use crate::space::Config;
use crate::tuner::{config_fingerprint, CacheStats, Driver, LoopState, TuneError, Tuner};
use pstack_ckpt::{CkptError, SessionDir, WalWriter};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

pub use pstack_ckpt::{SNAPSHOT_FORMAT_VERSION, WAL_FORMAT_VERSION};

/// Crash-injection hook: called with each ordinal just after its WAL
/// append; returning `true` aborts the run as if the process died there.
pub type InterruptFn = dyn Fn(usize) -> bool + Send + Sync;

/// Where and how often to checkpoint a session.
#[derive(Debug, Clone)]
pub struct CheckpointOpts {
    /// Session directory (created if missing) holding WAL + snapshot.
    pub dir: PathBuf,
    /// Take a full snapshot (and compact the WAL) every this many records.
    pub snapshot_every: usize,
    /// `fsync` the WAL every this many appends (1 = every record durable
    /// immediately; larger values trade a bounded window of re-evaluable
    /// work for throughput).
    pub fsync_every: usize,
}

impl CheckpointOpts {
    /// Default snapshot cadence, in records.
    pub const DEFAULT_SNAPSHOT_EVERY: usize = 8;

    /// Checkpoint into `dir` with the default cadence and per-record fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOpts {
            dir: dir.into(),
            snapshot_every: Self::DEFAULT_SNAPSHOT_EVERY,
            fsync_every: 1,
        }
    }
}

/// Immutable facts about a session, stamped into the WAL header and every
/// snapshot. On resume these are validated against the caller's arguments
/// (space fingerprint, driver, algorithm name + schema version) and
/// override the resuming tuner's settings, so a resumed run cannot
/// silently diverge from the run it continues.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionMeta {
    /// Which entry point started the session: `run`, `run_parallel` (also
    /// [`Tuner::run_parallel_with`]), `run_resilient`, or
    /// `run_parallel_resilient`. Every entry point drives the same loop;
    /// the name fixes the round size and robustness settings a resume must
    /// reuse, so a session resumes only through the matching `resume*`.
    pub driver: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Evaluation budget.
    pub max_evals: usize,
    /// [`Tuner::batch_size`] of the run (the round size of the parallel
    /// drivers; the serial drivers' rounds are one suggestion long).
    pub batch_size: usize,
    /// Consecutive-duplicate exit threshold.
    pub max_consecutive_duplicates: usize,
    /// Observations in the warm-start prior (not counted against budget).
    pub prior_len: usize,
    /// [`crate::ParamSpace::fingerprint`] of the tuned space.
    pub space_fingerprint: String,
    /// Primary algorithm name.
    pub algorithm: String,
    /// Primary algorithm checkpoint-schema version
    /// ([`crate::search::SearchState::schema_version`]).
    pub algorithm_schema: u32,
    /// Fallback algorithm name (resilient drivers with degradation).
    pub fallback: Option<String>,
    /// Fallback checkpoint-schema version (0 when no fallback).
    pub fallback_schema: u32,
    /// Robustness settings (resilient drivers only; the fault-free drivers
    /// always run with one attempt, no outlier checks and no fallback).
    pub robustness: Option<Robustness>,
}

/// One durable evaluation outcome — the unit the WAL appends *before* the
/// search observes it, including the retry loop's fault events so replay
/// reconstructs the identical fault log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Position in the session's fresh-evaluation sequence (0-based; cache
    /// hits and quarantine skips do not consume ordinals).
    pub ordinal: usize,
    /// The evaluated configuration.
    pub config: Config,
    /// The objective, or `None` when every retry failed (the configuration
    /// was quarantined).
    pub objective: Option<f64>,
    /// Auxiliary metrics of the successful attempt (empty on quarantine).
    pub aux: HashMap<String, f64>,
    /// Fault events of the retry loop: `(kind name, attempt, detail)`.
    pub events: Vec<(String, usize, String)>,
    /// Attempts that failed (counts against the run-level fault budget).
    pub failed_attempts: usize,
    /// Virtual backoff accounted while retrying, seconds.
    pub backoff_s: f64,
}

/// The loop's fault ledger, persisted alongside the core snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilientSnapshot {
    /// Quarantined configurations, sorted for deterministic serialization.
    pub quarantined: Vec<Config>,
    /// Fault log as of the snapshot ordinal.
    pub faults: FaultLog,
    /// Ordinal of the next fresh configuration.
    pub fresh_idx: usize,
    /// Failed attempts so far vs. the run-level budget.
    pub failed_attempts: usize,
    /// Whether the search already degraded to the fallback.
    pub degraded: bool,
}

/// Full session state at a consistent point: everything needed to re-drive
/// the search as if the run had never stopped. Snapshots are taken only at
/// ask-tell round boundaries (mid-round the RNG has already advanced past
/// suggestions that are not yet recorded, so a mid-round snapshot could
/// not resume deterministically); a serial driver's round is one
/// suggestion.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session's immutable metadata.
    pub meta: SessionMeta,
    /// Records written to the WAL when this snapshot was taken (== the
    /// next ordinal to be assigned).
    pub ordinal: usize,
    /// The performance database (prior + fresh observations).
    pub db: PerfDatabase,
    /// Evaluation cache as sorted rows `(config, objective, aux)`.
    pub cache: Vec<(Config, f64, HashMap<String, f64>)>,
    /// Cache hit/miss counters.
    pub stats: CacheStats,
    /// xoshiro256++ state of the driver RNG.
    pub rng: [u64; 4],
    /// Consecutive-duplicate streak at the snapshot point.
    pub consecutive_dups: usize,
    /// Primary algorithm state ([`crate::search::SearchState::save_state`];
    /// `Null` for stateless algorithms).
    pub algorithm_state: Value,
    /// Fallback algorithm state (`Null` when absent or stateless).
    pub fallback_state: Value,
    /// Fault ledger (always written; `None` restores a clean ledger).
    pub resilient: Option<ResilientSnapshot>,
}

impl SessionSnapshot {
    /// Assemble a snapshot from live loop state (sorts the cache and the
    /// quarantine ledger so the payload — and therefore the on-disk bytes —
    /// are deterministic).
    fn collect(
        meta: &SessionMeta,
        ordinal: usize,
        state: &LoopState,
        algorithm_state: Value,
        fallback_state: Value,
    ) -> SessionSnapshot {
        let mut rows: Vec<(Config, f64, HashMap<String, f64>)> = state
            .cache
            .iter()
            .map(|(c, (o, a))| (c.clone(), *o, a.clone()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut quarantined: Vec<Config> = state.quarantined.values().cloned().collect();
        quarantined.sort();
        SessionSnapshot {
            meta: meta.clone(),
            ordinal,
            db: state.db.clone(),
            cache: rows,
            stats: state.stats,
            rng: state.rng.state(),
            consecutive_dups: state.consecutive_dups,
            algorithm_state,
            fallback_state,
            resilient: Some(ResilientSnapshot {
                quarantined,
                faults: state.faults.clone(),
                fresh_idx: state.fresh_idx,
                failed_attempts: state.failed_attempts,
                degraded: state.degraded,
            }),
        }
    }
}

impl From<CkptError> for TuneError {
    fn from(e: CkptError) -> Self {
        TuneError::Checkpoint {
            detail: e.to_string(),
        }
    }
}

impl LoopState {
    /// Rebuild the loop state a snapshot captured. The fault budget is
    /// recomputed: `max_evals` and `robustness` come from the session
    /// metadata, so it matches the original run's. A snapshot without a
    /// fault ledger (fault-free sessions written by earlier versions carry
    /// none) restores a clean one.
    fn from_snapshot(snap: SessionSnapshot, max_evals: usize, robustness: Robustness) -> Self {
        let ledger = snap.resilient.unwrap_or_else(|| ResilientSnapshot {
            quarantined: Vec::new(),
            faults: FaultLog::new(),
            fresh_idx: snap.ordinal,
            failed_attempts: 0,
            degraded: false,
        });
        LoopState {
            db: snap.db,
            prior_len: snap.meta.prior_len,
            cache: snap
                .cache
                .into_iter()
                .map(|(c, o, a)| (c, (o, a)))
                .collect(),
            stats: snap.stats,
            rng: SmallRng::from_state(snap.rng),
            consecutive_dups: snap.consecutive_dups,
            robustness,
            faults: ledger.faults,
            quarantined: ledger
                .quarantined
                .into_iter()
                .map(|cfg| (config_fingerprint(&cfg), cfg))
                .collect(),
            fresh_idx: ledger.fresh_idx,
            failed_attempts: ledger.failed_attempts,
            fault_budget: LoopState::fault_budget(max_evals, &robustness),
            degraded: ledger.degraded,
        }
    }
}

/// A live checkpointed session: the open WAL, the replay queue rebuilt on
/// resume, and the snapshot cadence bookkeeping.
pub(crate) struct ActiveSession {
    wal: WalWriter,
    meta: SessionMeta,
    snapshot_path: PathBuf,
    snapshot_every: usize,
    interrupt: Option<Arc<InterruptFn>>,
    /// WAL-tail records not yet re-consumed by the resumed loop, in
    /// ordinal order. Empty on fresh sessions and once replay completes.
    replay: VecDeque<EvalRecord>,
    /// The next ordinal to replay or log.
    next_ordinal: usize,
    last_snapshot_ordinal: usize,
    needs_initial_snapshot: bool,
}

impl ActiveSession {
    /// Start a fresh session in `opts.dir`, truncating any previous one.
    fn start(
        opts: &CheckpointOpts,
        interrupt: Option<Arc<InterruptFn>>,
        meta: SessionMeta,
    ) -> Result<Self, TuneError> {
        let dir = SessionDir::new(&opts.dir)?;
        let wal = WalWriter::create(&dir.wal_path(), &meta.to_value(), opts.fsync_every.max(1))?;
        // A fresh run must never resume into a stale snapshot.
        let _ = std::fs::remove_file(dir.snapshot_path());
        Ok(ActiveSession {
            wal,
            meta,
            snapshot_path: dir.snapshot_path(),
            snapshot_every: opts.snapshot_every.max(1),
            interrupt,
            replay: VecDeque::new(),
            next_ordinal: 0,
            last_snapshot_ordinal: 0,
            needs_initial_snapshot: true,
        })
    }

    /// Reopen a session from its snapshot + WAL tail.
    fn resume(
        opts: &CheckpointOpts,
        interrupt: Option<Arc<InterruptFn>>,
    ) -> Result<(Self, SessionSnapshot), TuneError> {
        let dir = SessionDir::new(&opts.dir)?;
        let snap_value = pstack_ckpt::read_snapshot(&dir.snapshot_path())?;
        let snap = SessionSnapshot::from_value(&snap_value).map_err(|e| TuneError::Checkpoint {
            detail: format!("snapshot decode: {e}"),
        })?;
        let (wal, contents) = WalWriter::open_append(&dir.wal_path(), opts.fsync_every.max(1))?;
        if let Some(tail) = &contents.torn_tail {
            eprintln!(
                "warning: {} had a torn tail at byte {} ({}); resuming from the last valid record",
                dir.wal_path().display(),
                tail.offset,
                tail.reason
            );
        }
        let header =
            SessionMeta::from_value(&contents.header).map_err(|e| TuneError::Checkpoint {
                detail: format!("WAL header decode: {e}"),
            })?;
        if header != snap.meta {
            return Err(TuneError::Checkpoint {
                detail: "WAL header and snapshot metadata disagree; the session directory mixes \
                         two different runs"
                    .to_string(),
            });
        }
        let records: Vec<EvalRecord> = pstack_ckpt::decode_records(&contents)?;
        let mut replay = VecDeque::new();
        for rec in records {
            if rec.ordinal < snap.ordinal {
                // Stale pre-snapshot record: a crash landed between the
                // snapshot rename and the WAL compaction. The snapshot
                // already contains its effect.
                continue;
            }
            let expect = snap.ordinal + replay.len();
            if rec.ordinal != expect {
                return Err(TuneError::Checkpoint {
                    detail: format!(
                        "WAL record has ordinal {} where {expect} was expected",
                        rec.ordinal
                    ),
                });
            }
            replay.push_back(rec);
        }
        Ok((
            ActiveSession {
                wal,
                meta: snap.meta.clone(),
                snapshot_path: dir.snapshot_path(),
                snapshot_every: opts.snapshot_every.max(1),
                interrupt,
                replay,
                next_ordinal: snap.ordinal,
                last_snapshot_ordinal: snap.ordinal,
                needs_initial_snapshot: false,
            },
            snap,
        ))
    }

    pub(crate) fn meta(&self) -> &SessionMeta {
        &self.meta
    }

    /// The next ordinal to be replayed or logged.
    pub(crate) fn next_ordinal(&self) -> usize {
        self.next_ordinal
    }

    /// Answer the next fresh configuration from the replay queue, if the
    /// queue is non-empty. `Ok(None)` means replay is over and the caller
    /// must evaluate live; a front record that does not match `cfg` means
    /// the resumed search diverged from the logged one — a hard error, not
    /// a wrong report.
    pub(crate) fn replay_next(&mut self, cfg: &Config) -> Result<Option<EvalRecord>, TuneError> {
        let Some(front) = self.replay.front() else {
            return Ok(None);
        };
        if front.ordinal != self.next_ordinal || &front.config != cfg {
            return Err(TuneError::Checkpoint {
                detail: format!(
                    "resume diverged from the write-ahead log: log has config {:?} at ordinal \
                     {}, but the search suggested {:?} at ordinal {}",
                    front.config, front.ordinal, cfg, self.next_ordinal
                ),
            });
        }
        self.next_ordinal += 1;
        Ok(self.replay.pop_front())
    }

    /// Append one live outcome to the WAL — called *before* the outcome is
    /// recorded in the database. Afterwards the crash-injection hook may
    /// abort the run with [`TuneError::Interrupted`] (the record is synced
    /// first, so resume finds it).
    pub(crate) fn log(&mut self, rec: &EvalRecord) -> Result<(), TuneError> {
        debug_assert_eq!(rec.ordinal, self.next_ordinal, "ordinals are dense");
        self.wal.append(rec)?;
        self.next_ordinal += 1;
        if let Some(interrupt) = &self.interrupt {
            if interrupt(rec.ordinal) {
                self.wal.sync()?;
                return Err(TuneError::Interrupted {
                    at_ordinal: rec.ordinal,
                });
            }
        }
        Ok(())
    }

    /// Whether the cadence calls for a snapshot now. Never during replay:
    /// the on-disk state already covers replayed ordinals.
    pub(crate) fn snapshot_due(&self) -> bool {
        self.replay.is_empty()
            && (self.needs_initial_snapshot
                || self.next_ordinal - self.last_snapshot_ordinal >= self.snapshot_every)
    }

    /// Write `snap` atomically and compact the WAL down to its header.
    pub(crate) fn write_snapshot(&mut self, snap: &SessionSnapshot) -> Result<(), TuneError> {
        pstack_ckpt::write_snapshot(&self.snapshot_path, snap)?;
        self.wal.compact(&self.meta.to_value())?;
        self.last_snapshot_ordinal = self.next_ordinal;
        self.needs_initial_snapshot = false;
        Ok(())
    }

    /// Flush the WAL at a clean end of run.
    pub(crate) fn finish(&mut self) -> Result<(), TuneError> {
        self.wal.sync()?;
        Ok(())
    }
}

/// Snapshot-if-due at a round boundary: collects a [`SessionSnapshot`]
/// from the live loop state when the session's cadence calls for one.
pub(crate) fn checkpoint_tick(
    session: &mut Option<ActiveSession>,
    state: &LoopState,
    algorithm: &dyn SearchAlgorithm,
    fallback: Option<&dyn SearchAlgorithm>,
) -> Result<(), TuneError> {
    let Some(s) = session.as_mut() else {
        return Ok(());
    };
    if !s.snapshot_due() {
        return Ok(());
    }
    let snap = SessionSnapshot::collect(
        s.meta(),
        s.next_ordinal(),
        state,
        algorithm.save_state(),
        fallback.map(|f| f.save_state()).unwrap_or(Value::Null),
    );
    s.write_snapshot(&snap)
}

impl Tuner {
    /// Open a fresh checkpointed session when the tuner has a checkpoint
    /// directory configured; `None` otherwise.
    pub(crate) fn open_session(
        &self,
        driver: &str,
        algorithm: &dyn SearchAlgorithm,
        fallback: Option<&dyn SearchAlgorithm>,
        robustness: Option<&Robustness>,
    ) -> Result<Option<ActiveSession>, TuneError> {
        let Some(opts) = &self.checkpoint else {
            return Ok(None);
        };
        let meta = SessionMeta {
            driver: driver.to_string(),
            seed: self.seed,
            max_evals: self.max_evals,
            batch_size: self.batch_size,
            max_consecutive_duplicates: self.max_consecutive_duplicates,
            prior_len: self.warm_start.as_ref().map(|d| d.len()).unwrap_or(0),
            space_fingerprint: self.space.fingerprint(),
            algorithm: algorithm.name().to_string(),
            algorithm_schema: algorithm.schema_version(),
            fallback: fallback.map(|f| f.name().to_string()),
            fallback_schema: fallback.map(|f| f.schema_version()).unwrap_or(0),
            robustness: robustness.copied(),
        };
        Ok(Some(ActiveSession::start(
            opts,
            self.interrupt.clone(),
            meta,
        )?))
    }

    /// Reload a session for resumption: validate its metadata against this
    /// tuner and the supplied algorithms, restore algorithm state, and
    /// return a settings-matched tuner plus the live session and the loop
    /// state its snapshot captured.
    pub(crate) fn load_session(
        &self,
        driver: Driver,
        algorithm: &mut (dyn SearchAlgorithm + '_),
        fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
    ) -> Result<(Tuner, ActiveSession, LoopState), TuneError> {
        let Some(opts) = &self.checkpoint else {
            return Err(TuneError::Checkpoint {
                detail: "no checkpoint directory configured; call Tuner::checkpoint(dir) before \
                         resuming"
                    .to_string(),
            });
        };
        let (session, snap) = ActiveSession::resume(opts, self.interrupt.clone())?;
        let meta = &snap.meta;
        if meta.driver != driver.name {
            return Err(TuneError::Checkpoint {
                detail: format!(
                    "session was started by `{}`; resume it with the matching driver, not `{}`",
                    meta.driver, driver.name
                ),
            });
        }
        // The fault-free drivers record no robustness settings: they always
        // run with the plain value.
        let robustness = match meta.robustness {
            Some(r) => r,
            None if !driver.resilient => Robustness::PLAIN,
            None => {
                return Err(TuneError::Checkpoint {
                    detail: "session metadata carries no robustness settings".to_string(),
                })
            }
        };
        let fingerprint = self.space.fingerprint();
        if meta.space_fingerprint != fingerprint {
            return Err(TuneError::Checkpoint {
                detail: format!(
                    "parameter space changed since the checkpoint was written (fingerprint \
                     {fingerprint} vs recorded {})",
                    meta.space_fingerprint
                ),
            });
        }
        check_algorithm(
            "algorithm",
            &meta.algorithm,
            meta.algorithm_schema,
            algorithm,
        )?;
        match (&meta.fallback, fallback.as_deref()) {
            (Some(name), Some(f)) => check_algorithm("fallback", name, meta.fallback_schema, f)?,
            (None, None) => {}
            (Some(name), None) => {
                return Err(TuneError::Checkpoint {
                    detail: format!("session used fallback `{name}`; supply it when resuming"),
                });
            }
            (None, Some(f)) => {
                return Err(TuneError::Checkpoint {
                    detail: format!(
                        "session had no fallback algorithm, but `{}` was supplied on resume",
                        f.name()
                    ),
                });
            }
        }
        algorithm
            .load_state(&snap.algorithm_state)
            .map_err(|e| TuneError::Checkpoint {
                detail: format!("algorithm state: {e}"),
            })?;
        if let Some(f) = fallback {
            f.load_state(&snap.fallback_state)
                .map_err(|e| TuneError::Checkpoint {
                    detail: format!("fallback state: {e}"),
                })?;
        }
        let tuner = self.with_meta(meta);
        let state = LoopState::from_snapshot(snap, tuner.max_evals, robustness);
        Ok((tuner, session, state))
    }

    /// A clone of this tuner with the trajectory-determining settings
    /// overridden from the session metadata. The warm-start prior is
    /// dropped: the restored database already contains it.
    fn with_meta(&self, meta: &SessionMeta) -> Tuner {
        let mut t = self.clone();
        t.seed = meta.seed;
        t.max_evals = meta.max_evals;
        t.batch_size = meta.batch_size;
        t.max_consecutive_duplicates = meta.max_consecutive_duplicates;
        t.warm_start = None;
        t
    }
}

/// Name + checkpoint-schema validation for one algorithm on resume.
fn check_algorithm(
    role: &str,
    recorded_name: &str,
    recorded_schema: u32,
    supplied: &dyn SearchAlgorithm,
) -> Result<(), TuneError> {
    if recorded_name != supplied.name() {
        return Err(TuneError::Checkpoint {
            detail: format!(
                "session {role} was `{recorded_name}`, but `{}` was supplied on resume",
                supplied.name()
            ),
        });
    }
    if recorded_schema != supplied.schema_version() {
        return Err(TuneError::Checkpoint {
            detail: format!(
                "{role} `{recorded_name}` checkpoint schema changed: snapshot has v{recorded_schema}, \
                 this build has v{} — the session cannot be resumed by this binary",
                supplied.schema_version()
            ),
        });
    }
    Ok(())
}
