//! The shared-history front-end: warm-starting tuners from a
//! [`HistoryStore`] and multiplexing many concurrent ask-tell sessions
//! over the parallel evaluation pool.
//!
//! `pstack-history` stores evaluations; this module is the bridge that
//! makes them *useful* to the tuner:
//!
//! - [`space_shape`] / [`history_key`] map a [`ParamSpace`] to the store's
//!   canonical, declaration-order-invariant key.
//! - [`prior_from_history`] turns `best_k` query results into a
//!   [`PerfDatabase`] prior, and [`Tuner::warm_start_from_history`] plugs
//!   it into the existing warm-start path — which already pre-seeds the
//!   surrogate (priors are real observations the model fits on) *and* the
//!   eval cache (the loop memoizes every prior, so re-suggesting one is a
//!   cache hit, not a re-simulation) on every driver.
//! - [`record_report`] appends a finished report's fresh observations back
//!   to the store, closing the crowdtuning loop.
//! - [`HistoryService`] runs N sessions concurrently. Each session's
//!   prior is snapshotted from the store *before* any session launches,
//!   so a session sees exactly what a standalone run started at the same
//!   instant would have seen — which is what makes the per-session
//!   [`TuneReport`]s byte-identical to their standalone equivalents
//!   (asserted in `tests/history_service.rs`).

use crate::db::PerfDatabase;
use crate::search::SearchAlgorithm;
use crate::space::{Config, ParamSpace};
use crate::tuner::{Evaluation, TuneError, TuneReport, Tuner};
use pstack_history::{
    HistoryError, HistoryKey, HistoryRecord, HistoryStore, SpaceParam, SpaceShape,
};

/// The canonical [`SpaceShape`] of a [`ParamSpace`]: values rendered
/// exactly as [`ParamSpace::fingerprint`] renders them (`{value:?}`), so
/// the two fingerprints agree on what a value *is* and differ only in
/// canonicalization (history sorts parameters, checkpointing does not).
pub fn space_shape(space: &ParamSpace) -> SpaceShape {
    SpaceShape {
        params: space
            .params()
            .iter()
            .map(|p| SpaceParam {
                name: p.name.clone(),
                values: p.values.iter().map(|v| format!("{v:?}")).collect(),
            })
            .collect(),
        constraints: space
            .constraint_names()
            .iter()
            .map(|c| c.to_string())
            .collect(),
    }
}

/// The [`HistoryKey`] a campaign over `space` files its records under.
pub fn history_key(space: &ParamSpace, app: &str, objective: &str) -> HistoryKey {
    HistoryKey::new(space_shape(space).fingerprint(), app, objective)
}

/// Build a warm-start prior from the store: the best `k` distinct
/// configurations under `key`, filtered to those valid in `space` (the
/// store may hold records from a superset schema or a buggy writer;
/// invalid ones are skipped rather than poisoning preflight).
///
/// # Errors
/// Propagates store I/O failures; a missing or empty store yields an
/// empty prior, not an error.
pub fn prior_from_history(
    store: &HistoryStore,
    space: &ParamSpace,
    key: &HistoryKey,
    k: usize,
) -> Result<PerfDatabase, HistoryError> {
    let mut db = PerfDatabase::new();
    for r in store.best_k(key, k)? {
        if space.is_valid(&r.config) {
            db.record(r.config, r.objective, r.aux);
        }
    }
    Ok(db)
}

/// Append a finished report's *fresh* observations (everything past the
/// warm-start prior) to the store under `key`, labeled with `session`.
/// Returns the number of records appended.
///
/// # Errors
/// Propagates store lock/I/O failures.
pub fn record_report(
    store: &HistoryStore,
    key: &HistoryKey,
    session: &str,
    report: &TuneReport,
) -> Result<usize, HistoryError> {
    let prior_len = report.db.len() - report.evals;
    let records: Vec<HistoryRecord> = report
        .db
        .observations()
        .iter()
        .filter(|o| o.eval >= prior_len)
        .map(|o| HistoryRecord {
            config: o.config.clone(),
            objective: o.objective,
            aux: o.aux.clone(),
            session: session.to_string(),
            ordinal: o.eval as u64,
        })
        .collect();
    store.append(key, &records)
}

fn history_to_tune_error(e: HistoryError) -> TuneError {
    TuneError::Diagnostic {
        context: "history store".to_string(),
        diagnostics: vec![e.to_string()],
    }
}

impl Tuner {
    /// [`warm_start`](Tuner::warm_start) from the shared store: query the
    /// best `k` configurations under `key` and install them as the prior.
    /// Priors seed the surrogate and the eval cache in every driver and
    /// never count against the budget; an empty store leaves the run
    /// indistinguishable from a cold one.
    ///
    /// # Errors
    /// [`TuneError::Diagnostic`] when the store cannot be read.
    pub fn warm_start_from_history(
        self,
        store: &HistoryStore,
        key: &HistoryKey,
        k: usize,
    ) -> Result<Self, TuneError> {
        let prior =
            prior_from_history(store, self.space(), key, k).map_err(history_to_tune_error)?;
        Ok(self.warm_start(prior))
    }
}

/// One session's settings in a [`HistoryService`] batch.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Application label for the history key (e.g. `"hypre"`).
    pub app: String,
    /// Objective label for the history key (e.g. `"min-edp"`).
    pub objective: String,
    /// RNG seed for the session's tuner.
    pub seed: u64,
    /// Evaluation budget for the session.
    pub max_evals: usize,
    /// How many prior configurations to warm-start with (`best_k`).
    pub warm_k: usize,
}

impl SessionSpec {
    /// The label this session's records carry in the store.
    pub fn label(&self) -> String {
        format!("{}#{:016x}", self.app, self.seed)
    }
}

/// Multi-session ask-tell front-end over one shared [`HistoryStore`].
///
/// Each session is an independent seeded campaign: it warm-starts from
/// the store (ask), runs over the parallel evaluation pool with `workers`
/// threads, and records its fresh observations back (tell). Sessions run
/// concurrently in scoped threads; priors are snapshotted before launch
/// and recording happens after all sessions join, in spec order — so
/// reports are deterministic and byte-identical to standalone runs, and
/// the store's content is independent of scheduling.
#[derive(Debug)]
pub struct HistoryService<'a> {
    store: &'a HistoryStore,
    workers: usize,
}

impl<'a> HistoryService<'a> {
    /// Front a store with an evaluation pool of `workers` threads per
    /// session.
    ///
    /// # Panics
    /// Panics on zero workers.
    pub fn new(store: &'a HistoryStore, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        HistoryService { store, workers }
    }

    /// The store sessions ask from and tell to.
    pub fn store(&self) -> &HistoryStore {
        self.store
    }

    /// Run every session in `sessions` concurrently over `space`.
    /// `make_algorithm` builds each session's search algorithm (called in
    /// spec order before any session starts); `evaluate` is shared by all
    /// sessions and their pool workers.
    ///
    /// Returns one [`TuneReport`] per spec, in spec order. Each report is
    /// byte-identical to the report of a standalone
    /// [`Tuner::run_parallel`] with the same space, seed, budget and a
    /// [`Tuner::warm_start_from_history`] against the store's pre-launch
    /// content.
    ///
    /// # Errors
    /// The first session error in spec order ([`TuneError::Diagnostic`]
    /// for store failures, otherwise as [`Tuner::run_parallel`]). Fresh
    /// results are only recorded when every session succeeded.
    pub fn run_sessions<A>(
        &self,
        space: &ParamSpace,
        sessions: &[SessionSpec],
        mut make_algorithm: impl FnMut(&SessionSpec) -> A,
        evaluate: impl Fn(&ParamSpace, &Config) -> Evaluation + Sync,
    ) -> Result<Vec<TuneReport>, TuneError>
    where
        A: SearchAlgorithm + Send,
    {
        // Ask phase: snapshot each session's prior from the store before
        // any session runs, so concurrent siblings' fresh results cannot
        // leak into a prior and break standalone equivalence.
        let mut prepared: Vec<(HistoryKey, Tuner, A)> = Vec::with_capacity(sessions.len());
        for spec in sessions {
            let key = history_key(space, &spec.app, &spec.objective);
            let tuner = Tuner::new(space.clone())
                .max_evals(spec.max_evals)
                .seed(spec.seed)
                .warm_start_from_history(self.store, &key, spec.warm_k)?;
            prepared.push((key, tuner, make_algorithm(spec)));
        }
        // Run phase: all sessions concurrently, each fanning its batches
        // out over its own `workers`-thread pool.
        let workers = self.workers;
        let evaluate = &evaluate;
        let mut outcomes: Vec<(HistoryKey, Result<TuneReport, TuneError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = prepared
                    .into_iter()
                    .map(|(key, tuner, mut algorithm)| {
                        scope.spawn(move || {
                            let report = tuner.run_parallel(&mut algorithm, workers, evaluate);
                            (key, report)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("session thread panicked"))
                    .collect()
            });
        let mut reports = Vec::with_capacity(outcomes.len());
        for (_, outcome) in &mut outcomes {
            match std::mem::replace(
                outcome,
                Err(TuneError::NoEvaluations {
                    algorithm: String::new(),
                }),
            ) {
                Ok(report) => reports.push(report),
                Err(e) => return Err(e),
            }
        }
        // Tell phase: append fresh observations in spec order, after all
        // sessions joined — deterministic store content regardless of how
        // the session threads were scheduled.
        for ((key, _), (spec, report)) in outcomes.iter().zip(sessions.iter().zip(&reports)) {
            record_report(self.store, key, &spec.label(), report).map_err(history_to_tune_error)?;
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::RandomSearch;
    use crate::space::Param;
    use pstack_ckpt::ScratchDir;
    use std::collections::HashMap;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(Param::ints("x", 0..8))
            .with(Param::ints("y", 0..8))
            .with_constraint("x_not_max_when_y_zero", |s, c| {
                s.value(c, "y").as_int() != 0 || s.value(c, "x").as_int() != 7
            })
    }

    fn bowl(s: &ParamSpace, c: &Config) -> Evaluation {
        let x = s.value(c, "x").as_int() as f64;
        let y = s.value(c, "y").as_int() as f64;
        ((x - 5.0).powi(2) + (y - 2.0).powi(2), HashMap::new())
    }

    #[test]
    fn key_is_declaration_order_invariant() {
        let forward = space();
        let reversed = ParamSpace::new()
            .with(Param::ints("y", 0..8))
            .with(Param::ints("x", 0..8))
            .with_constraint("x_not_max_when_y_zero", |s, c| {
                s.value(c, "y").as_int() != 0 || s.value(c, "x").as_int() != 7
            });
        assert_eq!(
            history_key(&forward, "app", "obj"),
            history_key(&reversed, "app", "obj")
        );
        // The checkpoint fingerprint, by contrast, is order-dependent.
        assert_ne!(forward.fingerprint(), reversed.fingerprint());
    }

    #[test]
    fn record_then_warm_start_round_trip() {
        let dir = ScratchDir::new("hsvc-roundtrip");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        let space = space();
        let key = history_key(&space, "app", "obj");
        let cold = Tuner::new(space.clone())
            .max_evals(12)
            .seed(7)
            .run(&mut RandomSearch::new(), bowl)
            .expect("cold run");
        let appended = record_report(&store, &key, "donor", &cold).expect("record");
        assert_eq!(appended, cold.evals);

        let prior = prior_from_history(&store, &space, &key, 4).expect("prior");
        assert_eq!(prior.len(), 4.min(cold.db.len()));
        assert_eq!(
            prior.best().expect("non-empty").objective,
            cold.best_objective
        );

        // A warmed run's prior configs are cache hits, never re-evaluated.
        let warmed = Tuner::new(space.clone())
            .max_evals(6)
            .seed(8)
            .warm_start_from_history(&store, &key, 4)
            .expect("warm start")
            .run(&mut RandomSearch::new(), bowl)
            .expect("warmed run");
        assert!(warmed.best_objective <= cold.best_objective);
        assert_eq!(warmed.evals, 6);
    }

    #[test]
    fn empty_store_is_a_cold_run() {
        let dir = ScratchDir::new("hsvc-empty");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        let space = space();
        let key = history_key(&space, "app", "obj");
        let cold = Tuner::new(space.clone())
            .max_evals(10)
            .seed(3)
            .run_parallel(&mut RandomSearch::new(), 2, bowl)
            .expect("cold");
        let warmed = Tuner::new(space)
            .max_evals(10)
            .seed(3)
            .warm_start_from_history(&store, &key, 16)
            .expect("warm start against empty store")
            .run_parallel(&mut RandomSearch::new(), 2, bowl)
            .expect("warmed");
        assert_eq!(
            serde_json::to_string(&warmed).expect("render"),
            serde_json::to_string(&cold).expect("render")
        );
    }

    #[test]
    fn service_sessions_match_standalone_runs() {
        let dir = ScratchDir::new("hsvc-sessions");
        let store = HistoryStore::open(dir.path().join("db")).expect("open");
        let space = space();
        let specs: Vec<SessionSpec> = (0..3)
            .map(|i| SessionSpec {
                app: "app".to_string(),
                objective: "obj".to_string(),
                seed: 100 + i,
                max_evals: 8,
                warm_k: 4,
            })
            .collect();
        // Standalone equivalents against the store's pre-launch content
        // (empty here), computed first.
        let standalone: Vec<String> = specs
            .iter()
            .map(|spec| {
                let key = history_key(&space, &spec.app, &spec.objective);
                let report = Tuner::new(space.clone())
                    .max_evals(spec.max_evals)
                    .seed(spec.seed)
                    .warm_start_from_history(&store, &key, spec.warm_k)
                    .expect("warm start")
                    .run_parallel(&mut RandomSearch::new(), 2, bowl)
                    .expect("standalone");
                serde_json::to_string(&report).expect("render")
            })
            .collect();
        let service = HistoryService::new(&store, 2);
        let reports = service
            .run_sessions(&space, &specs, |_| RandomSearch::new(), bowl)
            .expect("service run");
        for (report, expected) in reports.iter().zip(&standalone) {
            assert_eq!(&serde_json::to_string(report).expect("render"), expected);
        }
        // Tell phase landed every fresh observation.
        let key = history_key(&space, "app", "obj");
        let total: usize = reports.iter().map(|r| r.evals).sum();
        assert_eq!(store.records(&key).expect("records").len(), total);
    }
}
