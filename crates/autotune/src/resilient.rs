//! Fault-tolerant tuning: retry, quarantine, graceful degradation.
//!
//! Real evaluations fail: jobs crash, nodes drop out, measurements come back
//! as garbage (PAPERS.md: READEX and GEOPM both report noise/dropout as the
//! dominant field failure mode for dynamic tuning). The tuning loop
//! therefore treats every evaluation as one that may *fail* — returning
//! [`EvalError`] or a non-finite objective — and keeps the search alive.
//! [`Tuner::run_resilient`] / [`Tuner::run_parallel_resilient`] expose the
//! knobs ([`Robustness`]); the fault-free drivers run the same machinery
//! with one attempt, no outlier checks and no fallback:
//!
//! - each failed configuration is retried under a bounded
//!   [`RetryPolicy`] (exponential backoff, capped attempts and total
//!   backoff time);
//! - a configuration that exhausts its retries is **quarantined**: never
//!   evaluated again, never recorded, and skipped if re-suggested;
//! - when the performance database looks **poisoned** (too large a fraction
//!   of observations are outliers vs. the median), the search degrades
//!   permanently from the primary algorithm to a robust fallback (e.g.
//!   `ForestSearch` → `RandomSearch`), because a surrogate fit to garbage
//!   is worse than no surrogate at all;
//! - a run-level fault budget (`max_evals × max_attempts` failed attempts)
//!   bounds the total work a hostile evaluator can consume; when it is
//!   spent the run is abandoned with whatever was observed so far.
//!
//! Everything injected and survived is tallied in the
//! [`FaultLog`](crate::FaultLog) carried by [`TuneReport`], so a report
//! always states the conditions it was produced under. Backoff time is
//! *accounted* (`FaultLog::total_backoff_s`), never slept: the substrate is
//! simulated, and sleeping would break both determinism and test speed —
//! [`RetryPolicy::schedule`] is what a real deployment would sleep.
//!
//! Determinism: with an evaluator whose outcome is a pure function of
//! `(config, attempt)` — which `pstack-faults` guarantees via stateless
//! hashing — a seeded resilient run reproduces the identical report
//! byte-for-byte for any worker count, exactly like the fault-free drivers.

use crate::ckpt::EvalRecord;
use crate::db::PerfDatabase;
use crate::faultlog::FaultKind;
use crate::search::SearchAlgorithm;
use crate::space::{Config, ParamSpace};
use crate::tuner::{
    config_fingerprint, ClosureEvaluator, Dispatch, Driver, Evaluation, LoopState, TuneError,
    TuneReport, Tuner,
};
use pstack_trace::{AttrValue, SpanGuard};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Why a single evaluation attempt produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The evaluation failed outright (crash, rejected job, lost node).
    Failed(String),
    /// The evaluation exceeded its (virtual) time allowance.
    TimedOut {
        /// How long the evaluation ran before being declared dead, seconds.
        waited_s: f64,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Failed(why) => write!(f, "evaluation failed: {why}"),
            EvalError::TimedOut { waited_s } => {
                write!(f, "evaluation timed out after {waited_s:.1}s")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Bounded retry-with-backoff policy for failed evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per configuration (first try included). Must be ≥ 1.
    pub max_attempts: usize,
    /// Backoff before the first retry, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff after each retry (≥ 1 for
    /// exponential backoff).
    pub backoff_factor: f64,
    /// Hard cap on the *summed* backoff per configuration, seconds.
    pub max_total_backoff_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 0.5,
            backoff_factor: 2.0,
            max_total_backoff_s: 30.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff schedule: `schedule()[i]` is the wait before retry `i+1`.
    ///
    /// Guarantees (the proptest targets): the schedule has exactly
    /// `max_attempts - 1` entries, every entry is non-negative, and the sum
    /// never exceeds `max_total_backoff_s`.
    pub fn schedule(&self) -> Vec<f64> {
        let mut remaining = self.max_total_backoff_s.max(0.0);
        let mut delays = Vec::with_capacity(self.max_attempts.saturating_sub(1));
        for i in 0..self.max_attempts.saturating_sub(1) {
            // powi over a small loop index; i is bounded by max_attempts.
            let nominal =
                self.backoff_base_s.max(0.0) * self.backoff_factor.max(0.0).powi(i as i32);
            let d = nominal.min(remaining);
            remaining -= d;
            delays.push(d);
        }
        delays
    }
}

/// Knobs of the resilient loop: retry, outlier detection, degradation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Robustness {
    /// Per-configuration retry policy.
    pub retry: RetryPolicy,
    /// An observation is an outlier when its objective exceeds
    /// `outlier_factor ×` the database median.
    pub outlier_factor: f64,
    /// The database counts as poisoned (→ degrade the search) when at least
    /// this fraction of observations are outliers.
    pub poison_fraction: f64,
    /// Outlier/poison checks only engage once the database holds this many
    /// observations (medians over tiny samples are meaningless).
    pub min_observations: usize,
}

impl Default for Robustness {
    fn default() -> Self {
        Robustness {
            retry: RetryPolicy::default(),
            outlier_factor: 8.0,
            poison_fraction: 0.25,
            min_observations: 8,
        }
    }
}

impl Robustness {
    /// The fault-free drivers' setting: one attempt, no outlier detection
    /// (and so no degradation). A failed or non-finite evaluation is
    /// quarantined at once.
    pub(crate) const PLAIN: Robustness = Robustness {
        retry: RetryPolicy {
            max_attempts: 1,
            backoff_base_s: 0.5,
            backoff_factor: 2.0,
            max_total_backoff_s: 30.0,
        },
        outlier_factor: 8.0,
        poison_fraction: 0.25,
        min_observations: usize::MAX,
    };
}

/// Per-configuration outcome of the bounded retry loop.
pub(crate) struct ConfigOutcome {
    /// The successful evaluation, or `None` when every attempt failed.
    result: Option<Evaluation>,
    /// Fault events in occurrence order: `(kind, attempt, detail)`.
    events: Vec<(FaultKind, usize, String)>,
    /// Attempts that failed (counts against the run-level fault budget).
    failed_attempts: usize,
    /// Virtual backoff accounted while retrying, seconds.
    backoff_s: f64,
    /// Wall time spent across all attempts, seconds (profiling only).
    pub(crate) dur_s: f64,
}

impl ConfigOutcome {
    /// Write this outcome onto its evaluation span: final verdict, attempt
    /// count, and one event per injected fault (in occurrence order).
    fn annotate(&self, span: &mut SpanGuard<'_>) {
        span.attr(
            "verdict",
            if self.result.is_some() {
                "ok"
            } else {
                "quarantined"
            },
        );
        span.attr("failed_attempts", self.failed_attempts);
        if let Some((objective, _)) = &self.result {
            span.attr("objective", *objective);
        }
        for (kind, attempt, _) in &self.events {
            span.event_with(
                kind.name(),
                vec![("attempt".to_string(), AttrValue::from(*attempt))],
            );
        }
    }

    /// Retry waits accounted by the retry loop (the `Retry` events).
    pub(crate) fn retry_count(&self) -> usize {
        self.events
            .iter()
            .filter(|(kind, _, _)| *kind == FaultKind::Retry)
            .count()
    }
}

/// Run the retry loop for one configuration, inside its `eval` span when
/// traced (worker id, config fingerprint, verdict, fault events). Pure
/// given a deterministic evaluator: the outcome depends only on the
/// `(cfg, attempt)` results.
pub(crate) fn attempt_config(
    space: &ParamSpace,
    cfg: &Config,
    retry: &RetryPolicy,
    span: Option<SpanGuard<'_>>,
    worker: usize,
    evaluate: &mut dyn FnMut(&ParamSpace, &Config, usize) -> Result<Evaluation, EvalError>,
) -> ConfigOutcome {
    let mut span = span.map(|mut s| {
        s.attr("worker", worker);
        s.attr("config", config_fingerprint(cfg));
        s
    });
    let t0 = Instant::now();
    let schedule = retry.schedule();
    let mut out = ConfigOutcome {
        result: None,
        events: Vec::new(),
        failed_attempts: 0,
        backoff_s: 0.0,
        dur_s: 0.0,
    };
    'attempts: for attempt in 0..retry.max_attempts.max(1) {
        match evaluate(space, cfg, attempt) {
            Ok((objective, aux)) if objective.is_finite() => {
                out.result = Some((objective, aux));
                break 'attempts;
            }
            Ok((objective, _)) => {
                out.failed_attempts += 1;
                out.events.push((
                    FaultKind::NonFiniteObjective,
                    attempt,
                    format!("objective {objective} discarded"),
                ));
            }
            Err(EvalError::Failed(why)) => {
                out.failed_attempts += 1;
                out.events.push((FaultKind::EvalFailure, attempt, why));
            }
            Err(EvalError::TimedOut { waited_s }) => {
                out.failed_attempts += 1;
                out.events.push((
                    FaultKind::EvalTimeout,
                    attempt,
                    format!("gave up after {waited_s:.1}s"),
                ));
            }
        }
        if let Some(&delay) = schedule.get(attempt) {
            out.backoff_s += delay;
            out.events.push((
                FaultKind::Retry,
                attempt,
                format!("backoff {delay:.2}s before attempt {}", attempt + 1),
            ));
        }
    }
    out.dur_s = t0.elapsed().as_secs_f64();
    if let Some(s) = span.as_mut() {
        out.annotate(s);
    }
    out
}

/// Rebuild a [`ConfigOutcome`] from its durable [`EvalRecord`] — the
/// replay path. Event kinds round-trip by name; an unknown name means the
/// log was written by an incompatible build.
pub(crate) fn outcome_from_record(rec: EvalRecord) -> Result<ConfigOutcome, TuneError> {
    let EvalRecord {
        ordinal,
        objective,
        aux,
        events,
        failed_attempts,
        backoff_s,
        ..
    } = rec;
    let mut parsed = Vec::with_capacity(events.len());
    for (name, attempt, detail) in events {
        let kind = FaultKind::from_name(&name).ok_or_else(|| TuneError::Checkpoint {
            detail: format!("record {ordinal} names unknown fault kind `{name}`"),
        })?;
        parsed.push((kind, attempt, detail));
    }
    Ok(ConfigOutcome {
        result: objective.map(|o| (o, aux)),
        events: parsed,
        failed_attempts,
        backoff_s,
        dur_s: 0.0,
    })
}

/// Flatten a retry-loop outcome into its durable record.
pub(crate) fn record_from_outcome(
    ordinal: usize,
    cfg: &Config,
    outcome: &ConfigOutcome,
) -> EvalRecord {
    EvalRecord {
        ordinal,
        config: cfg.clone(),
        objective: outcome.result.as_ref().map(|(o, _)| *o),
        aux: outcome
            .result
            .as_ref()
            .map(|(_, a)| a.clone())
            .unwrap_or_default(),
        events: outcome
            .events
            .iter()
            .map(|(k, a, d)| (k.name().to_string(), *a, d.clone()))
            .collect(),
        failed_attempts: outcome.failed_attempts,
        backoff_s: outcome.backoff_s,
    }
}

/// Median of the recorded objectives (`None` when empty).
fn median_objective(db: &PerfDatabase) -> Option<f64> {
    if db.is_empty() {
        return None;
    }
    let mut objs: Vec<f64> = db.observations().iter().map(|o| o.objective).collect();
    objs.sort_by(|a, b| a.partial_cmp(b).expect("objectives are finite"));
    Some(objs[objs.len() / 2])
}

/// The fault ledger's side of the loop state.
impl LoopState {
    /// Whether `cfg` is quarantined. The empty check spares the
    /// fingerprint on the common fault-free path.
    pub(crate) fn is_quarantined(&self, cfg: &Config) -> bool {
        !self.quarantined.is_empty() && self.quarantined.contains_key(&config_fingerprint(cfg))
    }

    /// Log a quarantined configuration the search suggested again.
    pub(crate) fn note_quarantine_skip(&mut self, cfg: &Config) {
        self.faults.record(
            FaultKind::QuarantineSkip,
            format!("eval {}", self.fresh_idx),
            format!("config {cfg:?} re-suggested while quarantined"),
        );
    }

    /// Fold one configuration's retry outcome into the log. Returns the
    /// successful evaluation, if any; quarantines otherwise.
    pub(crate) fn absorb(&mut self, cfg: &Config, outcome: ConfigOutcome) -> Option<Evaluation> {
        let idx = self.fresh_idx;
        self.fresh_idx += 1;
        for (kind, attempt, detail) in outcome.events {
            self.faults
                .record(kind, format!("eval {idx} attempt {attempt}"), detail);
        }
        self.failed_attempts += outcome.failed_attempts;
        self.faults.total_backoff_s += outcome.backoff_s;
        if outcome.result.is_none() {
            self.quarantined
                .insert(config_fingerprint(cfg), cfg.clone());
            self.faults.record(
                FaultKind::Quarantined,
                format!("eval {idx}"),
                format!(
                    "config {cfg:?} failed {} attempts",
                    self.robustness.retry.max_attempts.max(1)
                ),
            );
        }
        outcome.result
    }

    /// After a successful record: flag an outlier objective and, when the
    /// database now looks poisoned and a `fallback` exists, degrade to it.
    /// Returns `true` when the search degraded just now.
    pub(crate) fn observe_recorded(
        &mut self,
        objective: f64,
        primary: &str,
        fallback: Option<&str>,
    ) -> bool {
        if self.db.len() < self.robustness.min_observations {
            return false;
        }
        let Some(median) = median_objective(&self.db) else {
            return false;
        };
        let threshold = self.robustness.outlier_factor * median.max(f64::MIN_POSITIVE);
        if objective > threshold {
            self.faults.record(
                FaultKind::Outlier,
                format!("eval {}", self.db.len() - 1),
                format!(
                    "objective {objective:.3} > {:.1}x median",
                    self.robustness.outlier_factor
                ),
            );
        }
        let Some(fallback) = fallback.filter(|_| !self.degraded) else {
            return false;
        };
        let outliers = self
            .db
            .observations()
            .iter()
            .filter(|o| o.objective > threshold)
            .count();
        if (outliers as f64 / self.db.len() as f64) < self.robustness.poison_fraction {
            return false;
        }
        self.degraded = true;
        self.faults.record(
            FaultKind::SearchDegraded,
            format!("eval {}", self.db.len() - 1),
            format!("database poisoned; {primary} -> {fallback}"),
        );
        true
    }

    /// True when the run-level fault budget is spent (logs the abandonment).
    pub(crate) fn budget_spent(&mut self) -> bool {
        if self.failed_attempts >= self.fault_budget {
            self.faults.record(
                FaultKind::RunAbandoned,
                format!("eval {}", self.fresh_idx),
                format!(
                    "fault budget spent: {} failed attempts (budget {})",
                    self.failed_attempts, self.fault_budget
                ),
            );
            true
        } else {
            false
        }
    }
}

impl Tuner {
    /// Serial fault-tolerant tuning loop.
    ///
    /// `evaluate` maps `(space, config, attempt)` to a result; failures and
    /// non-finite objectives are retried under `robustness.retry`, then
    /// quarantined. When the database looks poisoned (see [`Robustness`])
    /// and a `fallback` algorithm is supplied, the search degrades to it
    /// permanently. Everything is tallied in [`TuneReport::faults`].
    ///
    /// The `attempt` argument lets a deterministic evaluator vary its fault
    /// decision per retry (so retries are not pointless replays).
    ///
    /// # Errors
    /// [`TuneError::NoEvaluations`] when not a single configuration could be
    /// evaluated (hostile evaluator, empty strategy) and no warm-start prior
    /// exists; [`TuneError::Diagnostic`] on invalid inputs — never a panic.
    pub fn run_resilient(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        robustness: &Robustness,
        evaluate: impl FnMut(&ParamSpace, &Config, usize) -> Result<Evaluation, EvalError>,
    ) -> Result<TuneReport, TuneError> {
        let mut evaluator = ClosureEvaluator::new(evaluate);
        let dispatch = Dispatch::InOrder(&mut evaluator);
        self.start(
            Driver::RESILIENT,
            algorithm,
            fallback,
            Some(robustness),
            dispatch,
        )
    }

    /// Resume a killed [`run_resilient`](Self::run_resilient) session —
    /// see [`Tuner::resume`] for the contract. The robustness settings
    /// come from the session metadata (they shape the retry trajectory, so
    /// they must match the original run's). The quarantine ledger, fault
    /// log and degradation state are restored, and replayed records
    /// re-apply their logged fault events without re-running any retry.
    ///
    /// # Errors
    /// As [`Tuner::resume`]; additionally [`TuneError::Checkpoint`] when
    /// the session metadata carries no robustness settings.
    pub fn resume_resilient(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        evaluate: impl FnMut(&ParamSpace, &Config, usize) -> Result<Evaluation, EvalError>,
    ) -> Result<TuneReport, TuneError> {
        let mut evaluator = ClosureEvaluator::new(evaluate);
        let dispatch = Dispatch::InOrder(&mut evaluator);
        self.restart(Driver::RESILIENT, algorithm, fallback, dispatch)
    }

    /// Parallel fault-tolerant tuning loop: batched suggestions, a scoped
    /// worker pool, and the full retry/quarantine/degradation machinery of
    /// [`run_resilient`](Self::run_resilient).
    ///
    /// `evaluate` must be `Sync` and — for reproducible reports — a pure
    /// function of `(config, attempt)`: the `pstack-faults` evaluator
    /// guarantees this by hashing rather than sharing RNG state. Under that
    /// contract the report is byte-identical for any worker count: batches
    /// are composed from the seed alone, retries happen inside each
    /// worker's slot, and all bookkeeping is replayed in suggestion order
    /// on the driving thread.
    ///
    /// # Errors
    /// As [`run_resilient`](Self::run_resilient).
    ///
    /// # Panics
    /// Panics on zero workers.
    pub fn run_parallel_resilient(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        robustness: &Robustness,
        workers: usize,
        evaluate: impl Fn(&ParamSpace, &Config, usize) -> Result<Evaluation, EvalError> + Sync,
    ) -> Result<TuneReport, TuneError> {
        let dispatch = Dispatch::Pool {
            workers,
            evaluate: &evaluate,
        };
        self.start(
            Driver::PARALLEL_RESILIENT,
            algorithm,
            fallback,
            Some(robustness),
            dispatch,
        )
    }

    /// Resume a killed
    /// [`run_parallel_resilient`](Self::run_parallel_resilient) session —
    /// see [`resume_resilient`](Self::resume_resilient) for the contract.
    /// The worker count may differ from the original run's.
    ///
    /// # Errors
    /// As [`resume_resilient`](Self::resume_resilient).
    ///
    /// # Panics
    /// Panics on zero workers.
    pub fn resume_parallel_resilient(
        &self,
        algorithm: &mut dyn SearchAlgorithm,
        fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        workers: usize,
        evaluate: impl Fn(&ParamSpace, &Config, usize) -> Result<Evaluation, EvalError> + Sync,
    ) -> Result<TuneReport, TuneError> {
        let dispatch = Dispatch::Pool {
            workers,
            evaluate: &evaluate,
        };
        self.restart(Driver::PARALLEL_RESILIENT, algorithm, fallback, dispatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{ForestSearch, RandomSearch};
    use crate::space::Param;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(Param::ints("x", 0..10))
            .with(Param::ints("y", 0..10))
    }

    fn bowl(c: &Config) -> f64 {
        (c[0] as f64 - 6.0).powi(2) + (c[1] as f64 - 2.0).powi(2)
    }

    #[test]
    fn resilient_drivers_profile_retries() {
        use std::cell::Cell;
        // Every config fails its first attempt and succeeds on retry, so the
        // profile must attribute exactly one retry per distinct config.
        let seen = Cell::new(0usize);
        let mut attempts: HashMap<String, usize> = HashMap::new();
        let report = Tuner::new(space())
            .max_evals(8)
            .seed(1)
            .run_resilient(
                &mut RandomSearch::new(),
                None,
                &Robustness::default(),
                |_, c, _| {
                    seen.set(seen.get() + 1);
                    let n = attempts.entry(format!("{c:?}")).or_insert(0);
                    *n += 1;
                    if *n == 1 {
                        Err(EvalError::Failed("first attempt flakes".into()))
                    } else {
                        Ok((bowl(c), HashMap::new()))
                    }
                },
            )
            .unwrap();
        assert!(!report.profile.is_empty());
        assert_eq!(report.profile.retries, report.cache.misses);
        assert_eq!(report.profile.retries, report.faults.counts.retries);
        assert_eq!(
            report.profile.stages["evaluate"].count, report.cache.misses,
            "one evaluate sample per configuration, retries folded in"
        );
    }

    #[test]
    fn parallel_resilient_traces_fault_verdicts() {
        use pstack_trace::{AttrValue, TraceCollector};
        use std::sync::Arc;
        let collector = Arc::new(TraceCollector::new());
        // Configs with even x fail permanently; the rest succeed.
        let report = Tuner::new(space())
            .max_evals(12)
            .seed(5)
            .with_trace(Arc::clone(&collector))
            .run_parallel_resilient(
                &mut RandomSearch::new(),
                None,
                &Robustness::default(),
                4,
                |_, c, _| {
                    if c[0] % 2 == 0 {
                        Err(EvalError::Failed("even x always crashes".into()))
                    } else {
                        Ok((bowl(c), HashMap::new()))
                    }
                },
            )
            .unwrap();
        let trace = collector.snapshot();
        let root = trace
            .by_name("tuner.run_parallel_resilient")
            .next()
            .expect("root span recorded");
        assert_eq!(root.attr("workers"), Some(&AttrValue::Int(4)));
        let evals: Vec<_> = trace.by_name("eval").collect();
        // One span per attempted config: successes count as cache misses,
        // permanently failing configs end up quarantined instead.
        assert_eq!(
            evals.len(),
            report.cache.misses + report.faults.counts.quarantined
        );
        let quarantined = evals
            .iter()
            .filter(|s| s.attr("verdict") == Some(&AttrValue::Str("quarantined".into())))
            .count();
        assert_eq!(quarantined, report.faults.counts.quarantined);
        assert!(
            evals
                .iter()
                .all(|s| s.attr("verdict").is_some() && s.attr("worker").is_some()),
            "every eval span carries a fault verdict and worker id"
        );
    }

    #[test]
    fn clean_evaluator_matches_fault_free_run() {
        let tuner = Tuner::new(space()).max_evals(20).seed(3);
        let plain = tuner
            .run(&mut RandomSearch::new(), |_, c| (bowl(c), HashMap::new()))
            .unwrap();
        let resilient = tuner
            .run_resilient(
                &mut RandomSearch::new(),
                None,
                &Robustness::default(),
                |_, c, _| Ok((bowl(c), HashMap::new())),
            )
            .unwrap();
        assert_eq!(plain.db.observations(), resilient.db.observations());
        assert_eq!(plain.cache, resilient.cache);
        assert!(resilient.faults.is_clean());
    }

    #[test]
    fn transient_failures_are_retried() {
        // Every config fails its first attempt and succeeds on retry.
        let report = Tuner::new(space())
            .max_evals(10)
            .seed(1)
            .run_resilient(
                &mut RandomSearch::new(),
                None,
                &Robustness::default(),
                |_, c, attempt| {
                    if attempt == 0 {
                        Err(EvalError::Failed("transient".into()))
                    } else {
                        Ok((bowl(c), HashMap::new()))
                    }
                },
            )
            .unwrap();
        assert_eq!(report.evals, 10);
        assert_eq!(report.faults.counts.eval_failures, 10);
        assert_eq!(report.faults.counts.retries, 10);
        assert_eq!(report.faults.counts.quarantined, 0);
        assert!(report.faults.total_backoff_s > 0.0);
    }

    #[test]
    fn hostile_evaluator_yields_typed_error_not_panic() {
        let err = Tuner::new(space())
            .max_evals(5)
            .seed(2)
            .run_resilient(
                &mut RandomSearch::new(),
                None,
                &Robustness::default(),
                |_, _, _| Err(EvalError::Failed("always down".into())),
            )
            .unwrap_err();
        assert!(matches!(err, TuneError::NoEvaluations { .. }));
    }

    #[test]
    fn hostile_evaluator_abandons_within_fault_budget() {
        // 100% failure: the run must stop after max_evals*max_attempts
        // failed attempts, not loop forever.
        let robustness = Robustness::default();
        let counted = std::sync::atomic::AtomicUsize::new(0);
        let _ = Tuner::new(space()).max_evals(5).seed(2).run_resilient(
            &mut RandomSearch::new(),
            None,
            &robustness,
            |_, _, _| {
                counted.fetch_add(1, Ordering::Relaxed);
                Err(EvalError::TimedOut { waited_s: 1.0 })
            },
        );
        assert!(counted.load(Ordering::Relaxed) <= 5 * robustness.retry.max_attempts);
    }

    #[test]
    fn nan_objectives_never_reach_the_database() {
        let report = Tuner::new(space())
            .max_evals(10)
            .seed(4)
            .run_resilient(
                &mut RandomSearch::new(),
                None,
                &Robustness::default(),
                |_, c, attempt| {
                    if c[0] % 2 == 0 && attempt == 0 {
                        Ok((f64::NAN, HashMap::new()))
                    } else {
                        Ok((bowl(c), HashMap::new()))
                    }
                },
            )
            .unwrap();
        assert!(report
            .db
            .observations()
            .iter()
            .all(|o| o.objective.is_finite()));
        assert!(report.faults.counts.non_finite > 0);
    }

    #[test]
    fn quarantine_prevents_re_evaluation() {
        // One poisoned config fails forever; it must be attempted at most
        // max_attempts times in total, then skipped.
        let attempts_on_poison = AtomicUsize::new(0);
        let poison = vec![0usize, 0];
        let report = Tuner::new(space())
            .max_evals(30)
            .seed(6)
            .run_resilient(
                &mut RandomSearch::new(),
                None,
                &Robustness::default(),
                |_, c, _| {
                    if *c == poison {
                        attempts_on_poison.fetch_add(1, Ordering::Relaxed);
                        Err(EvalError::Failed("bad node".into()))
                    } else {
                        Ok((bowl(c), HashMap::new()))
                    }
                },
            )
            .unwrap();
        assert!(
            attempts_on_poison.load(Ordering::Relaxed) <= Robustness::default().retry.max_attempts
        );
        if attempts_on_poison.load(Ordering::Relaxed) > 0 {
            assert_eq!(report.faults.counts.quarantined, 1);
        }
    }

    #[test]
    fn poisoned_database_degrades_forest_to_random() {
        // Outlier objectives on a third of the space poison the surrogate.
        let robustness = Robustness {
            min_observations: 6,
            ..Robustness::default()
        };
        let report = Tuner::new(space())
            .max_evals(40)
            .seed(8)
            .run_resilient(
                &mut ForestSearch::new(),
                Some(&mut RandomSearch::new()),
                &robustness,
                |_, c, _| {
                    let o = if c[0] % 3 == 0 {
                        1e6 + bowl(c) // wild outlier band
                    } else {
                        bowl(c)
                    };
                    Ok((o, HashMap::new()))
                },
            )
            .unwrap();
        assert_eq!(report.faults.counts.search_degradations, 1);
        assert_eq!(
            report.algorithm, "random",
            "report names the active algorithm"
        );
        assert!(report.faults.counts.outliers > 0);
    }

    #[test]
    fn parallel_resilient_is_worker_count_invariant() {
        let robustness = Robustness::default();
        let eval = |_: &ParamSpace, c: &Config, attempt: usize| {
            // Deterministic per (config, attempt): fail first attempt on odd x.
            if c[0] % 2 == 1 && attempt == 0 {
                Err(EvalError::Failed("flaky".into()))
            } else {
                Ok((bowl(c), HashMap::new()))
            }
        };
        let tuner = Tuner::new(space()).max_evals(24).seed(9);
        let one = tuner
            .run_parallel_resilient(&mut RandomSearch::new(), None, &robustness, 1, eval)
            .unwrap();
        let eight = tuner
            .run_parallel_resilient(&mut RandomSearch::new(), None, &robustness, 8, eval)
            .unwrap();
        assert_eq!(one.db.observations(), eight.db.observations());
        assert_eq!(one.cache, eight.cache);
        assert_eq!(one.faults, eight.faults);
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&eight).unwrap(),
            "reports serialize byte-identically across worker counts"
        );
    }

    #[test]
    fn retry_schedule_respects_budgets() {
        let policy = RetryPolicy {
            max_attempts: 6,
            backoff_base_s: 10.0,
            backoff_factor: 3.0,
            max_total_backoff_s: 25.0,
        };
        let schedule = policy.schedule();
        assert_eq!(schedule.len(), 5);
        assert!(schedule.iter().all(|d| *d >= 0.0));
        assert!(schedule.iter().sum::<f64>() <= 25.0 + 1e-9);
        // Single-attempt policies never back off.
        assert!(RetryPolicy {
            max_attempts: 1,
            ..policy
        }
        .schedule()
        .is_empty());
    }

    /// PSA013: a retry policy that can terminate and honours its own
    /// budgets — at least one attempt, finite non-negative backoffs that
    /// grow rather than shrink, and a schedule inside the total cap.
    fn retry_problems(r: &RetryPolicy) -> Vec<String> {
        let mut out = Vec::new();
        if r.max_attempts == 0 {
            out.push("max_attempts = 0: nothing is ever evaluated".to_string());
        }
        for (what, v) in [
            ("backoff_base_s", r.backoff_base_s),
            ("backoff_factor", r.backoff_factor),
            ("max_total_backoff_s", r.max_total_backoff_s),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                out.push(format!("{what} = {v} must be finite and non-negative"));
            }
        }
        if r.backoff_factor < 1.0 {
            out.push(format!(
                "backoff_factor = {} shrinks backoffs",
                r.backoff_factor
            ));
        }
        let schedule = r.schedule();
        if schedule.len() != r.max_attempts.saturating_sub(1) {
            out.push(format!(
                "{} backoffs for {} attempts",
                schedule.len(),
                r.max_attempts
            ));
        }
        if schedule.iter().sum::<f64>() > r.max_total_backoff_s + 1e-9 {
            out.push("summed backoff exceeds max_total_backoff_s".to_string());
        }
        out
    }

    #[test]
    fn default_retry_policy_is_feasible_and_broken_ones_are_flagged() {
        assert_eq!(
            retry_problems(&RetryPolicy::default()),
            Vec::<String>::new()
        );
        let ok = RetryPolicy::default();
        for (broken, needle) in [
            (
                RetryPolicy {
                    max_attempts: 0,
                    ..ok
                },
                "max_attempts",
            ),
            (
                RetryPolicy {
                    backoff_base_s: -1.0,
                    ..ok
                },
                "backoff_base_s",
            ),
            (
                RetryPolicy {
                    backoff_factor: 0.5,
                    ..ok
                },
                "backoff_factor",
            ),
        ] {
            let problems = retry_problems(&broken);
            assert!(
                problems.iter().any(|p| p.contains(needle)),
                "{broken:?}: {problems:?}"
            );
        }
    }
}
