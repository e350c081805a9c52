//! Supervised tuning sessions: run a checkpointed tuner under injected
//! process kills and restart it from its last checkpoint until it finishes.
//!
//! The other fault classes in this crate corrupt *inputs* to a live tuning
//! loop; [`ProcessFaults`](crate::plan::ProcessFaults) kills the loop
//! itself. The [`SessionSupervisor`] closes that loop: it arms the tuner's
//! cooperative interrupt hook with a [`FaultDice`]-driven kill decision
//! (keyed on `(ordinal, incarnation)`, so the kill schedule is a pure
//! function of seed and plan), runs the session, and on every
//! [`TuneError::Interrupted`] records a [`RecoveryEvent`] and resumes from
//! the write-ahead checkpoint — up to a bounded restart budget.
//!
//! The watchdog contract is progress-based: each incarnation must push the
//! WAL past the ordinal where the previous incarnation died. A session that
//! keeps dying without extending the log trips the stall limit and
//! surfaces as [`SuperviseError::Stalled`] instead of looping forever.
//! Because resume replays deterministically, the recovered report is
//! byte-identical to an uninterrupted run of the same tuner — the property
//! experiment E7 (`ext_resume`) asserts for every kill point.

use crate::dice::FaultDice;
use crate::plan::FaultPlan;
use pstack_autotune::{
    Config, ParamSpace, Robustness, SearchAlgorithm, TuneError, TuneReport, Tuner,
};
use pstack_sync::{sites, Ordering, SyncAtomicUsize};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Decision stream name for process kills (see [`FaultDice::roll`]).
pub const KILL_STREAM: &str = "process_kill";

/// Shared supervision limits: how many restarts a supervisor will pay for
/// and how many consecutive no-progress deaths it tolerates. Used by both
/// the tuning-session [`SessionSupervisor`] and the fleet-scale
/// [`FleetSupervisor`](crate::fleet::FleetSupervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Restart budget: restarts beyond this bound surface as
    /// [`SuperviseError::RestartBudgetExhausted`].
    pub max_restarts: usize,
    /// Consecutive no-progress deaths tolerated before declaring a stall
    /// (must be positive).
    pub stall_limit: usize,
}

impl Default for SupervisorConfig {
    /// The documented defaults (README §Fault model): 8 restarts, 3
    /// consecutive stalled deaths.
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 8,
            stall_limit: 3,
        }
    }
}

/// One supervised restart: which incarnation died, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Which run attempt died (0 = the initial run).
    pub incarnation: usize,
    /// Ordinal of the last evaluation the dying incarnation logged; the
    /// WAL is consistent through this record, and the next incarnation
    /// resumes past it.
    pub at_ordinal: usize,
    /// Whether this incarnation extended the WAL past the previous death
    /// point (the heartbeat the stall watchdog listens for).
    pub made_progress: bool,
}

/// The supervisor's account of a session: every kill survived, and how
/// much of the restart budget it cost.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryLog {
    /// One entry per injected kill, in order.
    pub events: Vec<RecoveryEvent>,
    /// Restarts performed (== `events.len()` when the session finished).
    pub restarts: usize,
    /// Restart budget the supervisor was configured with.
    pub max_restarts: usize,
}

/// A finished supervised session: the (replay-exact) tuning report plus
/// the recovery story behind it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisedReport {
    /// The report of the final, completing incarnation — byte-identical to
    /// an uninterrupted run of the same tuner.
    pub report: TuneReport,
    /// What it took to get there.
    pub recovery: RecoveryLog,
}

/// Why a supervised session could not be driven to completion.
#[derive(Debug)]
pub enum SuperviseError {
    /// More kills arrived than the restart budget covers.
    RestartBudgetExhausted {
        /// Restarts already spent.
        restarts: usize,
        /// Ordinal of the last consistent WAL record.
        last_ordinal: usize,
    },
    /// Consecutive incarnations died without extending the WAL.
    Stalled {
        /// Consecutive no-progress deaths observed.
        stalled_restarts: usize,
        /// Ordinal the session is stuck at.
        at_ordinal: usize,
    },
    /// The tuner failed for a reason the supervisor cannot restart around.
    Tune(TuneError),
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::RestartBudgetExhausted {
                restarts,
                last_ordinal,
            } => write!(
                f,
                "restart budget exhausted after {restarts} restarts; WAL consistent through \
                 ordinal {last_ordinal}"
            ),
            SuperviseError::Stalled {
                stalled_restarts,
                at_ordinal,
            } => write!(
                f,
                "session stalled: {stalled_restarts} consecutive incarnations died without \
                 logging past ordinal {at_ordinal}"
            ),
            SuperviseError::Tune(e) => write!(f, "supervised session failed: {e}"),
        }
    }
}

impl std::error::Error for SuperviseError {}

/// The restart-budget and stall bookkeeping both supervisors share. A
/// "position" is how far the durable log reached when an incarnation
/// died: an evaluation ordinal for a tuning session, a slice for a fleet.
pub(crate) struct Watchdog {
    config: SupervisorConfig,
    recovery: RecoveryLog,
    last_death: Option<usize>,
    stalled: usize,
}

impl Watchdog {
    pub(crate) fn new(config: SupervisorConfig) -> Self {
        Watchdog {
            config,
            recovery: RecoveryLog {
                max_restarts: config.max_restarts,
                ..RecoveryLog::default()
            },
            last_death: None,
            stalled: 0,
        }
    }

    /// Record that `incarnation` died at position `at`. When the session
    /// must not be restarted again, returns `stalled(consecutive
    /// no-progress deaths, at)` or `exhausted(restarts spent, at)`.
    pub(crate) fn died<E>(
        &mut self,
        incarnation: usize,
        at: usize,
        stalled: fn(usize, usize) -> E,
        exhausted: fn(usize, usize) -> E,
    ) -> Result<(), E> {
        let made_progress = self.last_death.is_none_or(|prev| at > prev);
        self.recovery.events.push(RecoveryEvent {
            incarnation,
            at_ordinal: at,
            made_progress,
        });
        self.stalled = if made_progress { 0 } else { self.stalled + 1 };
        if self.stalled >= self.config.stall_limit {
            return Err(stalled(self.stalled, at));
        }
        self.last_death = Some(self.last_death.map_or(at, |p| p.max(at)));
        if self.recovery.events.len() > self.config.max_restarts {
            return Err(exhausted(self.recovery.events.len() - 1, at));
        }
        Ok(())
    }

    /// The recovery log of a session that finished.
    pub(crate) fn finish(mut self) -> RecoveryLog {
        self.recovery.restarts = self.recovery.events.len();
        self.recovery
    }
}

impl From<TuneError> for SuperviseError {
    fn from(e: TuneError) -> Self {
        SuperviseError::Tune(e)
    }
}

/// Supervises checkpointed tuning sessions under injected process kills.
///
/// The tuner handed to [`run`](Self::run) / [`run_resilient`](Self::run_resilient)
/// must have a checkpoint directory configured
/// ([`Tuner::checkpoint`]) — without one there is nothing to resume from
/// and the first kill would be fatal.
#[derive(Debug, Clone)]
pub struct SessionSupervisor {
    plan: FaultPlan,
    seed: u64,
    config: SupervisorConfig,
}

impl SessionSupervisor {
    /// Supervisor for `plan`'s process faults, rolling kills from `seed`,
    /// with the default [`SupervisorConfig`] limits.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        SessionSupervisor::with_config(plan, seed, SupervisorConfig::default())
    }

    /// Supervisor with explicit limits.
    pub fn with_config(plan: FaultPlan, seed: u64, config: SupervisorConfig) -> Self {
        assert!(config.stall_limit > 0, "stall_limit must be positive");
        SessionSupervisor { plan, seed, config }
    }

    /// Restart budget (default 8). The budget must cover the plan's
    /// `process.max_kills` for a session to be guaranteed to finish.
    pub fn max_restarts(mut self, n: usize) -> Self {
        self.config.max_restarts = n;
        self
    }

    /// Consecutive no-progress deaths tolerated before declaring a stall
    /// (default 3).
    pub fn stall_limit(mut self, n: usize) -> Self {
        assert!(n > 0, "stall_limit must be positive");
        self.config.stall_limit = n;
        self
    }

    /// The kill decision for `(ordinal, incarnation)` under this
    /// supervisor's plan — exposed so experiments can predict the
    /// schedule.
    pub fn would_kill(&self, ordinal: usize, incarnation: usize) -> bool {
        FaultDice::new(self.seed).chance(
            self.plan.process.kill_prob,
            KILL_STREAM,
            ordinal as u64,
            incarnation as u64,
        )
    }

    /// Arm `tuner` with this supervisor's kill hook for `incarnation`.
    /// `kills` counts kills across the whole session so the plan's
    /// `max_kills` bounds the total, not the per-incarnation, kill count.
    fn arm(&self, tuner: &Tuner, incarnation: usize, kills: &Arc<SyncAtomicUsize>) -> Tuner {
        let dice = FaultDice::new(self.seed);
        let kill_prob = self.plan.process.kill_prob;
        let max_kills = self.plan.process.max_kills;
        let kills = Arc::clone(kills);
        tuner.clone().interrupt_when(move |ordinal| {
            // Relaxed (downgraded from SeqCst): the interrupt hook runs only
            // on the driver thread, one incarnation at a time, so this
            // check-then-increment is single-threaded in practice. The
            // schedule-explorer grid in tests/concurrency_audit.rs holds the
            // kill schedule byte-identical across adversarial interleavings.
            if kills.load(Ordering::Relaxed) >= max_kills {
                return false;
            }
            if dice.chance(kill_prob, KILL_STREAM, ordinal as u64, incarnation as u64) {
                kills.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        })
    }

    /// Drive the incarnation loop to completion. `step` receives the armed
    /// tuner and whether this is the initial run (`true`) or a resume.
    fn drive(
        &self,
        tuner: &Tuner,
        mut step: impl FnMut(&Tuner, bool) -> Result<TuneReport, TuneError>,
    ) -> Result<SupervisedReport, SuperviseError> {
        let kills = Arc::new(SyncAtomicUsize::new(sites::FAULTS_KILLS, 0));
        let mut watchdog = Watchdog::new(self.config);
        for incarnation in 0.. {
            let armed = self.arm(tuner, incarnation, &kills);
            match step(&armed, incarnation == 0) {
                Ok(report) => {
                    let recovery = watchdog.finish();
                    return Ok(SupervisedReport { report, recovery });
                }
                Err(TuneError::Interrupted { at_ordinal }) => {
                    watchdog.died(
                        incarnation,
                        at_ordinal,
                        |stalled_restarts, at_ordinal| SuperviseError::Stalled {
                            stalled_restarts,
                            at_ordinal,
                        },
                        |restarts, last_ordinal| SuperviseError::RestartBudgetExhausted {
                            restarts,
                            last_ordinal,
                        },
                    )?;
                }
                Err(e) => return Err(SuperviseError::Tune(e)),
            }
        }
        unreachable!("incarnation loop exits by return")
    }

    /// Supervise the serial fault-free driver ([`Tuner::run`] /
    /// [`Tuner::resume`]).
    ///
    /// # Errors
    /// [`SuperviseError::RestartBudgetExhausted`] when kills outnumber the
    /// restart budget, [`SuperviseError::Stalled`] when restarts stop
    /// making progress, [`SuperviseError::Tune`] for any other tuner
    /// failure.
    pub fn run(
        &self,
        tuner: &Tuner,
        algorithm: &mut (dyn SearchAlgorithm + '_),
        evaluate: impl Fn(&ParamSpace, &Config) -> (f64, HashMap<String, f64>),
    ) -> Result<SupervisedReport, SuperviseError> {
        self.drive(tuner, |t, first| {
            if first {
                t.run(&mut *algorithm, &evaluate)
            } else {
                t.resume(&mut *algorithm, &evaluate)
            }
        })
    }

    /// Supervise the serial resilient driver ([`Tuner::run_resilient`] /
    /// [`Tuner::resume_resilient`]); process kills compose with whatever
    /// evaluation faults the session's own robustness machinery absorbs.
    ///
    /// # Errors
    /// As [`run`](Self::run).
    pub fn run_resilient(
        &self,
        tuner: &Tuner,
        algorithm: &mut (dyn SearchAlgorithm + '_),
        mut fallback: Option<&mut (dyn SearchAlgorithm + '_)>,
        robustness: &Robustness,
        evaluate: impl Fn(
            &ParamSpace,
            &Config,
            usize,
        ) -> Result<pstack_autotune::Evaluation, pstack_autotune::EvalError>,
    ) -> Result<SupervisedReport, SuperviseError> {
        self.drive(tuner, |t, first| {
            if first {
                t.run_resilient(
                    &mut *algorithm,
                    fallback.as_deref_mut(),
                    robustness,
                    &evaluate,
                )
            } else {
                t.resume_resilient(&mut *algorithm, fallback.as_deref_mut(), &evaluate)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_autotune::{Param, ParamSpace, RandomSearch};
    use pstack_ckpt::ScratchDir;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(Param::ints("a", [1, 2, 3, 4]))
            .with(Param::ints("b", [1, 2, 3, 4]))
    }

    fn objective(s: &ParamSpace, c: &Config) -> (f64, HashMap<String, f64>) {
        let a = s.value(c, "a").as_int() as f64;
        let b = s.value(c, "b").as_int() as f64;
        ((a - 3.0).abs() + (b - 2.0).abs(), HashMap::new())
    }

    #[test]
    fn supervised_session_matches_uninterrupted_run() {
        let scratch = ScratchDir::new("supervise-match");
        let base = Tuner::new(space()).max_evals(12).seed(7);
        let clean = base.run(&mut RandomSearch::new(), objective).unwrap();

        let plan = FaultPlan::process_kill_only();
        let sup = SessionSupervisor::new(plan, 99);
        let tuner = base.clone().checkpoint(scratch.path()).snapshot_every(4);
        let out = sup
            .run(&tuner, &mut RandomSearch::new(), objective)
            .unwrap();
        assert!(
            !out.recovery.events.is_empty(),
            "kill_prob 0.2 over 12 evals should kill at least once (seed-dependent; \
             pick another seed if this fires)"
        );
        assert_eq!(out.recovery.restarts, out.recovery.events.len());
        let clean_json = serde_json::to_string(&clean).unwrap();
        let sup_json = serde_json::to_string(&out.report).unwrap();
        assert_eq!(clean_json, sup_json, "recovery must be replay-exact");
    }

    #[test]
    fn restart_budget_exhaustion_is_reported() {
        let scratch = ScratchDir::new("supervise-budget");
        let mut plan = FaultPlan::process_kill_only();
        plan.process.kill_prob = 1.0; // die after every logged record
        plan.process.max_kills = 100;
        let sup = SessionSupervisor::new(plan, 5)
            .max_restarts(3)
            .stall_limit(100);
        let tuner = Tuner::new(space())
            .max_evals(10)
            .seed(3)
            .checkpoint(scratch.path());
        let err = sup
            .run(&tuner, &mut RandomSearch::new(), objective)
            .unwrap_err();
        match err {
            SuperviseError::RestartBudgetExhausted { restarts, .. } => assert_eq!(restarts, 3),
            other => panic!("expected budget exhaustion, got {other}"),
        }
    }

    #[test]
    fn restarts_that_never_resume_stall() {
        // Every incarnation starts over instead of resuming, and every one
        // is killed at its first record: the WAL never grows past ordinal
        // 0, so the watchdog must give up after `stall_limit` no-progress
        // deaths rather than spend the whole restart budget.
        let scratch = ScratchDir::new("supervise-stall");
        let mut plan = FaultPlan::process_kill_only();
        plan.process.kill_prob = 1.0;
        plan.process.max_kills = 10;
        let sup = SessionSupervisor::new(plan, 5).stall_limit(3);
        let tuner = Tuner::new(space())
            .max_evals(10)
            .seed(3)
            .checkpoint(scratch.path());
        let err = sup
            .drive(&tuner, |t, _first| {
                t.run(&mut RandomSearch::new(), objective)
            })
            .unwrap_err();
        match err {
            SuperviseError::Stalled {
                stalled_restarts,
                at_ordinal,
            } => assert_eq!((stalled_restarts, at_ordinal), (3, 0)),
            other => panic!("expected a stall, got {other}"),
        }
    }

    #[test]
    fn kill_schedule_is_deterministic() {
        let sup = SessionSupervisor::new(FaultPlan::process_kill_only(), 42);
        for ordinal in 0..32 {
            for inc in 0..4 {
                assert_eq!(
                    sup.would_kill(ordinal, inc),
                    sup.would_kill(ordinal, inc),
                    "kill decision must be pure"
                );
            }
        }
    }
}
