//! Fleet-scale fault injection and supervised recovery for the event-driven
//! resource manager.
//!
//! PR 9's multi-enclave site ([`EnclaveSet`]) was fault-free: no node ever
//! died mid-job, no enclave partitioned, no cap actuator stuck. This module
//! closes that gap with RM-class faults injected *through the event heap* —
//! every fault is a first-class time-ordered event, so a faulted drain
//! replays byte-identically per seed on any worker count:
//!
//! | Class | Event(s) | Plan knob |
//! |-------|----------|-----------|
//! | Node crash/reboot | `NodeFail`/`NodeRecover` | [`NodeFaults`] (MTBF/MTTR schedule) |
//! | Enclave outage | every node of the enclave fails + bit-exact budget re-shard | [`EnclaveOutage`] |
//! | Stuck cap actuator | `CapStick` (RM cap writes dropped until expiry) | [`ActuatorFaults`] |
//! | Job failure | `JobFail` (abort + requeue into the retry budget) | [`JobFaults`] |
//! | Telemetry dropout | `TelemetryDropout` in the aggregation tree | [`DropoutFaults`] |
//!
//! Schedules are generated by [`FleetInjector`] from a [`FaultDice`], so the
//! complete fault timeline is a pure function of `(seed, plan)` — the same
//! stateless-decision contract the tuning-loop fault classes obey.
//!
//! [`FleetSupervisor`] adds crash-safe *operation* of a faulted fleet: it
//! drains the site in slices, write-ahead-logging a checkpoint per slice
//! (counters, clocks, and the serialized pending event heaps — i.e. the
//! outstanding fault schedule) through `pstack-ckpt`. Injected supervisor
//! kills drop the in-memory site; the next incarnation rebuilds it, replays
//! the logged slices verifying each fingerprint bit-for-bit, and continues —
//! the same resume-equals-rerun contract the tuning stack's E7 asserts,
//! lifted to the fleet.

use crate::dice::FaultDice;
use crate::supervise::{RecoveryLog, SupervisorConfig, Watchdog};
use pstack_ckpt::{read_wal, write_snapshot, CkptError, SessionDir, WalWriter};
use pstack_rm::scheduler::EmergencyResponse;
use pstack_rm::EnclaveSet;
use pstack_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize, Value};

/// MTBF-style node crash/reboot schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeFaults {
    /// Mean time between failures per node, simulated hours (0 disables).
    pub mtbf_hours: f64,
    /// Mean time to repair per failure, simulated minutes.
    pub mttr_minutes: f64,
    /// Hard cap on injected failures per node per run.
    pub max_failures_per_node: usize,
}

impl NodeFaults {
    /// No node crashes.
    pub fn none() -> Self {
        NodeFaults {
            mtbf_hours: 0.0,
            mttr_minutes: 10.0,
            max_failures_per_node: 0,
        }
    }
}

/// One whole-enclave outage: every node of `enclave` crashes at `at_s` and
/// reboots `duration_s` later, with the site budget re-sharded bit-exactly
/// around the window ([`EnclaveSet::schedule_enclave_outage`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnclaveOutage {
    /// Which enclave partitions away.
    pub enclave: usize,
    /// Outage start, simulated seconds.
    pub at_s: f64,
    /// Outage length, simulated seconds.
    pub duration_s: f64,
}

/// Stuck power-cap actuators at the node-manager level: RM cap writes to a
/// stuck node are dropped until the stick expires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActuatorFaults {
    /// Probability a given node's actuator sticks once during the run.
    pub stick_prob: f64,
    /// How long a stick lasts, simulated minutes.
    pub stick_minutes: f64,
}

impl ActuatorFaults {
    /// No actuator faults.
    pub fn none() -> Self {
        ActuatorFaults {
            stick_prob: 0.0,
            stick_minutes: 5.0,
        }
    }
}

/// Job failures: a running job aborts and re-enters the queue within its
/// retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobFaults {
    /// Probability a given job is scheduled to fail once.
    pub fail_prob: f64,
    /// Retry budget the schedulers must be configured with
    /// ([`FleetFaultPlan::check`] requires ≥ 1 whenever `fail_prob > 0`).
    pub max_retries: u32,
}

impl JobFaults {
    /// No job failures.
    pub fn none() -> Self {
        JobFaults {
            fail_prob: 0.0,
            max_retries: 3,
        }
    }
}

/// Telemetry dropouts in the fleet aggregation tree: an enclave's readings
/// go dark for a window (counted, schedule-neutral).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropoutFaults {
    /// Probability a given enclave suffers one dropout window.
    pub drop_prob: f64,
    /// Dropout window length, simulated minutes.
    pub window_minutes: f64,
}

impl DropoutFaults {
    /// No telemetry dropouts.
    pub fn none() -> Self {
        DropoutFaults {
            drop_prob: 0.0,
            window_minutes: 2.0,
        }
    }
}

/// A complete fleet-level fault plan (the RM-side sibling of
/// [`FaultPlan`](crate::FaultPlan), which covers the tuning loop).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultPlan {
    /// Plan name (unique within a catalog).
    pub name: String,
    /// Node crash/reboot schedule.
    pub nodes: NodeFaults,
    /// Explicit whole-enclave outages.
    pub outages: Vec<EnclaveOutage>,
    /// Stuck cap actuators.
    pub actuators: ActuatorFaults,
    /// Job failures.
    pub jobs: JobFaults,
    /// Telemetry dropouts.
    pub dropouts: DropoutFaults,
}

impl FleetFaultPlan {
    /// The empty plan: inject nothing (the control arm; a fleet under this
    /// plan must stay bit-identical to a fault-free run).
    pub fn none() -> Self {
        FleetFaultPlan {
            name: "none".to_string(),
            nodes: NodeFaults::none(),
            outages: Vec::new(),
            actuators: ActuatorFaults::none(),
            jobs: JobFaults::none(),
            dropouts: DropoutFaults::none(),
        }
    }

    /// Single-class plan: MTBF node crashes only.
    pub fn node_mtbf_only() -> Self {
        FleetFaultPlan {
            name: "node_mtbf_only".to_string(),
            nodes: NodeFaults {
                mtbf_hours: 8.0,
                mttr_minutes: 20.0,
                max_failures_per_node: 3,
            },
            ..FleetFaultPlan::none()
        }
    }

    /// Single-class plan: one whole-enclave outage only.
    pub fn outage_only() -> Self {
        FleetFaultPlan {
            name: "outage_only".to_string(),
            outages: vec![EnclaveOutage {
                enclave: 0,
                at_s: 2.0 * 3600.0,
                duration_s: 1800.0,
            }],
            ..FleetFaultPlan::none()
        }
    }

    /// Every class on at once, at rates a robust fleet must shrug off — the
    /// chaos arm of E11.
    pub fn mixed() -> Self {
        FleetFaultPlan {
            name: "mixed".to_string(),
            nodes: NodeFaults {
                mtbf_hours: 10.0,
                mttr_minutes: 15.0,
                max_failures_per_node: 2,
            },
            outages: vec![EnclaveOutage {
                enclave: 1,
                at_s: 4.0 * 3600.0,
                duration_s: 1200.0,
            }],
            actuators: ActuatorFaults {
                stick_prob: 0.10,
                stick_minutes: 10.0,
            },
            jobs: JobFaults {
                fail_prob: 0.08,
                max_retries: 3,
            },
            dropouts: DropoutFaults {
                drop_prob: 0.5,
                window_minutes: 5.0,
            },
        }
    }

    /// The shipped fleet plan catalog: control, node-MTBF, outage, mixed.
    pub fn catalog() -> Vec<FleetFaultPlan> {
        vec![
            FleetFaultPlan::none(),
            FleetFaultPlan::node_mtbf_only(),
            FleetFaultPlan::outage_only(),
            FleetFaultPlan::mixed(),
        ]
    }

    /// Number of active fault classes.
    pub fn active_classes(&self) -> usize {
        let n = self.nodes.mtbf_hours > 0.0 && self.nodes.max_failures_per_node > 0;
        let o = !self.outages.is_empty();
        let a = self.actuators.stick_prob > 0.0;
        let j = self.jobs.fail_prob > 0.0;
        let d = self.dropouts.drop_prob > 0.0;
        [n, o, a, j, d].iter().filter(|&&x| x).count()
    }

    /// Static sanity checks: every probability in `[0, 1]`,
    /// MTBF/MTTR/stick/window durations positive when their class is
    /// active, a positive retry budget whenever job failures are on (an
    /// exhausted-at-zero retry budget turns every injected failure into a
    /// permanent loss), nonempty name. Returns one message per violation.
    pub fn check(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut err = |msg: String| out.push(msg);
        if self.name.trim().is_empty() {
            err("fleet fault plan has an empty name".to_string());
        }
        for (what, p) in [
            ("actuators.stick_prob", self.actuators.stick_prob),
            ("jobs.fail_prob", self.jobs.fail_prob),
            ("dropouts.drop_prob", self.dropouts.drop_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                err(format!("{what} = {p} must be a probability in [0, 1]"));
            }
        }
        if self.nodes.mtbf_hours > 0.0 || self.nodes.max_failures_per_node > 0 {
            if self.nodes.mtbf_hours <= 0.0 || !self.nodes.mtbf_hours.is_finite() {
                err(format!(
                    "nodes.mtbf_hours = {} must be positive when node crashes are on",
                    self.nodes.mtbf_hours
                ));
            }
            if self.nodes.mttr_minutes <= 0.0 || !self.nodes.mttr_minutes.is_finite() {
                err(format!(
                    "nodes.mttr_minutes = {} must be positive (a zero-length repair \
                     is not a crash)",
                    self.nodes.mttr_minutes
                ));
            }
        }
        for (i, o) in self.outages.iter().enumerate() {
            if o.at_s < 0.0 || !o.at_s.is_finite() {
                err(format!("outages[{i}].at_s = {} must be ≥ 0", o.at_s));
            }
            if o.duration_s <= 0.0 || !o.duration_s.is_finite() {
                err(format!(
                    "outages[{i}].duration_s = {} must be positive",
                    o.duration_s
                ));
            }
        }
        if self.actuators.stick_prob > 0.0
            && (self.actuators.stick_minutes <= 0.0 || !self.actuators.stick_minutes.is_finite())
        {
            err(format!(
                "actuators.stick_minutes = {} must be positive when sticks are on",
                self.actuators.stick_minutes
            ));
        }
        if self.jobs.fail_prob > 0.0 && self.jobs.max_retries == 0 {
            err(
                "jobs.max_retries must be ≥ 1 when fail_prob > 0 (otherwise every \
                 injected failure is a permanent job loss)"
                    .into(),
            );
        }
        if self.dropouts.drop_prob > 0.0
            && (self.dropouts.window_minutes <= 0.0 || !self.dropouts.window_minutes.is_finite())
        {
            err(format!(
                "dropouts.window_minutes = {} must be positive when dropouts are on",
                self.dropouts.window_minutes
            ));
        }
        out
    }
}

/// Generates deterministic fleet fault schedules from a plan and injects
/// them into an [`EnclaveSet`] as event-heap entries.
///
/// Every fire time is a pure function of `(seed, fault class, enclave,
/// node/job, occurrence)` through [`FaultDice`] — no shared RNG state, so
/// the timeline is identical on any worker count.
#[derive(Debug, Clone)]
pub struct FleetInjector {
    plan: FleetFaultPlan,
    dice: FaultDice,
}

impl FleetInjector {
    /// Injector for `plan`, rolling schedules from `seed`.
    pub fn new(plan: FleetFaultPlan, seed: u64) -> Self {
        FleetInjector {
            plan,
            dice: FaultDice::new(seed),
        }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FleetFaultPlan {
        &self.plan
    }

    /// The MTBF crash/reboot timeline for `(enclave, node)` inside
    /// `horizon_s`: `(fail_s, recover_s)` pairs, strictly ordered and
    /// non-overlapping. Exposed so tests and experiments can predict the
    /// schedule.
    pub fn node_fail_times(&self, enclave: usize, node: usize, horizon_s: f64) -> Vec<(f64, f64)> {
        let nf = &self.plan.nodes;
        if nf.mtbf_hours <= 0.0 || nf.max_failures_per_node == 0 {
            return Vec::new();
        }
        let key = FaultDice::key_of(&[enclave, node]);
        let mtbf_s = nf.mtbf_hours * 3600.0;
        let mttr_s = nf.mttr_minutes * 60.0;
        let mut out = Vec::new();
        let mut t = 0.0f64;
        for k in 0..nf.max_failures_per_node as u64 {
            // Inter-failure gap in [0.25, 1.75] × MTBF: mean MTBF, bounded
            // away from zero so crash and reboot never collide.
            let gap = mtbf_s * (0.25 + 1.5 * self.dice.roll("fleet_node_gap", key, k));
            let down = mttr_s * (0.5 + self.dice.roll("fleet_node_mttr", key, k));
            t += gap;
            // The whole crash/reboot window must land strictly inside the
            // horizon: a reboot scheduled at or past the horizon would
            // never fire, leaving the node down forever and breaking the
            // recovery SLO by construction rather than by a real bug.
            if t + down >= horizon_s {
                break;
            }
            out.push((t, t + down));
            t += down;
        }
        out
    }

    /// Inject the plan into `site` over `[0, horizon)`. `job_ids` is the
    /// id universe for job-failure rolls (injected failure events are
    /// pushed into every enclave; the event is a no-op in enclaves not
    /// running the job, so placement stays a scheduler-side decision).
    /// `site_budget_w` enables bit-exact budget re-sharding around enclave
    /// outages.
    pub fn inject(
        &self,
        site: &mut EnclaveSet,
        horizon: SimTime,
        site_budget_w: Option<f64>,
        response: EmergencyResponse,
        job_ids: &[u64],
    ) {
        let horizon_s = horizon.as_secs_f64();

        // Node MTBF crash/reboot schedules.
        for e in 0..site.enclaves().len() {
            let ids = site.enclaves()[e].scheduler().node_ids();
            for node in ids {
                for (fail_s, recover_s) in self.node_fail_times(e, node, horizon_s) {
                    let sched = site.enclaves_mut()[e].scheduler_mut();
                    sched.schedule_node_fail(
                        SimTime::ZERO + SimDuration::from_secs_f64(fail_s),
                        node,
                    );
                    sched.schedule_node_recover(
                        SimTime::ZERO + SimDuration::from_secs_f64(recover_s),
                        node,
                    );
                }
            }
        }

        // Whole-enclave outages (with bit-exact budget re-sharding).
        for o in &self.plan.outages {
            if o.enclave >= site.enclaves().len() {
                continue;
            }
            site.schedule_enclave_outage(
                o.enclave,
                SimTime::ZERO + SimDuration::from_secs_f64(o.at_s),
                SimDuration::from_secs_f64(o.duration_s),
                site_budget_w,
                response,
            );
        }

        // Stuck cap actuators: at most one stick per node, uniformly placed
        // in the first 60% of the horizon.
        if self.plan.actuators.stick_prob > 0.0 {
            let stick = SimDuration::from_secs_f64(self.plan.actuators.stick_minutes * 60.0);
            for e in 0..site.enclaves().len() {
                let ids = site.enclaves()[e].scheduler().node_ids();
                for node in ids {
                    let key = FaultDice::key_of(&[e, node]);
                    if !self
                        .dice
                        .chance(self.plan.actuators.stick_prob, "fleet_cap_stick", key, 0)
                    {
                        continue;
                    }
                    let at_s = 0.6 * horizon_s * self.dice.roll("fleet_cap_at", key, 0);
                    let at = SimTime::ZERO + SimDuration::from_secs_f64(at_s);
                    site.enclaves_mut()[e]
                        .scheduler_mut()
                        .schedule_cap_stick(at, node, at + stick);
                }
            }
        }

        // Telemetry dropouts: at most one window per enclave.
        if self.plan.dropouts.drop_prob > 0.0 {
            let window = SimDuration::from_secs_f64(self.plan.dropouts.window_minutes * 60.0);
            for e in 0..site.enclaves().len() {
                if !self
                    .dice
                    .chance(self.plan.dropouts.drop_prob, "fleet_dropout", e as u64, 0)
                {
                    continue;
                }
                let at_s = 0.6 * horizon_s * self.dice.roll("fleet_dropout_at", e as u64, 0);
                let at = SimTime::ZERO + SimDuration::from_secs_f64(at_s);
                site.enclaves_mut()[e]
                    .scheduler_mut()
                    .schedule_telemetry_dropout(at, at + window);
            }
        }

        // Job failures: rolled per job id, pushed into every enclave (only
        // the enclave actually running the job at the fire time reacts).
        if self.plan.jobs.fail_prob > 0.0 {
            for &id in job_ids {
                if !self
                    .dice
                    .chance(self.plan.jobs.fail_prob, "fleet_job_fail", id, 0)
                {
                    continue;
                }
                let at_s = 0.8 * horizon_s * self.dice.roll("fleet_job_at", id, 0);
                let at = SimTime::ZERO + SimDuration::from_secs_f64(at_s);
                for enc in site.enclaves_mut() {
                    enc.scheduler_mut()
                        .schedule_job_fail(at, pstack_rm::spec::JobId(id));
                }
            }
        }
    }
}

/// Byte-level fingerprint of a fleet's observable state: per-enclave
/// clocks, event-heap counters, the serialized pending event schedule, and
/// every completed-job record (ids, times, energy bits, work bits). Two
/// fleets with equal fingerprints have replayed identically.
pub fn fleet_fingerprint(site: &mut EnclaveSet) -> u64 {
    let mut buf = String::new();
    for enc in site.enclaves_mut() {
        let s = enc.scheduler();
        let heap_json = serde_json::to_string(s.events()).unwrap_or_default();
        buf.push_str(&format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|",
            s.now().as_micros(),
            s.events().popped(),
            s.events().cursor().as_micros(),
            s.queued(),
            s.submitted(),
            s.failed().len(),
            s.rejected().len(),
            heap_json,
        ));
        for r in s.records() {
            buf.push_str(&format!(
                "{}:{}:{}:{}:{}:{:016x}:{:016x};",
                r.id.0,
                r.submit.as_micros(),
                r.start.as_micros(),
                r.end.as_micros(),
                r.nodes,
                r.energy_j.to_bits(),
                r.work.to_bits(),
            ));
        }
        buf.push('\n');
    }
    pstack_trace::hash64(buf.as_bytes())
}

/// One write-ahead checkpoint of a supervised fleet drain: where the drain
/// is, what the fleet looks like (fingerprint), and the serialized pending
/// event heaps — the outstanding fault schedule — so a restore can verify
/// it rebuilt the *same* future, not just the same past.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Slice index (0-based).
    pub slice: u64,
    /// Simulated time of the slice boundary, microseconds.
    pub t_us: u64,
    /// [`fleet_fingerprint`] at the boundary.
    pub fingerprint: u64,
    /// Pending events across all enclave heaps at the boundary.
    pub pending: u64,
    /// JSON of every enclave's pending event heap (the fault schedule
    /// still to fire).
    pub heaps_json: String,
}

/// A completed supervised fleet drain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetSupervisedRun {
    /// Final fleet fingerprint — byte-identical to an unsupervised drain
    /// sliced the same way.
    pub fingerprint: u64,
    /// Slices the drain was checkpointed at.
    pub slices: usize,
    /// Kills survived and restart budget spent.
    pub recovery: RecoveryLog,
}

/// Why a supervised fleet drain could not complete.
#[derive(Debug)]
pub enum FleetSuperviseError {
    /// More kills arrived than the restart budget covers.
    RestartBudgetExhausted {
        /// Restarts already spent.
        restarts: usize,
        /// Slice index of the last durable checkpoint.
        last_slice: usize,
    },
    /// Consecutive incarnations died without checkpointing a new slice.
    Stalled {
        /// Consecutive no-progress deaths observed.
        stalled_restarts: usize,
        /// Slice index the drain is stuck at.
        at_slice: usize,
    },
    /// A rebuilt fleet diverged from a logged checkpoint during replay —
    /// the determinism contract is broken (or the workload changed).
    ReplayDiverged {
        /// Slice whose fingerprint did not match.
        slice: usize,
        /// Fingerprint the WAL recorded.
        expected: u64,
        /// Fingerprint the replay produced.
        got: u64,
    },
    /// Checkpoint storage failed.
    Ckpt(CkptError),
}

impl std::fmt::Display for FleetSuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetSuperviseError::RestartBudgetExhausted {
                restarts,
                last_slice,
            } => write!(
                f,
                "fleet restart budget exhausted after {restarts} restarts; WAL consistent \
                 through slice {last_slice}"
            ),
            FleetSuperviseError::Stalled {
                stalled_restarts,
                at_slice,
            } => write!(
                f,
                "fleet drain stalled: {stalled_restarts} consecutive incarnations died \
                 without checkpointing past slice {at_slice}"
            ),
            FleetSuperviseError::ReplayDiverged {
                slice,
                expected,
                got,
            } => write!(
                f,
                "fleet replay diverged at slice {slice}: WAL fingerprint {expected:016x}, \
                 replay produced {got:016x}"
            ),
            FleetSuperviseError::Ckpt(e) => write!(f, "fleet checkpoint storage failed: {e}"),
        }
    }
}

impl std::error::Error for FleetSuperviseError {}

impl From<CkptError> for FleetSuperviseError {
    fn from(e: CkptError) -> Self {
        FleetSuperviseError::Ckpt(e)
    }
}

/// Decision stream name for fleet supervisor kills.
pub const FLEET_KILL_STREAM: &str = "fleet_kill";

/// Crash-safe driver for a (faulted) fleet drain.
///
/// [`run`](Self::run) drains the site `build()` produces in `slices` equal
/// horizon slices, appending a [`FleetCheckpoint`] WAL frame at each
/// boundary and finishing with a full-state snapshot. A [`FaultDice`]
/// decision keyed on `(slice, incarnation)` kills the supervisor *before*
/// a slice's checkpoint becomes durable; the next incarnation rebuilds the
/// fleet from `build()` (same seed ⇒ same workload and fault schedule),
/// replays the logged slices verifying every fingerprint, and continues.
/// Limits come from the same [`SupervisorConfig`] the tuning-session
/// supervisor uses.
#[derive(Debug, Clone)]
pub struct FleetSupervisor {
    config: SupervisorConfig,
    seed: u64,
    kill_prob: f64,
}

impl FleetSupervisor {
    /// Supervisor with `config` limits, rolling kills from `seed` with
    /// per-slice probability `kill_prob` (0 disables kills).
    pub fn new(config: SupervisorConfig, seed: u64, kill_prob: f64) -> Self {
        assert!(config.stall_limit > 0, "stall_limit must be positive");
        assert!(
            (0.0..=1.0).contains(&kill_prob),
            "kill_prob must be a probability"
        );
        FleetSupervisor {
            config,
            seed,
            kill_prob,
        }
    }

    /// The kill decision for `(slice, incarnation)` — exposed so tests can
    /// predict the schedule.
    pub fn would_kill(&self, slice: usize, incarnation: usize) -> bool {
        FaultDice::new(self.seed).chance(
            self.kill_prob,
            FLEET_KILL_STREAM,
            slice as u64,
            incarnation as u64,
        )
    }

    fn checkpoint_at(site: &mut EnclaveSet, slice: u64, t_us: u64) -> FleetCheckpoint {
        let heaps: Vec<Value> = site
            .enclaves()
            .iter()
            .map(|e| e.scheduler().events().to_value())
            .collect();
        let pending: u64 = site
            .enclaves()
            .iter()
            .map(|e| e.scheduler().events().len() as u64)
            .sum();
        FleetCheckpoint {
            slice,
            t_us,
            fingerprint: fleet_fingerprint(site),
            pending,
            heaps_json: serde_json::to_string(&Value::Seq(heaps)).unwrap_or_default(),
        }
    }

    /// Drive `build()`'s fleet to `horizon` under injected kills.
    ///
    /// # Errors
    /// [`FleetSuperviseError::RestartBudgetExhausted`] when kills outnumber
    /// the restart budget, [`FleetSuperviseError::Stalled`] when restarts
    /// stop making progress, [`FleetSuperviseError::ReplayDiverged`] when a
    /// rebuilt fleet fails fingerprint verification,
    /// [`FleetSuperviseError::Ckpt`] for storage failures.
    pub fn run(
        &self,
        dir: &SessionDir,
        build: impl Fn() -> EnclaveSet,
        quantum: SimDuration,
        horizon: SimTime,
        slices: usize,
    ) -> Result<FleetSupervisedRun, FleetSuperviseError> {
        assert!(slices >= 1, "need at least one slice");
        let horizon_us = horizon.as_micros();
        let boundary = |i: u64| SimTime::from_micros(horizon_us * i / slices as u64);

        let mut watchdog = Watchdog::new(self.config);

        for incarnation in 0.. {
            let mut site = build();

            // Restore: replay the durable prefix, verifying each slice's
            // fingerprint bit-for-bit against the WAL.
            let logged: Vec<FleetCheckpoint> = if dir.wal_path().exists() {
                pstack_ckpt::decode_records(&read_wal(&dir.wal_path())?)?
            } else {
                Vec::new()
            };
            for ck in &logged {
                let t = SimTime::from_micros(ck.t_us);
                site.run_until(quantum, t);
                let fp = fleet_fingerprint(&mut site);
                if fp != ck.fingerprint {
                    return Err(FleetSuperviseError::ReplayDiverged {
                        slice: ck.slice as usize,
                        expected: ck.fingerprint,
                        got: fp,
                    });
                }
            }

            // Continue live: append one checkpoint per remaining slice,
            // rolling the kill dice before each becomes durable.
            let header = Value::Map(vec![
                ("kind".into(), Value::Str("fleet_supervisor".into())),
                ("seed".into(), Value::UInt(self.seed)),
                ("slices".into(), Value::UInt(slices as u64)),
            ]);
            let mut wal = WalWriter::create(&dir.wal_path(), &header, 1)?;
            for ck in &logged {
                wal.append(ck)?;
            }
            wal.sync()?;

            let first_live = logged.len() as u64;
            let mut died = false;
            for i in first_live..slices as u64 {
                if self.would_kill(i as usize, incarnation) {
                    // The process dies mid-slice: slices 0..i are durable,
                    // slice i is not. Progress = a later death point than
                    // any previous incarnation reached.
                    watchdog.died(
                        incarnation,
                        i as usize,
                        |stalled_restarts, at_slice| FleetSuperviseError::Stalled {
                            stalled_restarts,
                            at_slice,
                        },
                        |restarts, last_slice| FleetSuperviseError::RestartBudgetExhausted {
                            restarts,
                            last_slice,
                        },
                    )?;
                    died = true;
                    break;
                }
                let t_us = horizon_us * (i + 1) / slices as u64;
                if i + 1 == slices as u64 {
                    site.run_until_drained(quantum, boundary(i + 1));
                } else {
                    site.run_until(quantum, boundary(i + 1));
                }
                let ck = Self::checkpoint_at(&mut site, i, t_us);
                wal.append(&ck)?;
                wal.sync()?;
            }
            if died {
                continue;
            }

            let fingerprint = fleet_fingerprint(&mut site);
            let recovery = watchdog.finish();
            let m = site.site_metrics();
            let snap = Value::Map(vec![
                ("fingerprint".into(), Value::UInt(fingerprint)),
                ("slices".into(), Value::UInt(slices as u64)),
                ("restarts".into(), Value::UInt(recovery.restarts as u64)),
                ("completed".into(), Value::UInt(m.completed as u64)),
                ("submitted".into(), Value::UInt(m.submitted as u64)),
                ("failed".into(), Value::UInt(m.failed as u64)),
            ]);
            write_snapshot(&dir.snapshot_path(), &snap)?;
            return Ok(FleetSupervisedRun {
                fingerprint,
                slices,
                recovery,
            });
        }
        unreachable!("incarnation loop exits by return")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_apps::synthetic::{Profile, SyntheticApp};
    use pstack_ckpt::ScratchDir;
    use pstack_hwmodel::{NodeConfig, VariationModel};
    use pstack_node::NodeManager;
    use pstack_rm::policy::{PowerAssignment, SystemPowerPolicy};
    use pstack_rm::scheduler::Scheduler;
    use pstack_rm::spec::JobSpec;
    use pstack_sim::SeedTree;
    use std::sync::Arc;

    fn sched(n_nodes: usize, seed: u64) -> Scheduler {
        let seeds = SeedTree::new(seed);
        let nodes = NodeManager::fleet(
            n_nodes,
            NodeConfig::server_default(),
            &VariationModel::none(),
            &seeds,
        );
        Scheduler::new(
            nodes,
            SystemPowerPolicy::budgeted(n_nodes as f64 * 450.0, PowerAssignment::Unconstrained),
            seeds.subtree("sched"),
        )
    }

    fn faulted_site(seed: u64, plan: &FleetFaultPlan) -> EnclaveSet {
        let mut site = EnclaveSet::new(
            vec![
                ("a".into(), sched(4, seed)),
                ("b".into(), sched(4, seed + 1)),
            ],
            2,
        );
        let job_ids: Vec<u64> = (0..8).collect();
        for (i, &id) in job_ids.iter().enumerate() {
            let spec = JobSpec::rigid(
                id,
                Arc::new(SyntheticApp::new(Profile::ComputeHeavy, 15.0, 10)),
                2,
                SimTime::from_secs(20 * i as u64),
            );
            site.enclaves_mut()[i % 2].scheduler_mut().submit(spec);
        }
        FleetInjector::new(plan.clone(), seed).inject(
            &mut site,
            SimTime::from_secs(4 * 3600),
            Some(8.0 * 450.0),
            EmergencyResponse::TightenCaps,
            &job_ids,
        );
        site
    }

    #[test]
    fn shipped_fleet_catalog_is_sane_and_uniquely_named() {
        let catalog = FleetFaultPlan::catalog();
        let mut names: Vec<&str> = catalog.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len(), "duplicate plan names");
        for plan in &catalog {
            assert!(
                plan.check().is_empty(),
                "plan {} fails its own sanity checks: {:?}",
                plan.name,
                plan.check()
            );
        }
        // The chaos grid needs a fault-free control arm to attribute SLO
        // regressions to faults, and a mixed arm for fault interactions.
        assert!(catalog.iter().any(|p| p.active_classes() == 0));
        assert!(catalog.iter().any(|p| p.active_classes() >= 4));
        assert_eq!(FleetFaultPlan::none().active_classes(), 0);
        assert_eq!(FleetFaultPlan::node_mtbf_only().active_classes(), 1);
        assert_eq!(FleetFaultPlan::mixed().active_classes(), 5);
    }

    #[test]
    fn broken_fleet_plans_are_flagged() {
        let mut p = FleetFaultPlan::none();
        p.jobs.fail_prob = 0.2;
        p.jobs.max_retries = 0;
        assert!(!p.check().is_empty(), "zero retry budget");

        let mut p = FleetFaultPlan::none();
        p.nodes.mtbf_hours = 5.0;
        p.nodes.max_failures_per_node = 1;
        p.nodes.mttr_minutes = 0.0;
        assert!(!p.check().is_empty(), "zero MTTR");

        let mut p = FleetFaultPlan::none();
        p.outages.push(EnclaveOutage {
            enclave: 0,
            at_s: 10.0,
            duration_s: 0.0,
        });
        assert!(!p.check().is_empty(), "zero outage duration");

        let mut p = FleetFaultPlan::none();
        p.dropouts.drop_prob = 1.5;
        assert!(!p.check().is_empty(), "probability out of range");

        let mut p = FleetFaultPlan::none();
        p.name = String::new();
        assert!(!p.check().is_empty(), "empty name");
    }

    #[test]
    fn fleet_plans_serialize_round_trip() {
        for plan in FleetFaultPlan::catalog() {
            let json = serde_json::to_string(&plan).unwrap();
            let back: FleetFaultPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn node_fail_schedules_are_deterministic_ordered_and_bounded() {
        let inj = FleetInjector::new(FleetFaultPlan::node_mtbf_only(), 7);
        for e in 0..2 {
            for n in 0..4 {
                let a = inj.node_fail_times(e, n, 100.0 * 3600.0);
                let b = inj.node_fail_times(e, n, 100.0 * 3600.0);
                assert_eq!(a, b, "schedule must be pure");
                assert!(a.len() <= 3);
                let mut prev_end = 0.0;
                for &(fail, recover) in &a {
                    assert!(fail > prev_end, "windows must not overlap");
                    assert!(recover > fail, "repair takes time");
                    prev_end = recover;
                }
            }
        }
        // Different nodes get different timelines.
        let a = inj.node_fail_times(0, 0, 100.0 * 3600.0);
        let b = inj.node_fail_times(0, 1, 100.0 * 3600.0);
        assert_ne!(a, b);
    }

    #[test]
    fn injected_fleet_drains_with_conservation_and_rejoin() {
        let plan = FleetFaultPlan::mixed();
        let mut site = faulted_site(42, &plan);
        site.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(4 * 3600));
        let m = site.site_metrics();
        assert_eq!(m.submitted, 8);
        assert_eq!(
            m.completed + m.failed + m.rejected,
            m.submitted,
            "requeued-job conservation: {m:?}"
        );
        assert_eq!(m.down_nodes, 0, "every crashed node rebooted: {m:?}");
    }

    #[test]
    fn injected_fleet_replays_byte_identically() {
        let plan = FleetFaultPlan::mixed();
        let fp: Vec<u64> = (0..2)
            .map(|_| {
                let mut site = faulted_site(42, &plan);
                site.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(4 * 3600));
                fleet_fingerprint(&mut site)
            })
            .collect();
        assert_eq!(fp[0], fp[1], "same (seed, plan) must replay identically");
        // A different seed moves the timeline.
        let mut other = faulted_site(43, &plan);
        other.run_until_drained(SimDuration::from_secs(1), SimTime::from_secs(4 * 3600));
        assert_ne!(fp[0], fleet_fingerprint(&mut other));
    }

    #[test]
    fn supervised_drain_matches_unsupervised_and_survives_kills() {
        let plan = FleetFaultPlan::mixed();
        let horizon = SimTime::from_secs(4 * 3600);
        let quantum = SimDuration::from_secs(1);

        // Ground truth: an unsupervised drain sliced the same way.
        let clean = {
            let scratch = ScratchDir::new("fleet-sup-clean");
            let dir = SessionDir::new(scratch.path().join("s")).unwrap();
            FleetSupervisor::new(SupervisorConfig::default(), 9, 0.0)
                .run(&dir, || faulted_site(42, &plan), quantum, horizon, 6)
                .unwrap()
        };
        assert!(clean.recovery.events.is_empty());

        // Killed: same fleet, kills on — must recover to the same bytes.
        let scratch = ScratchDir::new("fleet-sup-killed");
        let dir = SessionDir::new(scratch.path().join("s")).unwrap();
        let killed = FleetSupervisor::new(
            SupervisorConfig {
                max_restarts: 16,
                stall_limit: 8,
            },
            9,
            0.35,
        )
        .run(&dir, || faulted_site(42, &plan), quantum, horizon, 6)
        .unwrap();
        assert!(
            !killed.recovery.events.is_empty(),
            "kill_prob 0.35 over 6 slices should kill at least once \
             (seed-dependent; pick another seed if this fires)"
        );
        assert_eq!(
            killed.fingerprint, clean.fingerprint,
            "recovery must be replay-exact"
        );
        // The snapshot is durable and carries the final fingerprint.
        let snap = pstack_ckpt::read_snapshot(&dir.snapshot_path()).unwrap();
        assert_eq!(
            u64::from_value(snap.field("fingerprint")).unwrap(),
            killed.fingerprint
        );
    }

    #[test]
    fn supervisor_stalls_under_certain_kills() {
        let scratch = ScratchDir::new("fleet-sup-stall");
        let dir = SessionDir::new(scratch.path().join("s")).unwrap();
        let err = FleetSupervisor::new(
            SupervisorConfig {
                max_restarts: 100,
                stall_limit: 3,
            },
            1,
            1.0,
        )
        .run(
            &dir,
            || faulted_site(42, &FleetFaultPlan::none()),
            SimDuration::from_secs(1),
            SimTime::from_secs(3600),
            4,
        )
        .unwrap_err();
        match err {
            FleetSuperviseError::Stalled {
                stalled_restarts, ..
            } => assert_eq!(stalled_restarts, 3),
            other => panic!("expected stall, got {other}"),
        }
    }

    #[test]
    fn supervisor_restart_budget_exhaustion_is_reported() {
        let scratch = ScratchDir::new("fleet-sup-budget");
        let dir = SessionDir::new(scratch.path().join("s")).unwrap();
        let err = FleetSupervisor::new(
            SupervisorConfig {
                max_restarts: 2,
                stall_limit: 100,
            },
            1,
            1.0,
        )
        .run(
            &dir,
            || faulted_site(42, &FleetFaultPlan::none()),
            SimDuration::from_secs(1),
            SimTime::from_secs(3600),
            4,
        )
        .unwrap_err();
        match err {
            FleetSuperviseError::RestartBudgetExhausted { restarts, .. } => {
                assert_eq!(restarts, 2)
            }
            other => panic!("expected budget exhaustion, got {other}"),
        }
    }
}
