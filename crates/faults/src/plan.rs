//! Fault plans: declarative descriptions of what to inject.
//!
//! A [`FaultPlan`] names the fault classes of the tentpole — telemetry
//! corruption, knob actuation faults, runtime-agent crashes, RM emergency
//! power drops (§3.2.5), and evaluation failures — with per-class rates. The
//! [`default_rates`](FaultPlan::default_rates) preset documents the rates
//! every fig/uc scenario must survive; the single-fault presets isolate one
//! class each for the ≥90 %-recovery acceptance runs. Plans are plain data:
//! serializable, comparable, and statically checkable ([`FaultPlan::check`]).

use serde::{Deserialize, Serialize};

/// Telemetry corruption: noisy, spiking, and dropped power samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetryFaults {
    /// Relative magnitude of multiplicative noise on each sample
    /// (`±noise_frac × reading`), 0 disables.
    pub noise_frac: f64,
    /// Probability a sample is dropped entirely.
    pub drop_prob: f64,
    /// Probability a sample spikes (sensor glitch).
    pub spike_prob: f64,
    /// Multiplier applied to spiking samples (≥ 1).
    pub spike_factor: f64,
}

impl TelemetryFaults {
    /// No telemetry faults.
    pub fn none() -> Self {
        TelemetryFaults {
            noise_frac: 0.0,
            drop_prob: 0.0,
            spike_prob: 0.0,
            spike_factor: 1.0,
        }
    }
}

/// Knob actuation faults: writes that silently fail or apply late.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnobFaults {
    /// Probability a knob write silently fails (stuck actuator).
    pub stick_prob: f64,
    /// Probability a knob write applies late instead of immediately.
    pub lag_prob: f64,
    /// How many injector ticks a lagging write waits before applying (≥ 1
    /// when `lag_prob > 0`).
    pub lag_steps: usize,
}

impl KnobFaults {
    /// No knob faults.
    pub fn none() -> Self {
        KnobFaults {
            stick_prob: 0.0,
            lag_prob: 0.0,
            lag_steps: 1,
        }
    }
}

/// Runtime-agent crash/restart faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgentFaults {
    /// Probability the agent crashes at any given control tick.
    pub crash_prob: f64,
    /// Control ticks a crashed agent misses before its supervisor restarts
    /// it (≥ 1).
    pub restart_after_controls: usize,
}

impl AgentFaults {
    /// No agent faults.
    pub fn none() -> Self {
        AgentFaults {
            crash_prob: 0.0,
            restart_after_controls: 1,
        }
    }
}

/// One RM-level emergency power reduction (§3.2.5): at `at_s` the system
/// budget drops to `budget_factor` of nominal for `duration_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmergencyFault {
    /// When the emergency begins, simulated seconds from job start.
    pub at_s: f64,
    /// Fraction of the nominal power budget available during the emergency,
    /// in `(0, 1]`.
    pub budget_factor: f64,
    /// How long the emergency lasts, simulated seconds.
    pub duration_s: f64,
}

/// Evaluation faults inside the tuning loop: failures, timeouts, garbage
/// objectives, and slow (inflated) measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalFaults {
    /// Probability an evaluation attempt fails outright.
    pub fail_prob: f64,
    /// Probability an evaluation attempt times out.
    pub timeout_prob: f64,
    /// Virtual time after which a timed-out evaluation is declared dead,
    /// seconds.
    pub timeout_s: f64,
    /// Probability an evaluation attempt returns a non-finite objective.
    pub nan_prob: f64,
    /// Probability an evaluation runs slow, inflating its measured
    /// objective.
    pub slow_prob: f64,
    /// Multiplier applied to the objective of slow evaluations (≥ 1).
    pub slow_factor: f64,
}

impl EvalFaults {
    /// No evaluation faults.
    pub fn none() -> Self {
        EvalFaults {
            fail_prob: 0.0,
            timeout_prob: 0.0,
            timeout_s: 120.0,
            nan_prob: 0.0,
            slow_prob: 0.0,
            slow_factor: 1.0,
        }
    }
}

/// Process-level faults: the tuning process itself is killed mid-session
/// and must be restarted from its last checkpoint by a supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessFaults {
    /// Probability the tuning process dies immediately after logging any
    /// given evaluation record.
    pub kill_prob: f64,
    /// Hard cap on injected kills per supervised session (the supervisor's
    /// restart budget must cover at least this many).
    pub max_kills: usize,
}

impl ProcessFaults {
    /// No process faults.
    pub fn none() -> Self {
        ProcessFaults {
            kill_prob: 0.0,
            max_kills: 0,
        }
    }
}

/// A complete fault plan across the stack's layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Plan name (unique within a catalog).
    pub name: String,
    /// Telemetry faults (node → monitoring path).
    pub telemetry: TelemetryFaults,
    /// Knob actuation faults (control → node path).
    pub knobs: KnobFaults,
    /// Runtime-agent crash/restart faults.
    pub agent: AgentFaults,
    /// RM emergency power reduction, if scheduled.
    pub emergency: Option<EmergencyFault>,
    /// Evaluation faults inside the tuner.
    pub evals: EvalFaults,
    /// Process-level kills of the tuning session itself.
    pub process: ProcessFaults,
}

impl FaultPlan {
    /// The empty plan: inject nothing (the control arm of every chaos run).
    pub fn none() -> Self {
        FaultPlan {
            name: "none".to_string(),
            telemetry: TelemetryFaults::none(),
            knobs: KnobFaults::none(),
            agent: AgentFaults::none(),
            emergency: None,
            evals: EvalFaults::none(),
            process: ProcessFaults::none(),
        }
    }

    /// The documented default rates: every fault class on at once, at rates
    /// a robust stack must shrug off. These are the rates the acceptance
    /// criteria reference ("with faults enabled at documented default
    /// rates") — see README §Fault model.
    pub fn default_rates() -> Self {
        FaultPlan {
            name: "default_rates".to_string(),
            telemetry: TelemetryFaults {
                noise_frac: 0.05,
                drop_prob: 0.02,
                spike_prob: 0.01,
                spike_factor: 3.0,
            },
            knobs: KnobFaults {
                stick_prob: 0.05,
                lag_prob: 0.05,
                lag_steps: 2,
            },
            agent: AgentFaults {
                crash_prob: 0.02,
                restart_after_controls: 4,
            },
            emergency: Some(EmergencyFault {
                at_s: 30.0,
                budget_factor: 0.6,
                duration_s: 20.0,
            }),
            evals: EvalFaults {
                fail_prob: 0.05,
                timeout_prob: 0.02,
                timeout_s: 120.0,
                nan_prob: 0.02,
                slow_prob: 0.05,
                slow_factor: 2.0,
            },
            // Process kills are exercised by the supervised single-fault
            // plan; the in-process chaos matrix has nothing to restart.
            process: ProcessFaults::none(),
        }
    }

    /// Single-fault plan: process kills only — the tuning process dies
    /// after ~1 in 5 logged evaluations (bounded by `max_kills`) and a
    /// [`SessionSupervisor`](crate::SessionSupervisor) must resume it from
    /// the last checkpoint.
    pub fn process_kill_only() -> Self {
        FaultPlan {
            name: "process_kill_only".to_string(),
            process: ProcessFaults {
                kill_prob: 0.2,
                max_kills: 4,
            },
            ..FaultPlan::none()
        }
    }

    /// Single-fault plan: telemetry corruption only.
    pub fn telemetry_only() -> Self {
        FaultPlan {
            name: "telemetry_only".to_string(),
            telemetry: TelemetryFaults {
                noise_frac: 0.10,
                drop_prob: 0.05,
                spike_prob: 0.02,
                spike_factor: 4.0,
            },
            ..FaultPlan::none()
        }
    }

    /// Single-fault plan: stuck/lagging knob actuations only.
    pub fn knobs_only() -> Self {
        FaultPlan {
            name: "knobs_only".to_string(),
            knobs: KnobFaults {
                stick_prob: 0.10,
                lag_prob: 0.10,
                lag_steps: 3,
            },
            ..FaultPlan::none()
        }
    }

    /// Single-fault plan: agent crashes/restarts only.
    pub fn crashes_only() -> Self {
        FaultPlan {
            name: "crashes_only".to_string(),
            agent: AgentFaults {
                crash_prob: 0.05,
                restart_after_controls: 3,
            },
            ..FaultPlan::none()
        }
    }

    /// Single-fault plan: one RM emergency power drop only.
    pub fn emergency_only() -> Self {
        FaultPlan {
            name: "emergency_only".to_string(),
            emergency: Some(EmergencyFault {
                at_s: 20.0,
                budget_factor: 0.55,
                duration_s: 30.0,
            }),
            ..FaultPlan::none()
        }
    }

    /// Single-fault plan: failing/slow evaluations only.
    pub fn evals_only() -> Self {
        FaultPlan {
            name: "evals_only".to_string(),
            evals: EvalFaults {
                fail_prob: 0.10,
                timeout_prob: 0.05,
                timeout_s: 120.0,
                nan_prob: 0.05,
                slow_prob: 0.10,
                slow_factor: 3.0,
            },
            ..FaultPlan::none()
        }
    }

    /// The shipped plan catalog: the control arm, every single-fault plan,
    /// and the all-on default-rates plan — the matrix `ext_faults` and the
    /// chaos suite run.
    pub fn catalog() -> Vec<FaultPlan> {
        vec![
            FaultPlan::none(),
            FaultPlan::telemetry_only(),
            FaultPlan::knobs_only(),
            FaultPlan::crashes_only(),
            FaultPlan::emergency_only(),
            FaultPlan::evals_only(),
            FaultPlan::process_kill_only(),
            FaultPlan::default_rates(),
        ]
    }

    /// Whether this plan is a single-fault plan (at most one fault class
    /// active) — the arm the ≥90 %-recovery acceptance bound applies to.
    pub fn is_single_fault(&self) -> bool {
        self.active_classes() <= 1
    }

    /// Number of active fault classes.
    pub fn active_classes(&self) -> usize {
        let t = self.telemetry.noise_frac > 0.0
            || self.telemetry.drop_prob > 0.0
            || self.telemetry.spike_prob > 0.0;
        let k = self.knobs.stick_prob > 0.0 || self.knobs.lag_prob > 0.0;
        let a = self.agent.crash_prob > 0.0;
        let e = self.emergency.is_some();
        let v = self.evals.fail_prob > 0.0
            || self.evals.timeout_prob > 0.0
            || self.evals.nan_prob > 0.0
            || self.evals.slow_prob > 0.0;
        let p = self.process.kill_prob > 0.0;
        [t, k, a, e, v, p].iter().filter(|&&x| x).count()
    }

    /// Static sanity checks: every probability in `[0, 1]`, factors on the
    /// meaningful side of 1, lags and restart windows positive, emergencies
    /// inside `(0, 1]` of budget. Returns one message per violation.
    pub fn check(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut err = |msg: String| out.push(msg);
        if self.name.trim().is_empty() {
            err("fault plan has an empty name".to_string());
        }
        for (what, p) in [
            ("telemetry.noise_frac", self.telemetry.noise_frac),
            ("telemetry.drop_prob", self.telemetry.drop_prob),
            ("telemetry.spike_prob", self.telemetry.spike_prob),
            ("knobs.stick_prob", self.knobs.stick_prob),
            ("knobs.lag_prob", self.knobs.lag_prob),
            ("agent.crash_prob", self.agent.crash_prob),
            ("evals.fail_prob", self.evals.fail_prob),
            ("evals.timeout_prob", self.evals.timeout_prob),
            ("evals.nan_prob", self.evals.nan_prob),
            ("evals.slow_prob", self.evals.slow_prob),
            ("process.kill_prob", self.process.kill_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                err(format!("{what} = {p} must be a probability in [0, 1]"));
            }
        }
        if self.telemetry.spike_factor < 1.0 || !self.telemetry.spike_factor.is_finite() {
            err(format!(
                "telemetry.spike_factor = {} must be ≥ 1 (a spike amplifies)",
                self.telemetry.spike_factor
            ));
        }
        if self.knobs.lag_prob > 0.0 && self.knobs.lag_steps == 0 {
            err("knobs.lag_steps must be ≥ 1 when lag_prob > 0 (a 0-step lag is not a lag)".into());
        }
        if self.agent.crash_prob > 0.0 && self.agent.restart_after_controls == 0 {
            err("agent.restart_after_controls must be ≥ 1 when crashes are enabled".into());
        }
        if let Some(e) = &self.emergency {
            if !(e.budget_factor > 0.0 && e.budget_factor <= 1.0) {
                err(format!(
                    "emergency.budget_factor = {} must be in (0, 1] (a drop, not an outage)",
                    e.budget_factor
                ));
            }
            if e.duration_s <= 0.0 || !e.duration_s.is_finite() {
                err(format!(
                    "emergency.duration_s = {} must be positive",
                    e.duration_s
                ));
            }
            if e.at_s < 0.0 || !e.at_s.is_finite() {
                err(format!("emergency.at_s = {} must be ≥ 0", e.at_s));
            }
        }
        if self.evals.slow_factor < 1.0 || !self.evals.slow_factor.is_finite() {
            err(format!(
                "evals.slow_factor = {} must be ≥ 1 (slow evaluations inflate)",
                self.evals.slow_factor
            ));
        }
        if self.evals.timeout_s <= 0.0 || !self.evals.timeout_s.is_finite() {
            err(format!(
                "evals.timeout_s = {} must be positive",
                self.evals.timeout_s
            ));
        }
        if self.process.kill_prob > 0.0 && self.process.max_kills == 0 {
            err(
                "process.max_kills must be ≥ 1 when kill_prob > 0 (an unbounded kill stream \
                 would exhaust any restart budget)"
                    .into(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_catalog_is_sane_and_uniquely_named() {
        let catalog = FaultPlan::catalog();
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
    }

    /// Worst-case stall per configuration under the resilient loop's retry
    /// policy: every attempt times out, plus the summed backoff.
    fn worst_stall_s(retry: &pstack_autotune::RetryPolicy, plan: &FaultPlan) -> f64 {
        let backoff: f64 = retry.schedule().iter().sum();
        retry.max_attempts as f64 * plan.evals.timeout_s + backoff
    }

    #[test]
    fn default_retry_policy_stalls_under_an_hour_per_config() {
        let retry = pstack_autotune::RetryPolicy::default();
        for plan in FaultPlan::catalog() {
            let stall = worst_stall_s(&retry, &plan);
            assert!(stall <= 3600.0, "plan {} stalls {stall} s", plan.name);
        }
        let mut slow = FaultPlan::evals_only();
        slow.evals.timeout_s = 7200.0;
        assert!(worst_stall_s(&retry, &slow) > 3600.0);
    }

    #[test]
    fn single_fault_classification() {
        assert!(FaultPlan::none().is_single_fault());
        assert!(FaultPlan::telemetry_only().is_single_fault());
        assert!(FaultPlan::knobs_only().is_single_fault());
        assert!(FaultPlan::crashes_only().is_single_fault());
        assert!(FaultPlan::emergency_only().is_single_fault());
        assert!(FaultPlan::evals_only().is_single_fault());
        assert!(FaultPlan::process_kill_only().is_single_fault());
        assert!(!FaultPlan::default_rates().is_single_fault());
        assert_eq!(FaultPlan::default_rates().active_classes(), 5);
    }

    #[test]
    fn broken_plans_are_flagged() {
        let mut p = FaultPlan::none();
        p.telemetry.drop_prob = 1.5;
        assert!(!p.check().is_empty());

        let mut p = FaultPlan::none();
        p.telemetry.spike_prob = 0.1;
        p.telemetry.spike_factor = 0.5;
        assert!(!p.check().is_empty());

        let mut p = FaultPlan::none();
        p.knobs.lag_prob = 0.1;
        p.knobs.lag_steps = 0;
        assert!(!p.check().is_empty());

        let mut p = FaultPlan::none();
        p.emergency = Some(EmergencyFault {
            at_s: 10.0,
            budget_factor: 0.0,
            duration_s: 5.0,
        });
        assert!(!p.check().is_empty());

        let mut p = FaultPlan::none();
        p.name = String::new();
        assert!(!p.check().is_empty());

        let mut p = FaultPlan::none();
        p.process.kill_prob = 0.5;
        p.process.max_kills = 0;
        assert!(!p.check().is_empty());
    }

    #[test]
    fn plans_serialize_round_trip() {
        for plan in FaultPlan::catalog() {
            let json = serde_json::to_string(&plan).unwrap();
            let back: FaultPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
    }
}
