//! Uncore-Power-Scavenger-like runtime.
//!
//! Listed in the paper's Table 2 among job-level runtime systems ("Uncore
//! power scavenger"). The original (Gholkar et al., SC'19) observes that the
//! uncore (mesh + LLC + memory controllers) is clocked for worst-case
//! bandwidth even when an application phase barely touches DRAM, and
//! reclaims that power by stepping uncore frequency down whenever measured
//! memory bandwidth is low — stepping back up as soon as bandwidth demand
//! returns, so memory-bound phases are unharmed.
//!
//! This agent reproduces that control loop per node: a windowed DRAM
//! bandwidth estimate from the [`Signal::DramBytes`] counter drives a
//! two-threshold (hysteresis) ladder controller on the uncore index.

use crate::agent::{ArbitratedNodes, JobTelemetry, KnobKind, RuntimeAgent};
use pstack_node::Signal;
use pstack_sim::{SimDuration, SimTime};

/// The scavenger's thresholds, in bytes/second of per-node DRAM traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScavengerConfig {
    /// Below this bandwidth the uncore steps down.
    pub low_bw: f64,
    /// Above this bandwidth the uncore steps up (hysteresis band between).
    pub high_bw: f64,
    /// Lowest uncore index the scavenger will go to.
    pub min_idx: usize,
    /// Highest uncore index (the hardware default).
    pub max_idx: usize,
}

impl Default for ScavengerConfig {
    fn default() -> Self {
        // Node model: the DramBytes counter sums both packages, so a busy
        // dual-socket node moves ~2 GB/s of model traffic per work-unit when
        // memory-bound and ~0.4 GB/s when compute-bound. Thresholds sit
        // between the two.
        // The floor is conservative (≈1.6 GHz): the real scavenger guards
        // performance by never parking the uncore entirely.
        ScavengerConfig {
            low_bw: 0.55e9,
            high_bw: 1.20e9,
            min_idx: 2,
            max_idx: 8,
        }
    }
}

/// The uncore power scavenger agent.
#[derive(Debug)]
pub struct UncoreScavenger {
    cfg: ScavengerConfig,
    /// Last-seen cumulative DRAM bytes per node.
    last_bytes: Vec<f64>,
    last_time: Option<SimTime>,
    /// Current uncore index per node.
    uncore_idx: Vec<usize>,
    /// Downward steps taken (for reports).
    downscales: usize,
    /// Upward steps taken.
    upscales: usize,
}

impl UncoreScavenger {
    /// Create with default thresholds.
    pub fn new() -> Self {
        Self::with_config(ScavengerConfig::default())
    }

    /// Create with explicit thresholds.
    pub fn with_config(cfg: ScavengerConfig) -> Self {
        assert!(cfg.low_bw < cfg.high_bw, "thresholds must be ordered");
        assert!(cfg.min_idx <= cfg.max_idx);
        UncoreScavenger {
            cfg,
            last_bytes: Vec::new(),
            last_time: None,
            uncore_idx: Vec::new(),
            downscales: 0,
            upscales: 0,
        }
    }

    /// Downward uncore steps taken so far.
    pub fn downscales(&self) -> usize {
        self.downscales
    }

    /// Upward uncore steps taken so far.
    pub fn upscales(&self) -> usize {
        self.upscales
    }
}

impl Default for UncoreScavenger {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeAgent for UncoreScavenger {
    fn name(&self) -> &str {
        "uncore-scavenger"
    }

    fn knobs(&self) -> Vec<KnobKind> {
        vec![KnobKind::Uncore]
    }

    fn control_period(&self) -> SimDuration {
        SimDuration::from_millis(200)
    }

    fn on_job_start(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        let n = ctl.n_nodes();
        self.last_bytes = (0..n).map(|i| ctl.read(i, Signal::DramBytes)).collect();
        self.uncore_idx = vec![self.cfg.max_idx; n];
        self.last_time = None;
    }

    fn on_control(
        &mut self,
        now: SimTime,
        _telemetry: &JobTelemetry,
        ctl: &mut ArbitratedNodes<'_>,
    ) {
        let Some(last) = self.last_time else {
            self.last_time = Some(now);
            return;
        };
        let dt = now.since(last).as_secs_f64();
        self.last_time = Some(now);
        if dt <= 0.0 {
            return;
        }
        for i in 0..ctl.n_nodes() {
            let bytes = ctl.read(i, Signal::DramBytes);
            let bw = (bytes - self.last_bytes[i]).max(0.0) / dt;
            self.last_bytes[i] = bytes;
            let idx = &mut self.uncore_idx[i];
            if bw < self.cfg.low_bw && *idx > self.cfg.min_idx {
                *idx -= 1;
                if ctl.set_uncore_idx(i, *idx) {
                    self.downscales += 1;
                }
            } else if bw > self.cfg.high_bw && *idx < self.cfg.max_idx {
                // Bandwidth demand is back: restore promptly (two rungs).
                *idx = (*idx + 2).min(self.cfg.max_idx);
                if ctl.set_uncore_idx(i, *idx) {
                    self.upscales += 1;
                }
            }
        }
    }

    fn on_job_end(&mut self, ctl: &mut ArbitratedNodes<'_>) {
        for i in 0..ctl.n_nodes() {
            ctl.set_uncore_idx(i, self.cfg.max_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterMode;
    use crate::exec::{JobResult, JobRunner};
    use pstack_apps::synthetic::{Profile, SyntheticApp};
    use pstack_apps::workload::AppModel;
    use pstack_apps::MpiModel;
    use pstack_hwmodel::{Node, NodeConfig, NodeId};
    use pstack_node::NodeManager;
    use pstack_sim::SeedTree;

    /// INV-RT-001: ordered, finite, positive hysteresis thresholds and an
    /// ordered uncore index window.
    fn config_problems(cfg: &ScavengerConfig) -> Vec<String> {
        let mut out = Vec::new();
        if !(cfg.low_bw.is_finite() && cfg.high_bw.is_finite() && cfg.low_bw > 0.0) {
            out.push(format!("thresholds must be finite and positive: {cfg:?}"));
        }
        if cfg.low_bw >= cfg.high_bw {
            out.push(format!("hysteresis band inverted: {cfg:?}"));
        }
        if cfg.min_idx > cfg.max_idx {
            out.push(format!("uncore window inverted: {cfg:?}"));
        }
        out
    }

    #[test]
    fn shipped_config_holds_and_inverted_one_is_flagged() {
        assert_eq!(
            config_problems(&ScavengerConfig::default()),
            Vec::<String>::new()
        );
        let inverted = ScavengerConfig {
            low_bw: 2.0e9,
            high_bw: 1.0e9,
            min_idx: 5,
            max_idx: 2,
        };
        assert_eq!(config_problems(&inverted).len(), 2);
    }

    fn run(profile: Profile, with_scavenger: bool) -> (JobResult, usize) {
        let app = SyntheticApp::new(profile, 30.0, 15);
        let mut nodes = vec![NodeManager::new(Node::nominal(
            NodeId(0),
            NodeConfig::server_default(),
        ))];
        let seeds = SeedTree::new(5);
        let mut runner = JobRunner::new(
            &app.workload(1),
            1,
            &MpiModel::balanced_light(),
            &seeds,
            ArbiterMode::Gated,
        );
        let mut scav = UncoreScavenger::new();
        let r = if with_scavenger {
            let mut agents: Vec<&mut dyn RuntimeAgent> = vec![&mut scav];
            runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents)
        } else {
            runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut [])
        };
        (r, scav.downscales())
    }

    #[test]
    fn scavenges_on_compute_bound_work() {
        let (base, _) = run(Profile::ComputeHeavy, false);
        let (scav, downs) = run(Profile::ComputeHeavy, true);
        assert!(downs > 0, "low bandwidth must trigger downscaling");
        assert!(
            scav.energy_j < base.energy_j * 0.99,
            "uncore power reclaimed: {} vs {}",
            scav.energy_j,
            base.energy_j
        );
        let slowdown = scav.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!(slowdown < 1.03, "compute work barely cares: {slowdown}");
    }

    #[test]
    fn leaves_memory_bound_work_alone() {
        let (base, _) = run(Profile::MemoryHeavy, false);
        let (scav, _) = run(Profile::MemoryHeavy, true);
        let slowdown = scav.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!(
            slowdown < 1.06,
            "high bandwidth keeps the uncore up: {slowdown}"
        );
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn inverted_thresholds_panic() {
        UncoreScavenger::with_config(ScavengerConfig {
            low_bw: 2.0,
            high_bw: 1.0,
            min_idx: 2,
            max_idx: 8,
        });
    }
}
