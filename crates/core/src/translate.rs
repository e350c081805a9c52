//! Objective translation down the stack (§3.1.4's worked example).
//!
//! "A target metric of throughput under a system-level power constraint at
//! the resource manager level needs to be translated into power efficiency
//! targets or total runtimes of individual jobs managed by the job-level
//! runtime system subject to a job-level power constraint. This must be
//! translated into improvements in the calculations per simulation step per
//! watt at the application level."
//!
//! [`ObjectiveTranslator`] performs exactly that chain: system budget →
//! per-job budgets (weighted by node counts or measured efficiency) →
//! per-node budgets → frequency bounds, plus the upward metric translation
//! (application progress/s → job efficiency → system throughput).

use crate::interfaces::PowerBudget;
use pstack_hwmodel::{PStateTable, PhaseMix, SpeedModel};
use serde::{Deserialize, Serialize};

/// A job's share request for power subdivision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobShare {
    /// Nodes allocated to the job.
    pub nodes: usize,
    /// Measured power efficiency (work per joule), when known.
    pub efficiency: Option<f64>,
}

/// The top-down translator.
#[derive(Debug, Clone)]
pub struct ObjectiveTranslator {
    pstates: PStateTable,
    speed: SpeedModel,
    /// Fraction of the system budget withheld for idle nodes and slack.
    pub system_reserve_fraction: f64,
}

impl Default for ObjectiveTranslator {
    fn default() -> Self {
        ObjectiveTranslator {
            pstates: PStateTable::server_default(),
            speed: SpeedModel::server_default(),
            system_reserve_fraction: 0.05,
        }
    }
}

impl ObjectiveTranslator {
    /// System budget → per-job budgets.
    ///
    /// With efficiency data, watts flow preferentially to efficient jobs
    /// (maximizing total work rate under the budget); without it, the split
    /// is node-proportional.
    pub fn system_to_jobs(&self, system: PowerBudget, jobs: &[JobShare]) -> Vec<PowerBudget> {
        assert!(!jobs.is_empty(), "no jobs to budget");
        let usable = PowerBudget {
            watts: system.watts * (1.0 - self.system_reserve_fraction),
            window_us: system.window_us,
        };
        let all_measured = jobs.iter().all(|j| j.efficiency.is_some());
        let weights: Vec<f64> = if all_measured {
            jobs.iter()
                .map(|j| j.nodes as f64 * j.efficiency.expect("measured").max(1e-12))
                .collect()
        } else {
            jobs.iter().map(|j| j.nodes as f64).collect()
        };
        usable.split_weighted(&weights)
    }

    /// Job budget → per-node budgets (even split; runtime balancers then
    /// steer within the job).
    pub fn job_to_nodes(&self, job: PowerBudget, n_nodes: usize) -> PowerBudget {
        job.split_even(n_nodes)
    }

    /// Node budget → an advisory frequency ceiling for a phase mix: the
    /// highest P-state whose predicted package power fits the per-package
    /// share of the budget. Uses the same power model as the hardware, so
    /// the RAPL controller and the advisory bound agree to within one rung.
    pub fn node_budget_to_freq(
        &self,
        node_budget_w: f64,
        mix: &PhaseMix,
        cores_per_package: usize,
        packages: usize,
        misc_power_w: f64,
    ) -> f64 {
        let pm = pstack_hwmodel::PowerModel::server_default();
        let per_pkg = (node_budget_w - misc_power_w).max(1.0) / packages as f64;
        let mut best = self.pstates.freq(0);
        for idx in 0..self.pstates.len() {
            let f = self.pstates.freq(idx);
            let speed = self
                .speed
                .speed(mix, f, 2.0, pstack_hwmodel::DutyCycle::FULL);
            let p = pm.core_dynamic_w(
                &self.pstates,
                idx,
                pstack_hwmodel::DutyCycle::FULL,
                cores_per_package,
                mix,
            ) + pm.uncore_w(2.0)
                + pm.leakage_w(60.0)
                + pm.dram_w(mix, speed);
            if p <= per_pkg {
                best = f;
            }
        }
        best
    }

    /// Upward translation: application progress rate and power into the
    /// job-level efficiency metric the RM understands (work per joule).
    pub fn app_to_job_efficiency(progress_per_s: f64, power_w: f64) -> f64 {
        if power_w <= 0.0 {
            0.0
        } else {
            progress_per_s / power_w
        }
    }

    /// Upward translation: per-job completion counts into system throughput.
    pub fn jobs_to_system_throughput(completed: usize, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 {
            0.0
        } else {
            completed as f64 / (horizon_s / 3600.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_hwmodel::PhaseKind;
    use pstack_sim::SimDuration;

    fn budget(w: f64) -> PowerBudget {
        PowerBudget::new(w, SimDuration::from_millis(10))
    }

    #[test]
    fn node_proportional_split_without_efficiency() {
        let t = ObjectiveTranslator::default();
        let jobs = [
            JobShare {
                nodes: 3,
                efficiency: None,
            },
            JobShare {
                nodes: 1,
                efficiency: None,
            },
        ];
        let parts = t.system_to_jobs(budget(1000.0), &jobs);
        let usable = 950.0;
        assert!((parts[0].watts - usable * 0.75).abs() < 1e-9);
        assert!((parts[1].watts - usable * 0.25).abs() < 1e-9);
    }

    #[test]
    fn efficiency_weighted_split() {
        let t = ObjectiveTranslator::default();
        let jobs = [
            JobShare {
                nodes: 1,
                efficiency: Some(2.0),
            },
            JobShare {
                nodes: 1,
                efficiency: Some(1.0),
            },
        ];
        let parts = t.system_to_jobs(budget(1000.0), &jobs);
        assert!(parts[0].watts > parts[1].watts);
        assert!(
            (parts.iter().map(|p| p.watts).sum::<f64>() - 950.0).abs() < 1e-9,
            "conservation"
        );
    }

    #[test]
    fn chain_conserves_power() {
        let t = ObjectiveTranslator::default();
        let jobs = [JobShare {
            nodes: 4,
            efficiency: None,
        }];
        let job_budget = t.system_to_jobs(budget(2000.0), &jobs)[0];
        let node_budget = t.job_to_nodes(job_budget, 4);
        assert!((node_budget.watts * 4.0 - job_budget.watts).abs() < 1e-9);
    }

    /// PSA009: a reserve fraction in `[0, 0.5)`, a system-to-jobs split
    /// that hands out exactly the usable budget (nothing created, nothing
    /// stranded), and advisory frequencies that never fall as the node
    /// budget grows.
    fn translator_problems(t: &ObjectiveTranslator) -> Vec<String> {
        let reserve = t.system_reserve_fraction;
        if !(0.0..0.5).contains(&reserve) {
            return vec![format!("reserve fraction {reserve} outside [0, 0.5)")];
        }
        let mut out = Vec::new();
        let jobs = [3, 1].map(|nodes| JobShare {
            nodes,
            efficiency: None,
        });
        let granted: f64 = t
            .system_to_jobs(budget(10_000.0), &jobs)
            .iter()
            .map(|b| b.watts)
            .sum();
        if (granted - 10_000.0 * (1.0 - reserve)).abs() > 1e-6 {
            out.push(format!("{granted} W granted from a {reserve} reserve"));
        }
        let mix = PhaseMix::pure(PhaseKind::ComputeBound);
        let node = pstack_hwmodel::NodeConfig::server_default();
        let (cores, packages) = (node.package.n_cores, node.n_packages);
        let freqs = [150.0, 200.0, 250.0, 300.0, 400.0, 500.0]
            .map(|w| t.node_budget_to_freq(w, &mix, cores, packages, node.misc_power_w));
        if freqs.windows(2).any(|w| w[1] < w[0]) {
            out.push(format!(
                "advisory frequency falls as the budget grows: {freqs:?}"
            ));
        }
        out
    }

    #[test]
    fn shipped_translator_conserves_watts_and_is_monotone() {
        let mut t = ObjectiveTranslator::default();
        assert_eq!(translator_problems(&t), Vec::<String>::new());
        for absurd in [0.9, -0.1] {
            t.system_reserve_fraction = absurd;
            assert!(translator_problems(&t)[0].contains("reserve"));
        }
    }

    #[test]
    fn freq_bound_monotone_in_budget() {
        let t = ObjectiveTranslator::default();
        let mix = PhaseMix::pure(PhaseKind::ComputeBound);
        let f_lo = t.node_budget_to_freq(250.0, &mix, 24, 2, 60.0);
        let f_hi = t.node_budget_to_freq(450.0, &mix, 24, 2, 60.0);
        assert!(f_hi > f_lo, "{f_lo} vs {f_hi}");
        assert!(f_hi <= 3.5 + 1e-9);
        assert!(f_lo >= 1.0 - 1e-9);
    }

    #[test]
    fn memory_bound_allows_higher_freq_at_same_budget() {
        // Memory-bound phases draw less core power, so the same budget
        // admits a higher clock.
        let t = ObjectiveTranslator::default();
        let f_comp =
            t.node_budget_to_freq(300.0, &PhaseMix::pure(PhaseKind::ComputeBound), 24, 2, 60.0);
        let f_mem =
            t.node_budget_to_freq(300.0, &PhaseMix::pure(PhaseKind::MemoryBound), 24, 2, 60.0);
        assert!(f_mem >= f_comp);
    }

    #[test]
    fn upward_translations() {
        assert_eq!(
            ObjectiveTranslator::app_to_job_efficiency(10.0, 200.0),
            0.05
        );
        assert_eq!(ObjectiveTranslator::app_to_job_efficiency(10.0, 0.0), 0.0);
        assert_eq!(
            ObjectiveTranslator::jobs_to_system_throughput(6, 7200.0),
            3.0
        );
    }
}
