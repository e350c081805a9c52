//! Site/system power policies.
//!
//! "A site has one or more HPC systems, site policies, and a power budget.
//! Each system is constrained under a derived system-level power budget"
//! (paper §3, Figure 1). The policy decides admission (does a job's
//! projected power fit?) and the per-job power budget the RM hands down to
//! the job-level runtime — the top half of the objective-translation chain.

use serde::{Deserialize, Serialize};

/// How the RM assigns power budgets to jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerAssignment {
    /// No per-job budget; jobs draw what they draw (admission still honours
    /// the system budget using the peak estimate).
    Unconstrained,
    /// Every allocated node is budgeted this many watts.
    PerNodeCap(f64),
    /// The system budget is divided across allocated nodes uniformly at each
    /// admission decision ("fair share" in watts).
    FairShare,
}

/// The system-level power policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemPowerPolicy {
    /// Total system power budget, watts (`None` = unlimited).
    pub system_budget_w: Option<f64>,
    /// Per-job assignment rule.
    pub assignment: PowerAssignment,
    /// Conservative per-node peak power estimate used for admission, watts.
    pub node_peak_estimate_w: f64,
    /// Idle node power estimate (power of nodes not allocated), watts.
    pub node_idle_estimate_w: f64,
}

impl SystemPowerPolicy {
    /// No power management at all (the baseline).
    pub fn unlimited() -> Self {
        SystemPowerPolicy {
            system_budget_w: None,
            assignment: PowerAssignment::Unconstrained,
            node_peak_estimate_w: 450.0,
            node_idle_estimate_w: 130.0,
        }
    }

    /// A system budget with the given assignment rule.
    pub fn budgeted(system_budget_w: f64, assignment: PowerAssignment) -> Self {
        assert!(system_budget_w > 0.0);
        SystemPowerPolicy {
            system_budget_w: Some(system_budget_w),
            assignment,
            node_peak_estimate_w: 450.0,
            node_idle_estimate_w: 130.0,
        }
    }

    /// Power the RM must reserve for a job on `n_nodes`, watts: the assigned
    /// budget when one exists, else the conservative peak estimate.
    pub fn job_reservation_w(&self, n_nodes: usize, current_free_w: f64) -> f64 {
        match self.assignment {
            PowerAssignment::Unconstrained => self.node_peak_estimate_w * n_nodes as f64,
            PowerAssignment::PerNodeCap(w) => w * n_nodes as f64,
            PowerAssignment::FairShare => {
                // Grant the job its node-proportional share of what is free,
                // floored to keep nodes above idle-viable power.
                (current_free_w).max(self.node_idle_estimate_w * n_nodes as f64)
            }
        }
    }

    /// The per-job budget handed to the runtime (None when unconstrained).
    pub fn job_budget_w(&self, n_nodes: usize, reservation_w: f64) -> Option<f64> {
        match self.assignment {
            PowerAssignment::Unconstrained => None,
            PowerAssignment::PerNodeCap(w) => Some(w * n_nodes as f64),
            PowerAssignment::FairShare => Some(reservation_w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// INV-RM: a policy's node estimates are ordered (0 < idle < peak), its
    /// budget is positive and at least one idle node wide, and a per-node
    /// cap is positive and inside the policy's own estimate band.
    fn policy_problems(p: &SystemPowerPolicy) -> Vec<String> {
        let mut out = Vec::new();
        let (idle, peak) = (p.node_idle_estimate_w, p.node_peak_estimate_w);
        if !(idle > 0.0 && idle < peak) {
            out.push(format!(
                "node estimates must satisfy 0 < idle < peak ({idle}, {peak})"
            ));
        }
        if let Some(b) = p.system_budget_w {
            if !(b.is_finite() && b > 0.0) {
                out.push(format!("system budget {b} W must be finite and positive"));
            } else if b < idle {
                out.push(format!(
                    "system budget {b} W is below one idle node ({idle} W)"
                ));
            }
        }
        if let PowerAssignment::PerNodeCap(w) = p.assignment {
            if !(w.is_finite() && w >= idle && w <= peak) {
                out.push(format!(
                    "per-node cap {w} W outside the estimate band [{idle}, {peak}] W"
                ));
            }
        }
        out
    }

    #[test]
    fn shipped_defaults_hold() {
        // INV-RM-001: the baseline policy; INV-RM-002: a representative
        // budgeted one.
        for p in [
            SystemPowerPolicy::unlimited(),
            SystemPowerPolicy::budgeted(10_000.0, PowerAssignment::PerNodeCap(300.0)),
        ] {
            assert_eq!(policy_problems(&p), Vec::<String>::new(), "{p:?}");
        }
    }

    #[test]
    fn broken_policies_are_flagged() {
        let mut p = SystemPowerPolicy::unlimited();
        p.node_idle_estimate_w = 500.0; // above the 450 W peak estimate
        assert!(!policy_problems(&p).is_empty());

        let mut p = SystemPowerPolicy::budgeted(50.0, PowerAssignment::FairShare);
        p.node_idle_estimate_w = 130.0;
        assert!(policy_problems(&p)[0].contains("below one idle node"));

        let p = SystemPowerPolicy::budgeted(10_000.0, PowerAssignment::PerNodeCap(40.0));
        assert!(policy_problems(&p)[0].contains("estimate band"));
    }

    #[test]
    fn unlimited_reserves_peak() {
        let p = SystemPowerPolicy::unlimited();
        assert_eq!(p.job_reservation_w(4, 0.0), 1800.0);
        assert_eq!(p.job_budget_w(4, 1800.0), None);
    }

    #[test]
    fn per_node_cap() {
        let p = SystemPowerPolicy::budgeted(10_000.0, PowerAssignment::PerNodeCap(300.0));
        assert_eq!(p.job_reservation_w(4, 9_000.0), 1200.0);
        assert_eq!(p.job_budget_w(4, 1200.0), Some(1200.0));
    }

    #[test]
    fn fair_share_floors_at_idle() {
        let p = SystemPowerPolicy::budgeted(10_000.0, PowerAssignment::FairShare);
        let r = p.job_reservation_w(4, 100.0);
        assert_eq!(r, 130.0 * 4.0);
    }

    #[test]
    #[should_panic]
    fn zero_budget_panics() {
        SystemPowerPolicy::budgeted(0.0, PowerAssignment::FairShare);
    }
}
