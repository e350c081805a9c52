//! Node-hardware invariants: the physical feasibility envelope.
//!
//! What frequency range is physically plausible and what a node can draw
//! between idle and peak. Fault injection clamps telemetry to the
//! envelope; this module's tests hold the shipped hardware description to
//! it (ladders inside the band, monotone `P(f)`, non-negative leakage).

use crate::node::NodeConfig;
use crate::phase::{PhaseKind, PhaseMix};
use crate::pstate::DutyCycle;

/// Physically plausible core/uncore frequency range, GHz. Anything a ladder
/// offers outside this band is a configuration bug, not a real P-state.
pub const FREQ_ENVELOPE_GHZ: (f64, f64) = (0.4, 6.0);

/// The power envelope of a node: what it draws doing nothing and the most
/// it can draw flat out. Power caps only make sense inside this band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEnvelope {
    /// All-idle node power, watts.
    pub idle_w: f64,
    /// Peak node power (all cores busy, top P-state, hot), watts.
    pub peak_w: f64,
}

/// Compute the power envelope of a node configuration.
pub fn power_envelope(cfg: &NodeConfig) -> PowerEnvelope {
    let pkg = &cfg.package;
    let pm = &pkg.power;
    let compute = PhaseMix::pure(PhaseKind::ComputeBound);
    let peak_pkg = pm.package_w(
        &pkg.pstates,
        pkg.pstates.top_idx(),
        DutyCycle::FULL,
        pkg.n_cores,
        &compute,
        pkg.uncore.max(),
        85.0,
    ) + pm.dram_w(&PhaseMix::pure(PhaseKind::MemoryBound), 1.0);
    let idle_pkg = pm.uncore_w(pkg.uncore.min())
        + pm.leakage_w(pm.t_ref_c)
        + pm.dram_w(&PhaseMix::pure(PhaseKind::ComputeBound), 0.0);
    PowerEnvelope {
        idle_w: cfg.n_packages as f64 * idle_pkg + cfg.misc_power_w,
        peak_w: cfg.n_packages as f64 * peak_pkg + cfg.misc_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;
    use crate::pstate::{FreqLadder, PStateTable};

    fn ladder_problems(ladder: &FreqLadder) -> Vec<String> {
        let (lo, hi) = FREQ_ENVELOPE_GHZ;
        let outside = ladder.freqs().iter().filter(|f| !(lo..=hi).contains(*f));
        outside
            .map(|f| format!("rung {f} GHz outside [{lo}, {hi}] GHz"))
            .collect()
    }

    /// `P(f)` monotone non-decreasing at a fixed phase mix, leakage finite
    /// and non-negative over the operating range, coefficients signed right.
    fn power_model_problems(pm: &PowerModel, ps: &PStateTable) -> Vec<String> {
        let mut out = Vec::new();
        let mix = PhaseMix::pure(PhaseKind::ComputeBound);
        let p = |idx| pm.core_dynamic_w(ps, idx, DutyCycle::FULL, 24, &mix);
        if let Some(idx) = (1..ps.len()).find(|&i| p(i) < p(i - 1) - 1e-9) {
            out.push(format!(
                "P(f) not monotone at rung {idx} ({} GHz)",
                ps.freq(idx)
            ));
        }
        for t_c in [-20.0, 25.0, 50.0, 85.0, 110.0] {
            let leak = pm.leakage_w(t_c);
            if !(leak.is_finite() && leak >= 0.0) {
                out.push(format!("leakage {leak} W at {t_c} °C"));
            }
        }
        if pm.c_dyn <= 0.0 {
            out.push(format!("c_dyn = {} must be positive", pm.c_dyn));
        }
        if pm.uncore_w_per_ghz < 0.0 || pm.dram_idle_w < 0.0 || pm.dram_w_per_intensity < 0.0 {
            out.push("uncore/DRAM power coefficients must be non-negative".to_string());
        }
        out
    }

    /// PSA005 and INV-HW-001..004 over one node description: both ladders
    /// inside the envelope, a plausible V-f range, a sane power model, and
    /// a well-ordered `0 < idle < peak` envelope.
    fn node_problems(cfg: &NodeConfig) -> Vec<String> {
        let pkg = &cfg.package;
        let mut out = ladder_problems(pkg.pstates.ladder());
        out.extend(ladder_problems(&pkg.uncore));
        let (v_lo, v_hi) = (
            pkg.pstates.voltage(0),
            pkg.pstates.voltage(pkg.pstates.top_idx()),
        );
        if !(0.4..=1.6).contains(&v_lo) || !(0.4..=1.6).contains(&v_hi) {
            out.push(format!(
                "V-f endpoints ({v_lo} V, {v_hi} V) outside 0.4–1.6 V"
            ));
        }
        out.extend(power_model_problems(&pkg.power, &pkg.pstates));
        let env = power_envelope(cfg);
        if !(env.idle_w > 0.0 && env.idle_w < env.peak_w) {
            out.push(format!(
                "envelope not ordered: idle {} W, peak {} W",
                env.idle_w, env.peak_w
            ));
        }
        out
    }

    #[test]
    fn shipped_defaults_hold() {
        let cfg = NodeConfig::server_default();
        assert_eq!(cfg.package.pstates, PStateTable::server_default());
        assert_eq!(cfg.package.power, PowerModel::server_default());
        assert_eq!(node_problems(&cfg), Vec::<String>::new());
    }

    #[test]
    fn envelope_is_sane() {
        let env = power_envelope(&NodeConfig::server_default());
        assert!((80.0..200.0).contains(&env.idle_w), "idle {}", env.idle_w);
        assert!((380.0..650.0).contains(&env.peak_w), "peak {}", env.peak_w);
    }

    #[test]
    fn broken_power_models_are_flagged() {
        let mut cfg = NodeConfig::server_default();
        cfg.package.power.c_dyn = -1.0;
        assert!(node_problems(&cfg).iter().any(|m| m.contains("c_dyn")));
        // leakage_w clamps non-negative, so the coefficient checks are the
        // definitive signal for sign mistakes.
        let mut cfg = NodeConfig::server_default();
        cfg.package.power.uncore_w_per_ghz = -2.0;
        assert!(node_problems(&cfg)
            .iter()
            .any(|m| m.contains("uncore/DRAM")));
    }
}
