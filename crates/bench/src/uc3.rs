//! Use case 3.2.3's cross-layer extension: the ytopt loop over
//! application + system knobs *under an imposed power cap*.
//!
//! "Under a system power cap, the framework can be used to find the best
//! combination of different parameters for the optimal solution (the
//! smallest runtime, the lowest power, or the lowest energy)."
//!
//! Part A sweeps the imposed node power cap and tunes runtime at each level:
//! the best transformation **changes with the cap** (echoing §3.2.1's moving
//! optimum at the loop-transformation layer). Part B fixes a tight cap and
//! sweeps the objective: each objective lands on a different configuration.

use crate::artifacts::Output;
use powerstack_core::cotune::KernelCoTune;
use powerstack_core::Objective;
use pstack_autotune::ForestSearch;
use serde::Serialize;

const SEED: u64 = 20200909;

#[derive(Serialize)]
struct Row {
    label: String,
    best_cost: f64,
    config: String,
    time_s: f64,
    energy_j: f64,
    power_w: f64,
}

fn tune_at(caps: Vec<f64>, objective: Objective, label: &str) -> Result<Row, String> {
    let mut cotune = KernelCoTune::new(objective);
    cotune.node_caps_w = caps;
    let space = cotune.space();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = cotune
        .tune_parallel(&mut ForestSearch::new(), 60, SEED, workers)
        .map_err(|e| format!("{label}: {e}"))?;
    let best = report
        .db
        .best()
        .ok_or_else(|| format!("{label}: no evaluations"))?;
    let aux = |k: &str| best.aux.get(k).copied().unwrap_or(f64::NAN);
    Ok(Row {
        label: label.to_string(),
        best_cost: report.best_objective,
        config: space.describe(&report.best_config),
        time_s: aux("time_s"),
        energy_j: aux("energy_j"),
        power_w: aux("power_w"),
    })
}

/// Tune the six scenarios and render the table.
pub fn run() -> Result<Output, String> {
    let all_caps = || vec![0.0, 300.0, 240.0];
    let rows = vec![
        // Part A: min-time at three imposed cap levels.
        tune_at(vec![0.0], Objective::MinTime, "uncapped/min-time")?,
        tune_at(vec![300.0], Objective::MinTime, "cap300W/min-time")?,
        tune_at(vec![240.0], Objective::MinTime, "cap240W/min-time")?,
        // Part B: the cap itself becomes a knob; the paper's three objectives
        // ("smallest runtime, lowest power, lowest energy") pick different caps.
        tune_at(all_caps(), Objective::MinTime, "free-cap/min-time")?,
        tune_at(all_caps(), Objective::MinEnergy, "free-cap/min-energy")?,
        tune_at(all_caps(), Objective::MinPower, "free-cap/min-power")?,
    ];
    let mut out = String::from(
        "USE CASE 3.2.3 / CROSS-LAYER YTOPT UNDER IMPOSED POWER CAPS (60 evals each)\n\
         scenario            | time_s | energy_kJ | power_W | configuration\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<19} | {:>6.1} | {:>9.2} | {:>7.0} | {}\n",
            r.label,
            r.time_s,
            r.energy_j / 1e3,
            r.power_w,
            r.config,
        ));
    }
    Ok(Output::new(out, &rows))
}
