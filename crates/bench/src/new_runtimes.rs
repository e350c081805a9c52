//! Extension E3: the additional Table 2 runtimes — uncore power scavenger
//! and adaptive duty-cycle modulation — alone and composed with COUNTDOWN
//! (three disjoint knobs under gated arbitration).

use crate::artifacts::Output;
use pstack_apps::synthetic::{Profile, SyntheticApp};
use pstack_apps::workload::AppModel;
use pstack_apps::MpiModel;
use pstack_hwmodel::{NodeConfig, VariationModel};
use pstack_node::NodeManager;
use pstack_runtime::{
    ArbiterMode, Countdown, CountdownMode, DutyCycleAdapter, JobRunner, RuntimeAgent,
    UncoreScavenger,
};
use pstack_sim::{SeedTree, SimTime};
use serde::Serialize;

const SEED: u64 = 20200915;

#[derive(Serialize)]
struct Row {
    variant: String,
    time_s: f64,
    energy_kj: f64,
    saving_pct: f64,
    slowdown_pct: f64,
}

fn simulate(variant: &str) -> (f64, f64) {
    let app = SyntheticApp::new(Profile::ComputeHeavy, 60.0, 30);
    let n = 4;
    let seeds = SeedTree::new(SEED);
    let mut nodes = NodeManager::fleet(
        n,
        NodeConfig::server_default(),
        &VariationModel::typical(),
        &seeds,
    );
    let mut runner = JobRunner::new(
        &app.workload(n),
        n,
        &MpiModel::typical(),
        &seeds.subtree("job"),
        ArbiterMode::Gated,
    );
    let mut scav = UncoreScavenger::new();
    let mut duty = DutyCycleAdapter::new();
    let mut cd = Countdown::new(CountdownMode::WaitAndCopy);
    let mut agents: Vec<&mut dyn RuntimeAgent> = match variant {
        "none" => vec![],
        "scavenger" => vec![&mut scav],
        "duty-cycle" => vec![&mut duty],
        "countdown" => vec![&mut cd],
        "all-three" => vec![&mut cd, &mut scav, &mut duty],
        _ => unreachable!(),
    };
    let r = runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut agents);
    (r.makespan.as_secs_f64(), r.energy_j)
}

/// Run every variant against the agent-free baseline and render the table.
pub fn run() -> Output {
    let (t0, e0) = simulate("none");
    let rows: Vec<Row> = ["none", "scavenger", "duty-cycle", "countdown", "all-three"]
        .into_iter()
        .map(|v| {
            let (t, e) = if v == "none" { (t0, e0) } else { simulate(v) };
            Row {
                variant: v.to_string(),
                time_s: t,
                energy_kj: e / 1e3,
                saving_pct: 100.0 * (e0 - e) / e0,
                slowdown_pct: 100.0 * (t - t0) / t0,
            }
        })
        .collect();
    let mut out = String::from(
        "EXTENSION E3 / COMPOSED RUNTIMES: scavenger + duty-cycle + COUNTDOWN on disjoint knobs\n\
         variant     | time_s | energy_kJ | saving_pct | slowdown_pct\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<11} | {:>6.1} | {:>9.2} | {:>+10.1} | {:>+12.2}\n",
            r.variant, r.time_s, r.energy_kj, r.saving_pct, r.slowdown_pct
        ));
    }
    Output::new(out, &rows)
}
