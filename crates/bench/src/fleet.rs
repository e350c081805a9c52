//! The fleet-scale artifacts: the E10 ladder (`bench_fleet`) and the E11
//! chaos grid (`ext_fleetfaults`).
//!
//! Both take the driver's smoke switch: the E10 ladder shrinks to the
//! `small()` scenario (and skips the throughput floor), every E11 cell to
//! fewer jobs over a shorter horizon.

use crate::artifacts::{Opts, Output};
use powerstack_core::experiments::fleet::{self, FleetResult, FleetScenario};
use powerstack_core::experiments::fleetfaults::{
    self, ChaosResult, ChaosScenario, SupervisedCheck,
};
use powerstack_core::framework::TuningLevel;
use pstack_faults::FleetFaultPlan;
use pstack_trace::TraceCollector;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Minimum simulated jobs-per-hour delivered per wall second, per arm.
///
/// The 1-core reference container measures ~0.8 on every arm of the
/// 4k/50k ladder (~6 min wall per arm); the floor sits ~5× below that so
/// slower CI hosts pass while an order-of-magnitude collapse (e.g. losing
/// the event-driven leap over idle stretches) still trips it.
pub const FLEET_THROUGHPUT_FLOOR: f64 = 0.15;

/// Time `f` under `label`: its result and the wall seconds it took.
fn wall<T>(label: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = crate::timed(label, f);
    (out, start.elapsed().as_secs_f64().max(1e-9))
}

/// One tuning level of the E10 ladder.
#[derive(Debug, Serialize, Deserialize)]
struct FleetArm {
    /// Wall-clock seconds this arm took to simulate.
    wall_s: f64,
    /// Simulated hours advanced per wall second.
    sim_hours_per_wall_s: f64,
    /// Simulated jobs-per-hour delivered per wall second (the gate metric).
    jobs_h_sim_per_wall_s: f64,
    /// The simulated outcome (deterministic; perfgate compares it exactly).
    result: FleetResult,
}

/// The `bench_fleet` artifact.
#[derive(Debug, Serialize, Deserialize)]
struct FleetBench {
    nodes: usize,
    submitted: usize,
    smoke: bool,
    floor_jobs_h_per_wall_s: f64,
    arms: Vec<FleetArm>,
}

/// Extension E10: run [`FleetScenario::full`] (16 enclaves × 256 nodes,
/// 50 000 bursty Poisson arrivals, rolling demand-response cuts) once per
/// [`TuningLevel`].
pub fn run_ladder(tc: &TraceCollector, opts: Opts) -> Output {
    let base = if opts.smoke {
        FleetScenario::small(TuningLevel::None, Some(0.55))
    } else {
        FleetScenario::full(TuningLevel::None)
    };
    let arms: Vec<FleetArm> = TuningLevel::ALL
        .iter()
        .map(|&tuning| {
            let mut span = tc.span("fleet_arm");
            span.attr("tuning", format!("{tuning:?}"));
            let sc = FleetScenario {
                tuning,
                ..base.clone()
            };
            let (result, wall_s) = wall(&format!("fleet {tuning:?}"), || sc.run());
            FleetArm {
                wall_s,
                sim_hours_per_wall_s: (result.makespan_s / 3600.0) / wall_s,
                jobs_h_sim_per_wall_s: result.jobs_per_hour / wall_s,
                result,
            }
        })
        .collect();
    let bench = FleetBench {
        nodes: arms[0].result.nodes,
        submitted: arms[0].result.submitted,
        smoke: opts.smoke,
        floor_jobs_h_per_wall_s: FLEET_THROUGHPUT_FLOOR,
        arms,
    };

    let results: Vec<FleetResult> = bench.arms.iter().map(|a| a.result.clone()).collect();
    let mut rendered = fleet::render(&results);
    rendered.push_str("\ntuning      | wall_s  | sim_h/wall_s | jobs_h_sim/wall_s\n");
    for a in &bench.arms {
        rendered.push_str(&format!(
            "{:<11} | {:>7.1} | {:>12.1} | {:>17.1}\n",
            format!("{:?}", a.result.tuning),
            a.wall_s,
            a.sim_hours_per_wall_s,
            a.jobs_h_sim_per_wall_s,
        ));
    }
    Output::new(rendered, &bench)
}

/// The E10 contracts:
///
/// 1. **Fig 1 ordering at fleet scale** — end-to-end tuning beats no
///    tuning on work per kilojoule without losing completions.
/// 2. **Fig 3 dynamic-policy win** — the dynamic end-to-end policy beats
///    the static node-only policy (efficiency or throughput).
/// 3. **Simulator throughput floor** (full scale only) — each arm's
///    `jobs_h_sim_per_wall_s` clears [`FLEET_THROUGHPUT_FLOOR`]; the event
///    engine regressing to per-tick-like cost trips this.
pub fn ladder_gate(out: &Output) -> Vec<String> {
    out.gate(|bench: FleetBench| {
        let find = |t: TuningLevel| bench.arms.iter().find(|a| a.result.tuning == t);
        let (Some(none), Some(node_only), Some(e2e)) = (
            find(TuningLevel::None),
            find(TuningLevel::NodeOnly),
            find(TuningLevel::EndToEnd),
        ) else {
            return vec!["a None, NodeOnly or EndToEnd arm is missing".into()];
        };
        let (none, node_only, e2e) = (&none.result, &node_only.result, &e2e.result);
        let mut v = Vec::new();
        if e2e.completed < none.completed {
            v.push(format!(
                "end-to-end lost completions: {} vs {}",
                e2e.completed, none.completed
            ));
        }
        if e2e.work_per_kj <= none.work_per_kj {
            v.push(format!(
                "Fig 1 ordering failed at fleet scale: end-to-end {:.3} work/kJ vs no-tuning {:.3}",
                e2e.work_per_kj, none.work_per_kj
            ));
        }
        if e2e.work_per_kj <= node_only.work_per_kj && e2e.jobs_per_hour <= node_only.jobs_per_hour
        {
            v.push(format!(
                "Fig 3 dynamic win failed: end-to-end ({:.3} work/kJ, {:.1} jobs/h) vs \
                 node-only ({:.3}, {:.1})",
                e2e.work_per_kj, e2e.jobs_per_hour, node_only.work_per_kj, node_only.jobs_per_hour
            ));
        }
        if !bench.smoke {
            for a in &bench.arms {
                if a.jobs_h_sim_per_wall_s < FLEET_THROUGHPUT_FLOOR {
                    v.push(format!(
                        "{:?}: {:.2} simulated jobs/h per wall-second is below the {:.2} floor \
                         (wall {:.1}s)",
                        a.result.tuning, a.jobs_h_sim_per_wall_s, FLEET_THROUGHPUT_FLOOR, a.wall_s
                    ));
                }
            }
        }
        v
    })
}

/// One cell of the E11 grid.
#[derive(Debug, Serialize, Deserialize)]
struct ChaosArm {
    /// Wall-clock seconds for the cell's full SLO battery.
    wall_s: f64,
    /// Simulated hours advanced per wall second (perfgate MinRatio).
    sim_hours_per_wall_s: f64,
    /// The cell verdicts (deterministic; perfgate compares counters
    /// exactly).
    result: ChaosResult,
}

/// The `ext_fleetfaults` artifact.
#[derive(Debug, Serialize, Deserialize)]
struct ChaosGrid {
    smoke: bool,
    injected_regression: bool,
    arms: Vec<ChaosArm>,
    supervised: SupervisedCheck,
    all_slo_ok: bool,
}

fn chaos_cell(tuning: TuningLevel, plan: FleetFaultPlan, smoke: bool) -> ChaosScenario {
    let mut sc = ChaosScenario::small(tuning, plan);
    if smoke {
        sc.fleet.n_jobs = 10;
        sc.fleet.horizon_hours = 6;
        if sc.plan.nodes.mtbf_hours > 0.0 {
            sc.plan.nodes.mtbf_hours = 2.0;
            sc.plan.nodes.mttr_minutes = 10.0;
        }
        for o in &mut sc.plan.outages {
            o.at_s = 3600.0;
            o.duration_s = 900.0;
        }
    }
    sc
}

/// Extension E11: the shipped chaos grid ({none, node MTBF, mixed} fault
/// plans × {NodeOnly, EndToEnd} tuning) over the E10 small fleet, plus the
/// checkpointed-supervisor equivalence check (a kill-riddled
/// [`FleetSupervisor`](pstack_faults::FleetSupervisor) run must land on
/// the byte-identical fleet fingerprint of an unkilled run).
pub fn run_chaos(tc: &TraceCollector, opts: Opts) -> Output {
    let plans = [
        FleetFaultPlan::none(),
        FleetFaultPlan::node_mtbf_only(),
        FleetFaultPlan::mixed(),
    ];
    let tunings = [TuningLevel::NodeOnly, TuningLevel::EndToEnd];
    let mut arms = Vec::new();
    for plan in &plans {
        for &tuning in &tunings {
            let mut span = tc.span("chaos_cell");
            span.attr("plan", plan.name.clone());
            span.attr("tuning", format!("{tuning:?}"));
            let sc = chaos_cell(tuning, plan.clone(), opts.smoke);
            let (result, wall_s) = wall(&format!("E11 {} {tuning:?}", plan.name), || sc.run());
            arms.push(ChaosArm {
                wall_s,
                sim_hours_per_wall_s: sc.fleet.horizon_hours as f64 / wall_s,
                result,
            });
        }
    }
    // Supervisor equivalence on the node-MTBF cell: rolling kills with
    // restart-from-checkpoint must not change a byte of the outcome.
    let sup_cell = chaos_cell(
        TuningLevel::NodeOnly,
        FleetFaultPlan::node_mtbf_only(),
        opts.smoke,
    );
    let supervised = crate::timed("E11 supervised", || {
        fleetfaults::supervised_recovery_check(&sup_cell, 0.3)
    });
    if opts.inject_regression {
        // Break one verdict on purpose so CI can watch the gate trip.
        arms[0].result.conservation_ok = false;
    }
    let grid = ChaosGrid {
        smoke: opts.smoke,
        injected_regression: opts.inject_regression,
        all_slo_ok: arms.iter().all(|a| a.result.slo_ok()) && supervised.identical,
        arms,
        supervised,
    };

    let results: Vec<ChaosResult> = grid.arms.iter().map(|a| a.result.clone()).collect();
    let mut rendered = fleetfaults::render(&results);
    rendered.push_str(&format!(
        "\nsupervised: clean {} vs killed {} ({} restarts) -> {}\n",
        grid.supervised.clean_fingerprint,
        grid.supervised.killed_fingerprint,
        grid.supervised.restarts,
        if grid.supervised.identical {
            "identical"
        } else {
            "DIVERGED"
        },
    ));
    rendered.push_str("\nplan           | tuning    | wall_s  | sim_h/wall_s\n");
    for a in &grid.arms {
        rendered.push_str(&format!(
            "{:<14} | {:<9} | {:>7.1} | {:>12.1}\n",
            a.result.plan,
            format!("{:?}", a.result.tuning),
            a.wall_s,
            a.sim_hours_per_wall_s,
        ));
    }
    Output::new(rendered, &grid)
}

/// The E11 recovery SLOs: conservation
/// (`submitted == completed + failed + rejected`), ≥95% completion of
/// non-failed jobs, no sustained power overshoot, byte-identical replay at
/// 1/2/4/8 drain workers, every MTBF-failed node back up at drain end, and
/// the supervised kill/restart run identical to the clean one.
pub fn chaos_gate(out: &Output) -> Vec<String> {
    out.gate(|grid: ChaosGrid| {
        let mut v: Vec<String> = grid
            .arms
            .iter()
            .flat_map(|a| {
                let cell = format!("[{} {:?}]", a.result.plan, a.result.tuning);
                a.result
                    .violations()
                    .into_iter()
                    .map(move |v| format!("{cell} {v}"))
            })
            .collect();
        if !grid.supervised.identical {
            v.push(format!(
                "supervised kill/restart run diverged: clean {} vs killed {}",
                grid.supervised.clean_fingerprint, grid.supervised.killed_fingerprint
            ));
        }
        v
    })
}
