//! The artifact table: one entry per regenerated `results/` artifact.
//!
//! An entry names its `results/<name>.{txt,json}` stem, runs the
//! experiment to a rendered text plus a JSON value, and may gate the
//! result; the comment above it in [`table`] names the paper artifact it
//! reproduces. The `artifacts` binary is the only
//! driver: [`produce`] runs an entry inside [`traced`] (so every artifact
//! ships a `trace_<name>.json`), writes it with [`emit`], then applies the
//! gate. Adding an artifact means adding one entry here, plus its
//! [`diff`](crate::diff) rules if the perfgate should watch it.

use crate::{
    emit, evalthroughput, fleet, lockorder, new_runtimes, parallel_tuner, timed, traced, uc3,
};
use powerstack_core::catalog::render_table2;
use powerstack_core::experiments::{
    ablations, emergency, faults, fig1, fig2, fig3, fig4, fig5, fig6, history, resume, thermal,
    uc1, uc6, uc7,
};
use powerstack_core::registry::render_table1;
use powerstack_core::vocab::render_table3;
use powerstack_core::{component_catalog, knob_registry, vocabulary};
use pstack_sync::SeedGrid;
use pstack_trace::TraceCollector;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// What one entry produced: the rendered table/series and its JSON dump.
#[derive(Debug, Clone)]
pub struct Output {
    /// Printed and written to `results/<name>.txt`.
    pub text: String,
    /// Written to `results/<name>.json`.
    pub json: Value,
}

impl Output {
    /// Pair `text` with the JSON dump of `data`.
    pub fn new<T: Serialize>(text: String, data: &T) -> Self {
        Output {
            text,
            json: data.to_value(),
        }
    }

    /// Decode the JSON dump back into its typed result, so a gate checks
    /// exactly what was written, and run `check` over it; a decode failure
    /// is itself the one violation.
    pub fn gate<T: Deserialize>(&self, check: impl FnOnce(T) -> Vec<String>) -> Vec<String> {
        T::from_value(&self.json)
            .map_or_else(|e| vec![format!("artifact does not decode: {e}")], check)
    }
}

/// Run-wide switches, read from the environment once by the driver; each
/// is on when its variable is set at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// `POWERSTACK_SMOKE`: shrink the fleet-scale entries (E10, E11) to
    /// plumbing-check size.
    pub smoke: bool,
    /// `POWERSTACK_FLEETFAULTS_INJECT_REGRESSION`: break one E11 verdict on
    /// purpose, so CI can watch the recovery-SLO gate trip.
    pub inject_regression: bool,
}

impl Opts {
    /// Read both switches.
    pub fn from_env() -> Self {
        let set = |key| std::env::var(key).is_ok();
        Opts {
            smoke: set("POWERSTACK_SMOKE"),
            inject_regression: set("POWERSTACK_FLEETFAULTS_INJECT_REGRESSION"),
        }
    }
}

/// Runs one experiment under the entry's root trace span.
pub type Runner = Box<dyn Fn(&Arc<TraceCollector>, Opts) -> Result<Output, String>>;
/// A pure acceptance check over a produced artifact; returns violations.
pub type Gate = fn(&Output) -> Vec<String>;

/// One regenerated artifact.
pub struct Entry {
    /// `results/` file stem and root trace span name.
    pub name: &'static str,
    /// Produces the artifact.
    pub run: Runner,
    /// Optional acceptance gate.
    pub gate: Option<Gate>,
}

impl Entry {
    fn new(
        name: &'static str,
        run: impl Fn(&Arc<TraceCollector>, Opts) -> Result<Output, String> + 'static,
    ) -> Self {
        Entry {
            name,
            run: Box::new(run),
            gate: None,
        }
    }

    /// An experiment that renders what its `run` returns.
    fn plain<T: Serialize + 'static>(
        name: &'static str,
        run: fn() -> T,
        render: fn(&T) -> String,
    ) -> Self {
        Self::new(name, move |_, _| Ok(rendered(run(), render)))
    }

    /// [`Entry::plain`] for an experiment that can fail.
    fn fallible<T: Serialize + 'static, E: std::fmt::Display + 'static>(
        name: &'static str,
        run: fn() -> Result<T, E>,
        render: fn(&T) -> String,
    ) -> Self {
        Self::new(name, move |_, _| {
            Ok(rendered(run().map_err(|e| e.to_string())?, render))
        })
    }

    fn gated(self, gate: Gate) -> Self {
        Entry {
            gate: Some(gate),
            ..self
        }
    }
}

fn rendered<T: Serialize>(r: T, render: fn(&T) -> String) -> Output {
    Output::new(render(&r), &r)
}

/// The §4 ablation triple, dumped as one JSON object.
#[derive(Serialize)]
struct Ablations {
    a1: Vec<ablations::MalleabilityRow>,
    a2: Vec<ablations::VariantRow>,
    a3: Vec<ablations::OverprovisionRow>,
}

fn run_ablations() -> Ablations {
    Ablations {
        a1: ablations::malleability(&[2, 5, 10, 20, 40], 16, 600.0, 20200910),
        a2: ablations::static_variants(&[0.0, 320.0, 260.0, 220.0], 20200911),
        a3: ablations::overprovisioning(&[4, 6, 8, 10, 12, 16], 4.0 * 450.0, 8, 80.0, 20200912),
    }
}

/// E9 gate: the history-warmed campaign reaches the within-2%-of-best band
/// in strictly fewer fresh evaluations than the cold one on every arm.
fn history_gate(out: &Output) -> Vec<String> {
    out.gate(|r: history::HistoryResult| {
        r.rows
            .iter()
            .filter(|row| !row.warmed_fewer)
            .map(|row| {
                format!(
                    "{}: history-warmed campaign needed {:?} fresh evals to the band \
                     vs cold {:?} — no warm-start gain",
                    row.arm, row.warmed_evals_to_target, row.cold_evals_to_target
                )
            })
            .collect()
    })
}

/// Every artifact, in regeneration order. The comment above each entry
/// names the paper artifact or extension it reproduces.
pub fn table() -> Vec<Entry> {
    vec![
        // Table 1 — the per-layer knob registry.
        Entry::plain("table1_registry", knob_registry, |_| render_table1()),
        // Table 2 — surveyed tools mapped to implemented analogs.
        Entry::plain("table2_components", component_catalog, |_| render_table2()),
        // Table 3 — the PowerStack vocabulary.
        Entry::plain("table3_vocabulary", vocabulary, |_| render_table3()),
        // Figure 1 — end-to-end opportunity analysis (tuning levels × budgets).
        Entry::new("fig1_end_to_end", |tc, _| {
            Ok(rendered(fig1::run_default_traced(tc), fig1::render))
        }),
        // Figure 2 — job-aware vs job-agnostic RM-runtime power assignment.
        Entry::plain("fig2_interactions", fig2::run_default, fig2::render),
        // Figure 3 — multijob GEOPM policy assignment across budgets.
        Entry::plain("fig3_geopm_policy", fig3::run_default, fig3::render),
        // Figure 4 — the ytopt autotuning loop, algorithm comparison.
        Entry::new("fig4_ytopt_loop", |tc, _| {
            Ok(rendered(
                fig4::run_default_parallel_traced(tc),
                fig4::render,
            ))
        }),
        // Figure 5 — FETI region graph under per-region tuning.
        Entry::plain("fig5_feti_regions", fig5::run_default, fig5::render),
        // Figure 6 — power-corridor enforcement strategies.
        Entry::plain("fig6_power_corridor", fig6::run_default, fig6::render),
        // Use case 3.2.1 — SLURM+Conductor+Hypre co-tuning.
        Entry::plain("uc1_hypre_cotune", uc1::run_default, uc1::render),
        // Use case 3.2.3 — cross-layer ytopt under imposed power caps.
        Entry::new("uc3_cross_layer_ytopt", |_, _| uc3::run()),
        // Use case 3.2.6 — RM-selected COUNTDOWN aggressiveness.
        Entry::plain("uc6_countdown", uc6::run_default, uc6::render),
        // Use case 3.2.7 — COUNTDOWN+MERIC coexistence.
        Entry::plain("uc7_two_runtimes", uc7::run_default, uc7::render),
        // Section 4 ablations — malleability, static variants, overprovisioning.
        Entry::plain("ablations", run_ablations, |r| {
            ablations::render(&r.a1, &r.a2, &r.a3)
        }),
        // Extension E1 — demand-response budget drops.
        Entry::plain("ext_emergency", emergency::run_default, emergency::render),
        // Extension E2 — thermal-aware node selection.
        Entry::plain("ext_thermal", thermal::run_default, thermal::render),
        // Extension E3 — scavenger, duty-cycle and COUNTDOWN on disjoint knobs.
        Entry::new("ext_new_runtimes", |_, _| Ok(new_runtimes::run())),
        // Extension E5 — parallel batch evaluation, serial vs 8 workers.
        Entry::new("bench_parallel_tuner", |tc, _| parallel_tuner::run(tc))
            .gated(parallel_tuner::gate),
        // Extension E6 — auto-tuning recovery under injected faults.
        Entry::fallible("ext_faults", faults::run_default, faults::render),
        // Extension E7 — crash-safe sessions: kill/resume equivalence grid.
        Entry::fallible("ext_resume", resume::run_default, resume::render),
        // Extension E8 — batched SoA evaluation throughput vs the scalar oracle.
        Entry::plain(
            "bench_evalthroughput",
            evalthroughput::run,
            evalthroughput::render,
        )
        .gated(evalthroughput::gate),
        // Extension E9 — shared performance history: cold vs warmed campaigns.
        Entry::fallible("ext_history", history::run_default, history::render).gated(history_gate),
        // Extension E10 — fleet-scale event-driven simulation, 4k nodes / 50k jobs.
        Entry::new("bench_fleet", |tc, opts| Ok(fleet::run_ladder(tc, opts)))
            .gated(fleet::ladder_gate),
        // Extension E11 — fleet chaos: recovery SLOs under injected RM faults.
        Entry::new("ext_fleetfaults", |tc, opts| Ok(fleet::run_chaos(tc, opts)))
            .gated(fleet::chaos_gate),
        // Concurrency audit — schedule invariance and lock order of every driver.
        Entry::plain(
            "lockorder",
            || lockorder::run(&SeedGrid::standard()),
            lockorder::render,
        )
        .gated(lockorder::gate),
    ]
}

/// Resolve `names` against `table` in the order given; an empty list
/// selects every entry. `Err` carries every unknown name.
pub fn select<'a>(table: &'a [Entry], names: &[String]) -> Result<Vec<&'a Entry>, Vec<String>> {
    if names.is_empty() {
        return Ok(table.iter().collect());
    }
    let unknown: Vec<String> = names
        .iter()
        .filter(|n| !table.iter().any(|e| e.name == n.as_str()))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    Ok(names
        .iter()
        .filter_map(|n| table.iter().find(|e| e.name == n.as_str()))
        .collect())
}

/// Produce one entry: run it under a root trace span named after it (the
/// trace lands in `results/trace_<name>.json`), write
/// `results/<name>.{txt,json}`, then gate it. Returns the violations, each
/// prefixed with the entry name; a failed run is one violation and writes
/// no text or JSON.
pub fn produce(entry: &Entry, opts: Opts) -> Vec<String> {
    let out = timed(entry.name, || {
        traced(entry.name, |tc| (entry.run)(tc, opts))
    });
    let violations = match out {
        Err(e) => vec![format!("{e}; no artifact written")],
        Ok(out) => {
            emit(entry.name, &out);
            entry.gate.map_or_else(Vec::new, |gate| gate(&out))
        }
    };
    violations
        .into_iter()
        .map(|v| format!("{}: {v}", entry.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff;
    use std::path::PathBuf;

    fn committed(name: &str) -> Output {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path).expect("committed artifact");
        Output {
            text: String::new(),
            json: serde_json::from_str(&text).expect("committed artifact parses"),
        }
    }

    /// Overwrite the value at dotted `path` (map keys and sequence
    /// indices) inside `v`.
    fn set(v: &mut Value, path: &str, new: Value) {
        let mut cur = v;
        for seg in path.split('.') {
            cur = match cur {
                Value::Map(entries) => {
                    &mut entries
                        .iter_mut()
                        .find(|(k, _)| k == seg)
                        .unwrap_or_else(|| panic!("no key {seg} in {path}"))
                        .1
                }
                Value::Seq(items) => &mut items[seg.parse::<usize>().expect("index")],
                other => panic!("cannot descend into {} at {seg}", other.kind()),
            };
        }
        *cur = new;
    }

    fn gate_of(name: &str) -> Gate {
        table()
            .into_iter()
            .find(|e| e.name == name)
            .and_then(|e| e.gate)
            .unwrap_or_else(|| panic!("{name} has no gate"))
    }

    /// The committed artifact passes its gate, and the broken copy trips
    /// it with a violation mentioning `needle`.
    fn assert_trips(name: &str, breaks: &[(&str, Value)], needle: &str) {
        let gate = gate_of(name);
        let good = committed(name);
        assert_eq!(gate(&good), Vec::<String>::new(), "{name}: committed copy");
        let mut bad = good;
        for (path, value) in breaks {
            set(&mut bad.json, path, value.clone());
        }
        let violations = gate(&bad);
        assert!(
            violations.iter().any(|v| v.contains(needle)),
            "{name}: {breaks:?} not caught: {violations:?}"
        );
    }

    #[test]
    fn names_are_unique() {
        let t = table();
        let mut names: Vec<&str> = t.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), t.len(), "duplicate table entry");
    }

    /// PSA008: the paper artifacts the DESIGN.md §3 index promises — all
    /// six figures and the three use cases — that `names` lacks.
    fn missing_paper_artifacts<'a>(names: &[&'a str]) -> Vec<&'a str> {
        let required = [
            "fig1_end_to_end",
            "fig2_interactions",
            "fig3_geopm_policy",
            "fig4_ytopt_loop",
            "fig5_feti_regions",
            "fig6_power_corridor",
            "uc1_hypre_cotune",
            "uc6_countdown",
            "uc7_two_runtimes",
        ];
        required
            .into_iter()
            .filter(|r| !names.contains(r))
            .collect()
    }

    #[test]
    fn table_covers_every_paper_figure_and_use_case() {
        let mut names: Vec<&str> = table().iter().map(|e| e.name).collect();
        assert_eq!(missing_paper_artifacts(&names), Vec::<&str>::new());
        names.retain(|n| *n != "fig3_geopm_policy");
        assert_eq!(missing_paper_artifacts(&names), ["fig3_geopm_policy"]);
    }

    #[test]
    fn every_diff_rule_names_a_table_entry() {
        let t = table();
        for rule in diff::shipped_rules() {
            assert!(
                t.iter().any(|e| e.name == rule.artifact),
                "diff rule {}:{} names no table entry; it would only ever be skipped",
                rule.artifact,
                rule.path
            );
        }
    }

    #[test]
    fn select_resolves_names_and_reports_unknown_ones() {
        let t = table();
        assert_eq!(select(&t, &[]).unwrap().len(), t.len());
        let picked = select(&t, &["lockorder".into(), "fig2_interactions".into()]).unwrap();
        let names: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(names, ["lockorder", "fig2_interactions"]);
        let err = select(&t, &["fig2_interactions".into(), "nope".into()])
            .err()
            .expect("unknown name rejected");
        assert_eq!(err, ["nope"]);
    }

    #[test]
    fn evalthroughput_gate_trips_on_divergence_and_slow_lanes() {
        assert_trips(
            "bench_evalthroughput",
            &[("uc3_hypre.bit_identical", Value::Bool(false))],
            "uc3_hypre: exact arena lane diverged",
        );
        assert_trips(
            "bench_evalthroughput",
            &[("fig4_kernel.coarse_max_rel_err", Value::Float(0.05))],
            "coarse lane drifted",
        );
        let slow = Value::Float(crate::evalthroughput::FIG4_TARGET_SPEEDUP - 0.5);
        assert_trips(
            "bench_evalthroughput",
            &[
                ("fig4_kernel.speedup_exact", slow.clone()),
                ("fig4_kernel.speedup_coarse", slow),
            ],
            "below the",
        );
    }

    #[test]
    fn lockorder_gate_trips_when_not_clean() {
        assert_trips("lockorder", &[("clean", Value::Bool(false))], "divergence");
    }

    #[test]
    fn history_gate_trips_without_warm_start_gain() {
        assert_trips(
            "ext_history",
            &[("rows.1.warmed_fewer", Value::Bool(false))],
            "no warm-start gain",
        );
    }

    #[test]
    fn chaos_gate_trips_on_broken_conservation() {
        assert_trips(
            "ext_fleetfaults",
            &[("arms.0.result.conservation_ok", Value::Bool(false))],
            "conservation",
        );
        assert_trips(
            "ext_fleetfaults",
            &[("supervised.identical", Value::Bool(false))],
            "supervised",
        );
    }

    #[test]
    fn parallel_tuner_gate_trips_when_results_differ() {
        assert_trips(
            "bench_parallel_tuner",
            &[("compute_only.results_identical", Value::Bool(false))],
            "diverged",
        );
    }

    #[test]
    fn fleet_gate_trips_below_its_floor() {
        assert_trips(
            "bench_fleet",
            &[("arms.2.jobs_h_sim_per_wall_s", Value::Float(0.01))],
            "below the",
        );
    }
}
