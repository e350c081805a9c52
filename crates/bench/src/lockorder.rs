//! Lock-order / schedule-invariance audit artifact.
//!
//! The `lockorder` artifact: drives all four tuning drivers (`run`,
//! `run_parallel`, `run_resilient`, `run_parallel_resilient`) through the
//! deterministic schedule explorer ([`pstack_sync::explore()`]) on the
//! standard 16-seed × {1, 2, 4, 8}-worker grid, and reports per driver:
//!
//! - whether every adversarial arm reproduced the unperturbed baseline
//!   report byte-for-byte (`divergences == 0`);
//! - the merged lock-order graph: observed sites, acquisition counts,
//!   held-while-acquiring edges, inversions, smells, and any cycle.
//!
//! The rendered artifact lands in `results/lockorder.{json,txt}`; [`gate`]
//! fails it unless every driver is clean. This is the runtime complement
//! to the declared hierarchy in `pstack_sync::sites` and clippy's
//! `disallowed-types` ban on raw primitives: those pin what is declared,
//! the explorer pins what actually happens under contention.

use pstack_autotune::{
    Config, Evaluation, ForestSearch, ParamSpace, RandomSearch, Robustness, Tuner,
};
use pstack_faults::{FaultPlan, FaultyEvaluator};
use pstack_sync::{explore, sites, LockOrderGraph, SeedGrid};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

/// Evaluation budget per arm (small: the grid multiplies it by 64 × 4).
const MAX_EVALS: usize = 16;

/// One driver's exploration outcome, flattened for the artifact.
#[derive(Debug, Serialize, Deserialize)]
pub struct DriverAudit {
    /// Driver name (`run`, `run_parallel`, …).
    pub driver: String,
    /// Arms explored (seeds × worker counts).
    pub arms: usize,
    /// Arms whose serialized report diverged from the baseline.
    pub divergences: usize,
    /// Lock-order inversions observed across the grid.
    pub inversions: usize,
    /// Smells (held-across-wait, long critical sections).
    pub smells: usize,
    /// A cycle through the observed graph, if any.
    pub cycle: Option<String>,
    /// Total instrumented acquisitions recorded.
    pub acquisitions: u64,
    /// Whether the driver passed every check.
    pub clean: bool,
    /// The merged lock-order graph: per-site acquisition counts, edges,
    /// inversions, smells, and whether it is acyclic.
    pub graph: Value,
}

/// The full audit across every driver.
#[derive(Debug, Serialize, Deserialize)]
pub struct LockOrderReport {
    /// Seeds explored per driver.
    pub seeds: usize,
    /// Worker counts crossed with every seed.
    pub workers: Vec<usize>,
    /// Sites the registry declares (the observed graphs must stay within).
    pub declared_sites: Vec<String>,
    /// Per-driver outcomes.
    pub drivers: Vec<DriverAudit>,
    /// Whether every driver was clean and every observed site is declared.
    pub clean: bool,
}

fn space() -> ParamSpace {
    use pstack_autotune::Param;
    ParamSpace::new()
        .with(Param::ints("tile", [8, 16, 32, 64]))
        .with(Param::ints("unroll", [1, 2, 4, 8]))
        .with(Param::boolean("packing"))
        .with_constraint("unroll<=tile", |s, c| {
            s.value(c, "unroll").as_int() <= s.value(c, "tile").as_int()
        })
}

fn objective(space: &ParamSpace, cfg: &Config) -> Evaluation {
    let tile = space.value(cfg, "tile").as_int() as f64;
    let unroll = space.value(cfg, "unroll").as_int() as f64;
    let packing = space.value(cfg, "packing").as_bool();
    let time = (tile - 32.0).abs() / 8.0 + (unroll - 4.0).abs() + if packing { 0.0 } else { 1.5 };
    (1.0 + time, std::collections::HashMap::new())
}

fn audit(name: &str, grid: &SeedGrid, mut run: impl FnMut(usize) -> String) -> DriverAudit {
    let out = explore(grid, &mut run);
    let undeclared = out.graph.nodes.keys().any(|site| !sites::is_declared(site));
    let clean = out.clean() && !undeclared;
    DriverAudit {
        driver: name.to_string(),
        arms: out.arms,
        divergences: out.divergences.len(),
        inversions: out.graph.inversions.len(),
        smells: out.graph.smells.len(),
        cycle: out.graph.cycle().map(|c| c.join(" -> ")),
        acquisitions: out.graph.acquisitions(),
        clean,
        graph: graph_value(&out.graph),
    }
}

/// The lock-order graph as the artifact embeds it: per-site acquisition
/// counts, `held -> acquired` edges with counts, inversion pairs, smells,
/// and whether the edges are acyclic.
fn graph_value(g: &LockOrderGraph) -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let nodes = g
        .nodes
        .iter()
        .map(|(site, n)| (site.to_string(), n.to_value()));
    let edges = g.edges.iter().map(|((held, acquired), n)| {
        Value::Map(vec![
            ("held".into(), text(held)),
            ("acquired".into(), text(acquired)),
            ("count".into(), n.to_value()),
        ])
    });
    let inversions = g
        .inversions
        .iter()
        .map(|i| Value::Seq(vec![text(i.a), text(i.b)]));
    let smells = g.smells.iter().map(|s| {
        Value::Map(vec![
            ("kind".into(), text(s.kind.tag())),
            ("site".into(), text(s.site)),
            ("held".into(), s.held.to_value()),
        ])
    });
    Value::Map(vec![
        ("nodes".into(), Value::Map(nodes.collect())),
        ("edges".into(), Value::Seq(edges.collect())),
        ("inversions".into(), Value::Seq(inversions.collect())),
        ("smells".into(), Value::Seq(smells.collect())),
        ("acyclic".into(), Value::Bool(g.cycle().is_none())),
    ])
}

/// The acceptance gate: every driver reproduced its baseline with an
/// inversion-free, cycle-free, smell-free graph over declared sites only.
pub fn gate(out: &crate::artifacts::Output) -> Vec<String> {
    out.gate(|r: LockOrderReport| {
        if r.clean {
            Vec::new()
        } else {
            vec![
                "schedule explorer found a divergence, inversion, smell, cycle, or \
                  undeclared site"
                    .into(),
            ]
        }
    })
}

/// Run the audit over `grid` (the artifact table passes
/// [`SeedGrid::standard`]).
pub fn run(grid: &SeedGrid) -> LockOrderReport {
    let mut drivers = Vec::new();

    drivers.push(audit("run", grid, |_workers| {
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(11)
            .run(&mut RandomSearch::new(), objective)
            .expect("serial run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    drivers.push(audit("run_parallel", grid, |workers| {
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(11)
            .run_parallel(&mut RandomSearch::new(), workers, objective)
            .expect("parallel run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    let plan = FaultPlan::evals_only();
    drivers.push(audit("run_resilient", grid, |_workers| {
        let evaluator = FaultyEvaluator::new(objective, &plan, 0xC0FFEE);
        let mut primary = ForestSearch::new();
        let mut fallback = RandomSearch::new();
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(7)
            .run_resilient(
                &mut primary,
                Some(&mut fallback),
                &Robustness::default(),
                |s, c, a| evaluator.evaluate(s, c, a),
            )
            .expect("resilient run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    drivers.push(audit("run_parallel_resilient", grid, |workers| {
        let evaluator = FaultyEvaluator::new(objective, &plan, 0xC0FFEE);
        let mut primary = ForestSearch::new();
        let mut fallback = RandomSearch::new();
        let report = Tuner::new(space())
            .max_evals(MAX_EVALS)
            .seed(7)
            .run_parallel_resilient(
                &mut primary,
                Some(&mut fallback),
                &Robustness::default(),
                workers,
                |s, c, a| evaluator.evaluate(s, c, a),
            )
            .expect("parallel resilient run completes");
        serde_json::to_string(&report).expect("reports serialize")
    }));

    let clean = drivers.iter().all(|d| d.clean);
    LockOrderReport {
        seeds: grid.seeds.len(),
        workers: grid.workers.clone(),
        declared_sites: sites::all().iter().map(|s| s.label.to_string()).collect(),
        drivers,
        clean,
    }
}

/// Render the audit as the text table the artifact and stdout carry.
pub fn render(r: &LockOrderReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Lock-order / schedule-invariance audit ({} seeds x {:?} workers)",
        r.seeds, r.workers
    );
    let _ = writeln!(
        out,
        "{:<24} {:>5} {:>10} {:>10} {:>7} {:>12}  cycle",
        "driver", "arms", "diverged", "inverted", "smells", "acquisitions"
    );
    for d in &r.drivers {
        let _ = writeln!(
            out,
            "{:<24} {:>5} {:>10} {:>10} {:>7} {:>12}  {}",
            d.driver,
            d.arms,
            d.divergences,
            d.inversions,
            d.smells,
            d.acquisitions,
            d.cycle.as_deref().unwrap_or("none"),
        );
    }
    let _ = writeln!(
        out,
        "declared sites: {}; verdict: {}",
        r.declared_sites.join(", "),
        if r.clean { "CLEAN" } else { "DIRTY" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_sync::{Inversion, Smell, SmellKind};

    #[test]
    fn graph_value_renders_every_field_in_order() {
        let mut g = LockOrderGraph::default();
        g.nodes.insert("b.site", 1);
        g.nodes.insert("a\"site", 2);
        g.edges.insert(("a\"site", "b.site"), 1);
        g.inversions.push(Inversion {
            a: "a\"site",
            b: "b.site",
        });
        g.smells.push(Smell {
            kind: SmellKind::HeldAcrossWait,
            site: "b.site",
            held: vec!["a\"site"],
        });
        assert_eq!(
            serde_json::to_string(&graph_value(&g)).expect("renders"),
            r#"{"nodes":{"a\"site":2,"b.site":1},"edges":[{"held":"a\"site","acquired":"b.site","count":1}],"inversions":[["a\"site","b.site"]],"smells":[{"kind":"held-across-wait","site":"b.site","held":["a\"site"]}],"acyclic":true}"#
        );
    }

    #[test]
    fn compact_audit_is_clean_and_renders() {
        // The full standard grid runs in the binary / CI stage; unit tests
        // take the compact grid to stay fast in debug builds.
        let r = run(&SeedGrid::compact(2, 4));
        assert!(r.clean, "{}", render(&r));
        assert_eq!(r.drivers.len(), 4);
        assert!(r.drivers.iter().all(|d| d.arms == 4));
        let text = render(&r);
        assert!(text.contains("run_parallel_resilient"));
        assert!(text.contains("CLEAN"));
    }
}
