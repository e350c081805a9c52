//! Table 2: existing tools/solutions at each layer, mapped to this
//! workspace's implemented analogs.

use crate::registry::Layer;
use serde::{Deserialize, Serialize};

/// One Table 2 row: a state-of-the-art component and our analog of it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// The PowerStack layer.
    pub layer: Layer,
    /// The component named in the paper's Table 2.
    pub paper_component: &'static str,
    /// The analog implemented in this workspace (`-` when the component is
    /// represented by the same analog as a sibling entry).
    pub analog: &'static str,
    /// What the analog reproduces of the original.
    pub notes: &'static str,
}

/// The component catalog.
pub fn component_catalog() -> Vec<CatalogEntry> {
    use Layer::*;
    vec![
        CatalogEntry {
            layer: System,
            paper_component: "SLURM / FLUX / PBS / Cobalt / LSF / Moab",
            analog: "pstack_rm::scheduler::Scheduler",
            notes: "power-aware FCFS+EASY batch scheduling, moldable jobs, job power budgets",
        },
        CatalogEntry {
            layer: System,
            paper_component: "iRM (Invasive Resource Manager)",
            analog: "pstack_rm::irm::Irm",
            notes: "power-corridor enforcement by node redistribution over malleable jobs",
        },
        CatalogEntry {
            layer: JobRuntime,
            paper_component: "GEOPM",
            analog: "pstack_runtime::geopm::Geopm",
            notes: "tree topology, five plugin policies, RM endpoint channel",
        },
        CatalogEntry {
            layer: JobRuntime,
            paper_component: "Conductor",
            analog: "pstack_runtime::conductor::Conductor",
            notes: "configuration exploration + adaptive power reallocation",
        },
        CatalogEntry {
            layer: JobRuntime,
            paper_component: "COUNTDOWN",
            analog: "pstack_runtime::countdown::Countdown",
            notes: "MPI-phase frequency reduction; profile / wait+copy / wait-only modes",
        },
        CatalogEntry {
            layer: JobRuntime,
            paper_component: "READEX / MERIC / PTF",
            analog: "pstack_runtime::meric::Meric",
            notes: "region-instrumented per-region tuning with the 100-sample reliability rule",
        },
        CatalogEntry {
            layer: JobRuntime,
            paper_component: "Uncore power scavenger",
            analog: "pstack_runtime::scavenger::UncoreScavenger",
            notes: "hysteresis ladder on uncore frequency driven by measured DRAM bandwidth",
        },
        CatalogEntry {
            layer: JobRuntime,
            paper_component: "Duty-cycle runtimes (Bhalachandra et al.)",
            analog: "pstack_runtime::dutycycle::DutyCycleAdapter",
            notes: "clock modulation proportional to persistent barrier slack",
        },
        CatalogEntry {
            layer: Node,
            paper_component: "Variorum / Libmsr / PowerAPI / x86_adapt / Cpufreq",
            analog: "pstack_node::manager::NodeManager",
            notes: "typed signal reads, power limits, frequency/uncore/duty control",
        },
        CatalogEntry {
            layer: Node,
            paper_component: "RAPL (implicit substrate)",
            analog: "pstack_hwmodel::cap",
            notes: "windowed average power capping with P-state clipping",
        },
        CatalogEntry {
            layer: Application,
            paper_component: "ytopt / Y-TUNE / plopper",
            analog: "pstack_autotune::tuner::Tuner",
            notes: "search (random-forest default) -> evaluate -> performance database loop",
        },
        CatalogEntry {
            layer: Application,
            paper_component: "Hypre test driver",
            analog: "pstack_apps::hypre",
            notes: "27-pt Laplacian solver/preconditioner space with cap-dependent optimum",
        },
        CatalogEntry {
            layer: Application,
            paper_component: "ESPRESO FETI",
            analog: "pstack_apps::feti",
            notes: "Figure 5 region graph with heterogeneous region characteristics",
        },
        CatalogEntry {
            layer: Application,
            paper_component: "LULESH / EPOP apps",
            analog: "pstack_apps::lulesh, pstack_apps::epop",
            notes: "cubic task-count constraint; phase-boundary redistribution hints",
        },
    ]
}

/// Render Table 2 grouped by layer.
pub fn render_table2() -> String {
    let mut out =
        String::from("TABLE 2. EXISTING TOOLS/SOLUTIONS AT EACH LAYER -> IMPLEMENTED ANALOGS\n");
    for layer in Layer::ALL {
        let rows: Vec<_> = component_catalog()
            .into_iter()
            .filter(|e| e.layer == layer)
            .collect();
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!("\n[{:?}]\n", layer));
        for e in rows {
            out.push_str(&format!(
                "  {:<48} -> {}\n      {}\n",
                e.paper_component, e.analog, e.notes
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PSA007: named entries whose analogs are items of workspace crates,
    /// with every layer covered.
    fn catalog_problems(entries: &[CatalogEntry]) -> Vec<String> {
        let mut out = Vec::new();
        for e in entries {
            if e.paper_component.is_empty() {
                out.push(format!("unnamed {:?} entry", e.layer));
            }
            let analogs = e.analog.split(',').map(str::trim);
            for a in analogs.filter(|a| !crate::registry::tests::workspace_path(a)) {
                out.push(format!(
                    "{}: analog `{a}` is no workspace item",
                    e.paper_component
                ));
            }
        }
        for layer in Layer::ALL
            .into_iter()
            .filter(|l| !entries.iter().any(|e| e.layer == *l))
        {
            out.push(format!("no catalog entry for the {layer:?} layer"));
        }
        out
    }

    #[test]
    fn shipped_catalog_resolves_and_covers_all_layers() {
        let mut cat = component_catalog();
        assert_eq!(catalog_problems(&cat), Vec::<String>::new());
        cat[0].analog = "pstack_nonexistent::Widget";
        assert!(catalog_problems(&cat)[0].contains("pstack_nonexistent"));
    }

    #[test]
    fn key_tools_are_mapped() {
        let cat = component_catalog();
        for tool in ["SLURM", "GEOPM", "Conductor", "COUNTDOWN", "MERIC", "ytopt"] {
            assert!(
                cat.iter().any(|e| e.paper_component.contains(tool)),
                "missing {tool}"
            );
        }
    }

    #[test]
    fn renders() {
        let s = render_table2();
        assert!(s.contains("GEOPM"));
        assert!(s.contains("[JobRuntime]"));
    }
}
