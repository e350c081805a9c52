//! Table 1: the live knob registry.
//!
//! The paper's Table 1 surveys "parameters and methods used by the layers of
//! the PowerStack". Here every row is a [`Knob`] carrying the layer, the
//! actor that owns it, whether it can change at launch only or during the
//! run, and — because this is a working implementation, not a survey — the
//! workspace item that implements it. Tests assert every row names a real
//! implementation, so the regenerated Table 1 cannot drift from the code.

use serde::{Deserialize, Serialize};

/// PowerStack layer (paper Figure 1/2; Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Site/system: the resource manager's scope.
    System,
    /// Job-level runtime systems.
    JobRuntime,
    /// The application itself.
    Application,
    /// Node hardware management.
    Node,
}

impl Layer {
    /// All layers, top-down.
    pub const ALL: [Layer; 4] = [
        Layer::System,
        Layer::JobRuntime,
        Layer::Application,
        Layer::Node,
    ];
}

/// Who actuates a knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Actor {
    /// The resource manager / scheduler.
    ResourceManager,
    /// A job-level runtime system.
    RuntimeSystem,
    /// The application (or its launch configuration).
    Application,
    /// The node-level manager (or firmware).
    NodeManager,
}

/// When the knob can be changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Temporal {
    /// Only at job launch (static interaction).
    LaunchTime,
    /// During execution (dynamic interaction).
    Runtime,
}

/// One Table 1 row: a tunable parameter and the method that actuates it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Knob {
    /// Layer owning the knob.
    pub layer: Layer,
    /// Parameter name (Table 1 "Parameters" column).
    pub name: &'static str,
    /// Method used to actuate it (Table 1 "Methods" column).
    pub method: &'static str,
    /// The actor in control.
    pub actor: Actor,
    /// Static (launch) or dynamic (runtime) control.
    pub temporal: Temporal,
    /// Workspace item implementing the control (`crate::path` form).
    pub implemented_by: &'static str,
}

/// The complete registry (every Table 1 row this workspace implements).
pub fn knob_registry() -> Vec<Knob> {
    use Actor::Application as AppActor;
    use Actor::{NodeManager, ResourceManager, RuntimeSystem};
    use Layer::Application as AppLayer;
    use Layer::{JobRuntime, Node, System};
    use Temporal::*;
    vec![
        // ---- System layer ----
        Knob {
            layer: System,
            name: "number of nodes to allocate",
            method: "moldable job sizing at launch",
            actor: ResourceManager,
            temporal: LaunchTime,
            implemented_by: "pstack_rm::spec::JobSpec::fit_nodes",
        },
        Knob {
            layer: System,
            name: "job power limit / policy",
            method: "power-aware admission + per-job power assignment",
            actor: ResourceManager,
            temporal: Runtime,
            implemented_by: "pstack_rm::policy::SystemPowerPolicy",
        },
        Knob {
            layer: System,
            name: "which job to run / backfill",
            method: "FCFS + EASY backfill",
            actor: ResourceManager,
            temporal: Runtime,
            implemented_by: "pstack_rm::scheduler::Scheduler",
        },
        Knob {
            layer: System,
            name: "node redistribution among jobs",
            method: "invasive malleability at EPOP phase boundaries",
            actor: ResourceManager,
            temporal: Runtime,
            implemented_by: "pstack_rm::irm::Irm",
        },
        Knob {
            layer: System,
            name: "out-of-band node power controls",
            method: "RM-applied RAPL caps on allocated nodes",
            actor: ResourceManager,
            temporal: Runtime,
            implemented_by: "pstack_node::manager::NodeManager::set_power_limit",
        },
        // ---- Job / runtime layer ----
        Knob {
            layer: JobRuntime,
            name: "per-node power budget within job",
            method: "power balancing toward stragglers",
            actor: RuntimeSystem,
            temporal: Runtime,
            implemented_by: "pstack_runtime::geopm::GeopmPolicy::PowerBalancer",
        },
        Knob {
            layer: JobRuntime,
            name: "DVFS during MPI phases",
            method: "MPI interception, frequency reduction in wait/copy",
            actor: RuntimeSystem,
            temporal: Runtime,
            implemented_by: "pstack_runtime::countdown::Countdown",
        },
        Knob {
            layer: JobRuntime,
            name: "per-region hardware configuration",
            method: "region instrumentation + per-region best config",
            actor: RuntimeSystem,
            temporal: Runtime,
            implemented_by: "pstack_runtime::meric::Meric",
        },
        Knob {
            layer: JobRuntime,
            name: "configuration exploration under power bound",
            method: "online candidate measurement, efficiency selection",
            actor: RuntimeSystem,
            temporal: Runtime,
            implemented_by: "pstack_runtime::conductor::Conductor",
        },
        Knob {
            layer: JobRuntime,
            name: "uncore frequency under low bandwidth",
            method: "bandwidth-driven uncore reclamation (scavenging)",
            actor: RuntimeSystem,
            temporal: Runtime,
            implemented_by: "pstack_runtime::scavenger::UncoreScavenger",
        },
        Knob {
            layer: JobRuntime,
            name: "duty cycle on slack-rich ranks",
            method: "proportional clock modulation into barrier slack",
            actor: RuntimeSystem,
            temporal: Runtime,
            implemented_by: "pstack_runtime::dutycycle::DutyCycleAdapter",
        },
        // ---- Application layer ----
        Knob {
            layer: AppLayer,
            name: "algorithm / sub-algorithm choice",
            method: "solver + preconditioner + smoother selection",
            actor: AppActor,
            temporal: LaunchTime,
            implemented_by: "pstack_apps::hypre::HypreConfig",
        },
        Knob {
            layer: AppLayer,
            name: "domain decomposition size",
            method: "ATP-tuned launch parameter with dependency conditions",
            actor: AppActor,
            temporal: LaunchTime,
            implemented_by: "pstack_apps::feti::FetiConfig",
        },
        Knob {
            layer: AppLayer,
            name: "loop transformation parameters",
            method: "tile/interchange/unroll/pack pragmas (ytopt)",
            actor: AppActor,
            temporal: LaunchTime,
            implemented_by: "pstack_apps::kernelmodel::KernelConfig",
        },
        Knob {
            layer: AppLayer,
            name: "resource redistribution consent",
            method: "EPOP phase hints to the invasive RM",
            actor: AppActor,
            temporal: Runtime,
            implemented_by: "pstack_apps::epop::EpopApp",
        },
        // ---- Node layer ----
        Knob {
            layer: Node,
            name: "node / package power limit",
            method: "RAPL-style windowed average power capping",
            actor: NodeManager,
            temporal: Runtime,
            implemented_by: "pstack_hwmodel::cap::PowerCap",
        },
        Knob {
            layer: Node,
            name: "core frequency (DVFS)",
            method: "P-state ceiling on the V-f ladder",
            actor: NodeManager,
            temporal: Runtime,
            implemented_by: "pstack_hwmodel::package::Package::set_freq_ghz",
        },
        Knob {
            layer: Node,
            name: "uncore frequency",
            method: "uncore ladder index",
            actor: NodeManager,
            temporal: Runtime,
            implemented_by: "pstack_hwmodel::package::Package::set_uncore_idx",
        },
        Knob {
            layer: Node,
            name: "clock modulation",
            method: "duty-cycle levels 1/16..16/16",
            actor: NodeManager,
            temporal: Runtime,
            implemented_by: "pstack_hwmodel::pstate::DutyCycle",
        },
    ]
}

/// Render Table 1 grouped by layer.
pub fn render_table1() -> String {
    let mut out = String::from(
        "TABLE 1. SURVEY OF PARAMETERS AND METHODS USED BY THE LAYERS OF THE POWERSTACK\n",
    );
    for layer in Layer::ALL {
        out.push_str(&format!("\n[{:?}]\n", layer));
        for k in knob_registry().iter().filter(|k| k.layer == layer) {
            out.push_str(&format!(
                "  {:<42} | {:<55} | {:?}, {:?}\n    -> {}\n",
                k.name, k.method, k.actor, k.temporal, k.implemented_by
            ));
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Whether `path` names an item of a workspace crate.
    pub(crate) fn workspace_path(path: &str) -> bool {
        const CRATES: [&str; 10] = [
            "powerstack_core",
            "pstack_rm",
            "pstack_runtime",
            "pstack_apps",
            "pstack_node",
            "pstack_hwmodel",
            "pstack_autotune",
            "pstack_sim",
            "pstack_telemetry",
            "pstack_bench",
        ];
        path.split_once("::")
            .is_some_and(|(krate, _)| CRATES.contains(&krate))
    }

    /// PSA010: unique (layer, name) rows, `implemented_by` paths into a
    /// workspace crate, each knob actuated by its layer's actor, and every
    /// layer and both temporal kinds covered.
    fn registry_problems(knobs: &[Knob]) -> Vec<String> {
        let mut out = Vec::new();
        for (i, k) in knobs.iter().enumerate() {
            if knobs[..i]
                .iter()
                .any(|p| (p.layer, p.name) == (k.layer, k.name))
            {
                out.push(format!("duplicate row {:?}/{}", k.layer, k.name));
            }
            if !workspace_path(k.implemented_by) {
                out.push(format!(
                    "{}: `{}` is no workspace item",
                    k.name, k.implemented_by
                ));
            }
            let actor = match k.layer {
                Layer::System => Actor::ResourceManager,
                Layer::JobRuntime => Actor::RuntimeSystem,
                Layer::Application => Actor::Application,
                Layer::Node => Actor::NodeManager,
            };
            if k.actor != actor {
                out.push(format!(
                    "{}: actor {:?} on the {:?} layer",
                    k.name, k.actor, k.layer
                ));
            }
        }
        for layer in Layer::ALL
            .into_iter()
            .filter(|l| !knobs.iter().any(|k| k.layer == *l))
        {
            out.push(format!("no knob for the {layer:?} layer"));
        }
        for t in [Temporal::LaunchTime, Temporal::Runtime] {
            if !knobs.iter().any(|k| k.temporal == t) {
                out.push(format!("no {t:?} knob"));
            }
        }
        out
    }

    #[test]
    fn shipped_registry_is_well_formed() {
        let knobs = knob_registry();
        assert_eq!(registry_problems(&knobs), Vec::<String>::new());
        for layer in Layer::ALL {
            assert!(
                knobs.iter().filter(|k| k.layer == layer).count() >= 4,
                "{layer:?}"
            );
        }
    }

    #[test]
    fn broken_registries_are_flagged() {
        let mut knobs = knob_registry();
        knobs.push(knobs[0].clone());
        knobs.push(Knob {
            implemented_by: "not_a_crate::Thing",
            ..knobs[0].clone()
        });
        knobs.retain(|k| k.layer != Layer::Application);
        let problems = registry_problems(&knobs);
        assert_eq!(problems.len(), 4, "{problems:?}");
    }

    /// The control resource a knob actuates, when unambiguous (MERIC's
    /// whole-configuration control, for one, maps to none).
    fn control_resource(knob: &Knob) -> Option<&'static str> {
        let (ib, name) = (knob.implemented_by, knob.name);
        if ib.contains("set_power_limit")
            || ib.contains("::cap::")
            || knob.method.contains("power balancing")
        {
            Some("rapl-cap")
        } else if ib.contains("set_freq") || ib.contains("countdown") || name.contains("DVFS") {
            Some("core-freq")
        } else if ib.contains("set_uncore") || ib.contains("scavenger") || name.contains("uncore") {
            Some("uncore-freq")
        } else if ib.contains("dutycycle")
            || ib.contains("DutyCycle")
            || name.contains("clock modulation")
        {
            Some("duty-cycle")
        } else if ib.contains("fit_nodes") || ib.contains("irm") {
            Some("node-assignment")
        } else {
            None
        }
    }

    /// PSA002: the controls more than one (layer, actor) pair writes —
    /// the §3.2 interaction hazard unless an arbiter mediates them.
    fn shared_controls(knobs: &[Knob]) -> Vec<&'static str> {
        let writer = |k: &Knob| (control_resource(k), k.layer, k.actor);
        let mut shared: Vec<&str> = (0..knobs.len())
            .filter_map(|i| {
                let (res, layer, actor) = writer(&knobs[i]);
                let other = knobs[..i]
                    .iter()
                    .map(writer)
                    .any(|w| w.0 == res && w != (res, layer, actor));
                res.filter(|_| other)
            })
            .collect();
        shared.sort_unstable();
        shared.dedup();
        shared
    }

    #[test]
    fn only_arbitrated_controls_have_several_writers() {
        // The in-job Arbiter mediates frequency, uncore and duty-cycle
        // writers; RAPL takes the minimum of concurrent cap requests.
        const ARBITRATED: [&str; 4] = ["core-freq", "duty-cycle", "rapl-cap", "uncore-freq"];
        let mut knobs = knob_registry();
        let mut mapped: Vec<&str> = knobs.iter().filter_map(control_resource).collect();
        mapped.sort_unstable();
        mapped.dedup();
        assert_eq!(
            mapped,
            [
                "core-freq",
                "duty-cycle",
                "node-assignment",
                "rapl-cap",
                "uncore-freq"
            ]
        );
        assert_eq!(shared_controls(&knobs), ARBITRATED);
        // A second, unarbitrated writer of node assignment is the hazard.
        knobs.push(Knob {
            layer: Layer::JobRuntime,
            name: "rogue node picker",
            method: "pick nodes",
            actor: Actor::RuntimeSystem,
            temporal: Temporal::Runtime,
            implemented_by: "pstack_runtime::irm::Picker",
        });
        assert_ne!(shared_controls(&knobs), ARBITRATED);
    }

    #[test]
    fn renders_grouped_by_layer() {
        let s = render_table1();
        assert!(s.contains("[System]"));
        assert!(s.contains("[Node]"));
        assert!(s.contains("RAPL"));
    }
}
