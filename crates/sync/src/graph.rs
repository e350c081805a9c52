//! The global lock-order graph.
//!
//! While chaos mode is armed ([`crate::chaos::arm`]), every instrumented
//! acquisition records here: node counts per site, a directed edge for
//! every `held → acquired` pair, lock-order *inversions* (an edge observed
//! in both directions — the classic ABBA deadlock precondition), and
//! concurrency *smells* (a lock held across a [`Condvar`] wait, a critical
//! section held past the long-hold threshold).
//!
//! [`snapshot`] produces an owned, deterministic [`LockOrderGraph`] (all
//! maps are `BTreeMap`s, so rendering order never depends on interleaving).
//! Its fields are public; callers that export it (the `lockorder` artifact)
//! render it themselves, so this crate stays free of dependencies.
//!
//! [`Condvar`]: std::sync::Condvar

use std::collections::BTreeMap;
use std::sync::Mutex;

/// A lock-order inversion: both `a → b` and `b → a` were observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Inversion {
    /// Lexicographically smaller site of the pair.
    pub a: &'static str,
    /// Lexicographically larger site of the pair.
    pub b: &'static str,
}

/// What kind of concurrency smell was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmellKind {
    /// A thread entered `Condvar::wait` while holding a lock other than the
    /// condvar's own mutex — a lost-wakeup / deadlock hazard.
    HeldAcrossWait,
    /// A critical section outlived [`LONG_HOLD_NS`] — a contention smell
    /// (the trace ring and pool slots are meant to be held for nanoseconds).
    LongCriticalSection,
}

impl SmellKind {
    /// The kebab-case name the exported graph uses for this kind.
    pub fn tag(self) -> &'static str {
        match self {
            SmellKind::HeldAcrossWait => "held-across-wait",
            SmellKind::LongCriticalSection => "long-critical-section",
        }
    }
}

/// One observed smell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Smell {
    /// What was smelled.
    pub kind: SmellKind,
    /// The site the smell is about.
    pub site: &'static str,
    /// Sites held at the moment of observation (excluding `site`).
    pub held: Vec<&'static str>,
}

/// Critical sections held longer than this (while armed) are recorded as
/// [`SmellKind::LongCriticalSection`]. Generous: chaos yields inflate hold
/// times on purpose, so the threshold must sit well above the injected
/// backoff but far below "a simulation tick ran inside the lock".
pub const LONG_HOLD_NS: u64 = 50_000_000;

/// Bound on recorded smells — the graph must stay small even if a pathology
/// fires on every acquisition.
const MAX_SMELLS: usize = 256;

#[derive(Default)]
struct State {
    nodes: BTreeMap<&'static str, u64>,
    edges: BTreeMap<(&'static str, &'static str), u64>,
    inversions: Vec<Inversion>,
    smells: Vec<Smell>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

fn with_state<T>(f: impl FnOnce(&mut State) -> T) -> T {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(State::default))
}

/// Record one acquisition of `site` while `held` (possibly empty) are held
/// by the same thread, adding `held → site` edges and flagging inversions.
pub(crate) fn record_acquisition(site: &'static str, held: &[&'static str]) {
    with_state(|s| {
        *s.nodes.entry(site).or_insert(0) += 1;
        for &outer in held {
            if outer == site {
                continue; // re-entrant same-site pairs are not an order
            }
            *s.edges.entry((outer, site)).or_insert(0) += 1;
            if s.edges.contains_key(&(site, outer)) {
                let inv = Inversion {
                    a: outer.min(site),
                    b: outer.max(site),
                };
                if !s.inversions.contains(&inv) {
                    s.inversions.push(inv);
                }
            }
        }
    });
}

/// Record a smell (bounded; excess observations are dropped silently — the
/// first [`MAX_SMELLS`] are plenty to fail a gate on).
pub(crate) fn record_smell(kind: SmellKind, site: &'static str, held: Vec<&'static str>) {
    with_state(|s| {
        if s.smells.len() < MAX_SMELLS {
            let smell = Smell { kind, site, held };
            if !s.smells.contains(&smell) {
                s.smells.push(smell);
            }
        }
    });
}

/// Clear every observation (the explorer calls this before a grid).
pub fn reset() {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

/// An owned, deterministic copy of the current observations.
pub fn snapshot() -> LockOrderGraph {
    with_state(|s| {
        let mut inversions = s.inversions.clone();
        inversions.sort();
        let mut smells = s.smells.clone();
        smells.sort();
        LockOrderGraph {
            nodes: s.nodes.clone(),
            edges: s.edges.clone(),
            inversions,
            smells,
        }
    })
}

/// The observed lock-order graph: which sites were acquired, in what
/// nesting order, and what went wrong.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockOrderGraph {
    /// Acquisition count per site.
    pub nodes: BTreeMap<&'static str, u64>,
    /// `(held, acquired)` → observation count.
    pub edges: BTreeMap<(&'static str, &'static str), u64>,
    /// Site pairs observed in both orders (sorted, deduplicated).
    pub inversions: Vec<Inversion>,
    /// Observed smells (sorted, deduplicated, bounded).
    pub smells: Vec<Smell>,
}

impl LockOrderGraph {
    /// A directed cycle in the observed edges, if any, as the site path
    /// `[a, b, …, a]`. Inversions are always cycles of length 2; longer
    /// chains (A→B, B→C, C→A) are caught here too.
    pub fn cycle(&self) -> Option<Vec<&'static str>> {
        // Iterative DFS with white/grey/black coloring over the edge set.
        let mut color: BTreeMap<&'static str, u8> = BTreeMap::new();
        let nodes: Vec<&'static str> = self
            .edges
            .keys()
            .flat_map(|(a, b)| [*a, *b])
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for &start in &nodes {
            if color.get(start).copied().unwrap_or(0) != 0 {
                continue;
            }
            let mut path: Vec<&'static str> = vec![start];
            // Each stack frame carries the successors not yet explored.
            let mut stack: Vec<Vec<&'static str>> = vec![self.successors(start)];
            color.insert(start, 1);
            while let Some(succ) = stack.last_mut() {
                match succ.pop() {
                    Some(next) => match color.get(next).copied().unwrap_or(0) {
                        1 => {
                            // Grey: found a back edge — close the cycle.
                            let from = path
                                .iter()
                                .position(|&n| n == next)
                                .unwrap_or(path.len() - 1);
                            let mut cycle: Vec<&'static str> = path[from..].to_vec();
                            cycle.push(next);
                            return Some(cycle);
                        }
                        2 => {}
                        _ => {
                            color.insert(next, 1);
                            path.push(next);
                            stack.push(self.successors(next));
                        }
                    },
                    None => {
                        stack.pop();
                        if let Some(done) = path.pop() {
                            color.insert(done, 2);
                        }
                    }
                }
            }
        }
        None
    }

    fn successors(&self, node: &'static str) -> Vec<&'static str> {
        self.edges
            .keys()
            .filter(|(a, _)| *a == node)
            .map(|(_, b)| *b)
            .collect()
    }

    /// Total acquisitions observed across all sites.
    pub fn acquisitions(&self) -> u64 {
        self.nodes.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(&'static str, &'static str)]) -> LockOrderGraph {
        let mut g = LockOrderGraph::default();
        for &(a, b) in edges {
            *g.edges.entry((a, b)).or_insert(0) += 1;
            *g.nodes.entry(a).or_insert(0) += 1;
            *g.nodes.entry(b).or_insert(0) += 1;
        }
        g
    }

    #[test]
    fn dag_has_no_cycle() {
        let g = graph(&[("a", "b"), ("b", "c"), ("a", "c")]);
        assert_eq!(g.cycle(), None);
    }

    #[test]
    fn two_cycle_is_found() {
        let g = graph(&[("a", "b"), ("b", "a")]);
        let cycle = g.cycle().expect("ABBA is a cycle");
        assert!(cycle.len() >= 3, "path closes on itself: {cycle:?}");
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn three_cycle_is_found_without_any_inversion() {
        let g = graph(&[("a", "b"), ("b", "c"), ("c", "a")]);
        assert!(g.cycle().is_some(), "A→B→C→A must be caught");
        assert!(g.inversions.is_empty());
    }

    #[test]
    fn recording_detects_inversions() {
        // Arm to serialize against every other test that touches the
        // global graph (arming is process-exclusive).
        let _g = crate::chaos::arm(0);
        reset();
        record_acquisition("x", &[]);
        record_acquisition("y", &["x"]);
        record_acquisition("x", &["y"]);
        let g = snapshot();
        assert_eq!(g.inversions, vec![Inversion { a: "x", b: "y" }]);
        assert!(g.cycle().is_some());
        reset();
        assert_eq!(snapshot(), LockOrderGraph::default());
    }
}
