//! Tiled-loop kernel cost model for the ytopt use case (§3.2.3, Figure 4).
//!
//! ytopt tunes Clang loop-transformation pragmas (tile, interchange, pack,
//! unroll-and-jam) plus system parameters (#threads) on PolyBench-style
//! kernels. This model plays the part of "compile and run the candidate"
//! (the paper's `plopper`): it maps a transformation configuration to a
//! runtime with the qualitative structure real blocking exhibits — a bowl
//! around the cache-fitting tile volume, stride-sensitive interchange,
//! register-pressure-limited unrolling, Amdahl-limited threading — so search
//! algorithms face a realistic, rugged, multi-dimensional landscape.

use crate::workload::{AppModel, NodeCountRule, Phase, Workload};
use pstack_hwmodel::PhaseMix;
use serde::{Deserialize, Serialize};

/// Loop-order permutations for a 3-deep nest (i, j, k).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interchange {
    /// i-j-k: unit stride on B only.
    Ijk,
    /// i-k-j: unit stride on B and C — the known-good matmul order.
    Ikj,
    /// j-i-k.
    Jik,
    /// j-k-i: worst — strided on everything.
    Jki,
    /// k-i-j.
    Kij,
    /// k-j-i.
    Kji,
}

impl Interchange {
    /// All permutations.
    pub const ALL: [Interchange; 6] = [
        Interchange::Ijk,
        Interchange::Ikj,
        Interchange::Jik,
        Interchange::Jki,
        Interchange::Kij,
        Interchange::Kji,
    ];

    /// Stride penalty multiplier on runtime (1.0 = best order).
    fn stride_penalty(self) -> f64 {
        match self {
            Interchange::Ikj => 1.00,
            Interchange::Ijk => 1.18,
            Interchange::Kij => 1.24,
            Interchange::Jik => 1.35,
            Interchange::Kji => 1.55,
            Interchange::Jki => 1.80,
        }
    }
}

/// One point in the transformation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Tile size in i (elements).
    pub tile_i: usize,
    /// Tile size in j.
    pub tile_j: usize,
    /// Tile size in k.
    pub tile_k: usize,
    /// Loop order.
    pub interchange: Interchange,
    /// Unroll-and-jam factor for the innermost loop.
    pub unroll: usize,
    /// Whether operand packing (copy into contiguous buffers) is applied.
    pub packing: bool,
    /// OpenMP thread count (system environment parameter).
    pub threads: usize,
}

impl KernelConfig {
    /// Legal tile sizes.
    pub const TILES: [usize; 6] = [4, 8, 16, 32, 64, 128];
    /// Legal unroll factors.
    pub const UNROLLS: [usize; 4] = [1, 2, 4, 8];

    /// The untransformed baseline (what `-O2` alone would give).
    pub fn baseline(threads: usize) -> Self {
        KernelConfig {
            tile_i: 4,
            tile_j: 4,
            tile_k: 4,
            interchange: Interchange::Ijk,
            unroll: 1,
            packing: false,
            threads,
        }
    }

    /// Dependency condition (ATP-style): unrolling cannot exceed the k-tile,
    /// and all values must come from the legal sets.
    pub fn is_valid(&self, max_threads: usize) -> bool {
        Self::TILES.contains(&self.tile_i)
            && Self::TILES.contains(&self.tile_j)
            && Self::TILES.contains(&self.tile_k)
            && Self::UNROLLS.contains(&self.unroll)
            && self.unroll <= self.tile_k
            && self.threads >= 1
            && self.threads <= max_threads
    }

    /// Enumerate the full valid space for `max_threads` (thousands of points).
    pub fn space(max_threads: usize) -> Vec<KernelConfig> {
        let mut out = Vec::new();
        let threads: Vec<usize> = (0..)
            .map(|i| 1usize << i)
            .take_while(|&t| t <= max_threads)
            .collect();
        for &tile_i in &Self::TILES {
            for &tile_j in &Self::TILES {
                for &tile_k in &Self::TILES {
                    for &interchange in &Interchange::ALL {
                        for &unroll in &Self::UNROLLS {
                            if unroll > tile_k {
                                continue;
                            }
                            for &packing in &[false, true] {
                                for &t in &threads {
                                    out.push(KernelConfig {
                                        tile_i,
                                        tile_j,
                                        tile_k,
                                        interchange,
                                        unroll,
                                        packing,
                                        threads: t,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The kernel being tuned (a matmul-shaped triple loop nest).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelModel {
    /// Baseline single-thread runtime at the reference configuration, seconds.
    pub base_time_s: f64,
    /// Fraction of the kernel that parallelizes.
    pub parallel_fraction: f64,
    /// Cache capacity in elements the tile working set should fit (≈ L2/8B).
    pub cache_elems: f64,
    /// Hardware thread count available.
    pub max_threads: usize,
}

impl KernelModel {
    /// A PolyBench-large-shaped instance on one 24-core socket.
    pub fn polybench_large() -> Self {
        KernelModel {
            base_time_s: 120.0,
            parallel_fraction: 0.97,
            cache_elems: 24_000.0, // ~192 KB of doubles (L2-resident tiles)
            max_threads: 24,
        }
    }

    /// Tile working set in elements: the three tile faces of a matmul.
    fn working_set(cfg: &KernelConfig) -> f64 {
        (cfg.tile_i * cfg.tile_j + cfg.tile_j * cfg.tile_k + cfg.tile_i * cfg.tile_k) as f64
    }

    /// Cache-behaviour multiplier: a log-space bowl around the ideal working
    /// set (half the cache, leaving room for streaming operands).
    fn cache_penalty(&self, cfg: &KernelConfig) -> f64 {
        let ws = Self::working_set(cfg);
        let ideal = self.cache_elems * 0.5;
        let x = (ws / ideal).ln();
        if x > 0.0 {
            // Capacity misses: quadratic in log overshoot, harsh.
            1.0 + 0.55 * x * x
        } else {
            // Undersized tiles: loop/branch overhead, milder.
            1.0 + 0.08 * x * x
        }
    }

    /// Unroll multiplier: helps up to 4, register pressure hurts at 8.
    fn unroll_factor(cfg: &KernelConfig) -> f64 {
        match cfg.unroll {
            1 => 1.00,
            2 => 0.93,
            4 => 0.89,
            8 => 0.97, // spills eat the gain
            _ => unreachable!("validated unroll"),
        }
    }

    /// Packing multiplier: pays off for large tiles, overhead for small ones.
    fn packing_factor(cfg: &KernelConfig) -> f64 {
        if !cfg.packing {
            return 1.0;
        }
        if Self::working_set(cfg) >= 8_192.0 {
            0.90
        } else {
            1.06
        }
    }

    /// Threading: Amdahl plus a per-thread synchronization overhead.
    fn thread_factor(&self, cfg: &KernelConfig) -> f64 {
        let t = cfg.threads as f64;
        let serial = 1.0 - self.parallel_fraction;
        (serial + self.parallel_fraction / t) * (1.0 + 0.015 * (t - 1.0))
    }

    /// Predicted runtime (seconds at the reference hardware configuration).
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn time(&self, cfg: &KernelConfig) -> f64 {
        assert!(cfg.is_valid(self.max_threads), "invalid config: {cfg:?}");
        self.base_time_s
            * self.cache_penalty(cfg)
            * cfg.interchange.stride_penalty()
            * Self::unroll_factor(cfg)
            * Self::packing_factor(cfg)
            * self.thread_factor(cfg)
    }

    /// Hardware phase mix: bad blocking turns the kernel memory-bound.
    pub fn phase_mix(&self, cfg: &KernelConfig) -> PhaseMix {
        let penalty = self.cache_penalty(cfg) * cfg.interchange.stride_penalty();
        // penalty 1.0 → 80% compute; penalty 3.0 → ~25% compute.
        let mem = (0.2 + 0.55 * (penalty - 1.0) / 2.0).clamp(0.2, 0.85);
        PhaseMix::new(1.0 - mem, mem, 0.0, 0.0)
    }

    /// The best configuration found by exhaustive search (ground truth for
    /// judging tuner quality in tests and benches).
    pub fn exhaustive_best(&self) -> (KernelConfig, f64) {
        KernelConfig::space(self.max_threads)
            .into_iter()
            .map(|c| (c, self.time(&c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
            .expect("non-empty space")
    }
}

/// The kernel as a runnable application (single node, threaded).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelApp {
    /// The kernel instance.
    pub model: KernelModel,
    /// The chosen transformation configuration.
    pub config: KernelConfig,
}

impl AppModel for KernelApp {
    fn name(&self) -> &str {
        "tiled-kernel"
    }

    fn workload(&self, _n_nodes: usize) -> Workload {
        let time = self.model.time(&self.config);
        let mix = self.model.phase_mix(&self.config);
        Workload::from_phases(vec![Phase::new("kernel", mix, time)])
    }

    fn node_rule(&self) -> NodeCountRule {
        NodeCountRule::Exactly(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KernelModel {
        KernelModel::polybench_large()
    }

    /// INV-AP-001: the transformation space for `max_threads` is non-empty,
    /// every enumerated point satisfies its own dependency condition, and
    /// the -O2 baseline is reachable.
    fn kernel_space_problems(max_threads: usize) -> Vec<String> {
        let space = KernelConfig::space(max_threads);
        let mut out = Vec::new();
        if space.is_empty() {
            out.push(format!(
                "kernel space for max_threads={max_threads} is empty"
            ));
        }
        if let Some(bad) = space.iter().find(|c| !c.is_valid(max_threads)) {
            out.push(format!(
                "config violates its own dependency condition: {bad:?}"
            ));
        }
        if !space.contains(&KernelConfig::baseline(1)) {
            out.push("baseline (-O2) configuration is not reachable".to_string());
        }
        out
    }

    #[test]
    fn shipped_space_holds_and_empty_one_is_flagged() {
        assert_eq!(kernel_space_problems(24), Vec::<String>::new());
        assert!(!kernel_space_problems(0).is_empty());
    }

    #[test]
    fn space_is_large_and_valid() {
        let space = KernelConfig::space(24);
        assert!(space.len() > 10_000, "space size {}", space.len());
        assert!(space.iter().all(|c| c.is_valid(24)));
    }

    #[test]
    fn unroll_dependency_enforced() {
        let mut c = KernelConfig::baseline(1);
        c.unroll = 8;
        c.tile_k = 4;
        assert!(!c.is_valid(24));
        c.tile_k = 8;
        assert!(c.is_valid(24));
    }

    #[test]
    fn good_blocking_beats_baseline() {
        let m = model();
        let baseline = m.time(&KernelConfig::baseline(1));
        let (best, best_t) = m.exhaustive_best();
        assert!(
            best_t < baseline * 0.5,
            "tuning should give >2x: {best_t} vs {baseline}"
        );
        assert!(best.threads > 1, "best config uses threads");
        assert_eq!(best.interchange, Interchange::Ikj);
    }

    #[test]
    fn cache_bowl_shape() {
        let m = model();
        let t = |ti: usize, tj: usize, tk: usize| {
            m.time(&KernelConfig {
                tile_i: ti,
                tile_j: tj,
                tile_k: tk,
                interchange: Interchange::Ikj,
                unroll: 1,
                packing: false,
                threads: 1,
            })
        };
        let tiny = t(4, 4, 4);
        let mid = t(64, 64, 32);
        let huge = t(128, 128, 128);
        assert!(mid < tiny, "mid tiles beat tiny: {mid} vs {tiny}");
        assert!(mid < huge, "overflowing cache hurts: {mid} vs {huge}");
    }

    #[test]
    fn threads_help_then_saturate() {
        let m = model();
        let t = |n: usize| {
            m.time(&KernelConfig {
                threads: n,
                ..KernelConfig::baseline(n)
            })
        };
        assert!(t(8) < t(1) / 4.0);
        // Efficiency declines: 24 threads are not 3× better than 8.
        assert!(t(24) > t(8) / 3.0);
    }

    #[test]
    fn bad_interchange_is_memory_bound() {
        let m = model();
        let bad = KernelConfig {
            interchange: Interchange::Jki,
            tile_i: 128,
            tile_j: 128,
            tile_k: 128,
            unroll: 1,
            packing: false,
            threads: 1,
        };
        let good = KernelConfig {
            interchange: Interchange::Ikj,
            tile_i: 64,
            tile_j: 64,
            tile_k: 32,
            unroll: 4,
            packing: false,
            threads: 1,
        };
        use pstack_hwmodel::PhaseKind;
        assert_eq!(m.phase_mix(&bad).dominant(), PhaseKind::MemoryBound);
        assert_eq!(m.phase_mix(&good).dominant(), PhaseKind::ComputeBound);
    }

    #[test]
    #[should_panic(expected = "invalid config")]
    fn invalid_config_time_panics() {
        let mut c = KernelConfig::baseline(1);
        c.tile_i = 5;
        model().time(&c);
    }

    #[test]
    fn app_model_workload() {
        let m = model();
        let app = KernelApp {
            model: m,
            config: KernelConfig::baseline(8),
        };
        let w = app.workload(1);
        assert_eq!(w.len(), 1);
        assert!((w.total_work() - m.time(&KernelConfig::baseline(8))).abs() < 1e-12);
    }
}
