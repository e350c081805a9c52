//! Stateless fault dice: deterministic rolls without shared RNG state.
//!
//! Fault decisions inside a worker pool cannot come from a shared mutable
//! RNG: call order varies with thread interleaving, and a `Fn + Sync`
//! evaluator cannot mutate one anyway. [`FaultDice`] instead *hashes* the
//! identity of each decision — `(seed, stream name, key, attempt)` — into a
//! uniform value, so every fault outcome is a pure function of what is being
//! decided, independent of scheduling. Identical seeds and plans therefore
//! replay identical fault sequences on any worker count: the replayability
//! contract the chaos suite asserts.

/// Deterministic decision source for fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDice {
    seed: u64,
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultDice {
    /// Dice rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        FaultDice { seed }
    }

    /// Hash a configuration (or any index list) into a decision key.
    pub fn key_of(config: &[usize]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &c in config {
            h = splitmix64(h ^ c as u64);
        }
        h
    }

    /// Uniform value in `[0, 1)` for the decision `(stream, key, attempt)`.
    pub fn roll(&self, stream: &str, key: u64, attempt: u64) -> f64 {
        let mut z = self.seed ^ pstack_trace::hash64(stream.as_bytes());
        z = splitmix64(z ^ key);
        z = splitmix64(z ^ attempt);
        // Top 53 bits → uniform double in [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli decision with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&self, p: f64, stream: &str, key: u64, attempt: u64) -> bool {
        self.roll(stream, key, attempt) < p.clamp(0.0, 1.0)
    }

    /// Symmetric perturbation in `[-mag, +mag]` for the decision.
    pub fn jitter(&self, mag: f64, stream: &str, key: u64, attempt: u64) -> f64 {
        (2.0 * self.roll(stream, key, attempt) - 1.0) * mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_stream_separated() {
        let d = FaultDice::new(42);
        assert_eq!(d.roll("noise", 7, 0), d.roll("noise", 7, 0));
        assert_ne!(d.roll("noise", 7, 0), d.roll("drop", 7, 0));
        assert_ne!(d.roll("noise", 7, 0), d.roll("noise", 8, 0));
        assert_ne!(d.roll("noise", 7, 0), d.roll("noise", 7, 1));
        assert_ne!(
            FaultDice::new(1).roll("noise", 7, 0),
            FaultDice::new(2).roll("noise", 7, 0)
        );
    }

    #[test]
    fn rolls_are_in_unit_interval_and_roughly_uniform() {
        let d = FaultDice::new(3);
        let n = 10_000;
        let mut sum = 0.0;
        for i in 0..n {
            let r = d.roll("u", i, 0);
            assert!((0.0..1.0).contains(&r));
            sum += r;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let d = FaultDice::new(9);
        for i in 0..100 {
            assert!(!d.chance(0.0, "c", i, 0));
            assert!(d.chance(1.0, "c", i, 0));
        }
        // Out-of-range probabilities clamp instead of misbehaving.
        assert!(!d.chance(-0.5, "c", 0, 0));
        assert!(d.chance(1.5, "c", 0, 0));
    }

    #[test]
    fn jitter_is_bounded() {
        let d = FaultDice::new(5);
        for i in 0..1000 {
            let j = d.jitter(0.2, "j", i, 0);
            assert!(j.abs() <= 0.2);
        }
    }

    #[test]
    fn config_keys_distinguish_order() {
        assert_ne!(FaultDice::key_of(&[1, 2]), FaultDice::key_of(&[2, 1]));
        assert_ne!(FaultDice::key_of(&[]), FaultDice::key_of(&[0]));
        assert_eq!(FaultDice::key_of(&[3, 4, 5]), FaultDice::key_of(&[3, 4, 5]));
    }
}
