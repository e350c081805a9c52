//! History keys: canonical space fingerprints and the `(space, app,
//! objective)` triple every record is filed under.
//!
//! The checkpoint layer's space fingerprint
//! (`pstack_autotune::ParamSpace::fingerprint`) hashes parameters in
//! *declaration order* — exactly right for resume, where configuration
//! indices must mean the same knob values, and exactly wrong for history,
//! where two teams declaring the same space in a different order should
//! share data. [`SpaceShape::fingerprint`] is the canonical variant:
//! parameters are sorted by name (and constraints by name) before hashing,
//! so the print is invariant under reordering while still distinguishing
//! any real shape change (renamed knob, added value, new constraint).

use pstack_trace::hash64;
use serde::{Deserialize, Serialize};

/// On-disk format version stamped into every store's `meta.json` and
/// shard-log header. Bump on any incompatible schema change so an old
/// store is rejected instead of misread.
pub const HISTORY_FORMAT_VERSION: u32 = 1;

/// One parameter of a space *shape*: its name and its value list rendered
/// canonically (the value order is meaningful — it is the ordinal
/// encoding — so it is preserved).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceParam {
    /// Parameter name, e.g. `"tile"`, `"node_cap_w"`.
    pub name: String,
    /// Rendered legal values, in declaration order.
    pub values: Vec<String>,
}

/// The hashable description of a parameter space: what the space *is*,
/// independent of how the code happened to declare it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceShape {
    /// The parameters (any order; the fingerprint canonicalizes).
    pub params: Vec<SpaceParam>,
    /// Constraint names (predicates are opaque closures, so their names
    /// stand in, as in the checkpoint fingerprint).
    pub constraints: Vec<String>,
}

impl SpaceShape {
    /// The canonical 16-hex-digit fingerprint: parameters sorted by name,
    /// constraints sorted, FNV-1a over the rendered form. Invariant under
    /// parameter/constraint reordering; sensitive to every rename, value
    /// change, and added/removed entry.
    pub fn fingerprint(&self) -> String {
        let mut params: Vec<&SpaceParam> = self.params.iter().collect();
        params.sort_by(|a, b| a.name.cmp(&b.name));
        let mut constraints: Vec<&String> = self.constraints.iter().collect();
        constraints.sort();
        let mut canon = String::new();
        for p in params {
            canon.push_str(&p.name);
            canon.push('=');
            for v in &p.values {
                canon.push_str(v);
                canon.push(',');
            }
            canon.push(';');
        }
        canon.push('|');
        for c in constraints {
            canon.push_str(c);
            canon.push(';');
        }
        format!("{:016x}", hash64(canon.as_bytes()))
    }
}

/// Canonical fingerprint straight from `(name, values)` pairs plus
/// constraint names — for callers that have no [`SpaceShape`] at hand.
pub fn canonical_space_fingerprint(
    params: &[(String, Vec<String>)],
    constraints: &[String],
) -> String {
    SpaceShape {
        params: params
            .iter()
            .map(|(name, values)| SpaceParam {
                name: name.clone(),
                values: values.clone(),
            })
            .collect(),
        constraints: constraints.to_vec(),
    }
    .fingerprint()
}

/// Stable 16-hex fingerprint of a configuration (its index vector, LE
/// bytes). Identical to `pstack_autotune::config_fingerprint`, duplicated
/// here so the storage layer does not depend on the tuner.
pub fn config_fingerprint(cfg: &[usize]) -> String {
    let mut bytes = Vec::with_capacity(cfg.len() * 8);
    for &i in cfg {
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
    }
    format!("{:016x}", hash64(&bytes))
}

/// What a history record is filed under: which space, which application,
/// which objective. Records under different keys never mix — a `min-edp`
/// observation must not warm-start a `min-time` campaign, and two apps on
/// the same space are different workloads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HistoryKey {
    /// Canonical space fingerprint ([`SpaceShape::fingerprint`]).
    pub space: String,
    /// Application label, e.g. `"hypre"`, `"kernel"`.
    pub app: String,
    /// Objective label, e.g. `"min-edp"`.
    pub objective: String,
}

impl HistoryKey {
    /// Build a key.
    pub fn new(
        space: impl Into<String>,
        app: impl Into<String>,
        objective: impl Into<String>,
    ) -> Self {
        HistoryKey {
            space: space.into(),
            app: app.into(),
            objective: objective.into(),
        }
    }

    /// The canonical rendering used for shard routing and diagnostics.
    pub fn canonical(&self) -> String {
        format!("{}/{}/{}", self.space, self.app, self.objective)
    }

    /// Which shard (of `shard_count`) this key's records live in.
    ///
    /// # Panics
    /// Panics on a zero shard count (the store enforces its bounds before
    /// routing).
    pub fn shard(&self, shard_count: usize) -> usize {
        assert!(shard_count > 0, "shard count must be positive");
        (hash64(self.canonical().as_bytes()) % shard_count as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> SpaceShape {
        SpaceShape {
            params: vec![
                SpaceParam {
                    name: "tile".into(),
                    values: vec!["8".into(), "16".into(), "32".into()],
                },
                SpaceParam {
                    name: "solver".into(),
                    values: vec!["pcg".into(), "gmres".into()],
                },
            ],
            constraints: vec!["unroll<=tile".into(), "amg".into()],
        }
    }

    #[test]
    fn fingerprint_is_reorder_invariant() {
        let a = shape();
        let mut b = shape();
        b.params.reverse();
        b.constraints.reverse();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
    }

    #[test]
    fn fingerprint_tracks_every_real_shape_change() {
        let base = shape().fingerprint();
        let mut renamed = shape();
        renamed.params[0].name = "tile2".into();
        assert_ne!(base, renamed.fingerprint());
        let mut revalued = shape();
        revalued.params[0].values.push("64".into());
        assert_ne!(base, revalued.fingerprint());
        let mut reconstrained = shape();
        reconstrained.constraints.push("extra".into());
        assert_ne!(base, reconstrained.fingerprint());
        // Value *order* is the ordinal encoding, so reordering values is a
        // real change (indices would mean different knob settings).
        let mut swapped = shape();
        swapped.params[0].values.swap(0, 1);
        assert_ne!(base, swapped.fingerprint());
    }

    #[test]
    fn key_shards_stay_in_range_and_are_stable() {
        let key = HistoryKey::new(shape().fingerprint(), "hypre", "min-edp");
        for shards in 1..=64 {
            assert!(key.shard(shards) < shards);
        }
        assert_eq!(key.shard(8), key.shard(8), "routing is deterministic");
        let other = HistoryKey::new(shape().fingerprint(), "kernel", "min-edp");
        assert_ne!(key.canonical(), other.canonical());
    }

    /// PSA019 over `(app, objective, shape)` key declarations: non-empty
    /// labels and space, a canonical fingerprint (16 lowercase hex digits,
    /// reorder-invariant), and no two declarations on one key — their
    /// records would silently mix.
    fn key_problems(decls: &[(&str, &str, SpaceShape)]) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for (app, objective, shape) in decls {
            let fp = shape.fingerprint();
            if app.is_empty() || objective.is_empty() || shape.params.is_empty() {
                out.push(format!("'{app}'/'{objective}': empty label or space"));
            }
            if fp.len() != 16 || !fp.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
                out.push(format!("fingerprint '{fp}' is not 16 lowercase hex digits"));
            }
            let mut reordered = shape.clone();
            reordered.params.reverse();
            reordered.constraints.reverse();
            if reordered.fingerprint() != fp {
                out.push(format!("fingerprint '{fp}' changes under reordering"));
            }
            if !seen.insert(HistoryKey::new(fp, *app, *objective)) {
                out.push(format!(
                    "'{app}'/'{objective}' collides with an earlier key"
                ));
            }
        }
        out
    }

    #[test]
    fn campaign_keys_are_canonical_and_distinct() {
        let mut reordered = shape();
        reordered.params.reverse();
        let mut decls = vec![
            ("hypre", "min-edp", shape()),
            ("kernel", "min-edp", shape()),
            ("hypre", "min-time", shape()),
        ];
        assert_eq!(key_problems(&decls), Vec::<String>::new());
        decls.push(("hypre", "min-edp", reordered));
        decls.push(("", "min-edp", SpaceShape::default()));
        assert_eq!(key_problems(&decls).len(), 2, "{:?}", key_problems(&decls));
    }

    #[test]
    fn config_fingerprint_distinguishes_order_and_value() {
        assert_eq!(config_fingerprint(&[1, 2]), config_fingerprint(&[1, 2]));
        assert_ne!(config_fingerprint(&[1, 2]), config_fingerprint(&[2, 1]));
        assert_ne!(config_fingerprint(&[1]), config_fingerprint(&[1, 0]));
        assert_eq!(config_fingerprint(&[3, 0, 1]).len(), 16);
    }

    #[test]
    fn key_round_trips_through_json() {
        let key = HistoryKey::new("abcd0123abcd0123", "hypre", "min-edp");
        let json = serde_json::to_string(&key).expect("serializes");
        let back: HistoryKey = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, key);
    }
}
