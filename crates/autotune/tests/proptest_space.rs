//! PSA004, parameter-space well-formedness: any randomly generated valid
//! space passes, and each of the four invalidating mutations (no
//! parameters, duplicated value, non-finite value, unsatisfiable
//! constraint) makes it fail.

#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use pstack_autotune::{Param, ParamSpace, ParamValue};

/// Everything wrong with `space`: no parameters, non-finite or duplicate
/// values inside a parameter (grid points alias), or — for lattices small
/// enough to enumerate — constraints that admit under 10% of the grid
/// (none at all makes the space unsatisfiable).
fn space_problems(space: &ParamSpace) -> Vec<String> {
    if space.dims() == 0 {
        return vec!["space has no parameters".to_string()];
    }
    let mut out = Vec::new();
    for p in space.params() {
        for (i, v) in p.values.iter().enumerate() {
            if matches!(v, ParamValue::Float(f) if !f.is_finite()) {
                out.push(format!("{}: non-finite value {v}", p.name));
            }
            if p.values[..i].contains(v) {
                out.push(format!("{}: duplicate value {v}", p.name));
            }
        }
    }
    let lattice = space.cardinality();
    if lattice <= 1_000_000 {
        let valid = space.enumerate().count() as u128;
        if valid == 0 {
            out.push("constraints reject every grid point".to_string());
        } else if valid * 10 < lattice {
            out.push(format!("only {valid} of {lattice} grid points are valid"));
        }
    }
    out
}

/// Build a space from a shape: one int parameter per entry, `n` distinct
/// values each, offset by `base` so value ranges vary between cases.
fn build_space(shape: &[usize], base: i64) -> ParamSpace {
    let mut space = ParamSpace::new();
    for (i, &n) in shape.iter().enumerate() {
        space = space.with(Param::ints(
            format!("p{i}"),
            (0..n as i64).map(|v| base + 3 * v),
        ));
    }
    space
}

#[test]
fn empty_space_fails() {
    assert_eq!(
        space_problems(&ParamSpace::new()),
        ["space has no parameters"]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_valid_space_passes(
        shape in collection::vec(2usize..6, 1..5),
        base in -100i64..100,
    ) {
        let problems = space_problems(&build_space(&shape, base));
        prop_assert!(problems.is_empty(), "{shape:?} base {base}: {problems:?}");
    }

    #[test]
    fn duplicated_value_always_fails(
        shape in collection::vec(2usize..6, 1..5),
        base in -100i64..100,
        pick in 0usize..1000,
    ) {
        let target = pick % shape.len();
        let mut space = ParamSpace::new();
        for (i, &n) in shape.iter().enumerate() {
            let mut values: Vec<i64> = (0..n as i64).map(|v| base + 3 * v).collect();
            if i == target {
                // Re-append an existing value: two grid points now alias.
                values.push(values[pick % values.len()]);
            }
            space = space.with(Param::ints(format!("p{i}"), values));
        }
        prop_assert!(!space_problems(&space).is_empty(), "duplicate in p{target} not flagged");
    }

    #[test]
    fn unsatisfiable_constraint_always_fails(
        shape in collection::vec(2usize..6, 1..5),
        base in -100i64..100,
    ) {
        let space = build_space(&shape, base)
            .with_constraint("never satisfiable", |_, _| false);
        prop_assert!(!space_problems(&space).is_empty(), "unsatisfiable space not flagged");
    }

    #[test]
    fn non_finite_value_always_fails(
        shape in collection::vec(2usize..6, 1..5),
        base in -100i64..100,
        which in 0usize..3,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let space = build_space(&shape, base)
            .with(Param::floats("cap_w", [250.0, bad]));
        prop_assert!(!space_problems(&space).is_empty(), "non-finite {bad} not flagged");
    }
}
