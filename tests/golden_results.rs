//! Golden-file regression suite for the paper artifacts.
//!
//! Every figure / use-case / extension generator is re-run with its shipped
//! seeds and the serialized JSON is compared against the blessed copy in
//! `tests/goldens/`. Numeric leaves are compared with a relative tolerance
//! band (default 2%) so that benign float churn — e.g. a different but
//! equivalent summation order — does not fail the suite, while real drift
//! in the experiment outcomes does.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_results
//! ```
//!
//! then commit the updated `tests/goldens/*.json` alongside the change that
//! caused them.

// Integration tests are exempt from the workspace unwrap policy.
#![allow(clippy::disallowed_methods)]

use powerstack::core::experiments::{
    emergency, faults, fig1, fig2, fig3, fig4, fig5, fig6, resume, thermal, uc1, uc6, uc7,
};
use serde::Value;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Relative tolerance for numeric leaves. 2% absorbs benign float churn;
/// anything larger is a real behavioural change that should re-bless.
const REL_TOL: f64 = 0.02;
/// Absolute floor so values near zero don't demand impossible precision.
const ABS_TOL: f64 = 1e-9;

fn parse(s: &str) -> Value {
    serde_json::from_str(s).expect("artifacts and goldens are valid JSON")
}

// ---------------------------------------------------------------------------
// Tolerance-aware structural diff.
// ---------------------------------------------------------------------------

fn numbers_close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= ABS_TOL.max(REL_TOL * scale)
}

/// Collect every mismatch between `got` and `want` into `diffs`, tracking the
/// JSON path so failures point at the exact drifted leaf.
fn diff(path: &str, got: &Value, want: &Value, diffs: &mut Vec<String>) {
    match (got, want) {
        (Value::Map(a), Value::Map(b)) => {
            for (key, wv) in b {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, gv)) => diff(&format!("{path}.{key}"), gv, wv, diffs),
                    None => diffs.push(format!("{path}.{key}: missing from output")),
                }
            }
            for (key, _) in a {
                if !b.iter().any(|(k, _)| k == key) {
                    diffs.push(format!(
                        "{path}.{key}: not in golden (new field — re-bless?)"
                    ));
                }
            }
        }
        (Value::Seq(a), Value::Seq(b)) => {
            if a.len() != b.len() {
                diffs.push(format!("{path}: length {} vs golden {}", a.len(), b.len()));
            }
            for (i, (gv, wv)) in a.iter().zip(b.iter()).enumerate() {
                diff(&format!("{path}[{i}]"), gv, wv, diffs);
            }
        }
        // Integers and floats compare as numbers: `1` and `1.0` are equal.
        (g, w) => match (g.as_f64(), w.as_f64()) {
            (Some(a), Some(b)) => {
                if !numbers_close(a, b) {
                    let _ = writeln!(diffs_entry(diffs), "{path}: {a} vs golden {b}");
                }
            }
            _ if g == w => {}
            _ => diffs.push(format!("{path}: {g:?} vs golden {w:?}")),
        },
    }
}

/// `writeln!` needs a `fmt::Write` target; give it the last pushed String.
fn diffs_entry(diffs: &mut Vec<String>) -> &mut String {
    diffs.push(String::new());
    diffs.last_mut().unwrap()
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn check(name: &str, produced: String) {
    let path = goldens_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(goldens_dir()).unwrap();
        std::fs::write(&path, produced + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `UPDATE_GOLDENS=1 cargo test --test golden_results` to bless",
            path.display()
        )
    });
    let mut diffs = Vec::new();
    diff("$", &parse(&produced), &parse(&golden), &mut diffs);
    assert!(
        diffs.is_empty(),
        "{name} drifted from its golden (tolerance {:.0}%):\n  {}\nIf intentional, re-bless with UPDATE_GOLDENS=1.",
        REL_TOL * 100.0,
        diffs.join("\n  ")
    );
}

fn to_json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).unwrap()
}

#[test]
fn golden_fig1_end_to_end() {
    check("fig1_end_to_end", to_json(&fig1::run_default()));
}

#[test]
fn golden_fig2_interactions() {
    check("fig2_interactions", to_json(&fig2::run_default()));
}

#[test]
fn golden_fig3_geopm_policy() {
    check("fig3_geopm_policy", to_json(&fig3::run_default()));
}

#[test]
fn golden_fig4_ytopt_loop() {
    check("fig4_ytopt_loop", to_json(&fig4::run_default_parallel()));
}

#[test]
fn golden_fig5_feti_regions() {
    check("fig5_feti_regions", to_json(&fig5::run_default()));
}

#[test]
fn golden_fig6_power_corridor() {
    check("fig6_power_corridor", to_json(&fig6::run_default()));
}

#[test]
fn golden_uc1_hypre_cotune() {
    check("uc1_hypre_cotune", to_json(&uc1::run_default()));
}

#[test]
fn golden_uc6_countdown() {
    check("uc6_countdown", to_json(&uc6::run_default()));
}

#[test]
fn golden_uc7_two_runtimes() {
    check("uc7_two_runtimes", to_json(&uc7::run_default()));
}

#[test]
fn golden_ext_emergency() {
    check("ext_emergency", to_json(&emergency::run_default()));
}

#[test]
fn golden_ext_thermal() {
    check("ext_thermal", to_json(&thermal::run_default()));
}

#[test]
fn golden_ext_faults() {
    check(
        "ext_faults",
        to_json(&faults::run_default().expect("E6 sweep completes")),
    );
}

#[test]
fn golden_ext_resume() {
    check(
        "ext_resume",
        to_json(&resume::run_default().expect("E7 grid completes")),
    );
}

// -- self-tests for the comparison machinery --------------------------------

#[test]
fn tolerance_band_accepts_small_drift_and_rejects_large() {
    let golden = r#"{"a": 100.0, "b": [1.0, 2.0], "c": "x"}"#;
    let close = r#"{"a": 101.0, "b": [1.001, 2.0], "c": "x"}"#;
    let far = r#"{"a": 110.0, "b": [1.0, 2.0], "c": "x"}"#;
    let mut diffs = Vec::new();
    diff("$", &parse(close), &parse(golden), &mut diffs);
    assert!(diffs.is_empty(), "1% drift must pass: {diffs:?}");
    diff("$", &parse(far), &parse(golden), &mut diffs);
    assert!(!diffs.is_empty(), "10% drift must fail");
}

#[test]
fn structural_changes_are_always_reported() {
    let golden = r#"{"rows": [{"x": 1.0}], "name": "n"}"#;
    let missing_key = r#"{"rows": [{}], "name": "n"}"#;
    let wrong_len = r#"{"rows": [{"x": 1.0}, {"x": 1.0}], "name": "n"}"#;
    let wrong_str = r#"{"rows": [{"x": 1.0}], "name": "m"}"#;
    for bad in [missing_key, wrong_len, wrong_str] {
        let mut diffs = Vec::new();
        diff("$", &parse(bad), &parse(golden), &mut diffs);
        assert!(!diffs.is_empty(), "must flag: {bad}");
    }
}
