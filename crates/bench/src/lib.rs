//! # pstack-bench — the paper-artifact regeneration harness
//!
//! [`artifacts::table`] lists every table, figure, use case, extension and
//! bench the harness regenerates, one entry each. The `artifacts` binary
//! runs the named entries (every entry when given none) at full scale,
//! prints each rendered table/series, and writes the text, a JSON dump and
//! a Chrome trace under `results/` — the source of EXPERIMENTS.md. The
//! `bench_diff` binary compares fresh artifacts against the committed ones.
//!
//! The Criterion benches in `benches/` measure the simulator's own hot
//! paths (node stepping, job execution, search algorithms) so performance
//! regressions in the substrate are caught like any other bug.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod artifacts;
pub mod diff;
pub mod evalthroughput;
mod fleet;
pub mod lockorder;
mod new_runtimes;
mod parallel_tuner;
mod uc3;

use pstack_trace::TraceCollector;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// Directory experiment outputs are written to (repo-relative).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("POWERSTACK_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Write `contents` to `results/<file>`, returning the path; a failure is a
/// warning on stderr, never a panic.
fn write(file: &str, contents: &str) -> Option<PathBuf> {
    let dir = results_dir();
    let path = dir.join(file);
    match fs::create_dir_all(&dir).and_then(|()| fs::write(&path, contents)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Print `out.text` and persist it, plus the JSON dump, under
/// `results/<name>.{txt,json}`.
pub fn emit(name: &str, out: &artifacts::Output) {
    println!("{}", out.text);
    write(&format!("{name}.txt"), &out.text);
    let json = serde_json::to_string_pretty(&out.json).expect("a JSON value always renders");
    write(&format!("{name}.json"), &json);
}

/// Run `f` against a fresh trace collector (wrapped in a root span named
/// `name`), then persist everything collected as `results/trace_<name>.json`
/// in Chrome `trace_event` format — open the file in `chrome://tracing` or
/// Perfetto.
///
/// The collector arrives as an `&Arc` so the closure can hand clones to
/// [`pstack_autotune::Tuner::with_trace`]-style sinks; plain
/// `&TraceCollector` consumers (e.g. `Scenario::run_traced`) take it by
/// deref coercion.
pub fn traced<T>(name: &str, f: impl FnOnce(&Arc<TraceCollector>) -> T) -> T {
    let collector = Arc::new(TraceCollector::new());
    let out = {
        let _root = collector.span(name);
        f(&collector)
    };
    let trace = collector.snapshot();
    let chrome = pstack_trace::to_chrome(&trace);
    if let Some(path) = write(&format!("trace_{name}.json"), &chrome) {
        let (spans, dropped) = (trace.len(), trace.dropped);
        eprintln!(
            "[trace: {spans} spans ({dropped} dropped) -> {}]",
            path.display()
        );
    }
    out
}

/// Wall-clock a closure, printing the elapsed time to stderr.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one test touching `POWERSTACK_RESULTS_DIR`: tests run in
    /// parallel threads, so a second writer of the variable would race.
    #[test]
    fn traced_emits_a_round_trippable_chrome_trace() {
        let tmp = std::env::temp_dir().join("pstack-bench-trace-test");
        std::env::set_var("POWERSTACK_RESULTS_DIR", &tmp);
        let out = traced("unit_test_trace", |tc| {
            let mut span = tc.span("work");
            span.attr("step", 1i64);
            42
        });
        assert_eq!(out, 42);
        let path = tmp.join("trace_unit_test_trace.json");
        let raw = std::fs::read_to_string(&path).expect("trace artifact written");
        let back = pstack_trace::from_chrome(&raw).expect("valid Chrome trace");
        assert!(back.by_name("unit_test_trace").next().is_some());
        assert!(back.by_name("work").next().is_some());

        // Every table entry takes the driver's path, which writes the text,
        // the JSON and a trace rooted at the entry's name.
        let table = artifacts::table();
        let entry = table
            .iter()
            .find(|e| e.name == "table1_registry")
            .expect("table1_registry entry");
        assert!(artifacts::produce(entry, artifacts::Opts::default()).is_empty());
        for file in [
            "table1_registry.txt",
            "table1_registry.json",
            "trace_table1_registry.json",
        ] {
            assert!(tmp.join(file).exists(), "{file} not written");
        }
        let raw = std::fs::read_to_string(tmp.join("trace_table1_registry.json")).unwrap();
        let back = pstack_trace::from_chrome(&raw).expect("valid Chrome trace");
        assert!(back.by_name("table1_registry").next().is_some());

        std::env::remove_var("POWERSTACK_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
