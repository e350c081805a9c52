//! `perfbench`: the powerstack benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <fleet_loaded|tune_service> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) it measures the end-to-end metrics; traced
//! (`--trace 1`) it interleaves traced and untraced repetitions and reports
//! the per-layer metrics. Either way it checks the outputs, prints a
//! human-readable report on stderr, and prints one JSON object as the last
//! line of stdout. A failed check exits with code 1.

mod fleet;
mod measure;
mod tune;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed_frac", "ratio"),
    ("throughput", "op/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload reports
/// 0 for the metrics of layers it does not call.
const PER_LAYER: [(&str, &str); 28] = [
    ("rm.window_ms.p50", "ms"),
    ("rm.window_ms.p99", "ms"),
    ("rm.events", "count"),
    ("rm.events_per_s", "1/s"),
    ("rm.enclave_drain_s.max", "s"),
    ("rm.enclave_drain_s.mean", "s"),
    ("rm.site_metrics_s", "s"),
    ("rm.budget_bound_share", "ratio"),
    ("rm.utilization", "ratio"),
    ("rm.running_jobs.mean", "count"),
    ("node.power_sample_ms.p50", "ms"),
    ("node.power_sample_ms.p99", "ms"),
    ("core.fleet_build_s", "s"),
    ("core.evaluate_us.p50", "us"),
    ("core.evaluate_us.p99", "us"),
    ("core.arena_steps", "count"),
    ("autotune.suggest_ms.p50", "ms"),
    ("autotune.suggest_ms.p99", "ms"),
    ("autotune.suggest_calls", "count"),
    ("autotune.cache_hits", "count"),
    ("autotune.loop_overhead_ms", "ms"),
    ("history.best_k_ms.p50", "ms"),
    ("history.best_k_ms.p99", "ms"),
    ("history.append_ms.p50", "ms"),
    ("history.append_ms.p99", "ms"),
    ("history.records_end", "count"),
    ("history.bytes_end", "B"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values a workload measured, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one workload run measured and checked.
pub struct Measured {
    /// Operations attempted and failed (jobs for the fleet, sessions for
    /// the tune service).
    pub attempted: u64,
    pub failed: u64,
    /// Set-up seconds at the reference host speed.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Primary throughput at the reference host speed: simulated allocated
    /// node-hours per second (fleet) or fresh evaluations per second (tune
    /// service).
    pub throughput: f64,
    pub layers: Layers,
    /// Failed output or regime checks.
    pub failures: Vec<String>,
    /// Human-readable report of the workload's own outputs.
    pub report: String,
}

impl Measured {
    /// A run that produced nothing to measure.
    pub fn failed(attempted: u64, failed: u64, failures: Vec<String>) -> Self {
        Measured {
            attempted,
            failed,
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            throughput: 0.0,
            layers: Layers::new(),
            failures,
            report: String::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?.max(1)),
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything the benchmark writes stays under the build directory of
    // the checkout it runs in.
    let work_dir = Path::new(".bench_build").join("perfbench");
    let trace_dir = args.trace.then_some(work_dir.as_path());
    let m = match args.workload.as_str() {
        "fleet_loaded" => fleet::run(args.seed, args.seconds, trace_dir),
        "tune_service" => tune::run(args.seed, args.seconds, &work_dir, trace_dir),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    eprint!("{}", m.report);
    for f in &m.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let values: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let completed = 1.0 - m.failed as f64 / m.attempted.max(1) as f64;
        let e2e = [m.setup_s, m.peak_rss_mb, completed, m.throughput];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    for (name, v, unit) in &values {
        eprintln!("{name:<26} {v:>16.6} {unit}");
    }
    let correct = m.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted.max(1),
        m.failed,
        json_metrics(&values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
