//! Extension E5: wall-clock benchmark of the parallel batch tuner — the
//! same 100-eval random search over the Hypre co-tuning space, serially and
//! with 8 workers. RandomSearch keeps the observation set identical across
//! drivers (batch-aware sampling replays the serial RNG stream), so the
//! comparison isolates evaluation throughput.
//!
//! Two evaluator variants are timed:
//!
//! - `plopper`: the full-stack Hypre simulation plus a modeled 100 ms launch
//!   round-trip per candidate. In the paper's loop the plopper *compiles and
//!   executes* each candidate — from the tuner's point of view that is a
//!   latency-dominated remote call, which the worker pool overlaps. This is
//!   the headline number.
//! - `compute_only`: the bare simulation, measuring how much of the pure
//!   model computation the host's cores can overlap (≈1x on a single-core
//!   container, near-linear on real multi-core hardware).

use crate::artifacts::Output;
use powerstack_core::cotune::HypreCoTune;
use powerstack_core::interfaces::Objective;
use pstack_autotune::{Config, ParamSpace, RandomSearch, TraceCollector, TuneReport, Tuner};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_EVALS: usize = 100;
const SEED: u64 = 20200906;
const WORKERS: usize = 8;
const LAUNCH_LATENCY: Duration = Duration::from_millis(100);

/// One evaluator variant, serial vs parallel.
#[derive(Debug, Serialize, Deserialize)]
struct Comparison {
    serial_s: f64,
    parallel_s: f64,
    speedup: f64,
    results_identical: bool,
}

/// The `bench_parallel_tuner` artifact.
#[derive(Debug, Serialize, Deserialize)]
struct ParallelBenchResult {
    max_evals: usize,
    seed: u64,
    workers: usize,
    host_cores: usize,
    launch_latency_ms: u64,
    /// Hypre simulation + modeled plopper launch latency (headline).
    plopper: Comparison,
    /// Bare Hypre simulation (bounded by physical cores).
    compute_only: Comparison,
    evals: usize,
    best_objective: f64,
}

fn compare(
    cotune: &HypreCoTune,
    launch_latency: Option<Duration>,
    trace: &Arc<TraceCollector>,
) -> Result<(Comparison, TuneReport), String> {
    let evaluate = |space: &ParamSpace, cfg: &Config| {
        if let Some(lat) = launch_latency {
            std::thread::sleep(lat);
        }
        cotune.evaluate(space, cfg)
    };
    let tuner = Tuner::new(cotune.space())
        .max_evals(MAX_EVALS)
        .seed(SEED)
        .with_trace(Arc::clone(trace));

    let t0 = Instant::now();
    let serial = tuner
        .run(&mut RandomSearch::new(), evaluate)
        .map_err(|e| e.to_string())?;
    let serial_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = tuner
        .run_parallel(&mut RandomSearch::new(), WORKERS, evaluate)
        .map_err(|e| e.to_string())?;
    let parallel_s = t1.elapsed().as_secs_f64();

    let results_identical = serial.db.observations() == parallel.db.observations();
    Ok((
        Comparison {
            serial_s,
            parallel_s,
            speedup: serial_s / parallel_s.max(1e-9),
            results_identical,
        },
        parallel,
    ))
}

/// Time both variants and render the table.
pub fn run(trace: &Arc<TraceCollector>) -> Result<Output, String> {
    let cotune = HypreCoTune::new(Objective::MinTime);
    let (compute_only, _) = compare(&cotune, None, trace)?;
    let (plopper, report) = compare(&cotune, Some(LAUNCH_LATENCY), trace)?;
    let r = ParallelBenchResult {
        max_evals: MAX_EVALS,
        seed: SEED,
        workers: WORKERS,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        launch_latency_ms: u64::try_from(LAUNCH_LATENCY.as_millis())
            .expect("launch latency fits in u64 milliseconds"),
        plopper,
        compute_only,
        evals: report.evals,
        best_objective: report.best_objective,
    };
    let row = |label: &str, c: &Comparison| {
        format!(
            "{label:<28} | {:>9.2} | {:>10.2} | {:>6.2}x | {}\n",
            c.serial_s, c.parallel_s, c.speedup, c.results_identical
        )
    };
    let rendered = format!(
        "PARALLEL BATCH TUNER: {} evals over the Hypre co-tune space (seed {}, {} workers, {} host core(s))\n\
         evaluator                    |  serial_s | parallel_s | speedup | identical\n{}{}",
        r.max_evals,
        r.seed,
        r.workers,
        r.host_cores,
        row(&format!("plopper (sim + {} ms launch)", r.launch_latency_ms), &r.plopper),
        row("compute only (bare sim)", &r.compute_only),
    );
    Ok(Output::new(rendered, &r))
}

/// The acceptance gate: both variants observed exactly what the serial
/// run did.
pub fn gate(out: &Output) -> Vec<String> {
    out.gate(|r: ParallelBenchResult| {
        if r.plopper.results_identical && r.compute_only.results_identical {
            Vec::new()
        } else {
            vec!["parallel run diverged from serial".into()]
        }
    })
}
