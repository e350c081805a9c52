//! The `tune_service` workload: one client runs a closed loop of ask-tell
//! sessions over one on-disk `HistoryStore`.
//!
//! A pass starts from an empty store and runs a fixed plan of sessions.
//! Sessions alternate `HypreCoTune` (multi-node, bound by evaluation) and
//! `KernelCoTune` (single-node, bound by the search surrogate) across three
//! objectives. Each session reads a warm-start prior
//! (`Tuner::warm_start_from_history`, i.e. `best_k`), runs
//! `Tuner::run_parallel_with` with `ForestSearch` over an evaluator backed
//! by a benchmark-owned `EvalArena`, and appends its fresh observations
//! (`record_report`: `append` + fsync). Passes repeat until the run's time
//! is up; every pass must produce the same reports.

use crate::measure::{
    add_self_times, durations, mean, median, median_setup, peak_rss_mb, quantile,
    render_self_times, sum_by_tag, write_chrome, Calibration, SplitMix, Timing, Tracer,
    KERNEL_REF_S,
};
use crate::{Layers, Measured};
use powerstack_core::cotune::{HypreCoTune, KernelCoTune};
use powerstack_core::{EvalArena, Objective};
use pstack_autotune::{
    history_key, record_report, BatchEvaluator, Config, Evaluation, ForestSearch, ParamSpace,
    SearchAlgorithm, SearchState, TuneReport, Tuner,
};
use pstack_history::{HistoryKey, HistoryStore};
use pstack_trace::{hash64, SpanId};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Simulation seeds (application instances) per space and objective.
const INSTANCES: usize = 12;
/// Sessions in one pass, a multiple of the problem count; the store grows
/// from empty over them.
const SESSIONS: usize = 216;
/// Fresh-evaluation budget of a session.
const MAX_EVALS: usize = 24;
/// Warm-start prior size (`best_k`).
const WARM_K: usize = 8;
/// Configurations sampled per space for the reference optimum.
const REFERENCE_SAMPLES: usize = 32;
/// Every this many arena evaluations, one is kept and re-run through the
/// scalar oracle after the timed region.
const CHECK_EVERY: usize = 16;
/// Best-so-far within this factor of the reference counts as in the band
/// (E9's `TARGET_FACTOR`).
const BAND: f64 = 1.02;
/// Store set-ups timed for `setup_s`.
const SETUP_SAMPLES: usize = 15;
/// Passes made however short `--seconds` is.
const MIN_PASSES: usize = 2;

const OBJECTIVES: [(Objective, &str); 3] = [
    (Objective::MinTime, "min-time"),
    (Objective::MinEnergy, "min-energy"),
    (Objective::MinEdp, "min-edp"),
];

/// One co-tuning problem: a space, an objective, and its history key.
struct Problem {
    app: String,
    objective: &'static str,
    cotune: CoTune,
    space: ParamSpace,
    key: HistoryKey,
}

enum CoTune {
    Hypre(HypreCoTune),
    Kernel(KernelCoTune),
}

impl CoTune {
    fn evaluate_in(&self, arena: &mut EvalArena, space: &ParamSpace, cfg: &Config) -> Evaluation {
        match self {
            CoTune::Hypre(c) => c.evaluate_in(arena, space, cfg),
            CoTune::Kernel(c) => c.evaluate_in(arena, space, cfg),
        }
    }

    /// The scalar oracle the arena must match bit for bit.
    fn evaluate(&self, space: &ParamSpace, cfg: &Config) -> Evaluation {
        match self {
            CoTune::Hypre(c) => c.evaluate(space, cfg),
            CoTune::Kernel(c) => c.evaluate(space, cfg),
        }
    }
}

/// The problems: two spaces x three objectives, each for `INSTANCES`
/// simulation seeds drawn from the workload seed. An instance is its own
/// application to the history store. Several instances per run average out
/// how costly the configurations that one simulation seed favours are.
fn problems(seed: u64) -> Vec<Problem> {
    let mut sim_seeds = SplitMix::new(seed, "tune-sim");
    let mut out = Vec::new();
    for instance in 0..INSTANCES {
        let sim_seed = sim_seeds.next_u64();
        for (objective, label) in OBJECTIVES {
            let hypre = HypreCoTune {
                seed: sim_seed,
                ..HypreCoTune::new(objective)
            };
            let kernel = KernelCoTune {
                seed: sim_seed,
                ..KernelCoTune::new(objective)
            };
            let hypre_space = hypre.space();
            let kernel_space = kernel.space();
            for (app, cotune, space) in [
                (
                    format!("hypre{instance}"),
                    CoTune::Hypre(hypre),
                    hypre_space,
                ),
                (
                    format!("kernel{instance}"),
                    CoTune::Kernel(kernel),
                    kernel_space,
                ),
            ] {
                out.push(Problem {
                    key: history_key(&space, &app, label),
                    app,
                    objective: label,
                    cotune,
                    space,
                });
            }
        }
    }
    out
}

/// One planned session: which problem, and the tuner's seed.
#[derive(Clone, Copy)]
struct Planned {
    problem: usize,
    seed: u64,
}

/// The session plan: spaces alternate, and every problem gets the same
/// number of sessions, in an order shuffled by the workload seed. Tuner
/// seeds are drawn from the workload seed too. A fixed mix keeps the work
/// of a pass from swinging with how often a seed happens to draw a problem.
fn plan(seed: u64) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed, "tune-plan");
    // Problem `i` is of space `i % 2` (see `problems`).
    let mut queues: [Vec<usize>; 2] = std::array::from_fn(|space| {
        let mut order: Vec<usize> = (0..SESSIONS / 2)
            .map(|j| 2 * (j % (INSTANCES * OBJECTIVES.len())) + space)
            .collect();
        for j in (1..order.len()).rev() {
            order.swap(j, rng.below(j + 1));
        }
        order
    });
    (0..SESSIONS)
        .map(|i| Planned {
            problem: queues[i % 2].pop().expect("one problem per session"),
            seed: rng.next_u64(),
        })
        .collect()
}

/// Reference optimum of each problem: the best of a fixed seeded sample of
/// valid configurations, evaluated through the scalar oracle. Nothing in
/// the search layer can move it.
fn references(seed: u64, problems: &[Problem]) -> Vec<f64> {
    problems
        .iter()
        .map(|p| {
            let mut rng = SplitMix::new(seed, &p.app);
            let mut best = f64::INFINITY;
            let mut found = 0;
            while found < REFERENCE_SAMPLES {
                let cfg: Config = p
                    .space
                    .params()
                    .iter()
                    .map(|param| rng.below(param.values.len()))
                    .collect();
                if p.space.is_valid(&cfg) {
                    best = best.min(p.cotune.evaluate(&p.space, &cfg).0);
                    found += 1;
                }
            }
            best
        })
        .collect()
}

/// Counters an evaluator and a pass accumulate.
#[derive(Default)]
struct PassTally {
    arena_steps: usize,
    evaluations: usize,
    /// Kept `(problem, config, arena result)` samples for the oracle check.
    samples: Vec<(usize, Config, Evaluation)>,
}

/// The benchmark's `BatchEvaluator`: `evaluate_in` on a long-lived arena,
/// with a span per call when traced.
struct Evaluator<'a> {
    problem: usize,
    cotune: &'a CoTune,
    arena: &'a mut EvalArena,
    tally: &'a mut PassTally,
    span: Option<(&'a Tracer, SpanId, usize)>,
}

impl BatchEvaluator for Evaluator<'_> {
    fn evaluate(&mut self, space: &ParamSpace, cfg: &Config) -> Evaluation {
        let guard = self
            .span
            .map(|(t, parent, session)| t.child("core.evaluate", parent, &[("session", session)]));
        let out = self.cotune.evaluate_in(self.arena, space, cfg);
        drop(guard);
        self.tally.arena_steps += self.arena.last_eval_steps();
        if self.tally.evaluations.is_multiple_of(CHECK_EVERY) {
            self.tally
                .samples
                .push((self.problem, cfg.clone(), out.clone()));
        }
        self.tally.evaluations += 1;
        out
    }

    fn reuse_hits(&self) -> usize {
        self.arena.reuse_hits()
    }
}

/// A delegating search that records one span per `suggest_batch` call.
struct TracedSearch<'a> {
    inner: ForestSearch,
    tracer: &'a Tracer,
    parent: SpanId,
    session: usize,
}

impl SearchState for TracedSearch<'_> {
    fn schema_version(&self) -> u32 {
        self.inner.schema_version()
    }

    fn save_state(&self) -> serde::Value {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

impl SearchAlgorithm for TracedSearch<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn suggest(
        &mut self,
        space: &ParamSpace,
        db: &pstack_autotune::PerfDatabase,
        rng: &mut SmallRng,
    ) -> Option<Config> {
        let _g = self.tracer.child(
            "autotune.suggest",
            self.parent,
            &[("session", self.session)],
        );
        self.inner.suggest(space, db, rng)
    }

    fn suggest_batch(
        &mut self,
        space: &ParamSpace,
        db: &pstack_autotune::PerfDatabase,
        rng: &mut SmallRng,
        k: usize,
    ) -> Vec<Config> {
        let _g = self.tracer.child(
            "autotune.suggest",
            self.parent,
            &[("session", self.session)],
        );
        self.inner.suggest_batch(space, db, rng, k)
    }
}

/// What one session produced.
struct SessionOut {
    timing: Timing,
    fresh_evals: usize,
    priors: usize,
    cache_hits: usize,
    evals_to_band: usize,
    in_band: bool,
    report_hash: u64,
}

/// Fresh evaluations until best-so-far is within the band of `reference`
/// (0 when a prior already is; the full budget when the session never
/// gets there).
fn evals_to_band(report: &TuneReport, reference: f64) -> (usize, bool) {
    let prior_len = report.db.len() - report.evals;
    let mut best = f64::INFINITY;
    let mut fresh = 0;
    for o in report.db.observations() {
        if o.eval >= prior_len {
            fresh += 1;
        }
        best = best.min(o.objective);
        if best <= reference * BAND {
            return (if o.eval < prior_len { 0 } else { fresh }, true);
        }
    }
    (MAX_EVALS, false)
}

/// Everything a pass needs besides the store.
struct Service<'a> {
    problems: &'a [Problem],
    plan: &'a [Planned],
    references: &'a [f64],
}

/// One pass: a fresh store at `dir`, every planned session in order, each
/// session one calibration segment. Returns the pass (or the first error).
fn pass(
    svc: &Service<'_>,
    dir: &Path,
    tracer: Option<&Tracer>,
    cal: &mut Calibration,
) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = HistoryStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let mut arenas: Vec<EvalArena> = svc.problems.iter().map(|_| EvalArena::new()).collect();
    let mut tally = PassTally::default();
    let mut sessions: Vec<SessionOut> = Vec::with_capacity(svc.plan.len());
    for (i, planned) in svc.plan.iter().enumerate() {
        let p = &svc.problems[planned.problem];
        cal.begin();
        let root = tracer.map(|t| t.root("tune.session", ("session", i)));
        let traced = tracer.zip(root.as_ref().map(|r| r.id()));
        let tags = [("session", i)];
        let tuner = Tuner::new(p.space.clone())
            .max_evals(MAX_EVALS)
            .seed(planned.seed);
        let warm = |t: Tuner| t.warm_start_from_history(&store, &p.key, WARM_K);
        let tuner = match traced {
            Some((t, id)) => t.call("history.best_k", id, &tags, || warm(tuner)),
            None => warm(tuner),
        }
        .map_err(|e| format!("session {i}: warm start: {e}"))?;
        let report = {
            let run_span = traced.map(|(t, id)| t.child("autotune.run", id, &tags));
            let mut evaluator = Evaluator {
                problem: planned.problem,
                cotune: &p.cotune,
                arena: &mut arenas[planned.problem],
                tally: &mut tally,
                span: traced
                    .zip(run_span.as_ref())
                    .map(|((t, _), s)| (t, s.id(), i)),
            };
            match traced.zip(run_span.as_ref()) {
                Some(((t, _), s)) => tuner.run_parallel_with(
                    &mut TracedSearch {
                        inner: ForestSearch::new(),
                        tracer: t,
                        parent: s.id(),
                        session: i,
                    },
                    &mut evaluator,
                ),
                None => tuner.run_parallel_with(&mut ForestSearch::new(), &mut evaluator),
            }
        }
        .map_err(|e| format!("session {i}: tune: {e}"))?;
        let label = format!("s{i}");
        let append = || record_report(&store, &p.key, &label, &report);
        match traced {
            Some((t, id)) => t.call("history.append", id, &tags, append),
            None => append(),
        }
        .map_err(|e| format!("session {i}: record: {e}"))?;
        drop(root);
        let timing = cal.end();
        let (to_band, in_band) = evals_to_band(&report, svc.references[planned.problem]);
        sessions.push(SessionOut {
            timing,
            fresh_evals: report.evals,
            priors: report.db.len() - report.evals,
            cache_hits: report.cache.hits,
            evals_to_band: to_band,
            in_band,
            report_hash: hash64(
                serde_json::to_string(&report)
                    .map_err(|e| format!("session {i}: serialize report: {e}"))?
                    .as_bytes(),
            ),
        });
    }
    let records = store
        .all_records()
        .map_err(|e| format!("read store: {e}"))?
        .len();
    let bytes = dir_bytes(dir);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    let total = |f: fn(&Timing) -> f64| sessions.iter().map(|s| f(&s.timing)).sum::<f64>();
    Ok(Pass {
        timing: Timing {
            wall_s: total(|t| t.wall_s),
            ref_s: total(|t| t.ref_s),
            kernel_s: total(|t| t.kernel_s) / sessions.len() as f64,
        },
        sessions,
        tally,
        records,
        bytes,
    })
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One finished pass with its store statistics.
struct Pass {
    sessions: Vec<SessionOut>,
    /// Summed over the sessions (the kernel call averaged).
    timing: Timing,
    tally: PassTally,
    records: usize,
    bytes: u64,
}

/// Output and regime checks over every pass of a run; the arena samples of
/// the `sampled` passes are re-run through the scalar oracle.
fn check(svc: &Service<'_>, passes: &[&Pass], sampled: &[&Pass], failures: &mut Vec<String>) {
    let hashes = |p: &Pass| p.sessions.iter().map(|s| s.report_hash).collect::<Vec<_>>();
    let first = hashes(passes[0]);
    for (i, p) in passes.iter().enumerate() {
        if hashes(p) != first {
            failures.push(format!("pass {i} reports differ from pass 0"));
        }
        if p.records != passes[0].records || p.tally.arena_steps != passes[0].tally.arena_steps {
            failures.push(format!("pass {i} store or arena counts differ from pass 0"));
        }
    }
    let s = &passes[0].sessions;
    let cold = s.iter().filter(|x| x.priors == 0).count();
    if cold == 0 || cold == s.len() {
        failures.push(format!(
            "tune_service needs cold and warmed sessions, got {cold} cold of {}",
            s.len()
        ));
    }
    // The arena must match the scalar oracle bit for bit.
    let bits = |e: &Evaluation| {
        let mut aux: Vec<(String, u64)> =
            e.1.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
        aux.sort();
        (e.0.to_bits(), aux)
    };
    for p in sampled {
        for (problem, cfg, got) in &p.tally.samples {
            let pr = &svc.problems[*problem];
            let want = pr.cotune.evaluate(&pr.space, cfg);
            if bits(got) != bits(&want) {
                failures.push(format!(
                    "{} {}: arena evaluation {cfg:?} = {got:?}, scalar oracle = {want:?}",
                    pr.app, pr.objective
                ));
            }
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run the tune service for `seconds`.
pub fn run(seed: u64, seconds: f64, work_dir: &Path, trace_dir: Option<&Path>) -> Measured {
    let scratch = Scratch(work_dir.join(format!("tune-{}", std::process::id())));
    let mut failures = Vec::new();
    // Set-up as a service would pay it: open a store, build the spaces.
    let mut n = 0;
    let mut cal = Calibration::new();
    let setup_dir = scratch.0.join("setup");
    let mut set_up = || {
        n += 1;
        let store = HistoryStore::open(setup_dir.join(n.to_string()));
        (store.is_ok(), problems(seed))
    };
    let mut setup_sample = |cal: &mut Calibration| {
        let s = median_setup(SETUP_SAMPLES, cal, &mut set_up);
        let _ = std::fs::remove_dir_all(&setup_dir);
        s
    };
    let mut setup = vec![setup_sample(&mut cal)];
    let problems = problems(seed);
    let plan = plan(seed);
    let references = references(seed, &problems);
    let svc = Service {
        problems: &problems,
        plan: &plan,
        references: &references,
    };
    let tracer = trace_dir.map(|_| Tracer::new());
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut traces = Vec::new();
    let mut attempted = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || plain.len() < MIN_PASSES
        || (tracer.is_some() && traced.len() < MIN_PASSES)
    {
        // Set-up samples are spread over the run like the passes.
        setup.push(setup_sample(&mut cal));
        attempted += SESSIONS as u64;
        let dir = scratch
            .0
            .join(format!("pass{}", plain.len() + traced.len()));
        match pass(&svc, &dir, None, &mut cal) {
            Ok(p) => plain.push(p),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
        let Some(t) = tracer.as_ref() else { continue };
        attempted += SESSIONS as u64;
        let dir = scratch
            .0
            .join(format!("pass{}", plain.len() + traced.len()));
        match pass(&svc, &dir, Some(t), &mut cal).and_then(|p| Ok((p, t.take()?))) {
            Ok((p, trace)) => {
                traced.push(p);
                traces.push(trace);
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }
    let peak_rss = peak_rss_mb();
    let done = (plain.len() + traced.len()) * SESSIONS;
    let failed = attempted - done as u64;
    if plain.is_empty() || (tracer.is_some() && traced.is_empty()) {
        failures.push("no pass completed".into());
        return Measured::failed(attempted, failed, failures);
    }
    let all: Vec<&Pass> = plain.iter().chain(traced.iter()).collect();
    let sampled: Vec<&Pass> = plain.iter().take(1).chain(traced.iter().take(1)).collect();
    check(&svc, &all, &sampled, &mut failures);

    let first = &plain[0];
    let session_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.sessions.iter().map(|s| s.timing.wall_s * 1e3))
        .collect();
    let evals: usize = first.sessions.iter().map(|s| s.fresh_evals).sum();
    let per_pass =
        |f: &dyn Fn(&Timing) -> f64| plain.iter().map(|p| f(&p.timing)).collect::<Vec<f64>>();
    let evals_per_s = per_pass(&|t| evals as f64 / t.wall_s);
    let ref_evals_per_s = per_pass(&|t| evals as f64 / t.ref_s);
    let kernel_ms = per_pass(&|t| t.kernel_s * 1e3);
    let sessions_per_s = per_pass(&|t| SESSIONS as f64 / t.wall_s);
    let to_band: Vec<f64> = first
        .sessions
        .iter()
        .map(|s| s.evals_to_band as f64)
        .collect();
    let misses = first.sessions.iter().filter(|s| !s.in_band).count();
    let cold = first.sessions.iter().filter(|s| s.priors == 0).count();
    let fingerprint = hash64(
        first
            .sessions
            .iter()
            .map(|s| format!("{:016x}", s.report_hash))
            .collect::<String>()
            .as_bytes(),
    );
    let mut text = format!(
        "tune_service: {SESSIONS} sessions per pass (hypre/kernel alternating, 3 objectives), \
         {MAX_EVALS} evals each, best_k {WARM_K}, seed {seed}\n\
         evals_per_s        {:.3} 1/s (median of {} passes: {:.1?})\n\
         ref_evals_per_s    {:.3} 1/s at the reference host speed (= throughput; {:.1?})\n\
         kernel_ms          {:.4} ms per calibration call (median of passes; reference {:.4})\n\
         sessions_per_s     {:.4} 1/s\n\
         session_p50_ms     {:.3} ms ({} sessions)\n\
         session_p90_ms     {:.3} ms\n\
         evals_to_band      {:.4} fresh evals, mean over {} sessions (exact; {misses} never \
         reached the band and count {MAX_EVALS})\n\
         cold sessions      {cold} of {SESSIONS}\n\
         store at pass end  {} records, {} bytes\n\
         fingerprint        {fingerprint:016x}\n",
        median(&evals_per_s),
        plain.len(),
        evals_per_s,
        median(&ref_evals_per_s),
        ref_evals_per_s,
        median(&kernel_ms),
        KERNEL_REF_S * 1e3,
        median(&sessions_per_s),
        quantile(&session_ms, 0.5),
        session_ms.len(),
        quantile(&session_ms, 0.9),
        mean(&to_band),
        to_band.len(),
        first.records,
        first.bytes,
    );

    let mut layers = Layers::new();
    if tracer.is_some() {
        let mut self_times = BTreeMap::new();
        let (mut eval_us, mut suggest_ms, mut best_k_ms, mut append_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut overhead_ms = Vec::new();
        for trace in &traces {
            add_self_times(trace, &mut self_times);
            eval_us.extend(durations(trace, "core.evaluate").iter().map(|d| d * 1e6));
            suggest_ms.extend(durations(trace, "autotune.suggest").iter().map(|d| d * 1e3));
            best_k_ms.extend(durations(trace, "history.best_k").iter().map(|d| d * 1e3));
            append_ms.extend(durations(trace, "history.append").iter().map(|d| d * 1e3));
            let session = sum_by_tag(trace, "tune.session", "session");
            let mut inner = BTreeMap::new();
            for name in [
                "history.best_k",
                "autotune.suggest",
                "core.evaluate",
                "history.append",
            ] {
                for (k, v) in sum_by_tag(trace, name, "session") {
                    *inner.entry(k).or_insert(0.0) += v;
                }
            }
            overhead_ms.extend(
                session
                    .iter()
                    .map(|(k, d)| 1e3 * (d - inner.get(k).copied().unwrap_or(0.0))),
            );
        }
        if let Err(e) = write_chrome(
            &traces[0],
            &trace_dir
                .expect("traced runs have a trace dir")
                .join(format!("tune_service_seed{seed}.chrome.json")),
        ) {
            failures.push(e);
        }
        let tr0 = &traced[0];
        let plain_walls: Vec<f64> = plain.iter().map(|p| p.timing.wall_s).collect();
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.timing.wall_s).collect();
        layers.insert("core.evaluate_us.p50", quantile(&eval_us, 0.5));
        layers.insert("core.evaluate_us.p99", quantile(&eval_us, 0.99));
        layers.insert("core.arena_steps", tr0.tally.arena_steps as f64);
        layers.insert("autotune.suggest_ms.p50", quantile(&suggest_ms, 0.5));
        layers.insert("autotune.suggest_ms.p99", quantile(&suggest_ms, 0.99));
        layers.insert(
            "autotune.suggest_calls",
            durations(&traces[0], "autotune.suggest").len() as f64,
        );
        layers.insert(
            "autotune.cache_hits",
            tr0.sessions.iter().map(|s| s.cache_hits).sum::<usize>() as f64,
        );
        layers.insert("autotune.loop_overhead_ms", mean(&overhead_ms));
        layers.insert("history.best_k_ms.p50", quantile(&best_k_ms, 0.5));
        layers.insert("history.best_k_ms.p99", quantile(&best_k_ms, 0.99));
        layers.insert("history.append_ms.p50", quantile(&append_ms, 0.5));
        layers.insert("history.append_ms.p99", quantile(&append_ms, 0.99));
        layers.insert("history.records_end", tr0.records as f64);
        layers.insert("history.bytes_end", tr0.bytes as f64);
        let ratios: Vec<f64> = traced_walls
            .iter()
            .zip(&plain_walls)
            .map(|(t, u)| t / u - 1.0)
            .collect();
        layers.insert("trace.overhead_frac", median(&ratios));
        text.push_str(&format!(
            "traced passes {}, untraced passes {}\n{}",
            traced.len(),
            plain.len(),
            render_self_times(&self_times)
        ));
    }
    Measured {
        attempted,
        failed,
        setup_s: median(&setup),
        peak_rss_mb: peak_rss,
        throughput: median(&ref_evals_per_s),
        layers,
        failures,
        report: text,
    }
}
