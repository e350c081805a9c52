//! The `fleet_loaded` workload: small sites where jobs queue and the power
//! budget binds, driven in 30 s windows with a site power monitor, the way
//! E11 drives a site.
//!
//! One repetition simulates one site once, from `FleetScenario::build` to
//! `site_metrics`. The untraced path calls the same public entry points a
//! user would; the traced path makes the same calls one enclave at a time so
//! that each can carry its own span, and must land on the same bits.

use crate::measure::{
    add_self_times, durations, mean, median, median_setup, peak_rss_mb, quantile,
    render_self_times, sum_by_tag, write_chrome, Calibration, SplitMix, Timing, Tracer,
    KERNEL_REF_S,
};
use crate::{Layers, Measured};
use powerstack_core::experiments::fleet::{FleetResult, FleetScenario};
use powerstack_core::experiments::fleetfaults::{POWER_SLO_TOLERANCE, POWER_WINDOW_S};
use powerstack_core::TuningLevel;
use pstack_faults::fleet_fingerprint;
use pstack_rm::{EnclaveSet, SiteMetrics};
use pstack_sim::{SimDuration, SimTime};
use pstack_trace::SpanId;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Share of the site budget at or above which a window counts as
/// budget-bound.
const BOUND_SHARE: f64 = 0.95;

/// Set-ups of every site timed per cycle for `setup_s`.
const SETUP_PER_CYCLE: usize = 5;

/// A calibration segment ends every this many 30 s windows.
const CALIBRATE_EVERY: usize = 16;

/// Independent sites simulated per run. Each run's figures then rest on
/// several arrival traces rather than on the bursts of one.
const SITES: usize = 4;

/// Site `site` of a workload seed. Sizes are fixed; the seed draws the job
/// trace (arrivals, apps, sizes, enclaves) through the scenario's master
/// seed. ~0.65 submitted jobs per node-hour with long jobs: the queue
/// builds and the 0.65 budget binds.
fn scenario(seed: u64, site: usize) -> FleetScenario {
    FleetScenario {
        n_enclaves: 2,
        nodes_per_enclave: 4,
        n_jobs: 145,
        site_budget_frac: Some(0.65),
        tuning: TuningLevel::EndToEnd,
        demand_response: true,
        seed: SplitMix::new(seed, &format!("fleet-site{site}")).next_u64(),
        job_scale: 10.0,
        horizon_hours: 28,
    }
}

/// Power-monitor tallies of a windowed run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Windows {
    count: usize,
    overshoot: usize,
    bound: usize,
    running_sum: usize,
}

/// One simulated site: wall time, exact outputs and the fleet fingerprint.
struct Rep {
    site: usize,
    timing: Timing,
    result: FleetResult,
    /// Simulated allocated node-hours.
    node_h: f64,
    windows: Windows,
    fingerprint: u64,
    /// Submitted, failed and rejected jobs, from the site metrics.
    counts: [usize; 3],
}

fn quantum() -> SimDuration {
    SimDuration::from_secs(1)
}

fn horizon(sc: &FleetScenario) -> SimTime {
    SimTime::from_secs(sc.horizon_hours * 3600)
}

/// The summary `FleetScenario::run` derives from site metrics, so that a
/// site driven step by step compares field for field with a plain run.
fn result_of(sc: &FleetScenario, m: &SiteMetrics, events: u64) -> FleetResult {
    FleetResult {
        tuning: sc.tuning,
        site_budget_frac: sc.site_budget_frac,
        n_enclaves: sc.n_enclaves,
        nodes: m.nodes,
        submitted: sc.n_jobs,
        completed: m.completed,
        makespan_s: m.makespan_s,
        jobs_per_hour: m.jobs_per_hour,
        mean_wait_s: m.mean_wait_s,
        utilization: m.utilization,
        energy_j: m.system_energy_j,
        total_work: m.total_work,
        work_per_kj: if m.system_energy_j > 0.0 {
            m.total_work / (m.system_energy_j / 1000.0)
        } else {
            0.0
        },
        events_processed: events,
    }
}

/// Every simulated output of a result, floats by their bits.
fn exact_key(r: &FleetResult) -> String {
    format!(
        "nodes={} submitted={} completed={} makespan={:016x} jobs_h={:016x} wait={:016x} \
         util={:016x} energy={:016x} work={:016x} work_kj={:016x} events={}",
        r.nodes,
        r.submitted,
        r.completed,
        r.makespan_s.to_bits(),
        r.jobs_per_hour.to_bits(),
        r.mean_wait_s.to_bits(),
        r.utilization.to_bits(),
        r.energy_j.to_bits(),
        r.total_work.to_bits(),
        r.work_per_kj.to_bits(),
        r.events_processed,
    )
}

fn events_popped(set: &EnclaveSet) -> u64 {
    set.enclaves()
        .iter()
        .map(|e| e.scheduler().events().popped())
        .sum()
}

/// Advance the site in 30 s windows to the horizon, sampling site power
/// after each window (E11's monitor), and close a calibration segment every
/// `CALIBRATE_EVERY` windows.
fn windowed(
    set: &mut EnclaveSet,
    sc: &FleetScenario,
    tr: Option<(&Tracer, SpanId)>,
    cal: &mut Calibration,
) -> Windows {
    let budget_w = sc.site_budget_frac.map(|f| sc.site_peak_w() * f);
    let end = horizon(sc);
    let step = SimDuration::from_secs(POWER_WINDOW_S);
    let mut w = Windows::default();
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + step).min(end);
        let power_w: f64 = match tr {
            None => {
                set.run_until(quantum(), t);
                set.enclaves_mut()
                    .iter_mut()
                    .map(|e| e.scheduler_mut().system_power_w())
                    .sum()
            }
            Some((tracer, rep)) => {
                let win = tracer.child("site.window", rep, &[("window", w.count)]);
                let id = win.id();
                for (i, enc) in set.enclaves_mut().iter_mut().enumerate() {
                    let tags = [("window", w.count), ("enclave", i)];
                    tracer.call("rm.run_until", id, &tags, || {
                        enc.scheduler_mut().run_until(quantum(), t);
                    });
                }
                let mut sum = 0.0;
                for (i, enc) in set.enclaves_mut().iter_mut().enumerate() {
                    let tags = [("window", w.count), ("enclave", i)];
                    sum += tracer.call("node.power_sample", id, &tags, || {
                        enc.scheduler_mut().system_power_w()
                    });
                }
                sum
            }
        };
        w.running_sum += set
            .enclaves()
            .iter()
            .map(|e| e.scheduler().running())
            .sum::<usize>();
        if let Some(b) = budget_w {
            w.overshoot += usize::from(power_w > b * (1.0 + POWER_SLO_TOLERANCE));
            w.bound += usize::from(power_w >= b * BOUND_SHARE);
        }
        w.count += 1;
        if w.count % CALIBRATE_EVERY == 0 {
            cal.checkpoint();
        }
    }
    w
}

/// Simulate one site end to end. Untraced, this is the user's path: build,
/// windows, `EnclaveSet::run_until_drained`, `site_metrics`.
fn rep(sc: &FleetScenario, site: usize, tr: Option<&Tracer>, cal: &mut Calibration) -> Rep {
    let root = tr.map(|t| t.root("fleet.rep", ("site", site)));
    let traced = tr.zip(root.as_ref().map(|r| r.id()));
    cal.begin();
    let mut set = match traced {
        Some((t, id)) => t.call("core.fleet_build", id, &[], || sc.build()),
        None => sc.build(),
    };
    let windows = windowed(&mut set, sc, traced, cal);
    let m = match traced {
        None => {
            set.run_until_drained(quantum(), horizon(sc));
            set.site_metrics()
        }
        Some((t, id)) => {
            for (i, enc) in set.enclaves_mut().iter_mut().enumerate() {
                t.call("rm.drain", id, &[("enclave", i)], || {
                    enc.scheduler_mut()
                        .run_until_drained(quantum(), horizon(sc));
                });
            }
            t.call("rm.site_metrics", id, &[], || set.site_metrics())
        }
    };
    let timing = cal.end();
    drop(root);
    let result = result_of(sc, &m, events_popped(&set));
    // The utilization the site metrics fold is allocated over available
    // node-seconds, summed over enclaves.
    let capacity_node_s: f64 = set
        .enclaves()
        .iter()
        .map(|e| e.nodes() as f64 * e.scheduler().now().as_secs_f64())
        .sum();
    Rep {
        site,
        timing,
        result,
        node_h: m.utilization * capacity_node_s / 3600.0,
        windows,
        fingerprint: fleet_fingerprint(&mut set),
        counts: [m.submitted, m.failed, m.rejected],
    }
}

/// Output checks over every repetition of one site.
fn check_site(sc: &FleetScenario, reps: &[&Rep], failures: &mut Vec<String>) {
    let first = reps[0];
    let key = exact_key(&first.result);
    for (i, r) in reps.iter().enumerate() {
        if exact_key(&r.result) != key {
            failures.push(format!(
                "site {}: rep {i} outputs differ from rep 0:\n  {}\n  {key}",
                first.site,
                exact_key(&r.result)
            ));
        }
        if r.node_h.to_bits() != first.node_h.to_bits() {
            failures.push(format!(
                "site {}: rep {i} node-hours differ from rep 0",
                first.site
            ));
        }
        if r.windows != first.windows {
            failures.push(format!(
                "site {}: rep {i} power windows differ from rep 0",
                first.site
            ));
        }
    }
    let fps: Vec<u64> = reps.iter().map(|r| r.fingerprint).collect();
    if fps.windows(2).any(|w| w[0] != w[1]) {
        failures.push(format!(
            "site {}: fleet fingerprints differ across reps: {fps:x?}",
            first.site
        ));
    }
    // Site 0 is also simulated by a plain `FleetScenario::run()`, which
    // drains without windows or power samples.
    if first.site == 0 {
        let other = exact_key(&sc.run());
        if other != key {
            failures.push(format!(
                "site 0: the other call path disagrees:\n  {other}\n  {key}"
            ));
        }
    }
    // Conservation: every submitted job completed, failed or was rejected.
    for [submitted, failed, rejected] in reps.iter().map(|r| r.counts) {
        let completed = first.result.completed;
        if submitted != completed + failed + rejected {
            failures.push(format!(
                "site {}: conservation broken: submitted {submitted} != completed {completed} \
                 + failed {failed} + rejected {rejected}",
                first.site
            ));
        }
    }
}

/// The simulated outputs of one run, summed over its sites.
#[derive(Default)]
struct Totals {
    submitted: usize,
    completed: usize,
    wait_s: f64,
    sim_h: f64,
    node_h: f64,
    energy_j: f64,
    work: f64,
    events: u64,
    utilization: Vec<f64>,
    windows: Windows,
}

impl Totals {
    fn of(first_reps: &[&Rep]) -> Self {
        let mut t = Totals::default();
        for r in first_reps {
            let x = &r.result;
            t.submitted += x.submitted;
            t.completed += x.completed;
            t.wait_s += x.mean_wait_s * x.completed as f64;
            t.sim_h += x.makespan_s / 3600.0;
            t.node_h += r.node_h;
            t.energy_j += x.energy_j;
            t.work += x.total_work;
            t.events += x.events_processed;
            t.utilization.push(x.utilization);
            t.windows.count += r.windows.count;
            t.windows.overshoot += r.windows.overshoot;
            t.windows.bound += r.windows.bound;
            t.windows.running_sum += r.windows.running_sum;
        }
        t
    }

    fn per_window(&self, n: usize) -> f64 {
        n as f64 / self.windows.count.max(1) as f64
    }

    fn mean_wait_s(&self) -> f64 {
        self.wait_s / self.completed.max(1) as f64
    }
}

/// Regime self-checks: a workload that drifts out of its regime fails
/// instead of timing something else.
/// Every submitted job must also complete before the horizon, so that
/// `completed_frac` reads 1 on a correct run and any job lost shows.
fn check_regime(t: &Totals, failures: &mut Vec<String>) {
    let util = mean(&t.utilization);
    let share = t.per_window(t.windows.bound);
    if t.mean_wait_s() < 30.0 || util < 0.5 || share < 0.1 {
        failures.push(format!(
            "fleet_loaded left its regime: mean wait {:.1} s (want >= 30), utilization \
             {util:.3} (want >= 0.5), budget-bound windows {share:.3} (want >= 0.1)",
            t.mean_wait_s()
        ));
    }
    if t.completed != t.submitted {
        failures.push(format!(
            "fleet_loaded completed {} of {} jobs by the horizon (want all)",
            t.completed, t.submitted
        ));
    }
}

/// Human-readable report of the simulated outputs: the workload metrics by
/// the names the benchmark's README uses.
fn report(scs: &[FleetScenario], firsts: &[&Rep], t: &Totals) -> String {
    let sc = &scs[0];
    let mut out = format!(
        "fleet_loaded: {} site(s) of {} enclaves x {} nodes, {} jobs, {} h horizon, budget {:?} of peak\n",
        scs.len(),
        sc.n_enclaves,
        sc.nodes_per_enclave,
        sc.n_jobs,
        sc.horizon_hours,
        sc.site_budget_frac,
    );
    for (sc, r) in scs.iter().zip(firsts) {
        out.push_str(&format!(
            "  site seed {:>20}: wait {:>9.2} s, util {:.3}, {:>6.2} sim h, {} events, \
             fingerprint {:016x}\n",
            sc.seed,
            r.result.mean_wait_s,
            r.result.utilization,
            r.result.makespan_s / 3600.0,
            r.result.events_processed,
            r.fingerprint,
        ));
    }
    out.push_str(&format!(
        "work_per_kj        {:.6} work/kJ (exact)\n\
         jobs_per_sim_h     {:.6} 1/h (exact)\n\
         mean_wait_s        {:.6} s (exact)\n\
         failed_frac        {:.6} ({} of {} jobs not completed)\n\
         utilization        {:.6} (mean over sites)\n",
        t.work / (t.energy_j / 1000.0),
        t.completed as f64 / t.sim_h,
        t.mean_wait_s(),
        1.0 - t.completed as f64 / t.submitted.max(1) as f64,
        t.submitted - t.completed,
        t.submitted,
        mean(&t.utilization),
    ));
    out.push_str(&format!(
        "overshoot_windows  {} of {} (exact)\nbudget_bound_share {:.6}\n",
        t.windows.overshoot,
        t.windows.count,
        t.per_window(t.windows.bound)
    ));
    out
}

/// Cycles (one repetition of every site) made however short `--seconds`
/// is.
const MIN_CYCLES: usize = 2;

/// Run `fleet_loaded` for `seconds`: untraced, the end-to-end metrics;
/// traced, the per-layer metrics from traced repetitions, each paired with
/// an untraced repetition of the same site.
pub fn run(seed: u64, seconds: f64, trace_dir: Option<&Path>) -> Measured {
    let scs: Vec<FleetScenario> = (0..SITES).map(|k| scenario(seed, k)).collect();
    let tracer = trace_dir.map(|_| Tracer::new());
    let mut cal = Calibration::new();
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut layer_reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut window_rm: Vec<f64> = Vec::new();
    let mut window_power: Vec<f64> = Vec::new();
    let mut overhead = Vec::new();
    let mut self_times = BTreeMap::new();
    let mut failures = Vec::new();
    let mut cycles = 0;
    while start.elapsed().as_secs_f64() < seconds || cycles < MIN_CYCLES {
        // Set-up samples are spread over the run like the repetitions.
        setup.push(median_setup(SETUP_PER_CYCLE, &mut cal, || {
            scs.iter().map(FleetScenario::build).collect::<Vec<_>>()
        }));
        for (k, sc) in scs.iter().enumerate() {
            let r = rep(sc, k, None, &mut cal);
            let Some(t) = tracer.as_ref() else {
                plain.push(r);
                continue;
            };
            let tr = rep(sc, k, Some(t), &mut cal);
            overhead.push(tr.timing.wall_s / r.timing.wall_s - 1.0);
            plain.push(r);
            let trace = match t.take() {
                Ok(trace) => trace,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            if traced.is_empty() {
                let path = trace_dir
                    .expect("traced runs have a trace dir")
                    .join(format!("fleet_loaded_seed{seed}.chrome.json"));
                if let Err(e) = write_chrome(&trace, &path) {
                    failures.push(e);
                }
            }
            add_self_times(&trace, &mut self_times);
            window_rm.extend(sum_by_tag(&trace, "rm.run_until", "window").values());
            window_power.extend(sum_by_tag(&trace, "node.power_sample", "window").values());
            let mut per_enclave = sum_by_tag(&trace, "rm.run_until", "enclave");
            for (e, s) in sum_by_tag(&trace, "rm.drain", "enclave") {
                *per_enclave.entry(e).or_insert(0.0) += s;
            }
            let drains: Vec<f64> = per_enclave.values().copied().collect();
            let rm_busy: f64 = drains.iter().sum();
            let mut m = BTreeMap::new();
            m.insert(
                "rm.enclave_drain_s.max",
                drains.iter().copied().fold(0.0, f64::max),
            );
            m.insert("rm.enclave_drain_s.mean", mean(&drains));
            m.insert(
                "rm.events_per_s",
                tr.result.events_processed as f64 / rm_busy.max(1e-12),
            );
            m.insert(
                "rm.site_metrics_s",
                durations(&trace, "rm.site_metrics").iter().sum(),
            );
            m.insert(
                "core.fleet_build_s",
                durations(&trace, "core.fleet_build").iter().sum(),
            );
            layer_reps.push(m);
            traced.push(tr);
        }
        cycles += 1;
    }
    let peak_rss = peak_rss_mb();
    let firsts: Vec<&Rep> = (0..scs.len()).map(|k| &plain[k]).collect();
    for (k, sc) in scs.iter().enumerate() {
        let reps: Vec<&Rep> = plain
            .iter()
            .chain(traced.iter())
            .filter(|r| r.site == k)
            .collect();
        check_site(sc, &reps, &mut failures);
    }
    let totals = Totals::of(&firsts);
    check_regime(&totals, &mut failures);

    let mut text = report(&scs, &firsts, &totals);
    let walls: Vec<f64> = plain.iter().map(|r| r.timing.wall_s).collect();
    // The summed wall times of each site's median repetition, as measured
    // and at the reference host's speed.
    let site_walls = |wall: fn(&Timing) -> f64| -> f64 {
        (0..scs.len())
            .map(|k| {
                let w: Vec<f64> = plain
                    .iter()
                    .filter(|r| r.site == k)
                    .map(|r| wall(&r.timing))
                    .collect();
                median(&w)
            })
            .sum()
    };
    let wall_s = site_walls(|t| t.wall_s);
    let ref_wall_s = site_walls(|t| t.ref_s);
    let kernel_ms: Vec<f64> = plain.iter().map(|r| r.timing.kernel_s * 1e3).collect();
    let mut layers = Layers::new();
    if tracer.is_some() {
        for key in [
            "rm.enclave_drain_s.max",
            "rm.enclave_drain_s.mean",
            "rm.events_per_s",
            "rm.site_metrics_s",
            "core.fleet_build_s",
        ] {
            let v: Vec<f64> = layer_reps.iter().map(|m| m[key]).collect();
            layers.insert(key, median(&v));
        }
        layers.insert("rm.window_ms.p50", 1e3 * quantile(&window_rm, 0.5));
        layers.insert("rm.window_ms.p99", 1e3 * quantile(&window_rm, 0.99));
        layers.insert("rm.events", totals.events as f64);
        layers.insert(
            "rm.budget_bound_share",
            totals.per_window(totals.windows.bound),
        );
        layers.insert("rm.utilization", mean(&totals.utilization));
        layers.insert(
            "rm.running_jobs.mean",
            totals.per_window(totals.windows.running_sum),
        );
        layers.insert(
            "node.power_sample_ms.p50",
            1e3 * quantile(&window_power, 0.5),
        );
        layers.insert(
            "node.power_sample_ms.p99",
            1e3 * quantile(&window_power, 0.99),
        );
        layers.insert("trace.overhead_frac", median(&overhead));
        text.push_str(&format!(
            "traced reps {}, untraced reps {}; span self times:\n{}",
            traced.len(),
            plain.len(),
            render_self_times(&self_times)
        ));
    }
    text.push_str(&format!(
        "sim_h_per_wall_s   {:.4} h/s (median rep of each site, {cycles} cycles)\n\
         node_h_per_wall_s  {:.4} allocated node-h/s ({:.4} at the reference host speed \
         = throughput)\n\
         kernel_ms          {:.4} ms per calibration call (median of reps; reference {:.4})\n\
         site_p50_ms        {:.3} ms (median wall of one site simulation)\n\
         rep wall s         {}\n",
        totals.sim_h / wall_s,
        totals.node_h / wall_s,
        totals.node_h / ref_wall_s,
        median(&kernel_ms),
        KERNEL_REF_S * 1e3,
        1e3 * median(&walls),
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Measured {
        attempted: (cycles * totals.submitted) as u64,
        failed: (cycles * (totals.submitted - totals.completed)) as u64,
        setup_s: median(&setup),
        peak_rss_mb: peak_rss,
        throughput: totals.node_h / ref_wall_s,
        layers,
        failures,
        report: text,
    }
}
