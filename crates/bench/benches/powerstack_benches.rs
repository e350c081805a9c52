//! Criterion micro/meso-benchmarks for the simulator's hot paths and
//! reduced-scale versions of each paper experiment.
//!
//! `cargo bench` runs these; full-scale artifact regeneration is
//! `cargo run -p pstack-bench --bin artifacts --release`.

use criterion::{criterion_group, criterion_main, Criterion};
use powerstack_core::experiments::{fig2, fig4, fig6, uc6, uc7};
use powerstack_core::framework::{Scenario, TuningLevel};
use pstack_apps::synthetic::{Profile, SyntheticApp};
use pstack_apps::workload::AppModel;
use pstack_apps::MpiModel;
use pstack_autotune::{ForestSearch, RandomSearch, SearchAlgorithm, Tuner};
use pstack_hwmodel::{Node, NodeConfig, NodeId, PhaseKind, PhaseMix};
use pstack_node::NodeManager;
use pstack_runtime::{ArbiterMode, JobRunner};
use pstack_sim::{SeedTree, SimDuration, SimTime};
use std::hint::black_box;

/// Substrate: one node-step (the innermost simulation operation).
fn bench_node_step(c: &mut Criterion) {
    let mut node = Node::nominal(NodeId(0), NodeConfig::server_default());
    let mix = PhaseMix::pure(PhaseKind::ComputeBound);
    let mut t = SimTime::ZERO;
    let dt = SimDuration::from_millis(100);
    c.bench_function("substrate/node_step_100ms", |b| {
        b.iter(|| {
            let out = node.step(t, dt, black_box(&mix), 48);
            t += dt;
            black_box(out)
        })
    });
}

/// Substrate: a capped node-step (adds RAPL window + controller work).
fn bench_capped_node_step(c: &mut Criterion) {
    let mut node = Node::nominal(NodeId(0), NodeConfig::server_default());
    node.set_power_cap(SimTime::ZERO, 300.0, SimDuration::from_millis(10));
    let mix = PhaseMix::pure(PhaseKind::ComputeBound);
    let mut t = SimTime::ZERO;
    let dt = SimDuration::from_millis(100);
    c.bench_function("substrate/capped_node_step_100ms", |b| {
        b.iter(|| {
            let out = node.step(t, dt, black_box(&mix), 48);
            t += dt;
            black_box(out)
        })
    });
}

/// Substrate: a complete 4-node job execution (barriers, imbalance).
fn bench_job_execution(c: &mut Criterion) {
    c.bench_function("substrate/job_4nodes_to_completion", |b| {
        b.iter(|| {
            let app = SyntheticApp::new(Profile::Mixed, 5.0, 10);
            let seeds = SeedTree::new(1);
            let mut nodes: Vec<NodeManager> = (0..4)
                .map(|i| NodeManager::new(Node::nominal(NodeId(i), NodeConfig::server_default())))
                .collect();
            let mut runner = JobRunner::new(
                &app.workload(4),
                4,
                &MpiModel::typical(),
                &seeds,
                ArbiterMode::Gated,
            );
            black_box(runner.run_to_completion(SimTime::ZERO, &mut nodes, &mut []))
        })
    });
}

/// Autotuner: surrogate vs random on an analytic objective (30 evals).
fn bench_search(c: &mut Criterion) {
    let space = pstack_autotune::ParamSpace::new()
        .with(pstack_autotune::Param::ints("x", 0..10))
        .with(pstack_autotune::Param::ints("y", 0..10))
        .with(pstack_autotune::Param::ints("z", 0..10));
    let objective = |_s: &pstack_autotune::ParamSpace, cfg: &Vec<usize>| {
        let o: f64 = cfg.iter().map(|&v| (v as f64 - 4.0).powi(2)).sum();
        (o, std::collections::HashMap::new())
    };
    let mut group = c.benchmark_group("autotune/30_evals");
    group.sample_size(20);
    group.bench_function("random", |b| {
        b.iter(|| {
            let mut alg = RandomSearch::new();
            black_box(
                Tuner::new(space.clone())
                    .max_evals(30)
                    .run(&mut alg as &mut dyn SearchAlgorithm, objective)
                    .expect("non-empty space"),
            )
        })
    });
    group.bench_function("random_forest", |b| {
        b.iter(|| {
            let mut alg = ForestSearch::new();
            black_box(
                Tuner::new(space.clone())
                    .max_evals(30)
                    .run(&mut alg as &mut dyn SearchAlgorithm, objective)
                    .expect("non-empty space"),
            )
        })
    });
    group.finish();
}

/// Paper artifacts at reduced scale — one benchmark per figure/use case, so
/// `cargo bench` demonstrably regenerates every experiment's machinery.
fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_small");
    group.sample_size(10);
    group.bench_function("fig1_opportunity_one_cell", |b| {
        b.iter(|| {
            black_box(
                Scenario {
                    n_nodes: 4,
                    system_budget_w: Some(4.0 * 350.0),
                    tuning: TuningLevel::EndToEnd,
                    n_jobs: 3,
                    seed: 1,
                    job_scale: 0.3,
                }
                .run(),
            )
        })
    });
    group.bench_function("fig2_interactions", |b| {
        b.iter(|| black_box(fig2::run(1200.0, 8.0, 1)))
    });
    group.bench_function("fig4_ytopt_25evals", |b| {
        b.iter(|| {
            black_box(fig4::run(
                &pstack_apps::kernelmodel::KernelModel::polybench_large(),
                25,
                1,
            ))
        })
    });
    group.bench_function("fig6_corridor_4nodes", |b| {
        b.iter(|| black_box(fig6::run(4, 40.0, 1)))
    });
    group.bench_function("uc6_countdown_4nodes", |b| {
        b.iter(|| black_box(uc6::run(&[4], 6.0, 1)))
    });
    group.bench_function("uc7_two_runtimes_small", |b| {
        b.iter(|| black_box(uc7::run(2, 20, 0.4, 1)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_node_step,
    bench_capped_node_step,
    bench_job_execution,
    bench_search,
    bench_experiments
);
criterion_main!(benches);
