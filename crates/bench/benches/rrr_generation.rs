//! Criterion micro-benchmarks of the `Generate_RRRsets` kernel: IC vs. LT
//! sampling, kernel fusion on/off, static vs. dynamic job balancing, and an
//! IC density sweep across the reverse BFS's top-down/bottom-up switch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::GlobalCounter;
use imm_bench::datasets::{find, Dataset, Scale};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::AdaptivePolicy;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn dataset() -> Dataset {
    find(Scale::Small, "com-YouTube").expect("dataset").build()
}

fn bench_models(c: &mut Criterion) {
    let d = dataset();
    let mut group = c.benchmark_group("generate_rrrsets_model");
    group.sample_size(10);
    for (model, weights) in [
        (DiffusionModel::IndependentCascade, &d.ic_weights),
        (DiffusionModel::LinearThreshold, &d.lt_weights),
    ] {
        let cfg = SamplingConfig {
            model,
            rng_seed: 7,
            policy: AdaptivePolicy::default(),
            schedule: Schedule::Dynamic { chunk: 16 },
            threads: 4,
            fused_counter: None,
        };
        group.bench_with_input(BenchmarkId::from_parameter(model.short_name()), &model, |b, _| {
            b.iter(|| black_box(generate_rrr_sets(&d.graph, weights, 128, |i| i, &cfg)))
        });
    }
    group.finish();
}

fn bench_fusion_and_balancing(c: &mut Criterion) {
    let d = dataset();
    let mut group = c.benchmark_group("generate_rrrsets_features");
    group.sample_size(10);

    let base = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 7,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 16 },
        threads: 4,
        fused_counter: None,
    };

    group.bench_function("unfused", |b| {
        b.iter(|| black_box(generate_rrr_sets(&d.graph, &d.ic_weights, 128, |i| i, &base)))
    });
    group.bench_function("fused_counter", |b| {
        let counter = GlobalCounter::new(d.graph.num_nodes());
        let cfg = SamplingConfig { fused_counter: Some(&counter), ..base };
        b.iter(|| black_box(generate_rrr_sets(&d.graph, &d.ic_weights, 128, |i| i, &cfg)))
    });
    group.bench_function("static_schedule", |b| {
        let cfg = SamplingConfig { schedule: Schedule::Static, ..base };
        b.iter(|| black_box(generate_rrr_sets(&d.graph, &d.ic_weights, 128, |i| i, &cfg)))
    });
    group.finish();
}

/// IC sets on one worker over a 2 000-node social graph (the shape of the
/// `solve-ic` benchmark input) at densities from sets of a dozen vertices
/// (weighted cascade, constant 0.05; 2 000 sets an iteration) through
/// mid-size ones (0.1–0.2) to sets over most of the graph (0.3, uniform
/// [0, 1]; 200 sets an iteration).
fn bench_density_sweep(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(11);
    let graph = CsrGraph::from_edge_list(&generators::social_network(2_000, 10, 0.3, &mut rng));
    let regimes = [
        ("uniform", EdgeWeights::ic_uniform(&graph, &mut rng), 200),
        ("weighted_cascade", EdgeWeights::ic_weighted_cascade(&graph), 2_000),
        ("const_0.05", EdgeWeights::constant(&graph, 0.05), 2_000),
        ("const_0.1", EdgeWeights::constant(&graph, 0.1), 200),
        ("const_0.15", EdgeWeights::constant(&graph, 0.15), 200),
        ("const_0.2", EdgeWeights::constant(&graph, 0.2), 200),
        ("const_0.3", EdgeWeights::constant(&graph, 0.3), 200),
    ];
    let cfg = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 7,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 64 },
        threads: 1,
        fused_counter: None,
    };
    let mut group = c.benchmark_group("generate_rrrsets_ic_density");
    group.sample_size(20);
    for (name, weights, sets) in &regimes {
        group.bench_function(*name, |b| {
            b.iter(|| black_box(generate_rrr_sets(&graph, weights, *sets, |i| i, &cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_models, bench_fusion_and_balancing, bench_density_sweep);
criterion_main!(benches);
