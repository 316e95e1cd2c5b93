//! Criterion micro-benchmarks of the `Generate_RRRsets` kernel: IC vs. LT
//! sampling, static vs. dynamic job balancing, and an IC density sweep
//! across the reverse BFS's top-down/bottom-up switch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
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
        };
        group.bench_with_input(BenchmarkId::from_parameter(model.short_name()), &model, |b, _| {
            b.iter(|| black_box(generate_rrr_sets(&d.graph, weights, 128, |i| i, &cfg)))
        });
    }
    group.finish();
}

fn bench_balancing(c: &mut Criterion) {
    let d = dataset();
    let mut group = c.benchmark_group("generate_rrrsets_schedule");
    group.sample_size(10);

    let base = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 7,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 16 },
        threads: 4,
    };

    group.bench_function("dynamic_schedule", |b| {
        b.iter(|| black_box(generate_rrr_sets(&d.graph, &d.ic_weights, 128, |i| i, &base)))
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
/// [0, 1]; 200 sets an iteration). `weighted_cascade_150k` is the sparse
/// regime on a 150 000-node graph (2 000 sets), where a coin is rarely live
/// and a branch on it predicts well.
fn bench_density_sweep(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(11);
    let graph = CsrGraph::from_edge_list(&generators::social_network(2_000, 10, 0.3, &mut rng));
    let uniform = EdgeWeights::ic_uniform(&graph, &mut rng);
    let large = CsrGraph::from_edge_list(&generators::social_network(150_000, 10, 0.3, &mut rng));
    let regimes = [
        ("uniform", &graph, uniform, 200),
        ("weighted_cascade", &graph, EdgeWeights::ic_weighted_cascade(&graph), 2_000),
        ("const_0.05", &graph, EdgeWeights::constant(&graph, 0.05), 2_000),
        ("const_0.1", &graph, EdgeWeights::constant(&graph, 0.1), 200),
        ("const_0.15", &graph, EdgeWeights::constant(&graph, 0.15), 200),
        ("const_0.2", &graph, EdgeWeights::constant(&graph, 0.2), 200),
        ("const_0.3", &graph, EdgeWeights::constant(&graph, 0.3), 200),
        ("weighted_cascade_150k", &large, EdgeWeights::ic_weighted_cascade(&large), 2_000),
    ];
    let cfg = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 7,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 64 },
        threads: 1,
    };
    let mut group = c.benchmark_group("generate_rrrsets_ic_density");
    group.sample_size(20);
    for (name, graph, weights, sets) in &regimes {
        group.bench_function(*name, |b| {
            b.iter(|| black_box(generate_rrr_sets(graph, weights, *sets, |i| i, &cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_models, bench_balancing, bench_density_sweep);
criterion_main!(benches);
