//! Criterion micro-benchmarks of the `Generate_RRRsets` kernel: IC vs. LT
//! sampling, kernel fusion on/off, and static vs. dynamic job balancing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::GlobalCounter;
use imm_bench::datasets::{find, Dataset, Scale};
use imm_diffusion::DiffusionModel;
use imm_rrr::AdaptivePolicy;
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
            b.iter(|| black_box(generate_rrr_sets(&d.graph, weights, 128, 0, &cfg)))
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
        b.iter(|| black_box(generate_rrr_sets(&d.graph, &d.ic_weights, 128, 0, &base)))
    });
    group.bench_function("fused_counter", |b| {
        let counter = GlobalCounter::new(d.graph.num_nodes());
        let cfg = SamplingConfig { fused_counter: Some(&counter), ..base };
        b.iter(|| black_box(generate_rrr_sets(&d.graph, &d.ic_weights, 128, 0, &cfg)))
    });
    group.bench_function("static_schedule", |b| {
        let cfg = SamplingConfig { schedule: Schedule::Static, ..base };
        b.iter(|| black_box(generate_rrr_sets(&d.graph, &d.ic_weights, 128, 0, &cfg)))
    });
    group.finish();
}

criterion_group!(benches, bench_models, bench_fusion_and_balancing);
criterion_main!(benches);
