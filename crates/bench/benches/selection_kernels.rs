//! Criterion micro-benchmarks of the two `Find_Most_Influential_Set` kernels
//! (the per-kernel view behind Table III / Figures 6–7) and of the adaptive
//! counter update (Figure 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::selection::efficient::select_seeds_efficient;
use efficient_imm::selection::ripples::select_seeds_ripples;
use efficient_imm::{Algorithm, ExecutionConfig};
use imm_bench::datasets::{find, Scale};
use imm_diffusion::DiffusionModel;
use imm_rrr::{AdaptivePolicy, RrrCollection};
use std::hint::black_box;

fn sample_sets(dataset_name: &str, num_sets: usize) -> RrrCollection {
    let spec = find(Scale::Small, dataset_name).expect("dataset");
    let dataset = spec.build();
    let cfg = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 0xBE7C ^ spec.seed,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 16 },
        threads: 2,
        fused_counter: None,
    };
    generate_rrr_sets(&dataset.graph, &dataset.ic_weights, num_sets, 0, &cfg).sets
}

fn bench_selection_kernels(c: &mut Criterion) {
    let sets = sample_sets("web-Google", 192);
    let k = 10;
    let mut group = c.benchmark_group("find_most_influential_set");
    group.sample_size(10);

    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("ripples", threads), &threads, |b, &t| {
            b.iter(|| black_box(select_seeds_ripples(&sets, k, t)))
        });
        let exec = ExecutionConfig::new(Algorithm::Efficient, threads);
        group.bench_with_input(BenchmarkId::new("efficientimm", threads), &threads, |b, _| {
            b.iter(|| black_box(select_seeds_efficient(&sets, k, &exec, None)))
        });
    }
    group.finish();
}

fn bench_adaptive_counter_update(c: &mut Criterion) {
    // Skewed dataset: the adaptive rebuild is designed for this shape.
    let sets = sample_sets("com-LJ", 192);
    let k = 10;
    let threads = 4;
    let mut group = c.benchmark_group("adaptive_counter_update");
    group.sample_size(10);

    let mut with_cfg = ExecutionConfig::new(Algorithm::Efficient, threads);
    with_cfg.features.adaptive_counter_update = true;
    let mut without_cfg = with_cfg;
    without_cfg.features.adaptive_counter_update = false;

    group.bench_function("with_adaptive_update", |b| {
        b.iter(|| black_box(select_seeds_efficient(&sets, k, &with_cfg, None)))
    });
    group.bench_function("without_adaptive_update", |b| {
        b.iter(|| black_box(select_seeds_efficient(&sets, k, &without_cfg, None)))
    });
    group.finish();
}

criterion_group!(benches, bench_selection_kernels, bench_adaptive_counter_update);
criterion_main!(benches);
