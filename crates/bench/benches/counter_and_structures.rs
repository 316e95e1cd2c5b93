//! Criterion micro-benchmarks of the low-level building blocks: the shared
//! atomic counter (increment throughput and the argmax pass),
//! the adaptive RRR-set representation's membership test, and the graph
//! generators used by the dataset registry.

use criterion::{criterion_group, criterion_main, Criterion};
use efficient_imm::GlobalCounter;
use imm_graph::generators;
use imm_rrr::{AdaptivePolicy, RrrCollection};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_counter(c: &mut Criterion) {
    let n = 100_000usize;
    let mut group = c.benchmark_group("global_counter");
    group.sample_size(20);

    group.bench_function("increment_1M_sequential", |b| {
        let counter = GlobalCounter::new(n);
        let mut rng = SmallRng::seed_from_u64(1);
        let targets: Vec<u32> = (0..1_000_000).map(|_| rng.gen_range(0..n as u32)).collect();
        b.iter(|| {
            for &t in &targets {
                counter.increment(t);
            }
        })
    });

    // One task per 4096-target chunk on the process-global `imm-exec` pool
    // (`IMM_THREADS`, else the machine's parallelism).
    group.bench_function("increment_1M_pool_scope", |b| {
        let counter = GlobalCounter::new(n);
        let mut rng = SmallRng::seed_from_u64(2);
        let targets: Vec<u32> = (0..1_000_000).map(|_| rng.gen_range(0..n as u32)).collect();
        b.iter(|| {
            rayon::scope(|s| {
                let counter = &counter;
                for chunk in targets.chunks(4096) {
                    s.spawn(move |_| {
                        for &t in chunk {
                            counter.increment(t);
                        }
                    });
                }
            })
        })
    });

    let values: Vec<u32> = {
        let mut rng = SmallRng::seed_from_u64(3);
        (0..n).map(|_| rng.gen_range(0..10_000)).collect()
    };
    let counter = GlobalCounter::from_values(&values);
    group.bench_function("argmax", |b| b.iter(|| black_box(counter.argmax())));
    group.finish();
}

fn bench_rrr_membership(c: &mut Criterion) {
    let n = 200_000usize;
    let mut rng = SmallRng::seed_from_u64(4);
    let members: Vec<u32> = (0..n as u32 / 8).map(|_| rng.gen_range(0..n as u32)).collect();
    let mut sets = RrrCollection::new(n);
    sets.push_vertices(members.clone(), &AdaptivePolicy::always_sorted());
    sets.push_vertices(members, &AdaptivePolicy::always_bitmap());
    let (sorted, bitmap) = (sets.get(0), sets.get(1));
    let probes: Vec<u32> = (0..10_000).map(|_| rng.gen_range(0..n as u32)).collect();

    let mut group = c.benchmark_group("rrr_membership_10k_probes");
    group.sample_size(30);
    group.bench_function("sorted_binary_search", |b| {
        b.iter(|| probes.iter().filter(|&&v| sorted.contains(v)).count())
    });
    group.bench_function("bitmap_bit_test", |b| {
        b.iter(|| probes.iter().filter(|&&v| bitmap.contains(v)).count())
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_generators");
    group.sample_size(10);
    group.bench_function("social_network_10k", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(5);
            black_box(generators::social_network(10_000, 8, 0.3, &mut rng))
        })
    });
    group.bench_function("rmat_scale13", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(6);
            black_box(generators::rmat(13, 8, generators::RmatParams::default(), &mut rng))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_counter, bench_rrr_membership, bench_generators);
criterion_main!(benches);
