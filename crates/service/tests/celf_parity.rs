//! The CELF acceptance property: the engine's lazy-greedy (CELF) Top-K must
//! be **byte-identical** to the naive full-argmax greedy — represented by
//! both batch selection kernels, which rescan counters every round — for
//! arbitrary sampled collections, across thread counts and both diffusion
//! models. Lazy evaluation must be invisible: same seeds, same order, same
//! coverage, including tie rounds and zero-gain tail rounds.

#[path = "support/masked_oracle.rs"]
#[allow(dead_code)] // this suite draws only its mixed-form collection
mod masked_oracle;

use efficient_imm::selection::ripples::select_seeds_ripples;
use efficient_imm::{Algorithm, ExecutionConfig, SeedSelection};
use imm_bench::efficient::select_seeds_efficient;
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::RrrCollection;
use imm_service::{Query, QueryEngine, QueryResponse, SketchIndex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A fresh eager selection by the engine `exec` names: the Ripples baseline
/// kernel, or the paper's EfficientIMM kernel (in `imm-bench`, adaptive
/// counter update on).
fn eager_selection(sets: &RrrCollection, k: usize, exec: &ExecutionConfig) -> SeedSelection {
    match exec.algorithm {
        Algorithm::Ripples => select_seeds_ripples(sets, k, exec.threads),
        Algorithm::Efficient => select_seeds_efficient(sets, k, exec, true, None).0,
    }
}

fn sampled_collection(
    model: DiffusionModel,
    graph_seed: u64,
    rng_seed: u64,
    n: usize,
    theta: usize,
) -> (CsrGraph, RrrCollection) {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 5, 0.3, &mut rng));
    let weights = match model {
        DiffusionModel::IndependentCascade => EdgeWeights::ic_weighted_cascade(&graph),
        DiffusionModel::LinearThreshold => EdgeWeights::lt_normalized(&graph, &mut rng),
    };
    let cfg = efficient_imm::sampling::SamplingConfig {
        model,
        rng_seed,
        policy: imm_rrr::AdaptivePolicy::default(),
        schedule: efficient_imm::balance::Schedule::Dynamic { chunk: 16 },
        threads: 2,
    };
    let out = efficient_imm::sampling::generate_rrr_sets(&graph, &weights, theta, |i| i, &cfg);
    (graph, out.sets)
}

fn engine_top_k(engine: &QueryEngine, k: usize) -> (Vec<u32>, f64) {
    match engine.execute(&Query::top_k(k)) {
        QueryResponse::TopK { seeds, coverage_fraction, .. } => (seeds, coverage_fraction),
        other => panic!("unexpected {other:?}"),
    }
}

fn assert_celf_matches_naive(model: DiffusionModel, graph_seed: u64, rng_seed: u64, k: usize) {
    let (graph, collection) = sampled_collection(model, graph_seed, rng_seed, 120, 150);
    let index = SketchIndex::build(&graph, collection.clone(), "celf-parity").unwrap();
    let engine = QueryEngine::new(Arc::new(index));
    // Budgets asked out of order exercise the shared prefix as well.
    for budget in [k, k / 2 + 1, k] {
        let (seeds, coverage) = engine_top_k(&engine, budget);
        for algorithm in [Algorithm::Efficient, Algorithm::Ripples] {
            for threads in [1usize, 2, 4] {
                let exec = ExecutionConfig::new(algorithm, threads);
                let naive = eager_selection(&collection, budget, &exec);
                assert_eq!(
                    seeds, naive.seeds,
                    "{model:?} {algorithm:?} threads={threads} budget={budget}"
                );
                assert!(
                    (coverage - naive.coverage_fraction).abs() < 1e-12,
                    "{model:?} {algorithm:?} threads={threads} budget={budget}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn celf_equals_naive_greedy_under_ic(
        graph_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
        k in 1usize..12,
    ) {
        assert_celf_matches_naive(DiffusionModel::IndependentCascade, graph_seed, rng_seed, k);
    }

    #[test]
    fn celf_equals_naive_greedy_under_lt(
        graph_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
        k in 1usize..12,
    ) {
        assert_celf_matches_naive(DiffusionModel::LinearThreshold, graph_seed, rng_seed, k);
    }
}

/// Hand-built corner cases where lazy evaluation is most likely to diverge
/// from the naive argmax: all-zero rounds, exhausted coverage, ties, and a
/// collection whose vertices mix bit rows and lists.
#[test]
fn celf_matches_naive_on_degenerate_collections() {
    use imm_rrr::AdaptivePolicy;

    let cases: Vec<(usize, Vec<Vec<u32>>)> = vec![
        // Coverage exhausts before the budget: zero-gain tail rounds.
        (4, vec![vec![0], vec![2]]),
        // Everything ties.
        (5, vec![vec![0, 1, 2, 3, 4]]),
        // Empty collection: every round is a zero round.
        (3, vec![]),
        // Duplicate sets force repeated ties.
        (6, vec![vec![1, 3], vec![1, 3], vec![5], vec![5]]),
        // Rows and lists in one session: popcount and probe revalidations.
        masked_oracle::mixed_form_sets(),
    ];
    for (n, sets) in cases {
        let mut collection = RrrCollection::new(n);
        for s in &sets {
            collection.push_vertices(s.clone(), &AdaptivePolicy::always_sorted());
        }
        let index =
            SketchIndex::from_collection(collection.clone(), imm_service::IndexMeta::default())
                .unwrap();
        let engine = QueryEngine::new(Arc::new(index));
        let k = n; // push past coverage exhaustion
        let (seeds, coverage) = engine_top_k(&engine, k);
        let exec = ExecutionConfig::new(Algorithm::Efficient, 1);
        let naive = eager_selection(&collection, k, &exec);
        assert_eq!(seeds, naive.seeds, "n={n} sets={sets:?}");
        assert!((coverage - naive.coverage_fraction).abs() < 1e-12);
    }
}
