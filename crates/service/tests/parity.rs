//! The acceptance property of the serving subsystem: a `SketchIndex` built
//! once answers Top-K queries for multiple budgets with **byte-identical**
//! seeds to a fresh `run_imm`/`select_seeds` selection over the same
//! collection — without resampling anything.

use efficient_imm::{run_imm, select_seeds, Algorithm, ExecutionConfig, ImmParams};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_service::{Query, QueryEngine, QueryResponse, SketchIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn sampled_run(
    n: usize,
    graph_seed: u64,
    k: usize,
) -> (CsrGraph, EdgeWeights, efficient_imm::ImmResult) {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 6, 0.3, &mut rng));
    let weights = EdgeWeights::ic_weighted_cascade(&graph);
    let params = ImmParams::new(k, 0.5, DiffusionModel::IndependentCascade).with_seed(17);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2).with_retained_sets(true);
    let result = run_imm(&graph, &weights, &params, &exec).expect("valid parameters");
    (graph, weights, result)
}

fn top_k(engine: &QueryEngine, k: usize) -> (Vec<u32>, f64) {
    match engine.execute(&Query::top_k(k)) {
        QueryResponse::TopK { seeds, coverage_fraction, .. } => (seeds, coverage_fraction),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn served_top_k_is_byte_identical_to_the_batch_run() {
    let k = 8;
    let (graph, _weights, result) = sampled_run(400, 3, k);
    let collection = result.rrr_sets.clone().expect("retained");
    let index = SketchIndex::build(&graph, collection, "parity").unwrap();
    let engine = QueryEngine::new(Arc::new(index));
    let (seeds, coverage) = top_k(&engine, k);
    assert_eq!(seeds, result.seeds, "index greedy must replicate the run_imm selection");
    assert!((coverage - result.coverage_fraction).abs() < 1e-12);
}

#[test]
fn multiple_budgets_match_fresh_selections_and_share_the_prefix() {
    let (graph, _weights, result) = sampled_run(350, 5, 10);
    let collection = result.rrr_sets.expect("retained");
    let index = SketchIndex::build(&graph, collection.clone(), "parity-multi-budget").unwrap();
    let engine = QueryEngine::new(Arc::new(index));

    // Ask budgets out of order (3, 8, 5, 10): every answer must equal a
    // fresh selection-kernel pass over the same collection at that budget,
    // and smaller budgets must be prefixes of larger ones.
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
    let mut largest: Vec<u32> = Vec::new();
    for k in [3usize, 8, 5, 10] {
        let (seeds, coverage) = top_k(&engine, k);
        let fresh = select_seeds(&collection, k, &exec);
        assert_eq!(seeds, fresh.seeds, "budget {k}");
        assert!((coverage - fresh.coverage_fraction).abs() < 1e-12, "budget {k}");
        if seeds.len() > largest.len() {
            largest = seeds;
        } else {
            assert_eq!(seeds.as_slice(), &largest[..seeds.len()], "budget {k} prefix");
        }
    }
}

#[test]
fn both_selection_engines_agree_with_the_served_answer() {
    let (graph, _weights, result) = sampled_run(300, 9, 6);
    let collection = result.rrr_sets.expect("retained");
    let index = SketchIndex::build(&graph, collection.clone(), "parity-engines").unwrap();
    let engine = QueryEngine::new(Arc::new(index));
    let (seeds, _) = top_k(&engine, 6);
    for algorithm in [Algorithm::Ripples, Algorithm::Efficient] {
        let exec = ExecutionConfig::new(algorithm, 3);
        let fresh = select_seeds(&collection, 6, &exec);
        assert_eq!(seeds, fresh.seeds, "{algorithm:?}");
    }
}

#[test]
fn spread_and_marginal_match_the_collection_estimators() {
    let (graph, _weights, result) = sampled_run(300, 11, 5);
    let collection = result.rrr_sets.expect("retained");
    let index = SketchIndex::build(&graph, collection.clone(), "parity-estimates").unwrap();
    let engine = QueryEngine::new(Arc::new(index));

    let seeds = result.seeds;
    match engine.execute(&Query::Spread { seeds: seeds.clone() }) {
        QueryResponse::Spread { estimate, coverage_fraction } => {
            assert!((estimate - collection.estimate_influence(&seeds)).abs() < 1e-9);
            assert!((coverage_fraction - collection.coverage_fraction(&seeds)).abs() < 1e-12);
        }
        other => panic!("unexpected {other:?}"),
    }

    let base = &seeds[..2];
    for candidate in [seeds[2], seeds[0], 0u32] {
        let with: Vec<u32> = base.iter().copied().chain([candidate]).collect();
        let expected = collection.estimate_influence(&with) - collection.estimate_influence(base);
        match engine.execute(&Query::Marginal { seeds: base.to_vec(), candidate }) {
            QueryResponse::Marginal { gain, .. } => {
                assert!((gain - expected).abs() < 1e-9, "candidate {candidate}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn snapshot_round_trip_preserves_served_answers() {
    let (graph, _weights, result) = sampled_run(250, 13, 6);
    let collection = result.rrr_sets.expect("retained");
    let index = SketchIndex::build(&graph, collection, "parity-snapshot").unwrap();

    let mut bytes = Vec::new();
    index.save(&mut bytes).unwrap();
    let reloaded = SketchIndex::load(&mut bytes.as_slice()).unwrap();
    assert_eq!(reloaded, index, "snapshot save → load must round-trip exactly");

    let before = QueryEngine::new(Arc::new(index));
    let after = QueryEngine::new(Arc::new(reloaded));
    for k in [2usize, 6] {
        assert_eq!(top_k(&before, k), top_k(&after, k), "budget {k}");
    }
}
