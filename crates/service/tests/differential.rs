//! Incremental sketch refresh beyond the conformance matrix (which holds
//! every refreshed generation to a from-scratch `SketchIndex::sample` over
//! random delta sequences, in `tests/conformance.rs` at the workspace root):
//! a rollout serves the new generation while the old engine keeps its own,
//! and a light or 1 % churn resamples only a bounded share of the index
//! while still equalling the rebuild.

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta, NodeId};
use imm_service::{Query, QueryEngine, QueryResponse, SampleSpec, SketchIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn top_k(engine: &QueryEngine, k: usize) -> (Vec<NodeId>, f64) {
    match engine.execute(&Query::top_k(k)) {
        QueryResponse::TopK { seeds, estimated_influence, .. } => (seeds, estimated_influence),
        other => panic!("unexpected {other:?}"),
    }
}

/// Regression for the serving layer: a Top-K, then a rollout the daemon's
/// way — refresh a copy of the index, stand a new engine up over it — and
/// the new engine must answer from the new generation while the old engine
/// keeps serving its own.
#[test]
fn a_rollout_serves_the_new_generation_while_the_old_engine_keeps_its_own() {
    // Star graph hub -> leaves with certain activation: every RRR set
    // contains the hub, so TopK{1} = [0].
    let n = 40usize;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|leaf| (0, leaf)).collect();
    let graph = CsrGraph::from_edges(n, edges.clone()).unwrap();
    let weights = EdgeWeights::constant(&graph, 1.0);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 3);
    let index = SketchIndex::sample(&graph, &weights, spec, 128, 2, "staleness").unwrap();
    let engine = QueryEngine::new(Arc::new(index.clone()));

    let query = Query::top_k(1);
    let before = engine.execute(&query);
    match &before {
        QueryResponse::TopK { seeds, .. } => assert_eq!(seeds, &vec![0]),
        other => panic!("unexpected {other:?}"),
    }

    // Rewire the star: vertex 1 becomes the hub, vertex 0 is disconnected.
    let mut delta = GraphDelta::new();
    for &(src, dst) in &edges {
        delta = delta.delete(src, dst);
        if dst != 1 {
            delta = delta.insert(1, dst, 1.0);
        }
    }
    let mut next = index;
    let (graph2, weights2, _) = next.apply_delta(&graph, &weights, &delta).unwrap();
    let rolled = QueryEngine::new(Arc::new(next));

    assert_eq!(engine.execute(&query), before, "the old engine serves its own generation");
    let after = rolled.execute(&query);
    assert_ne!(after, before, "the pre-delta response must not survive the rollout");
    match &after {
        QueryResponse::TopK { seeds, .. } => assert_eq!(seeds, &vec![1], "new hub wins"),
        other => panic!("unexpected {other:?}"),
    }
    // And the post-delta answer equals a fresh engine over a fresh rebuild.
    let rebuilt = SketchIndex::sample(&graph2, &weights2, spec, 128, 2, "staleness").unwrap();
    assert_eq!(after, QueryEngine::new(Arc::new(rebuilt)).execute(&query));
}

/// The dense regime, where every set holds almost every vertex and "the set
/// contains the touched destination" would invalidate all of them: twenty
/// inserted edges of weight 0.05 change a set only when the coin of an edge
/// from a non-member falls below 0.05, so the refresh must resample a few
/// sets, not θ — and still equal the rebuild.
#[test]
fn dense_regime_inserts_resample_a_few_sets_and_equal_the_rebuild() {
    let n = 400usize;
    let theta = 300usize;
    let mut rng = SmallRng::seed_from_u64(41);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 10, 0.3, &mut rng));
    let weights = EdgeWeights::ic_uniform(&graph, &mut rng);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 13);
    let mut index = SketchIndex::sample(&graph, &weights, spec, theta, 2, "dense").unwrap();
    let mean_len = index.postings().entries() as usize / theta;
    assert!(mean_len > n / 2, "the fixture must be dense (mean set length {mean_len} of {n})");

    let mut delta = GraphDelta::new();
    for _ in 0..20 {
        delta = delta.insert(rng.gen_range(0..n as u32), rng.gen_range(0..n as u32), 0.05);
    }
    let (graph2, weights2, stats) = index.apply_delta(&graph, &weights, &delta).unwrap();
    assert!(
        stats.resampled_sets * 20 <= theta,
        "20 light inserts resampled {} of {theta} sets (must stay within 5%)",
        stats.resampled_sets
    );

    let rebuilt = SketchIndex::sample(&graph2, &weights2, spec, theta, 2, "dense").unwrap();
    assert_eq!(index.postings().sections(), rebuilt.postings().sections());
    assert_eq!(index.postings(), rebuilt.postings(), "refresh must equal the full rebuild");
    for v in 0..n as NodeId {
        assert_eq!(index.ids(v), rebuilt.ids(v), "postings of vertex {v}");
    }
}

/// The acceptance bound: on a 10k-vertex graph with 1% edge churn, the
/// refresh resamples well under a quarter of the index while still matching
/// the from-scratch rebuild seed-for-seed.
#[test]
fn one_percent_churn_resamples_under_a_quarter_of_the_index() {
    let n = 10_000usize;
    let mut rng = SmallRng::seed_from_u64(99);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 8, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.02);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 7);
    let theta = 4_000usize;
    let mut index = SketchIndex::sample(&graph, &weights, spec, theta, 4, "churn").unwrap();

    // 1% churn: delete ~0.5% of the edges, insert the same number back.
    let churn = graph.num_edges() / 100;
    let mut delta_rng = SmallRng::seed_from_u64(5);
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let mut delta = GraphDelta::new();
    let mut used = std::collections::HashSet::new();
    for _ in 0..churn / 2 {
        let mut pick = delta_rng.gen_range(0..edges.len());
        while !used.insert(pick) {
            pick = delta_rng.gen_range(0..edges.len());
        }
        let (src, dst) = edges[pick];
        delta = delta.delete(src, dst);
        delta =
            delta.insert(delta_rng.gen_range(0..n as u32), delta_rng.gen_range(0..n as u32), 0.02);
    }

    let (graph2, weights2, stats) = index.apply_delta(&graph, &weights, &delta).unwrap();
    let fraction = stats.resampled_fraction();
    assert!(
        fraction < 0.25,
        "1% churn resampled {:.1}% of the index (must stay below 25%)",
        fraction * 100.0
    );
    assert!(stats.resampled_sets > 0, "a 1% churn cannot leave the sketch untouched");

    let rebuilt = SketchIndex::sample(&graph2, &weights2, spec, theta, 4, "churn").unwrap();
    assert_eq!(index.postings().sections(), rebuilt.postings().sections());
    assert_eq!(index.postings(), rebuilt.postings(), "refresh must equal the full rebuild");
    let incremental = QueryEngine::new(Arc::new(index));
    let fresh = QueryEngine::new(Arc::new(rebuilt));
    for k in [1usize, 10, 50] {
        assert_eq!(top_k(&incremental, k), top_k(&fresh, k), "k={k}");
    }
}
