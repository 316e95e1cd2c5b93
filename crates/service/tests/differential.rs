//! The correctness anchor of incremental sketch refresh: after any sequence
//! of edge insertions / deletions / reweights applied through `apply_delta`,
//! the refreshed index must be **byte-identical** — same RRR sets, same
//! postings, same Top-K seeds, same spread estimates — to a from-scratch
//! `SketchIndex::sample` over the mutated graph with the same RNG seed and θ.
//!
//! The properties drive random delta sequences (multigraph inserts included)
//! against random graphs under all three weight regimes (per-edge-frozen
//! constant weights, the degree-normalized weighted cascade, and
//! LT-normalized weights) and both diffusion models. `PROPTEST_CASES` bounds
//! the budget in CI.

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta, NodeId};
use imm_service::{parse_head, Query, QueryEngine, QueryResponse, SampleSpec, SketchIndex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const THETA: usize = 200;

fn base_graph(graph_seed: u64, n: usize) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    CsrGraph::from_edge_list(&generators::social_network(n, 4, 0.3, &mut rng))
}

/// Build a valid random delta against the *current* graph revision: deletions
/// and reweights always name surviving edges (multiset-aware), insertions may
/// duplicate existing edges (the CSR supports multigraphs).
fn random_delta(graph: &CsrGraph, ops: usize, op_seed: u64) -> GraphDelta {
    let mut rng = SmallRng::seed_from_u64(op_seed);
    let n = graph.num_nodes() as u32;
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let mut deletable: Vec<(NodeId, NodeId)> = edges.clone();
    let mut delta = GraphDelta::new();
    for _ in 0..ops {
        match rng.gen_range(0u32..4) {
            0 | 1 => {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                let weight = rng.gen_range(0.05f32..0.9);
                delta = delta.insert(src, dst, weight);
            }
            2 if !deletable.is_empty() => {
                let pick = rng.gen_range(0..deletable.len());
                let (src, dst) = deletable.swap_remove(pick);
                delta = delta.delete(src, dst);
            }
            _ if !deletable.is_empty() => {
                // Reweight a *surviving* edge, and retire it from the pool so
                // a later delete arm cannot consume the same occurrence and
                // leave the reweight dangling (deletions apply first).
                let pick = rng.gen_range(0..deletable.len());
                let (src, dst) = deletable.swap_remove(pick);
                delta = delta.reweight(src, dst, rng.gen_range(0.05f32..0.9));
            }
            _ => {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                delta = delta.insert(src, dst, 0.3);
            }
        }
    }
    delta
}

fn top_k(engine: &QueryEngine, k: usize) -> (Vec<NodeId>, f64) {
    match engine.execute(&Query::top_k(k)) {
        QueryResponse::TopK { seeds, estimated_influence, .. } => (seeds, estimated_influence),
        other => panic!("unexpected {other:?}"),
    }
}

fn spread(engine: &QueryEngine, seeds: Vec<NodeId>) -> f64 {
    match engine.execute(&Query::Spread { seeds }) {
        QueryResponse::Spread { estimate, .. } => estimate,
        other => panic!("unexpected {other:?}"),
    }
}

/// Roll `batches` random deltas the daemon's way (refresh the index, serve
/// it from a new engine), checking after every batch that the refreshed
/// index is indistinguishable from a from-scratch sample of the mutated
/// graph.
fn assert_differential(
    graph: CsrGraph,
    weights: EdgeWeights,
    model: DiffusionModel,
    rng_seed: u64,
    batch_seeds: &[u64],
) {
    let spec = SampleSpec::new(model, rng_seed);
    let mut index = SketchIndex::sample(&graph, &weights, spec, THETA, 2, "differential")
        .expect("initial sample");
    let (mut graph, mut weights) = (graph, weights);

    for (round, &op_seed) in batch_seeds.iter().enumerate() {
        let ops = 1 + (op_seed % 5) as usize;
        let delta = random_delta(&graph, ops, op_seed);
        let (next_graph, next_weights, stats) = index
            .apply_delta(&graph, &weights, &delta)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(stats.total_sets, THETA);
        graph = next_graph;
        weights = next_weights;
        let engine = QueryEngine::new(Arc::new(index.clone()));

        let rebuilt = SketchIndex::sample(&graph, &weights, spec, THETA, 2, "differential")
            .expect("rebuild sample");
        let refreshed = engine.index();
        // Structural identity: the postings of the kept + resampled sets
        // must match what the rebuild sampled from scratch, array for array.
        let (patched, fresh) = (refreshed.postings(), rebuilt.postings());
        assert_eq!(patched.sections(), fresh.sections(), "round {round}: postings diverged");
        assert_eq!(patched, fresh, "round {round}: sets diverged");
        for v in 0..graph.num_nodes() as NodeId {
            assert_eq!(refreshed.ids(v), rebuilt.ids(v), "round {round}, vertex {v}");
        }
        // Served-answer identity: Top-K seeds and spread estimates.
        let rebuilt_engine = QueryEngine::new(Arc::new(rebuilt));
        for k in [1usize, 3, 7] {
            assert_eq!(top_k(&engine, k), top_k(&rebuilt_engine, k), "round {round}, k={k}");
        }
        let mut probe = SmallRng::seed_from_u64(op_seed ^ 0xABCD);
        for _ in 0..3 {
            let seeds: Vec<NodeId> =
                (0..2).map(|_| probe.gen_range(0..graph.num_nodes() as u32)).collect();
            let expected = spread(&rebuilt_engine, seeds.clone());
            let got = spread(&engine, seeds.clone());
            assert!(
                (got - expected).abs() < 1e-12,
                "round {round}: spread({seeds:?}) {got} != {expected}"
            );
        }
    }
}

proptest! {
    #[test]
    fn ic_constant_weights_refresh_equals_rebuild(
        graph_seed in 0u64..10_000,
        batch_seeds in proptest::collection::vec(0u64..1_000_000, 1..4),
    ) {
        let graph = base_graph(graph_seed, 60);
        let weights = EdgeWeights::constant(&graph, 0.25);
        assert_differential(
            graph,
            weights,
            DiffusionModel::IndependentCascade,
            graph_seed ^ 0x5EED,
            &batch_seeds,
        );
    }

    #[test]
    fn ic_weighted_cascade_refresh_equals_rebuild(
        graph_seed in 0u64..10_000,
        batch_seeds in proptest::collection::vec(0u64..1_000_000, 1..3),
    ) {
        // Degree-normalized weights: a deletion/insertion also reweights the
        // destination's other in-edges, so the coin predicate has to compare
        // every in-edge of the destination, not only the one the delta names.
        let graph = base_graph(graph_seed, 50);
        let weights = EdgeWeights::ic_weighted_cascade(&graph);
        assert_differential(
            graph,
            weights,
            DiffusionModel::IndependentCascade,
            graph_seed ^ 0xBEEF,
            &batch_seeds,
        );
    }

    #[test]
    fn lt_normalized_refresh_equals_rebuild(
        graph_seed in 0u64..10_000,
        batch_seeds in proptest::collection::vec(0u64..1_000_000, 1..3),
    ) {
        let graph = base_graph(graph_seed, 50);
        let mut rng = SmallRng::seed_from_u64(graph_seed.wrapping_add(17));
        let weights = EdgeWeights::lt_normalized(&graph, &mut rng);
        assert_differential(
            graph,
            weights,
            DiffusionModel::LinearThreshold,
            graph_seed ^ 0xF00D,
            &batch_seeds,
        );
    }
}

/// Regression for the serving layer: a Top-K answered from the LRU cache,
/// then a rollout the daemon's way — refresh a copy of the index, stand a
/// new engine up over it — and the same query must not replay the
/// pre-delta response, while the old engine keeps serving its generation.
#[test]
fn a_rollout_never_serves_the_cached_pre_delta_answer() {
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
    assert_eq!(engine.execute(&query), before, "second ask is served from the cache");
    assert_eq!(engine.cache_stats().hits, 1);
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
    assert_ne!(after, before, "the cached pre-delta response must not survive the rollout");
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

/// Postings forms follow the degrees through a refresh: on a dense graph a
/// vertex that cannot reach anything is in almost no set (a list); giving
/// it a certain edge into the core puts it in almost every set (a row), and
/// taking the edge away again sends it back. After each step the patched
/// index equals the rebuilt one array for array, and so do the bytes they
/// save.
#[test]
fn a_vertex_crossing_the_row_threshold_both_ways_is_patched_like_a_rebuild() {
    let n = 300usize;
    let theta = 320usize; // a row needs degree > 10
    let mut rng = SmallRng::seed_from_u64(43);
    let dense = CsrGraph::from_edge_list(&generators::social_network(n, 10, 0.3, &mut rng));
    let weights = EdgeWeights::ic_uniform(&dense, &mut rng);
    // Cut the last vertex off: without out-edges it reaches no root but itself.
    let loner = (n - 1) as NodeId;
    let mut cut = GraphDelta::new();
    for &v in dense.transpose().in_neighbors(loner) {
        cut = cut.delete(loner, v);
    }
    let (graph, weights) = cut.apply(&dense, &weights).unwrap();
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 29);
    let mut index = SketchIndex::sample(&graph, &weights, spec, theta, 2, "crossing").unwrap();
    let hub = (0..n as NodeId).max_by_key(|&v| index.degree(v)).unwrap();
    assert!(index.postings().is_row(hub) && !index.postings().is_row(loner));

    let steps = [
        (GraphDelta::new().insert(loner, hub, 1.0), true),
        (GraphDelta::new().delete(loner, hub).insert(3, 7, 0.05), false),
    ];
    let (mut graph, mut weights) = (graph, weights);
    for (delta, loner_is_row) in steps {
        let (g, w, stats) = index.apply_delta(&graph, &weights, &delta).unwrap();
        (graph, weights) = (g, w);
        assert!(stats.resampled_sets > theta / 2, "the loner joins or leaves most sets");
        assert_eq!(index.postings().is_row(loner), loner_is_row, "degree {}", index.degree(loner));

        let rebuilt = SketchIndex::sample(&graph, &weights, spec, theta, 2, "crossing").unwrap();
        assert_eq!(index.postings(), rebuilt.postings());
        assert_eq!(index.postings().sections(), rebuilt.postings().sections());
        // Saved bytes: identical from the first data section on (the heads
        // differ by the delta log only the refreshed index carries).
        let saved = |index: &SketchIndex| {
            let mut bytes = Vec::new();
            index.save(&mut bytes).unwrap();
            let data_from = parse_head(&bytes).unwrap().sections.offsets_off;
            (data_from, bytes)
        };
        let ((from_a, patched), (from_b, fresh)) = (saved(&index), saved(&rebuilt));
        assert_eq!(from_a, from_b);
        assert_eq!(patched[from_a..], fresh[from_b..], "saved data sections diverged");
        assert_eq!(SketchIndex::load(&mut patched.as_slice()).unwrap(), index);
    }
}

/// The ISSUE acceptance bound: on a 10k-vertex graph with 1% edge churn, the
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
