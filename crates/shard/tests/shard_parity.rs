//! The acceptance property of the sharded serving subsystem: for **every**
//! shard count and thread count, the `ShardedEngine` answers the full
//! query vocabulary — Top-K (plain and audience-masked), Spread, Marginal —
//! **byte-identically** to the single-index `QueryEngine` over the same
//! sampled collection, under both diffusion models, and keeps doing so after
//! a delta is rolled the way the daemon rolls it (`rebuilt_with_delta`, then
//! a new engine over the next generation).
//!
//! "Byte-identical" is literal: responses are compared with `==` on
//! `QueryResponse`, including the floating-point estimates — both engines
//! must derive them from the same integer tallies with the same operations.

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::{AdaptivePolicy, BitSet, NodeId, RrrCollection};
use imm_service::{
    IndexMeta, Query, QueryEngine, QueryResponse, RefreshStats, SampleSpec, SketchIndex,
};
use imm_shard::{ShardedEngine, ShardedIndex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const THETA: usize = 150;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn fixture(model: DiffusionModel, graph_seed: u64) -> (CsrGraph, EdgeWeights) {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(120, 5, 0.3, &mut rng));
    let weights = match model {
        DiffusionModel::IndependentCascade => EdgeWeights::constant(&graph, 0.2),
        DiffusionModel::LinearThreshold => EdgeWeights::lt_normalized(&graph, &mut rng),
    };
    (graph, weights)
}

/// The query battery both engines must agree on: Top-K budgets asked out of
/// order (exercising the shared prefix), spreads and marginals over seeded
/// random vertex lists, and audience-masked Top-K over random slices.
fn query_battery(num_nodes: usize, probe_seed: u64) -> Vec<Query> {
    let mut probe = SmallRng::seed_from_u64(probe_seed);
    let n = num_nodes as u32;
    let mut queries: Vec<Query> = [1usize, 8, 3, 15, 8].into_iter().map(Query::top_k).collect();
    for _ in 0..4 {
        let seeds: Vec<NodeId> =
            (0..probe.gen_range(1..4)).map(|_| probe.gen_range(0..n)).collect();
        queries.push(Query::Spread { seeds });
    }
    for _ in 0..4 {
        let seeds: Vec<NodeId> =
            (0..probe.gen_range(1..3)).map(|_| probe.gen_range(0..n)).collect();
        queries.push(Query::Marginal { seeds, candidate: probe.gen_range(0..n) });
    }
    for _ in 0..3 {
        let audience = BitSet::from_iter_with_capacity(
            num_nodes,
            (0..probe.gen_range(1..20)).map(|_| probe.gen_range(0..num_nodes)),
        );
        queries.push(Query::audience_top_k(probe.gen_range(1..6), audience));
    }
    queries
}

fn assert_engines_agree(
    single: &QueryEngine,
    sharded: &ShardedEngine,
    queries: &[Query],
    context: &str,
) {
    for (i, query) in queries.iter().enumerate() {
        let expected = single.execute(query);
        let got = sharded.execute(query);
        assert_eq!(got, expected, "{context}: query {i} ({query:?}) diverged");
    }
    // The batch path must agree too (and with itself across thread counts).
    for &threads in &THREAD_COUNTS {
        let batch = sharded.execute_batch(queries, threads);
        let expected: Vec<QueryResponse> = queries.iter().map(|q| single.execute(q)).collect();
        assert_eq!(batch, expected, "{context}: batch diverged at {threads} batch threads");
    }
}

/// Roll `delta` the daemon's way: the next generation off to the side
/// (`engine` keeps serving), then a fresh engine over it.
fn rolled(
    engine: &ShardedEngine,
    pair: (&CsrGraph, &EdgeWeights),
    delta: &GraphDelta,
) -> (ShardedEngine, CsrGraph, EdgeWeights, RefreshStats) {
    let (next, graph, weights, stats) =
        engine.index().rebuilt_with_delta(pair.0, pair.1, delta).expect("sharded refresh");
    (ShardedEngine::new(Arc::new(next)), graph, weights, stats)
}

/// The acceptance grid: shard counts 1/2/4/7 × both models, before and
/// after a rolled delta, each query alone and in batches over 1/2/4 threads.
#[test]
fn sharded_serving_is_byte_identical_across_the_grid() {
    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let (graph, weights) = fixture(model, 0xA5);
        let spec = SampleSpec::new(model, 0x5EED);
        let index =
            SketchIndex::sample(&graph, &weights, spec, THETA, 2, "parity").expect("sample");

        // One delta batch: insertions plus a real deletion and reweight.
        let (del_src, del_dst) = graph.edges().next().expect("graph has edges");
        let (rw_src, rw_dst) = graph.edges().nth(7).expect("graph has > 7 edges");
        let delta = GraphDelta::new()
            .insert(3, 77, 0.8)
            .insert(110, 9, 0.6)
            .delete(del_src, del_dst)
            .reweight(rw_src, rw_dst, 0.4);

        for shards in SHARD_COUNTS {
            let context = format!("{model:?}, {shards} shards");
            let mut single_index = index.clone();
            let single = QueryEngine::new(Arc::new(single_index.clone()));
            let sharded_index = ShardedIndex::from_index(index.clone(), shards).expect("shardable");
            assert_eq!(sharded_index.num_shards(), shards);
            let sharded = ShardedEngine::new(Arc::new(sharded_index));

            let queries = query_battery(graph.num_nodes(), 0xBEE5 ^ shards as u64);
            assert_engines_agree(&single, &sharded, &queries, &context);

            // Both sides take the same batch by rollout — a new engine
            // over the refreshed single index, the sharded one through
            // `rebuilt_with_delta`; the refreshed answers must again be
            // byte-identical (and the refresh stats must agree).
            let (g1, w1, single_stats) =
                single_index.apply_delta(&graph, &weights, &delta).expect("single refresh");
            let single = QueryEngine::new(Arc::new(single_index.clone()));
            let (sharded, g2, w2, sharded_stats) = rolled(&sharded, (&graph, &weights), &delta);
            assert_eq!(single_stats, sharded_stats, "{context}: refresh stats diverged");
            assert_eq!(g1.num_edges(), g2.num_edges());
            let (single_postings, sharded_postings) =
                (single.index().postings(), sharded.index().global_postings());
            assert_eq!(single_postings.sections(), sharded_postings.sections(), "{context}");
            assert_eq!(single_postings, sharded_postings, "{context}: refreshed sets diverged");
            assert_engines_agree(&single, &sharded, &queries, &format!("{context}, post-delta"));

            // And a second chained delta keeps the engines in lockstep.
            let delta2 = GraphDelta::new().delete(3, 77).insert(50, 51, 0.7);
            let (_, _, s1) = single_index.apply_delta(&g1, &w1, &delta2).expect("single delta 2");
            let single = QueryEngine::new(Arc::new(single_index));
            let (sharded, _, _, s2) = rolled(&sharded, (&g2, &w2), &delta2);
            assert_eq!(s1, s2);
            assert_engines_agree(&single, &sharded, &queries, &format!("{context}, post-delta-2"));
        }
    }
}

/// What `rebuilt_with_delta` promises a rolling daemon, over a two-delta
/// chain and then a delta that resamples nothing: the live generation is
/// untouched, the next one equals partitioning the single-index refresh of
/// the same delta, and the global postings — the only postings a generation
/// holds — are shared with the live generation by pointer exactly when no
/// set was resampled.
#[test]
fn a_rollout_leaves_the_live_generation_alone_and_equals_the_single_index_refresh() {
    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let (graph, weights) = fixture(model, 0xA5);
        let spec = SampleSpec::new(model, 0x5EED);
        let index =
            SketchIndex::sample(&graph, &weights, spec, THETA, 2, "parity").expect("sample");
        // Two vertices contained in few sets (but some).
        let mut by_degree: Vec<NodeId> =
            (0..graph.num_nodes() as NodeId).filter(|&v| index.degree(v) >= 2).collect();
        by_degree.sort_by_key(|&v| index.degree(v));
        let chain = [
            GraphDelta::new().insert(3, by_degree[0], 0.9),
            GraphDelta::new().delete(3, by_degree[0]).insert(50, by_degree[1], 0.7),
            GraphDelta::new(),
        ];

        for shards in SHARD_COUNTS {
            let context = format!("{model:?}, {shards} shards");
            let mut single = index.clone();
            let mut live = ShardedIndex::from_index(index.clone(), shards).expect("shardable");
            let (mut g, mut w) = (graph.clone(), weights.clone());
            for (step, delta) in chain.iter().enumerate() {
                let context = format!("{context}, delta {step}");
                let before = live.clone();
                let (next, g_next, w_next, stats) =
                    live.rebuilt_with_delta(&g, &w, delta).expect("rollout");
                assert_eq!(live, before, "{context}: the live generation changed");

                let (_, _, single_stats) =
                    single.apply_delta(&g, &w, delta).expect("single refresh");
                assert_eq!(stats, single_stats, "{context}");
                let resampled = stats.resampled_sets;
                assert_eq!(resampled == 0, step == 2, "{context}: only the empty delta");
                assert_eq!(
                    next,
                    ShardedIndex::from_index(single.clone(), shards).expect("shardable"),
                    "{context}: not the partition of the single-index refresh"
                );
                assert_eq!(
                    Arc::ptr_eq(live.global_postings(), next.global_postings()),
                    resampled == 0,
                    "{context}: the global postings are copied exactly when patched"
                );
                (live, g, w) = (next, g_next, w_next);
            }
        }
    }
}

/// A sharded engine is a `QueryEngine` over the index it was partitioned
/// from: it answers the battery byte-identically for every shard count, and
/// partitioning copied nothing — the global postings are the single index's
/// by pointer and the sharded index weighs what its base weighs.
#[test]
fn a_sharded_engine_is_the_single_engine_over_the_same_postings() {
    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let (graph, weights) = fixture(model, 0xA5);
        let spec = SampleSpec::new(model, 0x5EED);
        let index =
            SketchIndex::sample(&graph, &weights, spec, THETA, 2, "parity").expect("sample");
        for shards in SHARD_COUNTS {
            let context = format!("{model:?}, {shards} shards");
            let sharded_index = ShardedIndex::from_index(index.clone(), shards).expect("shardable");
            assert!(Arc::ptr_eq(sharded_index.global_postings(), index.postings()), "{context}");
            assert_eq!(sharded_index.memory_bytes(), index.memory_bytes(), "{context}");
            let single = QueryEngine::new(Arc::new(index.clone()));
            let sharded = ShardedEngine::new(Arc::new(sharded_index));
            let queries = query_battery(graph.num_nodes(), 0x1D1E ^ shards as u64);
            assert_engines_agree(&single, &sharded, &queries, &context);
        }
    }
}

/// Four threads hammer one engine with a Spread/Marginal mix, all released
/// by one barrier: every walk checks its scratch out of the
/// inner engine's pool and must hand it back all-zero, or a later walk on
/// any thread would tally short.
#[test]
fn concurrent_point_queries_equal_the_sequential_answers() {
    let model = DiffusionModel::IndependentCascade;
    let (graph, weights) = fixture(model, 0xA5);
    let spec = SampleSpec::new(model, 0x5EED);
    let index = SketchIndex::sample(&graph, &weights, spec, THETA, 2, "parity").expect("sample");
    let queries: Vec<Query> = query_battery(graph.num_nodes(), 0xC0C0)
        .into_iter()
        .filter(|q| !matches!(q, Query::TopK { .. }))
        .collect();
    let expected: Vec<QueryResponse> = {
        let single = QueryEngine::new(Arc::new(index.clone()));
        queries.iter().map(|q| single.execute(q)).collect()
    };
    let engine =
        ShardedEngine::new(Arc::new(ShardedIndex::from_index(index, 4).expect("shardable")));
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let (engine, queries, expected, start) = (&engine, &queries, &expected, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..200 {
                    // Each thread walks the mix from its own offset, so
                    // different queries overlap in time.
                    let i = (t * 3 + round) % queries.len();
                    assert_eq!(
                        engine.execute(&queries[i]),
                        expected[i],
                        "thread {t}, round {round}: {:?}",
                        queries[i]
                    );
                }
            });
        }
    });
}

/// Partitioning adopts the single index whole: taking it back out returns
/// the very postings it came with, not a rebuild.
#[test]
fn into_index_hands_back_the_postings_it_was_given() {
    let (graph, weights) = fixture(DiffusionModel::IndependentCascade, 0xA5);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0x5EED);
    let index = SketchIndex::sample(&graph, &weights, spec, THETA, 2, "parity").expect("sample");
    let postings = Arc::clone(index.postings());
    for shards in SHARD_COUNTS {
        let sharded = ShardedIndex::from_index(index.clone(), shards).expect("shardable");
        assert!(Arc::ptr_eq(sharded.global_postings(), &postings), "{shards} shards");
        let back = sharded.into_index();
        assert!(Arc::ptr_eq(back.postings(), &postings), "{shards} shards");
        assert_eq!(back, index);
    }
}

/// A split whose shard count exceeds θ degenerates to empty shards — the
/// engines must still agree.
#[test]
fn more_shards_than_sets_still_serve_identically() {
    let mut c = RrrCollection::new(10);
    for s in [vec![0u32, 1], vec![2], vec![1, 3, 4]] {
        c.push_vertices(s, &imm_rrr::AdaptivePolicy::always_sorted());
    }
    let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
    let single = QueryEngine::new(Arc::new(index.clone()));
    let sharded = ShardedEngine::new(Arc::new(ShardedIndex::from_index(index, 7).unwrap()));
    let queries = query_battery(10, 99);
    assert_engines_agree(&single, &sharded, &queries, "7 shards over 3 sets");
}

proptest! {
    /// Engine parity over arbitrary collections (mixed representations,
    /// empty sets, duplicate members across sets) × arbitrary shard counts.
    #[test]
    fn arbitrary_collections_serve_identically(
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..80, 0..30),
            0..25,
        ),
        bitmap_choices in proptest::collection::vec(any::<bool>(), 0..25),
        shards in 1usize..9,
        probe_seed in 0u64..1_000_000,
    ) {
        let num_nodes = 80usize;
        let mut c = RrrCollection::new(num_nodes);
        for (i, s) in raw_sets.iter().enumerate() {
            let vertices: Vec<u32> = s.iter().copied().collect();
            let policy = if bitmap_choices.get(i).copied().unwrap_or(false) {
                AdaptivePolicy::always_bitmap()
            } else {
                AdaptivePolicy::always_sorted()
            };
            c.push_vertices(vertices, &policy);
        }
        let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
        let single = QueryEngine::new(Arc::new(index.clone()));
        let sharded = ShardedEngine::new(Arc::new(ShardedIndex::from_index(index, shards).unwrap()));
        for query in query_battery(num_nodes, probe_seed) {
            prop_assert_eq!(
                sharded.execute(&query),
                single.execute(&query),
                "shards = {}, query = {:?}", shards, query
            );
        }
    }
}
