//! The masked session's acceptance property on the sharded engine: the
//! audience Top-K a `ShardedEngine` serves — the engine-side sparse greedy
//! over the index's global postings, at every shard count — is
//! **byte-identical** to the dense whole-index oracle
//! (`imm-service`'s `tests/support/masked_oracle.rs`, shared by path) on
//! random collections and on one whose vertices mix bit rows and lists, and
//! its pooled scratch leaks neither into the next query, nor into the
//! persistent greedy session, nor between concurrent batch workers.

#[path = "../../service/tests/support/masked_oracle.rs"]
mod masked_oracle;

use imm_graph::GraphDelta;
use imm_rrr::BitSet;
use imm_service::{Query, QueryResponse, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use masked_oracle::{
    audience_queries, audiences, budgets, dense_masked_top_k, hash_sets, index_from,
    mixed_form_sets, sampled, sampled_index, Indexed,
};
use proptest::prelude::*;
use std::sync::Arc;

const NUM_NODES: usize = 48;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// An engine over `index` under a `shards`-entry shard map.
fn engine(index: &SketchIndex, shards: usize) -> ShardedEngine {
    let sharded = Arc::new(ShardedIndex::from_index(index.clone(), shards).expect("shardable"));
    ShardedEngine::new(sharded)
}

/// Every audience shape × every budget on `index`, at every shard count,
/// equals the dense oracle over `sets`, the collection it indexed.
fn sweep_equals_the_dense_oracle((index, sets): Indexed, seed: u64) {
    let n = index.num_nodes();
    let cases: Vec<(&str, BitSet, usize, QueryResponse)> = audiences(n, seed)
        .into_iter()
        .flat_map(|(shape, audience)| {
            budgets(n).map(|k| {
                let expected = dense_masked_top_k(&sets, k, &audience);
                (shape, audience.clone(), k, expected)
            })
        })
        .collect();
    for shards in SHARD_COUNTS {
        let engine = engine(&index, shards);
        for (shape, audience, k, expected) in &cases {
            prop_assert_eq!(
                &engine.execute(&Query::audience_top_k(*k, audience.clone())),
                expected,
                "{} shards, audience: {}, k = {}",
                shards,
                shape,
                k
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_sparse_session_equals_the_dense_oracle(
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..NUM_NODES as u32, 0..20),
            0..30,
        ),
        bitmap_choices in proptest::collection::vec(any::<bool>(), 0..30),
        seed in 0u64..1_000_000,
    ) {
        sweep_equals_the_dense_oracle(index_from(NUM_NODES, &raw_sets, &bitmap_choices), seed);
    }
}

/// The same sweep on an index whose vertices mix bit rows and lists.
#[test]
fn sharded_sparse_session_equals_the_dense_oracle_when_rows_and_lists_mix() {
    let (n, sets) = mixed_form_sets();
    sweep_equals_the_dense_oracle(index_from(n, &hash_sets(&sets), &[]), 0x31C3);
}

#[test]
fn back_to_back_audiences_equal_fresh_engine_answers() {
    let (_, _, index, sets) = sampled_index();
    let (queries, _) = audience_queries(&sets);
    let reused = engine(&index, 4);
    // A leaked count or alive bit of query i would change query i + 1.
    for query in &queries {
        let fresh = engine(&index, 4);
        assert_eq!(reused.execute(query), fresh.execute(query), "{query:?}");
    }
}

#[test]
fn a_masked_query_leaves_the_persistent_prefix_intact() {
    let (_, _, index, sets) = sampled_index();
    let (queries, _) = audience_queries(&sets);
    let served = engine(&index, 4);
    let fresh = engine(&index, 4);
    let three = served.execute(&Query::top_k(3));
    for query in queries.iter().take(3) {
        served.execute(query);
    }
    assert_eq!(served.execute(&Query::top_k(3)), three);
    assert_eq!(served.execute(&Query::top_k(9)), fresh.execute(&Query::top_k(9)));
}

#[test]
fn concurrent_audience_batches_equal_sequential_execution() {
    let (_, _, index, sets) = sampled_index();
    let (queries, sequential) = audience_queries(&sets);
    let engine = engine(&index, 4);
    for threads in [1usize, 2, 4] {
        assert_eq!(engine.execute_batch(&queries, threads), sequential, "threads = {threads}");
    }
}

#[test]
fn a_rolled_generation_serves_the_refreshed_index() {
    let (graph, weights, index, sets) = sampled_index();
    let spec = index.provenance().expect("dynamic").spec;
    let (queries, _) = audience_queries(&sets);
    let old = engine(&index, 4);
    for query in &queries {
        old.execute(query); // the old generation has served its sessions
    }
    let (src, dst) = graph.edges().next().expect("graph has edges");
    let delta = GraphDelta::new().insert(3, 77, 0.8).insert(110, 9, 0.6).delete(src, dst);
    // The daemon's rollout: the next generation off to the side, a new
    // engine over it.
    let (next, graph, weights, _) =
        old.index().rebuilt_with_delta(&graph, &weights, &delta).expect("refresh");
    let engine = ShardedEngine::new(Arc::new(next));
    // A rollout equals the rebuild, so the oracle reads the rebuild's sets.
    let (_, expected) = audience_queries(&sampled(&graph, &weights, spec, sets.len()).1);
    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(&engine.execute(query), expected, "{query:?}");
    }
}
