//! Query serving over a [`ShardedIndex`]: a `QueryEngine` over the base,
//! under a shard map.
//!
//! The engine answers the full `imm-service` query vocabulary with the same
//! byte-identical results as the single-index `QueryEngine` — that parity is
//! the crate's acceptance property — by *being* one: Top-K (plain and
//! audience), Spread and Marginal (one marking walk of the global postings:
//! under a microsecond, an order of magnitude below what one cross-thread
//! hand-off costs, so there is nothing to scatter), the query metrics and
//! the batch fan-out are the inner [`QueryEngine`]'s over the base index, for
//! any shard count and any thread count. What this file adds is the shard
//! map's one serving-side number, `shard_load_imbalance`.
//!
//! An engine serves one index generation for its whole life. A delta is
//! rolled the way the daemon rolls it: [`ShardedIndex::rebuilt_with_delta`]
//! builds the next generation off to the side and a new engine stands up
//! over it.

use crate::index::ShardedIndex;
use imm_service::{Query, QueryEngine, QueryResponse};
use std::convert::Infallible;
use std::sync::Arc;

/// A query-serving engine over a [`ShardedIndex`], answering the same
/// vocabulary as `imm_service::QueryEngine` with byte-identical results: it
/// is that engine over the base index.
#[derive(Debug)]
pub struct ShardedEngine {
    index: Arc<ShardedIndex>,
    engine: QueryEngine,
}

impl ShardedEngine {
    /// Engine serving `index`.
    pub fn new(index: Arc<ShardedIndex>) -> Self {
        // The inner engine registers the `service_*` metrics and publishes
        // the global postings' gauges; the shard map's imbalance is
        // published here. Both describe the generation this engine serves.
        crate::metrics::register();
        let engine = QueryEngine::new(Arc::clone(index.base()));
        let per_shard: Vec<u64> = index.segments().iter().map(|s| s.postings_entries()).collect();
        crate::metrics::record_shard_work(&per_shard);
        ShardedEngine { index, engine }
    }

    /// [`new`](Self::new); kept for the frozen spine only (`spine/src/sut.rs`
    /// calls it): an engine owns no threads — a batch names its own fan-out —
    /// and keeps no response cache, so `_threads` and `_cache_capacity` are
    /// inert.
    pub fn with_options(index: Arc<ShardedIndex>, _threads: usize, _cache_capacity: usize) -> Self {
        Self::new(index)
    }

    /// The sharded index this engine serves.
    pub fn index(&self) -> &Arc<ShardedIndex> {
        &self.index
    }

    /// Answer one query from the index.
    pub fn execute(&self, query: &Query) -> QueryResponse {
        self.engine.execute(query)
    }

    /// Fan a batch of queries across the shared worker pool, preserving
    /// input order in the returned responses.
    pub fn execute_batch(&self, queries: &[Query], threads: usize) -> Vec<QueryResponse> {
        self.engine.execute_batch(queries, threads)
    }

    /// [`execute`](Self::execute); kept for the frozen spine only
    /// (`spine/src/sut.rs` calls it and matches on `Err`).
    pub fn try_execute_uncached(&self, query: &Query) -> Result<QueryResponse, Infallible> {
        Ok(self.execute(query))
    }

    /// [`execute_batch`](Self::execute_batch); kept for the frozen spine only
    /// (`spine/src/sut.rs` calls it and matches on `Err`).
    pub fn try_execute_batch(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Result<Vec<QueryResponse>, Infallible> {
        Ok(self.execute_batch(queries, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{AdaptivePolicy, BitSet, NodeId, RrrCollection};
    use imm_service::IndexMeta;

    fn sharded_index(num_nodes: usize, sets: &[&[NodeId]], shards: usize) -> Arc<ShardedIndex> {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push_vertices(s.to_vec(), &AdaptivePolicy::always_sorted());
        }
        Arc::new(ShardedIndex::from_parts(c, IndexMeta::default(), None, shards).unwrap())
    }

    fn sharded_engine(num_nodes: usize, sets: &[&[NodeId]], shards: usize) -> ShardedEngine {
        ShardedEngine::new(sharded_index(num_nodes, sets, shards))
    }

    /// The paper's Figure 3 sets; hand-checkable greedy trajectory.
    fn figure3_sets() -> Vec<&'static [NodeId]> {
        vec![&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]
    }

    fn figure3(shards: usize) -> ShardedEngine {
        sharded_engine(6, &figure3_sets(), shards)
    }

    #[test]
    fn top_k_follows_the_hand_computed_greedy_trajectory_for_any_shard_count() {
        for shards in [1usize, 2, 3, 5, 8] {
            let engine = figure3(shards);
            match engine.execute(&Query::top_k(3)) {
                QueryResponse::TopK { seeds, coverage_fraction, estimated_influence } => {
                    assert_eq!(seeds, vec![1, 2, 3], "{shards} shards");
                    assert!((coverage_fraction - 1.0).abs() < 1e-12);
                    assert!((estimated_influence - 6.0).abs() < 1e-12);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn an_engine_publishes_the_gauges_of_its_generation() {
        if !imm_obs::recording_enabled() {
            return;
        }
        use crate::metrics::LOAD_IMBALANCE;
        use imm_service::metrics as service;
        let read = || {
            [
                service::POSTINGS_ROW_VERTICES.value(),
                service::POSTINGS_LIST_ENTRIES.value(),
                service::POSTINGS_MEMORY.value(),
                LOAD_IMBALANCE.value(),
            ]
        };
        // A shape shared with no other test of this process — so neither a
        // stale value nor another test's engine can stand in for the one
        // built here. Vertex 0 sits in every set of the first shard only: the
        // imbalance.
        let sets: Vec<Vec<NodeId>> = (0..301u32)
            .map(|i| if i < 100 { vec![0, 1 + i % 7, 8 + i % 13] } else { vec![1 + i % 7] })
            .collect();
        let sets: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
        let index = sharded_index(21, &sets, 3);
        let global = index.global_postings().stats();
        let weights: Vec<u64> = index.segments().iter().map(|s| s.postings_entries()).collect();
        let imbalance = *weights.iter().max().unwrap() as f64
            / (weights.iter().sum::<u64>() as f64 / weights.len() as f64);
        assert!(imbalance > 1.5, "the first shard is the heavy one: {weights:?}");
        let expected = [
            global.row_vertices as f64,
            global.list_entries as f64,
            global.bytes() as f64,
            imbalance,
        ];
        // Other tests' engines publish the same gauges concurrently: retry
        // until a construction goes undisturbed.
        let published = (0..200).any(|_| {
            let _engine = ShardedEngine::new(Arc::clone(&index));
            read() == expected
        });
        assert!(published, "gauges read {:?}, expected {expected:?}", read());
    }

    #[test]
    fn spread_and_marginal_match_hand_computation() {
        let engine = figure3(3);
        match engine.execute(&Query::Spread { seeds: vec![1, 3] }) {
            QueryResponse::Spread { coverage_fraction, estimate } => {
                assert!((coverage_fraction - 0.75).abs() < 1e-12, "6 of 8 sets");
                assert!((estimate - 4.5).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        match engine.execute(&Query::Marginal { seeds: vec![1], candidate: 3 }) {
            QueryResponse::Marginal { gain_fraction, .. } => {
                assert!((gain_fraction - 0.25).abs() < 1e-12, "sets 5 and 6 are new");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn growing_the_budget_reuses_the_distributed_prefix() {
        let engine = figure3(4);
        let one = engine.execute(&Query::top_k(1));
        let three = engine.execute(&Query::top_k(3));
        let fresh = figure3(4).execute(&Query::top_k(3));
        assert_eq!(three, fresh, "incremental extension must equal a fresh selection");
        match (one, three) {
            (QueryResponse::TopK { seeds: s1, .. }, QueryResponse::TopK { seeds: s3, .. }) => {
                assert_eq!(s1, s3[..1].to_vec(), "smaller budget is a prefix")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn audience_masks_match_the_hand_computation() {
        let engine = figure3(3);
        match engine.execute(&Query::audience_top_k(1, BitSet::from_iter_with_capacity(6, [3]))) {
            QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                assert_eq!(seeds, vec![3]);
                assert!((coverage_fraction - 0.25).abs() < 1e-12, "sets 5 and 6");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A fresh Top-K right after a masked one: the masked session must
        // not leak into the persistent fresh state.
        match engine.execute(&Query::top_k(3)) {
            QueryResponse::TopK { seeds, .. } => assert_eq!(seeds, vec![1, 2, 3]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_index_answers_zeroes() {
        let engine = sharded_engine(5, &[], 3);
        assert_eq!(
            engine.execute(&Query::Spread { seeds: vec![1] }),
            QueryResponse::Spread { coverage_fraction: 0.0, estimate: 0.0 }
        );
        match engine.execute(&Query::top_k(2)) {
            QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                assert_eq!(seeds.len(), 2, "zero-gain seeds are still emitted");
                assert_eq!(coverage_fraction, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_preserves_order_and_matches_sequential_execution() {
        let engine = figure3(3);
        let queries: Vec<Query> = (1..=4)
            .map(Query::top_k)
            .chain((0..6).map(|v| Query::Spread { seeds: vec![v] }))
            .collect();
        let sequential: Vec<QueryResponse> =
            queries.iter().map(|q| figure3(3).execute(q)).collect();
        for threads in [1usize, 2, 4] {
            assert_eq!(engine.execute_batch(&queries, threads), sequential, "threads={threads}");
        }
        assert!(engine.execute_batch(&[], 4).is_empty());
    }

    #[test]
    fn marking_scratch_is_restored_between_point_queries() {
        // Sparse: 2000 two-vertex sets over 2 shards — a query walks a
        // handful of postings against a 16-word scratch (the un-marking
        // restore). Dense: 8 sets holding every vertex over 1 shard — any
        // walk is longer than the 1-word scratch (the fill restore).
        let sparse: Vec<Vec<NodeId>> = (0..2000u32).map(|i| vec![i % 997, 997 + i % 991]).collect();
        let dense: Vec<Vec<NodeId>> = (0..8).map(|_| (0..2000).collect()).collect();
        for (sets, shards) in [(sparse, 2usize), (dense, 1)] {
            let sets: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
            let reused = sharded_engine(2000, &sets, shards);
            // A mark leaked by query i would shrink the tallies of i + 1.
            for v in 0..40u32 {
                for query in [
                    Query::Spread { seeds: vec![v, v + 997, 5000] },
                    Query::Marginal { seeds: vec![v + 1, v + 998], candidate: v },
                ] {
                    let fresh = sharded_engine(2000, &sets, shards);
                    assert_eq!(
                        reused.execute(&query),
                        fresh.execute(&query),
                        "{shards} shards, {query:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_top_k_records_the_celf_counters() {
        if !imm_obs::recording_enabled() {
            return;
        }
        // Other tests of this process add to the same counters: lower bounds.
        use imm_service::metrics::{CELF_HEAP_POPS, CELF_ROUNDS};
        let read = || (CELF_ROUNDS.value(), CELF_HEAP_POPS.value());
        let (rounds, pops) = read();
        figure3(3).execute(&Query::top_k(3));
        let (rounds_after, pops_after) = read();
        assert!(rounds_after >= rounds + 3, "three rounds: {rounds} -> {rounds_after}");
        assert!(pops_after >= pops + 3, "one pop per round at least: {pops} -> {pops_after}");
    }
}
