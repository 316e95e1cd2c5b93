//! Query serving over a [`ShardedIndex`], on a persistent shard-pinned
//! worker pool.
//!
//! The engine answers the full `imm-service` query vocabulary with the same
//! byte-identical results as the single-index `QueryEngine` — that parity is
//! the crate's acceptance property.
//!
//! * **Spread / Marginal** scatter as **typed requests to pinned shard
//!   cells** ([`imm_exec::PinnedPool`]): each cell permanently owns one
//!   [`ShardSegment`] plus a shard-sized marking scratch (restored
//!   after each request, never reallocated) and runs the marking walk the
//!   single-index engine runs ([`imm_service::mark_and_count`]) over *its
//!   own* range; the gathered per-shard counts sum to exactly the
//!   single-index tally. A request round-trip replaces the
//!   per-query thread spawn that made PR 5's scatter/gather slower than the
//!   single index (`BENCH_5.json`), and every request is idempotent, so a
//!   scatter that loses a worker is simply retried.
//! * **Top-K** (plain and audience) is not scattered at all: the engine
//!   runs `imm_service::masked`'s lazy greedy — the very sessions the
//!   single-index engine runs — engine-side, over the index's global
//!   postings and the shared collection, on every pool. The plain selection
//!   extends one persistent [`LazyGreedy`] seeded from the base's degree
//!   vector; an audience selection checks a transient
//!   session out of a pool and takes no engine lock, so audience queries of
//!   one batch run concurrently. Neither touches cell state, so no worker
//!   death can fail or dirty a Top-K, and the seeds are byte-identical for
//!   any shard count and any worker-thread count.
//!
//! An engine serves one index generation for its whole life. A delta is
//! rolled the way the daemon rolls it: [`ShardedIndex::rebuilt_with_delta`]
//! builds the next generation off to the side and a new engine stands up
//! over it.

use crate::index::ShardedIndex;
use crate::segment::ShardSegment;
use imm_exec::{Pinned, PinnedPool, ScatterError, WakeMode};
use imm_numa::Topology;
use imm_rrr::{BitSet, NodeId};
use imm_service::{
    mark_and_count, serve_batch, serve_cached, CacheStats, LazyGreedy, MaskedPool, Query,
    QueryCache, QueryResponse,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Attempts for a scatter before giving up: every retry first respawns dead
/// workers, so only a plan injecting worker deaths at a sustained 100% rate
/// can exhaust this.
const SCATTER_RETRIES: usize = 8;

/// One pinned worker's state: a permanent shard assignment plus the
/// marking scratch for that shard.
struct ShardCell {
    segment: Arc<ShardSegment>,
    /// Marking scratch of the Spread/Marginal walks, one bit per local
    /// set; all zero between requests.
    marks: Vec<u64>,
}

/// The typed request a pinned shard cell serves — one marking walk over its
/// shard: how many of the shard's sets `seeds` cover (a Spread), or with a
/// `candidate` how many it adds over them (a Marginal). Idempotent: serving
/// one twice leaves the cell as serving it once.
struct ShardRequest {
    seeds: Arc<Vec<NodeId>>,
    candidate: Option<NodeId>,
}

impl Pinned for ShardCell {
    type Request = ShardRequest;
    type Response = usize;

    fn serve(&mut self, request: ShardRequest) -> usize {
        let postings = self.segment.postings();
        mark_and_count(postings, &request.seeds, request.candidate, &mut self.marks)
    }
}

/// A query-serving engine over a [`ShardedIndex`], answering the same
/// vocabulary as `imm_service::QueryEngine` with byte-identical results.
///
/// Execution runs on an embedded [`PinnedPool`]: one cell per shard, with
/// worker threads only where the host (and [`WakeMode`]) can profit from
/// them. Dropping the engine shuts the pool down cleanly.
#[derive(Debug)]
pub struct ShardedEngine {
    index: Arc<ShardedIndex>,
    pool: PinnedPool<ShardCell>,
    /// The persistent fresh Top-K session (`imm_service::masked`).
    greedy: Mutex<LazyGreedy>,
    /// Pool of audience Top-K sessions (`imm_service::masked`).
    masked: MaskedPool,
    cache: QueryCache,
}

impl ShardedEngine {
    /// Engine sized to the process-global execution configuration (see
    /// `imm_exec::configure_global`) with the default cache capacity.
    pub fn new(index: Arc<ShardedIndex>) -> Self {
        let threads = imm_exec::global().num_threads();
        Self::with_options(index, threads, imm_service::DEFAULT_CACHE_CAPACITY)
    }

    /// Engine with explicit parallelism and cache capacity (0 disables
    /// caching). `threads` counts the serving thread, so at most
    /// `threads - 1` pinned workers spawn ([`WakeMode::Auto`]); results
    /// are identical for every value.
    pub fn with_options(index: Arc<ShardedIndex>, threads: usize, cache_capacity: usize) -> Self {
        Self::with_runtime(index, threads, cache_capacity, WakeMode::Auto)
    }

    /// Engine with an explicit pinned-pool wake policy; the parity suites
    /// use [`WakeMode::Always`] to force real cross-thread serving.
    /// Workers are NUMA-placed against the detected machine topology (see
    /// [`Self::with_runtime_on`]).
    pub fn with_runtime(
        index: Arc<ShardedIndex>,
        threads: usize,
        cache_capacity: usize,
        wake: WakeMode,
    ) -> Self {
        Self::with_runtime_on(index, threads, cache_capacity, wake, Topology::detect())
    }

    /// Engine with an explicit wake policy *and* an explicit machine
    /// topology. On a multi-node topology the pinned workers are placed
    /// across nodes (pinned on start, serving counted local/remote, shard
    /// scratch accounted node-locally); a single-node topology skips
    /// placement and counts `numa_single_node_fallbacks`. Production goes
    /// through [`Topology::detect`]; tests inject synthetic machines.
    pub fn with_runtime_on(
        index: Arc<ShardedIndex>,
        threads: usize,
        cache_capacity: usize,
        wake: WakeMode,
        topology: Topology,
    ) -> Self {
        // The sharded engine serves through `serve_cached` and records
        // shard_* metrics of its own, so both families must be registered
        // — and both describe the generation this engine serves, whatever
        // its pool looks like.
        imm_service::metrics::register();
        crate::metrics::register();
        imm_service::metrics::record_postings(index.global_postings().stats());
        let per_shard: Vec<u64> = index.segments().iter().map(|s| s.postings_entries()).collect();
        crate::metrics::record_shard_work(&per_shard, index.postings_stats());

        let threads = threads.max(1);
        let placement =
            crate::placement::plan_pool_placement(topology, index.num_shards(), threads);
        let shard_lens: Vec<usize> = index.segments().iter().map(|s| s.len()).collect();
        crate::placement::account_scratch_regions(topology, placement.as_ref(), &shard_lens);
        let cells = index
            .segments()
            .iter()
            .map(|segment| ShardCell {
                segment: Arc::clone(segment),
                marks: vec![0; segment.len().div_ceil(64)],
            })
            .collect();
        let pool = PinnedPool::with_placement(cells, threads, wake, placement);
        let greedy = Mutex::new(LazyGreedy::fresh(index.base().degree_vector(), index.num_sets()));
        ShardedEngine {
            index,
            pool,
            greedy,
            masked: MaskedPool::default(),
            cache: QueryCache::new(cache_capacity),
        }
    }

    /// The sharded index this engine serves.
    pub fn index(&self) -> &Arc<ShardedIndex> {
        &self.index
    }

    /// Hit/miss counters of the response cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of pinned worker threads serving this engine's shards
    /// (0 means the serving thread answers every request inline).
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// Point-in-time queue depth of each pinned shard cell.
    ///
    /// This is a racy snapshot (a depth can change before the vector
    /// returns) — callers wanting a *metric* should sample it
    /// periodically into a max-over-window gauge (see
    /// `imm_exec::QueueDepthSampler`) rather than report one read.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.pool.queue_depths()
    }

    /// Answer one query, consulting the response cache first.
    ///
    /// Panics if the pinned pool lost workers beyond what its checked
    /// twin [`try_execute`](Self::try_execute) could degrade — only
    /// reachable under injected faults; fault-aware callers (the serving
    /// daemon) use the checked API.
    pub fn execute(&self, query: &Query) -> QueryResponse {
        self.try_execute(query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Answer one query, consulting the response cache first; a worker
    /// death mid-scatter degrades to a structured [`ScatterError`]
    /// instead of a panic (and caches nothing), and the pool heals itself
    /// on the next call (dead workers respawn).
    pub fn try_execute(&self, query: &Query) -> Result<QueryResponse, ScatterError> {
        serve_cached(&self.cache, query, || self.try_execute_uncached(query))
    }

    /// Answer one query without touching the cache.
    ///
    /// Panics under unrecoverable worker loss, like
    /// [`execute`](Self::execute); see
    /// [`try_execute_uncached`](Self::try_execute_uncached).
    pub fn execute_uncached(&self, query: &Query) -> QueryResponse {
        self.try_execute_uncached(query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Answer one query without touching the cache, degrading worker
    /// deaths to structured errors. A Top-K never scatters, so it cannot
    /// fail.
    pub fn try_execute_uncached(&self, query: &Query) -> Result<QueryResponse, ScatterError> {
        let (theta, n) = (self.index.num_sets(), self.index.num_nodes());
        Ok(match query {
            Query::TopK { k, audience } => self.top_k(*k, audience.as_ref()),
            Query::Spread { seeds } => {
                QueryResponse::spread_from_tallies(self.scatter_count(seeds, None)?, theta, n)
            }
            Query::Marginal { seeds, candidate } => {
                let gained = self.scatter_count(seeds, Some(*candidate))?;
                QueryResponse::marginal_from_tallies(gained, theta, n)
            }
        })
    }

    /// Fan a batch of queries across the shared worker pool, preserving
    /// input order in the returned responses.
    ///
    /// Panics under unrecoverable worker loss, like
    /// [`execute`](Self::execute); see
    /// [`try_execute_batch`](Self::try_execute_batch).
    pub fn execute_batch(&self, queries: &[Query], threads: usize) -> Vec<QueryResponse> {
        self.try_execute_batch(queries, threads).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fan a batch of queries across the shared worker pool, preserving
    /// input order. If any query hits a worker death the whole batch
    /// reports the first [`ScatterError`] — per-query salvage is the
    /// caller's policy (the serving daemon answers a structured degraded
    /// error and lets clients retry against the healed pool).
    pub fn try_execute_batch(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Result<Vec<QueryResponse>, ScatterError> {
        let fault: Mutex<Option<ScatterError>> = Mutex::new(None);
        let placeholder =
            || QueryResponse::spread_from_tallies(0, self.index.num_sets(), self.index.num_nodes());
        let responses = serve_batch(queries, threads, |query| match self.try_execute(query) {
            Ok(response) => response,
            Err(e) => {
                fault.lock().get_or_insert(e);
                placeholder()
            }
        });
        let first_fault = fault.lock().take();
        match first_fault {
            None => Ok(responses),
            Some(e) => Err(e),
        }
    }

    /// Top-K on the engine-side lazy greedy over the global postings: the
    /// plain selection extends the persistent fresh session under its lock,
    /// an audience selection runs on a transient pooled session and takes no
    /// engine lock. No scatter, no cell state — so no worker death can fail
    /// it.
    fn top_k(&self, k: usize, audience: Option<&BitSet>) -> QueryResponse {
        let sets = self.index.collection();
        let postings = self.index.global_postings().view();
        let (seeds, covered) = match audience {
            None => self.greedy.lock().top_k(sets, postings, k),
            Some(audience) => self.masked.top_k(sets, postings, k, audience),
        };
        QueryResponse::top_k_from_tallies(
            seeds,
            covered,
            self.index.num_sets(),
            self.index.num_nodes(),
        )
    }

    /// Scatter one marking walk per shard and sum the per-shard counts,
    /// retrying on worker deaths — valid because the request is idempotent:
    /// a retry re-serves shards that already answered, which leaves their
    /// scratch as a first serve does.
    fn scatter_count(
        &self,
        seeds: &[NodeId],
        candidate: Option<NodeId>,
    ) -> Result<usize, ScatterError> {
        let seeds = Arc::new(seeds.to_vec());
        let mut last = ScatterError { lost: 0 };
        for _ in 0..SCATTER_RETRIES {
            let requests = (0..self.pool.len())
                .map(|s| (s, ShardRequest { seeds: Arc::clone(&seeds), candidate }));
            match self.pool.try_scatter(requests) {
                Ok(counts) => return Ok(counts.into_iter().sum()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{RrrCollection, RrrSet};
    use imm_service::IndexMeta;

    fn sharded_index(num_nodes: usize, sets: &[&[NodeId]], shards: usize) -> Arc<ShardedIndex> {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
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
    fn forced_worker_mode_matches_inline_serving() {
        for threads in [2usize, 4] {
            let engine = ShardedEngine::with_runtime(
                sharded_index(6, &figure3_sets(), 3),
                threads,
                0,
                WakeMode::Always,
            );
            assert!(engine.num_workers() >= 1, "Always mode must spawn workers");
            let inline = figure3(3);
            for query in [
                Query::top_k(3),
                Query::Spread { seeds: vec![1, 3] },
                Query::Marginal { seeds: vec![1], candidate: 3 },
                Query::audience_top_k(2, BitSet::from_iter_with_capacity(6, [3, 4])),
            ] {
                assert_eq!(
                    engine.execute_uncached(&query),
                    inline.execute_uncached(&query),
                    "threads={threads} {query:?}"
                );
            }
        }
    }

    #[test]
    fn every_pool_publishes_the_postings_gauges_of_its_generation() {
        if !imm_obs::recording_enabled() {
            return;
        }
        use crate::metrics as shard;
        use imm_service::metrics as service;
        let read = || {
            [
                service::POSTINGS_ROW_VERTICES.value(),
                service::POSTINGS_LIST_ENTRIES.value(),
                service::POSTINGS_MEMORY.value(),
                shard::POSTINGS_ROW_VERTICES.value(),
                shard::POSTINGS_LIST_ENTRIES.value(),
                shard::POSTINGS_MEMORY.value(),
            ]
        };
        // One shape per pool kind, shared with no other test of this
        // process — so neither a stale value nor another test's engine can
        // stand in for the one built here.
        for (sets, threads, wake) in [(301u32, 1, WakeMode::Auto), (302, 3, WakeMode::Always)] {
            let sets: Vec<Vec<NodeId>> = (0..sets).map(|i| vec![i % 7, 7 + i % 13]).collect();
            let sets: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
            let index = sharded_index(20, &sets, 3);
            let (global, shards) = (index.global_postings().stats(), index.postings_stats());
            let expected = [
                global.row_vertices as f64,
                global.list_entries as f64,
                global.bytes() as f64,
                shards.row_vertices as f64,
                shards.list_entries as f64,
                shards.bytes() as f64,
            ];
            // Other tests' engines publish the same gauges concurrently:
            // retry until a construction goes undisturbed.
            let published = (0..200).any(|_| {
                let engine = ShardedEngine::with_runtime(Arc::clone(&index), threads, 0, wake);
                assert_eq!(engine.num_workers() > 0, wake == WakeMode::Always);
                read() == expected
            });
            assert!(published, "{wake:?}: gauges read {:?}, expected {expected:?}", read());
        }
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
    fn cache_serves_repeated_queries() {
        let engine = figure3(2);
        let q = Query::Spread { seeds: vec![1, 3] };
        let first = engine.execute(&q);
        assert_eq!(first, engine.execute(&q));
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn batch_preserves_order_and_matches_sequential_execution() {
        let engine = figure3(3);
        let queries: Vec<Query> = (1..=4)
            .map(Query::top_k)
            .chain((0..6).map(|v| Query::Spread { seeds: vec![v] }))
            .collect();
        let sequential: Vec<QueryResponse> =
            queries.iter().map(|q| figure3(3).execute_uncached(q)).collect();
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
                        reused.execute_uncached(&query),
                        fresh.execute_uncached(&query),
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
