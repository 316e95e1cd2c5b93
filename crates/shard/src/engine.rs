//! Query serving over a [`ShardedIndex`]: a `QueryEngine` over the base,
//! plus — only when it has workers to scatter to — a persistent shard-pinned
//! pool.
//!
//! The engine answers the full `imm-service` query vocabulary with the same
//! byte-identical results as the single-index `QueryEngine` — that parity is
//! the crate's acceptance property — and it gets most of the way there by
//! *being* one: Top-K (plain and audience), the response cache, the query
//! metrics and the batch fan-out are the inner [`QueryEngine`]'s over the
//! base index, on every pool. A Top-K touches no cell state, so no worker
//! death can fail or dirty it, and the seeds are byte-identical for any shard
//! count and any worker-thread count. What this file adds is one number: how
//! a **Spread / Marginal** is tallied.
//!
//! * **Without workers** (one serving thread, or a host where
//!   [`WakeMode::Auto`] sees no parallelism — the sizing rule is the pool's,
//!   [`WakeMode::worker_count`]) there is nobody to scatter to, so nothing is
//!   built: no cells, no second copy of the postings, no placement plan, no
//!   scratch regions. The tally is the inner engine's own — one
//!   [`imm_service::mark_and_count`] walk of the global postings on a pooled
//!   scratch.
//! * **With workers** the walk scatters as **typed requests to pinned shard
//!   cells** ([`imm_exec::PinnedPool`]): each cell permanently owns the
//!   postings of one set range — inverted from the generation's sets when
//!   the engine stands up — plus a range-sized marking scratch (restored
//!   after each request, never reallocated), and runs the same walk over
//!   *its own* range; the gathered per-shard counts sum to exactly the
//!   single-index tally. Every request is idempotent, so a scatter that
//!   loses a worker is simply retried.
//!
//! An engine serves one index generation for its whole life. A delta is
//! rolled the way the daemon rolls it: [`ShardedIndex::rebuilt_with_delta`]
//! builds the next generation off to the side and a new engine stands up
//! over it.

use crate::index::ShardedIndex;
use imm_exec::{Pinned, PinnedPool, ScatterError, WakeMode};
use imm_numa::Topology;
use imm_rrr::{NodeId, Postings, PostingsStats, RrrCollection};
use imm_service::{mark_and_count, CacheStats, Query, QueryEngine, QueryResponse};
use std::sync::Arc;

/// Attempts for a scatter before giving up: every retry first respawns dead
/// workers, so only a plan injecting worker deaths at a sustained 100% rate
/// can exhaust this.
const SCATTER_RETRIES: usize = 8;

/// One pinned worker's state: the postings of a permanently assigned set
/// range (local ids) plus the marking scratch for that range.
struct ShardCell {
    postings: Postings,
    /// Marking scratch of the Spread/Marginal walks, one bit per local
    /// set; all zero between requests.
    marks: Vec<u64>,
}

impl ShardCell {
    /// Invert `sets[start .. start + len)` into a cell — the per-range call
    /// of the counting sort the base index ran over all sets.
    fn build(sets: &RrrCollection, start: usize, len: usize) -> Self {
        let postings = Postings::build(sets, start, len)
            .expect("the base index validated every member against the vertex space");
        ShardCell { marks: vec![0; postings.words_per_row()], postings }
    }
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
        mark_and_count(&self.postings, &request.seeds, request.candidate, &mut self.marks)
    }
}

/// A query-serving engine over a [`ShardedIndex`], answering the same
/// vocabulary as `imm_service::QueryEngine` with byte-identical results.
///
/// It is that engine over the base index, plus a [`PinnedPool`] of one cell
/// per shard that exists only where the host (and [`WakeMode`]) gives it
/// worker threads. Dropping the engine shuts the pool down cleanly.
#[derive(Debug)]
pub struct ShardedEngine {
    index: Arc<ShardedIndex>,
    /// Top-K sessions, response cache, batch fan-out and the worker-less
    /// Spread/Marginal tally.
    engine: QueryEngine,
    /// The scatter path of Spread/Marginal; `None` when it would have no
    /// workers.
    scatter: Option<PinnedPool<ShardCell>>,
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
    /// placement and counts `numa_single_node_fallbacks`; an engine without
    /// workers has nothing to place and consults neither. Production goes
    /// through [`Topology::detect`]; tests inject synthetic machines.
    pub fn with_runtime_on(
        index: Arc<ShardedIndex>,
        threads: usize,
        cache_capacity: usize,
        wake: WakeMode,
        topology: Topology,
    ) -> Self {
        // The inner engine registers the `service_*` metrics and publishes
        // the global postings' gauges; the `shard_*` ones are published
        // below, and both describe the generation this engine serves,
        // whatever its pool looks like.
        crate::metrics::register();
        let engine = QueryEngine::with_cache_capacity(Arc::clone(index.base()), cache_capacity);
        let segments = index.segments();
        let workers = wake.worker_count(segments.len(), threads);
        let mut cell_postings = PostingsStats::default();
        let scatter = (workers > 0).then(|| {
            let placement =
                crate::placement::plan_pool_placement(topology, segments.len(), workers);
            let shard_lens: Vec<usize> = segments.iter().map(|s| s.len()).collect();
            crate::placement::account_scratch_regions(topology, placement.as_ref(), &shard_lens);
            // Scatter the cell builds across worker threads — each range's
            // postings pass is independent of every other's.
            let mut cells: Vec<Option<ShardCell>> = Vec::new();
            cells.resize_with(segments.len(), || None);
            rayon::scope(|scope| {
                for (segment, slot) in segments.iter().zip(cells.iter_mut()) {
                    let sets = index.collection();
                    scope.spawn(move |_| {
                        *slot = Some(ShardCell::build(sets, segment.start(), segment.len()));
                    });
                }
            });
            let cells: Vec<ShardCell> =
                cells.into_iter().map(|c| c.expect("built by its task")).collect();
            cells.iter().for_each(|c| cell_postings += c.postings.stats());
            PinnedPool::with_placement(cells, threads, wake, placement)
        });
        let per_shard: Vec<u64> = segments.iter().map(|s| s.postings_entries()).collect();
        crate::metrics::record_shard_work(&per_shard, cell_postings);
        ShardedEngine { index, engine, scatter }
    }

    /// The sharded index this engine serves.
    pub fn index(&self) -> &Arc<ShardedIndex> {
        &self.index
    }

    /// Hit/miss counters of the response cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Number of pinned worker threads serving this engine's shards
    /// (0 means the serving thread answers every request itself, from the
    /// global postings).
    pub fn num_workers(&self) -> usize {
        self.scatter.as_ref().map_or(0, PinnedPool::num_workers)
    }

    /// Point-in-time queue depth of each pinned shard cell (none on an
    /// engine without workers).
    ///
    /// This is a racy snapshot (a depth can change before the vector
    /// returns) — callers wanting a *metric* should sample it
    /// periodically into a max-over-window gauge (see
    /// `imm_exec::QueueDepthSampler`) rather than report one read.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.scatter.as_ref().map_or_else(Vec::new, PinnedPool::queue_depths)
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
        self.engine.try_execute_with(query, |seeds, candidate| self.tally(seeds, candidate))
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
        self.engine
            .try_execute_uncached_with(query, |seeds, candidate| self.tally(seeds, candidate))
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
    /// reports the earliest such query's [`ScatterError`] — per-query
    /// salvage is the caller's policy (the serving daemon answers a
    /// structured degraded error and lets clients retry against the healed
    /// pool).
    pub fn try_execute_batch(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Result<Vec<QueryResponse>, ScatterError> {
        self.engine.try_execute_batch_with(queries, threads, |seeds, candidate| {
            self.tally(seeds, candidate)
        })
    }

    /// The Spread/Marginal tally: the inner engine's walk of the global
    /// postings when there is no pool; else one marking walk per shard,
    /// summed, retrying on worker deaths — valid because the request is
    /// idempotent: a retry re-serves shards that already answered, which
    /// leaves their scratch as a first serve does.
    fn tally(&self, seeds: &[NodeId], candidate: Option<NodeId>) -> Result<usize, ScatterError> {
        let Some(pool) = &self.scatter else {
            return Ok(self.engine.count_marked(seeds, candidate));
        };
        let seeds = Arc::new(seeds.to_vec());
        let mut last = ScatterError { lost: 0 };
        for _ in 0..SCATTER_RETRIES {
            let requests =
                (0..pool.len()).map(|s| (s, ShardRequest { seeds: Arc::clone(&seeds), candidate }));
            match pool.try_scatter(requests) {
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
    use imm_rrr::{BitSet, RrrSet};
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
                shard::LOAD_IMBALANCE.value(),
            ]
        };
        // One shape per pool kind, shared with no other test of this
        // process — so neither a stale value nor another test's engine can
        // stand in for the one built here. Vertex 0 sits in every set of the
        // first shard only: the imbalance.
        for (sets, threads, wake) in [(301u32, 1, WakeMode::Auto), (302, 3, WakeMode::Always)] {
            let sets: Vec<Vec<NodeId>> = (0..sets)
                .map(|i| if i < 100 { vec![0, 1 + i % 7, 8 + i % 13] } else { vec![1 + i % 7] })
                .collect();
            let sets: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
            let index = sharded_index(21, &sets, 3);
            // The global postings on every pool; the cells' own — one per
            // shard-map entry — only where there are workers to hold them.
            let global = index.global_postings().stats();
            let mut cells = PostingsStats::default();
            if wake == WakeMode::Always {
                for segment in index.segments() {
                    let cell = ShardCell::build(index.collection(), segment.start(), segment.len());
                    assert_eq!(cell.postings.entries(), segment.postings_entries());
                    cells += cell.postings.stats();
                }
                assert!(cells.bytes() > 0);
            }
            let weights: Vec<u64> = index.segments().iter().map(|s| s.postings_entries()).collect();
            let imbalance = *weights.iter().max().unwrap() as f64
                / (weights.iter().sum::<u64>() as f64 / weights.len() as f64);
            assert!(imbalance > 1.5, "the first shard is the heavy one: {weights:?}");
            let expected = [
                global.row_vertices as f64,
                global.list_entries as f64,
                global.bytes() as f64,
                cells.row_vertices as f64,
                cells.list_entries as f64,
                cells.bytes() as f64,
                imbalance,
            ];
            // Other tests' engines publish the same gauges concurrently:
            // retry until a construction goes undisturbed.
            let published = (0..200).any(|_| {
                let engine = ShardedEngine::with_runtime(Arc::clone(&index), threads, 0, wake);
                assert_eq!(engine.scatter.is_some(), wake == WakeMode::Always);
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
