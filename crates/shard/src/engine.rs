//! Query serving over a [`ShardedIndex`], on a persistent shard-pinned
//! worker pool.
//!
//! The engine answers the full `imm-service` query vocabulary with the same
//! byte-identical results as the single-index `QueryEngine` — that parity is
//! the crate's acceptance property.
//!
//! * **Spread / Marginal** scatter as **typed requests to pinned shard
//!   cells** ([`imm_exec::PinnedPool`]): each cell permanently owns one
//!   [`ShardSegment`] plus a shard-sized marking scratch (restored after each
//!   request, never reallocated), ORs its seeds' postings — rows word by
//!   word, lists bit by bit — into it and counts covered sets among *its
//!   own* range, and the gathered per-shard counts sum to exactly the
//!   single-index tally. A request round-trip replaces the
//!   per-query thread spawn that made PR 5's scatter/gather slower than the
//!   single index (`BENCH_5.json`), and every request is idempotent, so a
//!   scatter that loses a worker is simply retried.
//! * **Top-K** (plain and audience) is not scattered at all: the engine
//!   runs `imm_service::masked`'s lazy greedy — the very sessions the
//!   single-index engine runs — engine-side, reading the index's global
//!   postings (a pool without workers) or the shards' own (a pool with
//!   them) as one "sets containing v" source over the shared collection. The
//!   plain selection extends one persistent [`LazyGreedy`] seeded from the
//!   merged per-shard degrees; an audience selection checks a transient
//!   session out of a pool and takes no engine lock, so audience queries of
//!   one batch run concurrently. Neither touches cell state, so no worker
//!   death can fail or dirty a Top-K, and the seeds are byte-identical for
//!   any shard count and any worker-thread count.

use crate::index::ShardedIndex;
use crate::segment::ShardSegment;
use imm_exec::{Pinned, PinnedPool, ScatterError, WakeMode};
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_numa::Topology;
use imm_rrr::{BitSet, NodeId, Postings, PostingsView};
use imm_service::{
    serve_batch, serve_cached, CacheStats, DynamicError, LazyGreedy, MaskedPool, Query, QueryCache,
    QueryResponse, RefreshStats, SetId, SetsContaining,
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
    /// The served index; `None` only mid-`apply_delta` (Release/Install).
    index: Option<Arc<ShardedIndex>>,
    shard: usize,
    /// Marking scratch of the Spread/Marginal walks, one bit per local
    /// set; all zero between requests.
    marks: Vec<u64>,
}

/// The typed request vocabulary a pinned shard cell serves. Every request
/// is idempotent: serving one twice leaves the cell as serving it once.
enum ShardRequest {
    /// Postings walk: count sets covered by `seeds` in this shard.
    Spread { seeds: Arc<Vec<NodeId>> },
    /// Postings walk: count sets `candidate` adds over `seeds`.
    Marginal { seeds: Arc<Vec<NodeId>>, candidate: NodeId },
    /// Drop the cell's index handle (first half of `apply_delta`, so the
    /// engine holds the only reference while rebuilding).
    Release,
    /// Serve this index from now on.
    Install { index: Arc<ShardedIndex> },
}

enum ShardResponse {
    Unit,
    Count(usize),
}

impl ShardCell {
    fn index(&self) -> &Arc<ShardedIndex> {
        self.index.as_ref().expect("shard cell has an installed index")
    }

    /// Mark this shard's sets covered by `seeds` in the cell's scratch, hand
    /// the postings, the marks and the newly covered count to `tally`, then
    /// restore the scratch by whichever touches less: zeroing the words the
    /// seeds' lists reach (sparse sets: a few entries against a shard-sized
    /// word array) or one fill. A row seed alone has more sets than the
    /// scratch has words, so any row means the fill.
    fn with_marked(
        &mut self,
        seeds: &[NodeId],
        tally: impl FnOnce(PostingsView<'_>, &[u64], usize) -> usize,
    ) -> ShardResponse {
        let index = self.index.as_ref().expect("shard cell has an installed index");
        let postings = index.segments()[self.shard].postings().view();
        let marks = &mut self.marks[..];
        let n = index.num_nodes();
        let in_range = || seeds.iter().filter(|&&seed| (seed as usize) < n);
        let (mut covered, mut walked) = (0usize, 0u64);
        for &seed in in_range() {
            walked += postings.degree(seed);
            covered += postings.or_into(seed, marks);
        }
        let count = tally(postings, marks, covered);
        if walked < marks.len() as u64 {
            for &seed in in_range() {
                postings.for_each(seed, |lsid| marks[(lsid / 64) as usize] = 0);
            }
        } else {
            marks.fill(0);
        }
        ShardResponse::Count(count)
    }
}

impl Pinned for ShardCell {
    type Request = ShardRequest;
    type Response = ShardResponse;

    fn serve(&mut self, request: ShardRequest) -> ShardResponse {
        match request {
            ShardRequest::Spread { seeds } => self.with_marked(&seeds, |_, _, covered| covered),
            ShardRequest::Marginal { seeds, candidate } => {
                let n = self.index().num_nodes();
                self.with_marked(&seeds, |postings, marks, _| {
                    if (candidate as usize) < n {
                        postings.count_outside(candidate, marks)
                    } else {
                        0
                    }
                })
            }
            ShardRequest::Release => {
                self.index = None;
                ShardResponse::Unit
            }
            ShardRequest::Install { index } => {
                let len = index.segments()[self.shard].len();
                self.index = Some(index);
                self.marks.resize(len.div_ceil(64), 0);
                ShardResponse::Unit
            }
        }
    }
}

impl ShardResponse {
    fn count(self) -> usize {
        match self {
            ShardResponse::Count(c) => c,
            ShardResponse::Unit => unreachable!("shard answered with the wrong response kind"),
        }
    }
}

/// The shards' own postings as one source of global set ids (each
/// segment's local ids rebased by its `start`), for pools with workers,
/// where the global postings are never materialized.
struct SegmentPostings<'a>(&'a [Arc<ShardSegment>]);

impl SetsContaining for SegmentPostings<'_> {
    #[inline]
    fn for_each_set_containing(&self, v: NodeId, mut f: impl FnMut(SetId)) {
        for segment in self.0 {
            let start = segment.start() as SetId;
            segment.postings().for_each(v, |lsid| f(start + lsid));
        }
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
    /// The index's global postings, held exactly when the pool has no
    /// workers: the serving thread is then the only one walking postings,
    /// and a greedy round walks one structure — its cost independent of the
    /// shard count — instead of paying one lookup (and its cache miss) per
    /// shard.
    global_postings: Option<Arc<Postings>>,
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
        // shard_* metrics of its own, so both families must be registered.
        imm_service::metrics::register();
        crate::metrics::register();
        let threads = threads.max(1);
        let placement =
            crate::placement::plan_pool_placement(topology, index.num_shards(), threads);
        let shard_lens: Vec<usize> = index.segments().iter().map(|s| s.len()).collect();
        crate::placement::account_scratch_regions(topology, placement.as_ref(), &shard_lens);
        let cells = (0..index.num_shards())
            .map(|shard| ShardCell {
                index: Some(Arc::clone(&index)),
                shard,
                marks: vec![0; index.segments()[shard].len().div_ceil(64)],
            })
            .collect();
        let pool = PinnedPool::with_placement(cells, threads, wake, placement);
        let global_postings = (pool.num_workers() == 0).then(|| adopt_global(&index));
        let greedy = Mutex::new(fresh_session(&index));
        ShardedEngine {
            index,
            pool,
            global_postings,
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

    /// Refresh the served index against a graph mutation (shard-routed;
    /// see [`ShardedIndex::apply_delta`]), then reset the fresh Top-K
    /// session and drop the response cache.
    ///
    /// Protocol: the cells first *release* their index handles so the
    /// engine holds the only reference while rebuilding (no hidden
    /// deep-copy in `Arc::make_mut`), then the rebuilt index is
    /// *installed* back — even when the refresh fails, so the engine
    /// always serves a consistent index afterwards.
    pub fn apply_delta(
        &mut self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        // Worker deaths mid-rollout are retried inside the scatter (each
        // retry respawns the dead worker first); only a plan injecting
        // deaths at a sustained 100% rate can get past this, and then a
        // loud panic beats silently serving half-installed cells.
        let released = scatter_idempotent(&self.pool, |_| ShardRequest::Release)
            .unwrap_or_else(|e| panic!("release scatter retries exhausted mid-refresh: {e}"));
        for response in released {
            debug_assert!(matches!(response, ShardResponse::Unit));
        }
        let result = Arc::make_mut(&mut self.index).apply_delta(graph, weights, delta);
        let installed = scatter_idempotent(&self.pool, |_| ShardRequest::Install {
            index: Arc::clone(&self.index),
        })
        .unwrap_or_else(|e| panic!("install scatter retries exhausted mid-refresh: {e}"));
        for response in installed {
            debug_assert!(matches!(response, ShardResponse::Unit));
        }
        if self.global_postings.is_some() {
            self.global_postings = Some(adopt_global(&self.index));
        }
        *self.greedy.lock() = fresh_session(&self.index);
        self.cache.clear();
        result
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
        match query {
            Query::TopK { k, audience } => Ok(self.top_k(*k, audience.as_ref())),
            Query::Spread { seeds } => self.spread(seeds),
            Query::Marginal { seeds, candidate } => self.marginal(seeds, *candidate),
        }
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

    /// Top-K on the engine-side lazy greedy, over whichever postings source
    /// this pool serves from. No scatter, no cell state — so no worker death
    /// can fail it.
    fn top_k(&self, k: usize, audience: Option<&BitSet>) -> QueryResponse {
        let (seeds, covered) = match &self.global_postings {
            Some(postings) => self.greedy_top_k(&postings.view(), k, audience),
            None => self.greedy_top_k(&SegmentPostings(self.index.segments()), k, audience),
        };
        QueryResponse::top_k_from_tallies(
            seeds,
            covered,
            self.index.num_sets(),
            self.index.num_nodes(),
        )
    }

    /// The plain selection extends the persistent fresh session under its
    /// lock; an audience selection runs on a transient pooled session and
    /// takes no engine lock.
    fn greedy_top_k(
        &self,
        source: &impl SetsContaining,
        k: usize,
        audience: Option<&BitSet>,
    ) -> (Vec<NodeId>, usize) {
        let sets = self.index.collection();
        match audience {
            None => self.greedy.lock().top_k(sets, source, k),
            Some(audience) => self.masked.top_k(sets, source, k, audience),
        }
    }

    fn spread(&self, seeds: &[NodeId]) -> Result<QueryResponse, ScatterError> {
        let seeds = Arc::new(seeds.to_vec());
        let covered: usize =
            scatter_idempotent(&self.pool, |_| ShardRequest::Spread { seeds: Arc::clone(&seeds) })?
                .into_iter()
                .map(ShardResponse::count)
                .sum();
        Ok(QueryResponse::spread_from_tallies(
            covered,
            self.index.num_sets(),
            self.index.num_nodes(),
        ))
    }

    fn marginal(&self, seeds: &[NodeId], candidate: NodeId) -> Result<QueryResponse, ScatterError> {
        let seeds = Arc::new(seeds.to_vec());
        let gained: usize = scatter_idempotent(&self.pool, |_| ShardRequest::Marginal {
            seeds: Arc::clone(&seeds),
            candidate,
        })?
        .into_iter()
        .map(ShardResponse::count)
        .sum();
        Ok(QueryResponse::marginal_from_tallies(
            gained,
            self.index.num_sets(),
            self.index.num_nodes(),
        ))
    }
}

/// The index's global postings, their shape published on the way.
fn adopt_global(index: &ShardedIndex) -> Arc<Postings> {
    let global = index.global_postings();
    imm_service::metrics::record_postings(global.stats());
    Arc::clone(global)
}

/// Scatter one request per shard, retrying on worker deaths. Only valid
/// for *idempotent* requests — which every [`ShardRequest`] is: a retry
/// re-serves shards that already answered, which must not change their
/// state beyond what a first serve does.
fn scatter_idempotent(
    pool: &PinnedPool<ShardCell>,
    make: impl Fn(usize) -> ShardRequest,
) -> Result<Vec<ShardResponse>, ScatterError> {
    let mut last = ScatterError { lost: 0 };
    for _ in 0..SCATTER_RETRIES {
        match pool.try_scatter((0..pool.len()).map(|s| (s, make(s)))) {
            Ok(responses) => return Ok(responses),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// The all-alive, empty-prefix Top-K session of `index`, seeded from the
/// per-vertex degrees merged across its shards. Also the natural probe for
/// the shard gauges — each shard's degree total *is* its postings work — so
/// they refresh wherever the session does (engine construction and delta
/// refresh).
fn fresh_session(index: &ShardedIndex) -> LazyGreedy {
    let segments = index.segments();
    let per_shard: Vec<u64> = segments.iter().map(|s| s.postings_entries()).collect();
    crate::metrics::record_shard_work(&per_shard, index.postings_stats());
    let merged = (0..index.num_nodes() as NodeId)
        .map(|v| segments.iter().map(|segment| segment.degree(v)).sum::<u64>());
    LazyGreedy::fresh(merged, index.num_sets())
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
