//! Scatter/gather query serving over a [`ShardedIndex`], on a persistent
//! shard-pinned worker pool.
//!
//! The engine answers the full `imm-service` query vocabulary with the same
//! byte-identical results as the single-index `QueryEngine` — that parity is
//! the crate's acceptance property — while structuring every counting pass
//! as **typed requests to pinned shard cells** ([`imm_exec::PinnedPool`]):
//! each cell permanently owns one [`ShardSegment`] plus its mutable serving
//! state (alive flags, marking scratch), and a request round-trip replaces
//! the per-round thread spawn that made PR 5's scatter/gather slower than
//! the single index (`BENCH_5.json`).
//!
//! * **Spread / Marginal**: each shard counts covered sets among *its own*
//!   range using its local postings and the cell's own shard-sized marking
//!   scratch (restored after each request, never reallocated); the gathered
//!   per-shard counts sum to exactly the single-index tally.
//! * **Top-K**: CELF lazy greedy over **merged bounds held engine-side**.
//!   The frontier holds one `(bound, vertex)` entry per vertex; the merged
//!   live counts start as the sum of the per-shard degrees and are kept
//!   exact by the retire stream: each round scatters one
//!   `ShardRequest::Retire`, every shard flips its own covered sets and
//!   streams back their global ids (in recycled buffers), and the engine
//!   walks those sets once to decrement the merged counts. Revalidating a
//!   popped frontier entry is therefore a local array read — a CELF round
//!   costs exactly one message round-trip per shard, and on a host without
//!   real parallelism the pool serves the round inline with no parking or
//!   cross-thread traffic at all. Ties break toward the smaller vertex id
//!   and zero-gain rounds emit deterministically, exactly like the
//!   single-index CELF — so Top-K stays lazy end to end and the seeds are
//!   byte-identical for any shard count and any worker-thread count.
//! * **Audience Top-K**: not scattered at all. The masked session is
//!   transient engine-side state — `imm_service::masked`'s sparse greedy,
//!   the very code the single-index engine runs — reading the shards'
//!   postings as one "sets containing v" source over the shared
//!   collection. It touches no cell state and takes no engine lock, so
//!   audience queries of one batch run concurrently.

use crate::index::ShardedIndex;
use crate::segment::{LocalSetId, ShardSegment};
use imm_exec::{Pinned, PinnedPool, ScatterError, WakeMode};
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_numa::Topology;
use imm_rrr::{BitSet, NodeId};
use imm_service::{
    pop_argmax, serve_batch, CacheStats, DynamicError, Frontier, MaskedPool, Query, QueryCache,
    QueryKey, QueryResponse, RefreshStats, SetsContaining,
};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::sync::Arc;

/// Attempts for idempotent scatters before giving up: every retry first
/// respawns dead workers, so only a plan injecting worker deaths at a
/// sustained 100% rate can exhaust this.
const SCATTER_RETRIES: usize = 8;

/// Global id of an RRR set (its index in the shared collection).
type GlobalSetId = u32;

/// One pinned worker's state: a permanent shard assignment plus the
/// mutable serving state for that shard.
struct ShardCell {
    /// The served index; `None` only mid-`apply_delta` (Release/Install).
    index: Option<Arc<ShardedIndex>>,
    shard: usize,
    /// Alive flags of the persistent greedy session, one per local set.
    alive: Vec<bool>,
    /// Marking scratch of the Spread/Marginal walks, one bit per local
    /// set; all zero between requests.
    marks: Vec<u64>,
}

/// The typed request vocabulary a pinned shard cell serves.
enum ShardRequest {
    /// Per-vertex occurrence counts of this shard (the engine merges them
    /// into the initial CELF bounds).
    Degrees,
    /// Live-set count of one vertex — the distributed revalidation probe.
    /// The hot path revalidates against engine-side merged counts; this
    /// request is the consistency cross-check (debug assertions, tests).
    LiveCount { vertex: NodeId },
    /// Retire this shard's live sets containing `vertex`, streaming their
    /// global ids into `buf` (recycled round to round by the engine).
    Retire { vertex: NodeId, buf: Vec<GlobalSetId> },
    /// Postings walk: count sets covered by `seeds` in this shard.
    Spread { seeds: Arc<Vec<NodeId>> },
    /// Postings walk: count sets `candidate` adds over `seeds`.
    Marginal { seeds: Arc<Vec<NodeId>>, candidate: NodeId },
    /// Drop the cell's index handle (first half of `apply_delta`, so the
    /// engine holds the only reference while rebuilding).
    Release,
    /// Serve this index from now on, with a fully-alive greedy session.
    Install { index: Arc<ShardedIndex> },
}

enum ShardResponse {
    Unit,
    Count(usize),
    Counts(Vec<u64>),
    Retired { buf: Vec<GlobalSetId> },
}

impl ShardCell {
    fn index(&self) -> &Arc<ShardedIndex> {
        self.index.as_ref().expect("shard cell has an installed index")
    }

    /// Disjoint borrows of the serving state: the shard's segment and the
    /// alive flags (mutable), without cloning the index handle per request.
    fn segment_and_alive(&mut self) -> (&ShardSegment, &mut Vec<bool>) {
        let index = self.index.as_ref().expect("shard cell has an installed index");
        (&index.segments()[self.shard], &mut self.alive)
    }

    fn retire(&mut self, vertex: NodeId, mut buf: Vec<GlobalSetId>) -> ShardResponse {
        buf.clear();
        let (segment, alive) = self.segment_and_alive();
        let start = segment.start() as GlobalSetId;
        for &lsid in segment.postings(vertex) {
            let slot = &mut alive[lsid as usize];
            if *slot {
                *slot = false;
                buf.push(start + lsid);
            }
        }
        ShardResponse::Retired { buf }
    }

    /// Mark this shard's sets covered by `seeds` in the cell's scratch, hand
    /// the marks and the newly covered count to `tally`, then restore the
    /// scratch by whichever touches less: zeroing the words the same
    /// postings walk reaches (sparse sets: a few entries against a
    /// shard-sized word array) or one fill (dense sets: the walk is the
    /// longer one).
    fn with_marked(
        &mut self,
        seeds: &[NodeId],
        tally: impl FnOnce(&ShardSegment, &[u64], usize) -> usize,
    ) -> ShardResponse {
        let index = self.index.as_ref().expect("shard cell has an installed index");
        let segment = &index.segments()[self.shard];
        let marks = &mut self.marks[..];
        let n = index.num_nodes();
        let in_range = || seeds.iter().filter(|&&seed| (seed as usize) < n);
        let (mut covered, mut walked) = (0usize, 0usize);
        for &seed in in_range() {
            let postings = segment.postings(seed);
            walked += postings.len();
            for &lsid in postings {
                let (word, mask) = mark_of(lsid);
                covered += usize::from(marks[word] & mask == 0);
                marks[word] |= mask;
            }
        }
        let count = tally(segment, marks, covered);
        if walked < marks.len() {
            for &seed in in_range() {
                for &lsid in segment.postings(seed) {
                    marks[mark_of(lsid).0] = 0;
                }
            }
        } else {
            marks.fill(0);
        }
        ShardResponse::Count(count)
    }
}

/// Word index and bit mask of a local set id in a cell's marking scratch.
#[inline]
fn mark_of(lsid: LocalSetId) -> (usize, u64) {
    ((lsid / 64) as usize, 1u64 << (lsid % 64))
}

impl Pinned for ShardCell {
    type Request = ShardRequest;
    type Response = ShardResponse;

    fn serve(&mut self, request: ShardRequest) -> ShardResponse {
        match request {
            ShardRequest::Degrees => {
                let index = self.index();
                let segment = &index.segments()[self.shard];
                let n = index.num_nodes();
                ShardResponse::Counts((0..n).map(|v| segment.degree(v as NodeId)).collect())
            }
            ShardRequest::LiveCount { vertex } => {
                let (segment, alive) = self.segment_and_alive();
                let live = segment.postings(vertex).iter().filter(|&&l| alive[l as usize]).count();
                ShardResponse::Count(live)
            }
            ShardRequest::Retire { vertex, buf } => self.retire(vertex, buf),
            ShardRequest::Spread { seeds } => self.with_marked(&seeds, |_, _, covered| covered),
            ShardRequest::Marginal { seeds, candidate } => {
                let n = self.index().num_nodes();
                self.with_marked(&seeds, |segment, marks, _| {
                    if (candidate as usize) < n {
                        segment
                            .postings(candidate)
                            .iter()
                            .filter(|&&lsid| {
                                let (word, mask) = mark_of(lsid);
                                marks[word] & mask == 0
                            })
                            .count()
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
                self.alive = vec![true; len];
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
            _ => unreachable!("shard answered with the wrong response kind"),
        }
    }

    fn counts(self) -> Vec<u64> {
        match self {
            ShardResponse::Counts(c) => c,
            _ => unreachable!("shard answered with the wrong response kind"),
        }
    }

    fn retired(self) -> Vec<GlobalSetId> {
        match self {
            ShardResponse::Retired { buf } => buf,
            _ => unreachable!("shard answered with the wrong response kind"),
        }
    }
}

/// The engine-side distributed greedy state: merged live counts plus the
/// CELF frontier, fed by the gathered per-shard retire streams.
#[derive(Debug)]
struct DistributedGreedy {
    /// Exact merged live count per vertex (sum of the shards' live sets
    /// containing it), maintained from the retire streams.
    merged: Vec<u64>,
    /// CELF frontier: one entry per vertex, ordered by bound then toward
    /// the smaller vertex id — the single-index comparator.
    frontier: Frontier,
    covered_after: Vec<usize>,
    seeds: Vec<NodeId>,
    /// Recycled per-shard retire buffers (one per shard, reused each
    /// round so steady-state rounds allocate nothing).
    bufs: Vec<Vec<GlobalSetId>>,
    /// Set when a scattered round failed mid-flight (a worker died with
    /// retire responses in hand): the alive flags and the merged counts
    /// may disagree, so the next greedy use must rebuild the session
    /// from scratch before trusting either.
    needs_reset: bool,
}

impl DistributedGreedy {
    fn from_merged(merged: Vec<u64>, shards: usize) -> Self {
        let frontier = merged.iter().enumerate().map(|(v, &c)| (c, Reverse(v as NodeId))).collect();
        DistributedGreedy {
            merged,
            frontier,
            covered_after: Vec::new(),
            seeds: Vec::new(),
            bufs: vec![Vec::new(); shards],
            needs_reset: false,
        }
    }
}

/// Engine-side merged postings over all shards: CSR by vertex, with each
/// vertex's set ids global and grouped in ascending shard order. Built
/// only for zero-worker pools, where the fused greedy walks exactly one
/// postings list per round — the round cost is then independent of the
/// shard count instead of paying one postings lookup (and its cache
/// miss) per shard.
#[derive(Debug)]
struct MergedPostings {
    offsets: Vec<usize>,
    gsids: Vec<GlobalSetId>,
}

impl MergedPostings {
    fn build(index: &ShardedIndex) -> Self {
        let n = index.num_nodes();
        let mut offsets = vec![0usize; n + 1];
        for segment in index.segments() {
            for v in 0..n {
                offsets[v + 1] += segment.degree(v as NodeId) as usize;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut gsids = vec![0 as GlobalSetId; *offsets.last().unwrap_or(&0)];
        // Shards ascend, so each vertex's list ends grouped by shard in
        // ascending global-range order — what the fused walk relies on.
        for segment in index.segments() {
            let start = segment.start() as GlobalSetId;
            for v in 0..n {
                for &lsid in segment.postings(v as NodeId) {
                    gsids[cursor[v]] = start + lsid;
                    cursor[v] += 1;
                }
            }
        }
        MergedPostings { offsets, gsids }
    }

    #[inline]
    fn get(&self, v: NodeId) -> &[GlobalSetId] {
        &self.gsids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

impl SetsContaining for MergedPostings {
    #[inline]
    fn for_each_set_containing(&self, v: NodeId, f: impl FnMut(GlobalSetId)) {
        self.get(v).iter().copied().for_each(f);
    }
}

/// The shards' own postings as one source of global set ids (each
/// segment's local ids rebased by its `start`), for pools with workers,
/// where no merged copy is built.
struct SegmentPostings<'a>(&'a [Arc<ShardSegment>]);

impl SetsContaining for SegmentPostings<'_> {
    #[inline]
    fn for_each_set_containing(&self, v: NodeId, mut f: impl FnMut(GlobalSetId)) {
        for segment in self.0 {
            let start = segment.start() as GlobalSetId;
            segment.postings(v).iter().for_each(|&lsid| f(start + lsid));
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
    /// Merged per-vertex degrees — the reset state of the greedy bounds.
    base_counts: Vec<u64>,
    /// Present exactly when the pool has no workers (fused serving).
    merged_postings: Option<MergedPostings>,
    greedy: Mutex<DistributedGreedy>,
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
                alive: vec![true; index.segments()[shard].len()],
                marks: vec![0; index.segments()[shard].len().div_ceil(64)],
            })
            .collect();
        let pool = PinnedPool::with_placement(cells, threads, wake, placement);
        let base_counts = merged_degrees(&pool, index.num_nodes())
            .expect("degree scatter retries exhausted while constructing the engine");
        let merged_postings = (pool.num_workers() == 0).then(|| MergedPostings::build(&index));
        let greedy = Mutex::new(DistributedGreedy::from_merged(base_counts.clone(), pool.len()));
        ShardedEngine {
            index,
            pool,
            base_counts,
            merged_postings,
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
    /// see [`ShardedIndex::apply_delta`]), then reset the distributed
    /// greedy state and drop the response cache.
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
        let shards = self.pool.len();
        // Release/Install are idempotent, so worker deaths mid-rollout are
        // retried (each retry respawns the dead worker first); only a plan
        // injecting deaths at a sustained 100% rate can get past this, and
        // then a loud panic beats silently serving half-installed cells.
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
        self.base_counts = merged_degrees(&self.pool, self.index.num_nodes())
            .expect("degree scatter retries exhausted mid-refresh");
        if self.merged_postings.is_some() {
            self.merged_postings = Some(MergedPostings::build(&self.index));
        }
        *self.greedy.lock() = DistributedGreedy::from_merged(self.base_counts.clone(), shards);
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
    /// instead of a panic, and the engine heals itself on the next call
    /// (dead workers respawn, dirty greedy sessions rebuild).
    pub fn try_execute(&self, query: &Query) -> Result<QueryResponse, ScatterError> {
        // Mirrors `imm_service::serve_cached`, except a failed compute
        // must not be cached (and caches nothing in its place).
        imm_service::metrics::QUERY_RATE.mark();
        let key = QueryKey::from_query(query);
        if let Some(hit) = self.cache.get(&key) {
            imm_service::metrics::CACHE_HITS.increment();
            return Ok(hit);
        }
        imm_service::metrics::CACHE_MISSES.increment();
        let latency = match query {
            Query::TopK { .. } => &imm_service::metrics::TOPK_LATENCY,
            Query::Spread { .. } => &imm_service::metrics::SPREAD_LATENCY,
            Query::Marginal { .. } => &imm_service::metrics::MARGINAL_LATENCY,
        };
        let response = latency.time(|| self.try_execute_uncached(query))?;
        self.cache.insert(key, response.clone());
        Ok(response)
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
    /// deaths to structured errors.
    pub fn try_execute_uncached(&self, query: &Query) -> Result<QueryResponse, ScatterError> {
        match query {
            Query::TopK { k, audience: None } => self.top_k(*k),
            Query::TopK { k, audience: Some(audience) } => Ok(self.masked_top_k(*k, audience)),
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

    /// Rebuild the persistent greedy session when a failed retire
    /// round left it dirty ([`DistributedGreedy::needs_reset`]): reinstall
    /// the index on every cell (resetting the alive flags), rebuild the
    /// merged counts and frontier from the base degrees, and drop the
    /// cache. A no-op on a clean session. On failure the dirty flag
    /// stays set, so the next call tries again.
    fn ensure_fresh_session(&self, state: &mut DistributedGreedy) -> Result<(), ScatterError> {
        if !state.needs_reset {
            return Ok(());
        }
        let installed = scatter_idempotent(&self.pool, |_| ShardRequest::Install {
            index: Arc::clone(&self.index),
        })?;
        for response in installed {
            debug_assert!(matches!(response, ShardResponse::Unit));
        }
        *state = DistributedGreedy::from_merged(self.base_counts.clone(), self.pool.len());
        self.cache.clear();
        Ok(())
    }

    /// Run greedy rounds until `min(k, n)` seeds are selected; each round
    /// scatters exactly one retire request per shard and walks the
    /// gathered retire stream to keep the merged counts exact. On a pool
    /// with no workers the whole extension instead runs fused: all cell
    /// locks are taken once and every round walks one merged postings
    /// list — identical arithmetic, no per-round envelopes, id buffers,
    /// or lock traffic, and a round cost independent of the shard count.
    fn extend_to(&self, state: &mut DistributedGreedy, k: usize) -> Result<(), ScatterError> {
        match &self.merged_postings {
            // Zero workers: the serving thread does everything inline, so
            // there is no worker to die — the fused path is infallible.
            Some(postings) => {
                self.pool.with_all_cells(|cells| self.extend_fused(state, k, cells, postings));
                Ok(())
            }
            None => self.extend_scattered(state, k),
        }
    }

    /// Zero-worker greedy extension: the caller already holds every cell
    /// lock, so each round retires straight off the merged postings list,
    /// flipping alive flags in whichever shard owns each set.
    fn extend_fused(
        &self,
        state: &mut DistributedGreedy,
        k: usize,
        cells: &mut [&mut ShardCell],
        postings: &MergedPostings,
    ) {
        let n = self.index.num_nodes();
        let collection = self.index.collection();
        let segments = self.index.segments();
        let starts: Vec<usize> = segments.iter().map(|s| s.start()).collect();
        let ends: Vec<usize> = segments.iter().map(|s| s.start() + s.len()).collect();
        let mut alives: Vec<&mut Vec<bool>> =
            cells.iter_mut().map(|cell| &mut cell.alive).collect();
        // Per-shard retired tallies, reused across rounds so the fused
        // path records the same per-shard walk lengths the scattered
        // path gathers from its responses.
        let mut retired_per_shard = vec![0u64; alives.len()];
        while state.seeds.len() < k.min(n) {
            let (best, best_count) = pop_argmax(&mut state.frontier, &state.merged);
            state.seeds.push(best);
            let covered_so_far = state.covered_after.last().copied().unwrap_or(0);
            if best_count == 0 {
                // Zero-gain rounds emit deterministically (smallest id) and
                // the vertex stays a candidate — single-index behaviour.
                state.covered_after.push(covered_so_far);
                state.frontier.push((0, Reverse(best)));
                continue;
            }
            // One walk over the seed's merged postings. Entries ascend
            // through the shard ranges, so the owning shard only ever
            // steps forward within a round.
            crate::metrics::GATHER_ROUNDS.increment();
            retired_per_shard.iter_mut().for_each(|c| *c = 0);
            let mut covered = covered_so_far;
            let mut shard = 0usize;
            for &gsid in postings.get(best) {
                let g = gsid as usize;
                while g >= ends[shard] {
                    shard += 1;
                }
                let slot = &mut alives[shard][g - starts[shard]];
                if *slot {
                    *slot = false;
                    covered += 1;
                    retired_per_shard[shard] += 1;
                    collection.get(g).for_each(|v| state.merged[v as usize] -= 1);
                }
            }
            for &retired in &retired_per_shard {
                crate::metrics::RETIRE_WALK_SETS.record(retired);
            }
            debug_assert_eq!(
                state.merged[best as usize], 0,
                "retiring every live set containing the seed zeroes its count"
            );
            state.covered_after.push(covered);
            // Re-admit with the post-retirement merged count (zero).
            state.frontier.push((state.merged[best as usize], Reverse(best)));
        }
    }

    /// Worker-pool greedy extension: each round scatters one retire
    /// request per shard over the pinned queues and walks the gathered
    /// retire stream. A retire round is NOT idempotent — a worker death
    /// mid-round loses responses whose alive flags already flipped — so a
    /// failure marks the session dirty ([`DistributedGreedy::needs_reset`])
    /// instead of retrying, and the next use rebuilds it from scratch.
    fn extend_scattered(
        &self,
        state: &mut DistributedGreedy,
        k: usize,
    ) -> Result<(), ScatterError> {
        let n = self.index.num_nodes();
        let collection = self.index.collection();
        while state.seeds.len() < k.min(n) {
            let (best, best_count) = pop_argmax(&mut state.frontier, &state.merged);
            state.seeds.push(best);
            let covered_so_far = state.covered_after.last().copied().unwrap_or(0);
            if best_count == 0 {
                // Zero-gain rounds emit deterministically (smallest id) and
                // the vertex stays a candidate — single-index behaviour.
                state.covered_after.push(covered_so_far);
                state.frontier.push((0, Reverse(best)));
                continue;
            }
            // Scatter: each shard retires its own covered sets and streams
            // back their global ids; gather decrements the merged counts.
            crate::metrics::GATHER_ROUNDS.increment();
            let bufs = std::mem::take(&mut state.bufs);
            let responses = match self.pool.try_scatter(
                bufs.into_iter()
                    .enumerate()
                    .map(|(s, buf)| (s, ShardRequest::Retire { vertex: best, buf })),
            ) {
                Ok(responses) => responses,
                Err(e) => {
                    // The round's retire stream is gone: shards that served
                    // before the death already flipped alive flags the
                    // merged counts never saw. Only a full session rebuild
                    // reconciles them. The recycled buffers died with their
                    // envelopes; restock so the rebuilt session can scatter.
                    state.bufs = vec![Vec::new(); self.pool.len()];
                    state.needs_reset = true;
                    return Err(e);
                }
            };
            let mut covered = covered_so_far;
            for response in responses {
                let buf = response.retired();
                crate::metrics::RETIRE_WALK_SETS.record(buf.len() as u64);
                covered += buf.len();
                for &gsid in &buf {
                    collection.get(gsid as usize).for_each(|v| state.merged[v as usize] -= 1);
                }
                state.bufs.push(buf);
            }
            debug_assert_eq!(
                state.merged[best as usize], 0,
                "retiring every live set containing the seed zeroes its count"
            );
            debug_assert_eq!(
                self.scattered_live_count(best).unwrap_or(0),
                0,
                "shard alive flags agree with the merged counts"
            );
            state.covered_after.push(covered);
            // Re-admit with the post-retirement merged count (zero).
            state.frontier.push((state.merged[best as usize], Reverse(best)));
        }
        Ok(())
    }

    /// Sum of the shards' live counts for one vertex — the distributed
    /// revalidation probe, used to cross-check the merged counts.
    fn scattered_live_count(&self, vertex: NodeId) -> Result<usize, ScatterError> {
        let responses = scatter_idempotent(&self.pool, |_| ShardRequest::LiveCount { vertex })?;
        Ok(responses.into_iter().map(ShardResponse::count).sum())
    }

    fn top_k(&self, k: usize) -> Result<QueryResponse, ScatterError> {
        let take = k.min(self.index.num_nodes());
        let mut state = self.greedy.lock();
        self.ensure_fresh_session(&mut state)?;
        self.extend_to(&mut state, k)?;
        let seeds = state.seeds[..take].to_vec();
        let covered = if take == 0 { 0 } else { state.covered_after[take - 1] };
        drop(state);
        Ok(self.topk_response(seeds, covered))
    }

    /// Audience Top-K on a transient engine-side session: the shared
    /// sparse greedy over the shards' postings. No scatter, no cell state,
    /// no greedy lock — so no worker death can fail it.
    fn masked_top_k(&self, k: usize, audience: &BitSet) -> QueryResponse {
        let sets = self.index.collection();
        let (seeds, covered) = match &self.merged_postings {
            Some(postings) => self.masked.top_k(sets, postings, k, audience),
            None => self.masked.top_k(sets, &SegmentPostings(self.index.segments()), k, audience),
        };
        self.topk_response(seeds, covered)
    }

    fn topk_response(&self, seeds: Vec<NodeId>, covered: usize) -> QueryResponse {
        QueryResponse::top_k_from_tallies(
            seeds,
            covered,
            self.index.num_sets(),
            self.index.num_nodes(),
        )
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

/// Scatter one request per shard, retrying on worker deaths. Only valid
/// for *idempotent* requests (degrees, postings walks, install/release):
/// a retry re-serves shards that already answered,
/// which must not change their state beyond what a first serve does.
/// Retire streams are NOT idempotent and never come through here.
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

/// Merged per-vertex degrees across all shards: the fresh-session live
/// counts before any retirement. Also the natural probe for the
/// load-imbalance gauge — each shard's degree total *is* its postings
/// work — so the gauge refreshes wherever the merged counts do (engine
/// construction and delta refresh).
fn merged_degrees(
    pool: &PinnedPool<ShardCell>,
    num_nodes: usize,
) -> Result<Vec<u64>, ScatterError> {
    let mut merged = vec![0u64; num_nodes];
    let mut per_shard = Vec::with_capacity(pool.len());
    for response in scatter_idempotent(pool, |_| ShardRequest::Degrees)? {
        let counts = response.counts();
        per_shard.push(counts.iter().sum::<u64>());
        for (v, c) in counts.into_iter().enumerate() {
            merged[v] += c;
        }
    }
    crate::metrics::record_shard_work(&per_shard);
    Ok(merged)
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

    #[test]
    fn merged_counts_match_the_distributed_live_probe() {
        let engine = figure3(3);
        let _ = engine.execute(&Query::top_k(2));
        let state = engine.greedy.lock();
        for v in 0..6u32 {
            assert_eq!(
                engine.scattered_live_count(v).unwrap() as u64,
                state.merged[v as usize],
                "vertex {v}"
            );
        }
    }
}
