//! Serving-layer metrics (`service_` prefix) on the workspace `imm-obs`
//! registry.
//!
//! Four families, matching where serving regressions actually hide:
//!
//! * **Query latency + cache** — per-query-type latency histograms
//!   recorded around the cache-miss *compute* path of
//!   [`QueryEngine`](crate::QueryEngine) (cache hits return in nanoseconds
//!   and would drown the percentiles, so they are counted, not timed), plus
//!   hit/miss/eviction counters and a queries/sec rate meter. The sharded
//!   engine serves through an inner `QueryEngine`, so these cover both.
//! * **CELF** — rounds, heap pops, and stale revalidations, which the one
//!   lazy-greedy session every Top-K of every engine runs
//!   ([`imm_rrr::LazyGreedy`]) tallies and the engine adds once per query
//!   ([`crate::masked`]). A revalidation blow-up (pops ≫ rounds)
//!   is the classic lazy-greedy failure mode and is invisible from
//!   end-to-end latency alone. Plus the eligible-set count of each
//!   audience Top-K session, which its postings walk finds.
//! * **Dynamic refresh** — delta edges applied, sets invalidated vs
//!   actually resampled, and postings candidates kept by the coin
//!   predicate (the pruning that keeps refresh sublinear).
//! * **Postings shape** — row vertices, list entries and bytes of the
//!   served global postings (dense regime: "all rows, kilobytes"; sparse:
//!   "no rows"), set when an engine starts serving and after each refresh.
//!
//! All hot-path updates are relaxed atomic adds; CELF totals are
//! accumulated per query, not per pop. Engine constructors and the refresh
//! path call [`register`].

use imm_rrr::PostingsStats;

imm_obs::metrics! {
    /// Plain and masked.
    pub TOPK_LATENCY: Histogram = "service_topk_latency",
        "Wall-clock latency of cache-miss TopK query computations", Nanoseconds;
    pub SPREAD_LATENCY: Histogram = "service_spread_latency",
        "Wall-clock latency of cache-miss Spread query computations", Nanoseconds;
    pub MARGINAL_LATENCY: Histogram = "service_marginal_latency",
        "Wall-clock latency of cache-miss Marginal query computations", Nanoseconds;
    pub CACHE_HITS: Counter =
        "service_cache_hits", "Queries answered from the response cache";
    pub CACHE_MISSES: Counter = "service_cache_misses",
        "Queries that missed the response cache and were computed";
    pub CACHE_EVICTIONS: Counter = "service_cache_evictions",
        "Cached responses evicted in LRU order to admit a new entry";
    pub CELF_ROUNDS: Counter =
        "service_celf_rounds", "CELF greedy rounds played (one seed per round)";
    /// Every recount: a heap entry or a vertex entering from the degree
    /// order. Per audience query, the prefix of the order it evaluated.
    pub CELF_HEAP_POPS: Counter =
        "service_celf_heap_pops", "Entries popped off the CELF frontier heap";
    pub CELF_REVALIDATIONS: Counter = "service_celf_revalidations",
        "Stale CELF frontier entries revalidated (reinserted with the recounted gain)";
    /// What the audience's postings walk leaves uncovered. The session's
    /// work is that walk plus the degree-order prefix it evaluates
    /// (`service_celf_heap_pops`), which this count does not bound.
    pub MASKED_SESSION_SETS: Histogram = "service_masked_session_sets",
        "Eligible RRR sets (containing an audience vertex) per audience TopK session", Count;
    pub DELTA_EDGES_APPLIED: Counter = "service_delta_edges_applied",
        "Edge insertions, deletions, and reweights applied by dynamic deltas";
    pub DELTA_SETS_INVALIDATED: Counter = "service_delta_sets_invalidated",
        "Sketch sets marked invalid by a dynamic delta before resampling";
    pub DELTA_SETS_RESAMPLED: Counter = "service_delta_sets_resampled",
        "Sketch sets regenerated from their original seeds after invalidation";
    pub DELTA_COIN_SKIPS: Counter = "service_delta_coin_skips",
        "Sets containing a touched destination that the coin predicate kept without resampling";
    /// Across both engines.
    pub QUERY_RATE: RateMeter =
        "service_queries", "Queries served (cache hits and misses combined)";
    /// The loader found a leftover `.tmp` from a save that died before its
    /// atomic rename, swept it, and served the last complete generation.
    pub SNAPSHOT_RECOVERIES: Counter = "snapshot_recoveries",
        "Leftover snapshot temp files from interrupted saves swept on load";
    pub POSTINGS_ROW_VERTICES: Gauge = "service_postings_row_vertices",
        "Vertices of the served global postings stored as bit rows (degree above theta/32)",
        Count;
    pub POSTINGS_LIST_ENTRIES: Gauge = "service_postings_list_entries",
        "List entries of the served global postings (vertices not stored as rows)", Count;
    pub POSTINGS_MEMORY: Gauge = "service_postings_memory",
        "Bytes of the served global postings: rows, row table, lists and offsets", Bytes;
}

/// Publish the shape of the global postings an engine serves from.
pub fn record_postings(stats: PostingsStats) {
    POSTINGS_ROW_VERTICES.set(stats.row_vertices as f64);
    POSTINGS_LIST_ENTRIES.set(stats.list_entries as f64);
    POSTINGS_MEMORY.set(stats.bytes() as f64);
}
