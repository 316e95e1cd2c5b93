//! Serving-layer metrics (`service_` prefix) on the workspace `imm-obs`
//! registry.
//!
//! Three families, matching where serving regressions actually hide:
//!
//! * **Query latency + cache** — per-query-type latency histograms
//!   recorded around the cache-miss *compute* path of
//!   [`QueryEngine`](crate::QueryEngine) (cache hits return in nanoseconds
//!   and would drown the percentiles, so they are counted, not timed), plus
//!   hit/miss/eviction counters and a queries/sec rate meter. The sharded
//!   engine serves through an inner `QueryEngine`, so these cover both.
//! * **CELF** — rounds, heap pops, and stale revalidations, recorded by
//!   the one frontier pop every Top-K session of every engine goes
//!   through ([`crate::masked`]). A revalidation blow-up (pops ≫ rounds)
//!   is the classic lazy-greedy failure mode and is invisible from
//!   end-to-end latency alone. Plus the eligible-set count of each
//!   audience Top-K session, the quantity its work is proportional to.
//! * **Dynamic refresh** — delta edges applied, sets invalidated vs
//!   actually resampled, and postings candidates kept by the coin
//!   predicate (the pruning that keeps refresh sublinear).
//!
//! * **Postings shape** — row vertices, list entries and bytes of the
//!   served global postings (dense regime: "all rows, kilobytes"; sparse:
//!   "no rows"), set when an engine starts serving and after each refresh.
//!
//! All hot-path updates are relaxed atomic adds; CELF totals are
//! accumulated per round, not per pop.

use std::sync::Once;

use imm_obs::{Counter, Gauge, Histogram, Metric, RateMeter, Unit};
use imm_rrr::PostingsStats;

/// Latency of cache-miss TopK (plain and masked) computations.
pub static TOPK_LATENCY: Histogram = Histogram::new(
    "service_topk_latency",
    "Wall-clock latency of cache-miss TopK query computations",
    Unit::Nanoseconds,
);

/// Latency of cache-miss Spread computations.
pub static SPREAD_LATENCY: Histogram = Histogram::new(
    "service_spread_latency",
    "Wall-clock latency of cache-miss Spread query computations",
    Unit::Nanoseconds,
);

/// Latency of cache-miss Marginal computations.
pub static MARGINAL_LATENCY: Histogram = Histogram::new(
    "service_marginal_latency",
    "Wall-clock latency of cache-miss Marginal query computations",
    Unit::Nanoseconds,
);

/// Queries answered from the response cache.
pub static CACHE_HITS: Counter =
    Counter::new("service_cache_hits", "Queries answered from the response cache");

/// Queries that missed the response cache and were computed.
pub static CACHE_MISSES: Counter = Counter::new(
    "service_cache_misses",
    "Queries that missed the response cache and were computed",
);

/// Cached responses evicted to make room (LRU order).
pub static CACHE_EVICTIONS: Counter = Counter::new(
    "service_cache_evictions",
    "Cached responses evicted in LRU order to admit a new entry",
);

/// CELF greedy rounds played (one seed selected per round).
pub static CELF_ROUNDS: Counter =
    Counter::new("service_celf_rounds", "CELF greedy rounds played (one seed per round)");

/// Entries popped off the CELF frontier heap across all rounds.
pub static CELF_HEAP_POPS: Counter =
    Counter::new("service_celf_heap_pops", "Entries popped off the CELF frontier heap");

/// Stale CELF entries reinserted with their recounted gain.
pub static CELF_REVALIDATIONS: Counter = Counter::new(
    "service_celf_revalidations",
    "Stale CELF frontier entries revalidated (reinserted with the recounted gain)",
);

/// Eligible sets (those containing an audience vertex) per audience Top-K:
/// the size of the sparse masked session, which bounds its work.
pub static MASKED_SESSION_SETS: Histogram = Histogram::new(
    "service_masked_session_sets",
    "Eligible RRR sets (containing an audience vertex) per audience TopK session",
    Unit::Count,
);

/// Edge mutations applied by dynamic deltas.
pub static DELTA_EDGES_APPLIED: Counter = Counter::new(
    "service_delta_edges_applied",
    "Edge insertions, deletions, and reweights applied by dynamic deltas",
);

/// Sketch sets marked invalid by a delta's touched edges.
pub static DELTA_SETS_INVALIDATED: Counter = Counter::new(
    "service_delta_sets_invalidated",
    "Sketch sets marked invalid by a dynamic delta before resampling",
);

/// Sketch sets regenerated after invalidation.
pub static DELTA_SETS_RESAMPLED: Counter = Counter::new(
    "service_delta_sets_resampled",
    "Sketch sets regenerated from their original seeds after invalidation",
);

/// Posting-list candidates the coin predicate kept.
pub static DELTA_COIN_SKIPS: Counter = Counter::new(
    "service_delta_coin_skips",
    "Sets containing a touched destination that the coin predicate kept without resampling",
);

/// Query arrival rate across both engines (hits and misses).
pub static QUERY_RATE: RateMeter =
    RateMeter::new("service_queries", "Queries served (cache hits and misses combined)");

/// Interrupted snapshot saves recovered on a later load: the loader
/// found (and swept) a leftover `.tmp` from a save that died before its
/// atomic rename, and served the last complete generation instead.
pub static SNAPSHOT_RECOVERIES: Counter = Counter::new(
    "snapshot_recoveries",
    "Leftover snapshot temp files from interrupted saves swept on load",
);

/// Vertices of the served global postings stored as bit rows.
pub static POSTINGS_ROW_VERTICES: Gauge = Gauge::new(
    "service_postings_row_vertices",
    "Vertices of the served global postings stored as bit rows (degree above theta/32)",
    Unit::Count,
);

/// `u32` list entries of the served global postings.
pub static POSTINGS_LIST_ENTRIES: Gauge = Gauge::new(
    "service_postings_list_entries",
    "List entries of the served global postings (vertices not stored as rows)",
    Unit::Count,
);

/// Bytes of the served global postings, rows and lists together.
pub static POSTINGS_MEMORY: Gauge = Gauge::new(
    "service_postings_memory",
    "Bytes of the served global postings: rows, row table, lists and offsets",
    Unit::Bytes,
);

/// Publish the shape of the global postings an engine serves from.
pub fn record_postings(stats: PostingsStats) {
    POSTINGS_ROW_VERTICES.set(stats.row_vertices as f64);
    POSTINGS_LIST_ENTRIES.set(stats.list_entries as f64);
    POSTINGS_MEMORY.set(stats.bytes() as f64);
}

/// Register the serving metrics with the process-global registry.
/// Idempotent; called from engine constructors and the refresh path.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        imm_obs::register(&[
            &TOPK_LATENCY as &'static dyn Metric,
            &SPREAD_LATENCY as &'static dyn Metric,
            &MARGINAL_LATENCY as &'static dyn Metric,
            &CACHE_HITS as &'static dyn Metric,
            &CACHE_MISSES as &'static dyn Metric,
            &CACHE_EVICTIONS as &'static dyn Metric,
            &CELF_ROUNDS as &'static dyn Metric,
            &CELF_HEAP_POPS as &'static dyn Metric,
            &CELF_REVALIDATIONS as &'static dyn Metric,
            &MASKED_SESSION_SETS as &'static dyn Metric,
            &DELTA_EDGES_APPLIED as &'static dyn Metric,
            &DELTA_SETS_INVALIDATED as &'static dyn Metric,
            &DELTA_SETS_RESAMPLED as &'static dyn Metric,
            &DELTA_COIN_SKIPS as &'static dyn Metric,
            &QUERY_RATE as &'static dyn Metric,
            &SNAPSHOT_RECOVERIES as &'static dyn Metric,
            &POSTINGS_ROW_VERTICES as &'static dyn Metric,
            &POSTINGS_LIST_ENTRIES as &'static dyn Metric,
            &POSTINGS_MEMORY as &'static dyn Metric,
        ]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_metrics_join_the_global_registry() {
        register();
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        for expected in [
            "service_topk_latency",
            "service_cache_hits",
            "service_celf_revalidations",
            "service_masked_session_sets",
            "service_delta_coin_skips",
            "service_queries",
            "snapshot_recoveries",
            "service_postings_row_vertices",
            "service_postings_memory",
        ] {
            assert!(names.contains(&expected), "{expected} missing from registry");
        }
    }
}
