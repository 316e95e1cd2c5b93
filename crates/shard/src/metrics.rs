//! Distributed-serving metrics (`shard_` prefix) on the workspace
//! `imm-obs` registry.
//!
//! The sharded engine's own failure mode is *distributional*: one hot
//! shard carrying most of the postings, so every scattered Spread/Marginal
//! waits on it. The layer exports that as a load-imbalance gauge (max/mean
//! per-shard postings work, read off the shard map whenever an engine stands
//! up over an index generation — every pool, every rollout), next to the
//! shape of the pinned cells' range postings summed over the cells — row
//! vertices, list entries, bytes: what scattering costs in memory on top of
//! the global postings (`service_postings_*`), and all zero on an engine
//! without workers, which builds no cells. Everything else is *not*
//! duplicated here: the sharded engine serves through its inner
//! `QueryEngine`, so it shares the `service_` latency, cache and CELF
//! metrics, and the scatter traffic is the pool's `exec_pinned_*`.

use std::sync::Once;

use imm_obs::{Gauge, Metric, Unit};
use imm_rrr::PostingsStats;

/// Max/mean per-shard postings work of the generation being served.
pub static LOAD_IMBALANCE: Gauge = Gauge::new(
    "shard_load_imbalance",
    "Ratio of the busiest shard's postings entries to the per-shard mean",
    Unit::Ratio,
);

/// (Vertex, cell) pairs stored as bit rows.
pub static POSTINGS_ROW_VERTICES: Gauge = Gauge::new(
    "shard_postings_row_vertices",
    "Per-shard postings stored as bit rows, summed over the shards",
    Unit::Count,
);

/// `u32` list entries across the cells' postings.
pub static POSTINGS_LIST_ENTRIES: Gauge = Gauge::new(
    "shard_postings_list_entries",
    "List entries of the shards' postings, summed over the shards",
    Unit::Count,
);

/// Bytes of the cells' postings, rows and lists together.
pub static POSTINGS_MEMORY: Gauge = Gauge::new(
    "shard_postings_memory",
    "Bytes of the shards' postings (rows, row tables, lists, offsets), summed over the shards",
    Unit::Bytes,
);

/// Register the shard metrics with the process-global registry.
/// Idempotent; called from the engine constructor.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        imm_obs::register(&[
            &LOAD_IMBALANCE as &'static dyn Metric,
            &POSTINGS_ROW_VERTICES as &'static dyn Metric,
            &POSTINGS_LIST_ENTRIES as &'static dyn Metric,
            &POSTINGS_MEMORY as &'static dyn Metric,
        ]);
    });
}

/// Fold the shard map's per-shard postings totals into the
/// [`LOAD_IMBALANCE`] gauge and publish the summed shape of the pinned
/// cells' postings (all zero for an engine without cells).
pub(crate) fn record_shard_work(per_shard_postings: &[u64], shape: PostingsStats) {
    POSTINGS_ROW_VERTICES.set(shape.row_vertices as f64);
    POSTINGS_LIST_ENTRIES.set(shape.list_entries as f64);
    POSTINGS_MEMORY.set(shape.bytes() as f64);
    let shards = per_shard_postings.len();
    let total: u64 = per_shard_postings.iter().sum();
    if shards == 0 || total == 0 {
        LOAD_IMBALANCE.set(0.0);
        return;
    }
    let max = *per_shard_postings.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / shards as f64;
    LOAD_IMBALANCE.set(max / mean);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_metrics_join_the_global_registry() {
        register();
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        for expected in ["shard_load_imbalance", "shard_postings_row_vertices"] {
            assert!(names.contains(&expected), "{expected} missing from registry");
        }
    }

    #[test]
    fn load_imbalance_is_max_over_mean() {
        if !imm_obs::recording_enabled() {
            return;
        }
        let shape = PostingsStats::default();
        record_shard_work(&[10, 10, 10, 10], shape);
        assert_eq!(LOAD_IMBALANCE.value(), 1.0);
        record_shard_work(&[30, 10, 10, 10], shape);
        assert_eq!(LOAD_IMBALANCE.value(), 2.0);
        record_shard_work(&[], shape);
        assert_eq!(LOAD_IMBALANCE.value(), 0.0);
    }
}
