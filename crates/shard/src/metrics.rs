//! Distributed-serving metrics (`shard_` prefix) on the workspace
//! `imm-obs` registry.
//!
//! The shard map's own failure mode is *distributional*: one hot shard
//! carrying most of the postings. The layer exports that as a load-imbalance
//! gauge (max/mean per-shard postings work, read off the shard map whenever
//! an engine stands up over an index generation — every rollout). Everything
//! else is *not* duplicated here: the sharded engine serves through its inner
//! `QueryEngine`, so it shares the `service_` latency, CELF and
//! postings-shape metrics.

imm_obs::metrics! {
    pub LOAD_IMBALANCE: Gauge = "shard_load_imbalance",
        "Ratio of the busiest shard's postings entries to the per-shard mean", Ratio;
}

/// Fold the shard map's per-shard postings totals into the
/// [`LOAD_IMBALANCE`] gauge.
pub(crate) fn record_shard_work(per_shard_postings: &[u64]) {
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
    fn load_imbalance_is_max_over_mean() {
        if !imm_obs::recording_enabled() {
            return;
        }
        record_shard_work(&[10, 10, 10, 10]);
        assert_eq!(LOAD_IMBALANCE.value(), 1.0);
        record_shard_work(&[30, 10, 10, 10]);
        assert_eq!(LOAD_IMBALANCE.value(), 2.0);
        record_shard_work(&[]);
        assert_eq!(LOAD_IMBALANCE.value(), 0.0);
    }
}
