//! Store observability: `store_*` counters in the workspace `imm-obs`
//! registry, covering how snapshots were opened (mapped vs fallback) and
//! what placement advice was issued.

use std::sync::Once;

pub use imm_obs::Counter;
use imm_obs::{Metric, Unit};

/// Snapshots opened zero-copy from a memory mapping.
pub static MMAP_OPENS: Counter =
    Counter::new("store_mmap_opens", "Snapshots served zero-copy from a memory mapping");

/// Snapshot opens that fell back to the read-decode path (unsupported
/// platform, mmap failure, an injected fault, or a file the mapped open
/// rejected).
pub static MMAP_FALLBACKS: Counter = Counter::new(
    "store_mmap_fallbacks",
    "Snapshot opens that fell back to the heap read-decode path",
);

/// Cumulative bytes of snapshot files memory-mapped since process start.
pub static MAPPED_MEMORY: Counter = Counter::with_unit(
    "store_mapped_memory",
    "Cumulative snapshot bytes memory-mapped since process start",
    Unit::Bytes,
);

/// `madvise(WILLNEED)` calls issued for shard-owned section ranges.
pub static ADVISE_CALLS: Counter =
    Counter::new("store_advise_calls", "madvise(WILLNEED) calls issued for shard-owned ranges");

/// Shard set ranges successfully advised into the page cache.
pub static SHARD_RANGES_ADVISED: Counter = Counter::new(
    "store_shard_ranges_advised",
    "Shard set ranges successfully advised into the page cache",
);

/// Every store metric, in registration order.
pub fn registry() -> Vec<&'static Counter> {
    vec![&MMAP_OPENS, &MMAP_FALLBACKS, &MAPPED_MEMORY, &ADVISE_CALLS, &SHARD_RANGES_ADVISED]
}

/// Register every store counter with the process-global `imm-obs` registry.
/// Idempotent; called from [`crate::Store`] open paths, never on a hot path.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let metrics: Vec<&'static dyn Metric> =
            registry().into_iter().map(|c| c as &'static dyn Metric).collect();
        imm_obs::register(&metrics);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_prefixed_and_unique() {
        let mut names: Vec<&str> = registry().iter().map(|c| c.name()).collect();
        assert!(names.iter().all(|n| n.starts_with("store_")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len());
    }

    #[test]
    fn register_feeds_the_global_obs_registry() {
        register();
        register(); // idempotent
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        for c in registry() {
            assert!(names.contains(&c.name()), "{} missing from imm-obs registry", c.name());
        }
    }
}
