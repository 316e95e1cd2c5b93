//! Store observability: `store_*` counters in the workspace `imm-obs`
//! registry, covering how snapshots were opened (mapped vs fallback) and
//! what placement advice was issued. [`crate::Store`]'s open paths call
//! [`register`], never a hot path.

imm_obs::metrics! {
    pub MMAP_OPENS: Counter =
        "store_mmap_opens", "Snapshots served zero-copy from a memory mapping";
    /// Causes: an unsupported platform, an mmap failure, an injected
    /// fault, or a file the mapped open rejected.
    pub MMAP_FALLBACKS: Counter = "store_mmap_fallbacks",
        "Snapshot opens that fell back to the heap read-decode path";
    pub MAPPED_MEMORY: Counter = "store_mapped_memory",
        "Cumulative snapshot bytes memory-mapped since process start", Bytes;
    pub ADVISE_CALLS: Counter =
        "store_advise_calls", "madvise(WILLNEED) calls issued for shard-owned ranges";
    pub SHARD_RANGES_ADVISED: Counter = "store_shard_ranges_advised",
        "Shard set ranges successfully advised into the page cache";
}
