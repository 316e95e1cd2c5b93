//! Per-core L1+L2 hierarchies and the machine-wide aggregate.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::Address;

/// Geometry of the per-core two-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig { l1: CacheConfig::zen3_l1d(), l2: CacheConfig::zen3_l2() }
    }
}

/// Combined counters for a hierarchy (the "L1+L2 misses" Table IV reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters (only accessed on L1 misses).
    pub l2: CacheStats,
}

impl HierarchyStats {
    /// The paper's headline metric: L1 misses + L2 misses.
    pub fn l1_plus_l2_misses(&self) -> u64 {
        self.l1.misses + self.l2.misses
    }

    /// Total memory accesses issued to L1.
    pub fn accesses(&self) -> u64 {
        self.l1.accesses()
    }

    /// Merge another hierarchy's counters.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.l1.merge(&other.l1);
        self.l2.merge(&other.l2);
    }
}

/// The private L1+L2 of one core.
#[derive(Debug, Clone)]
pub struct CoreCaches {
    l1: Cache,
    l2: Cache,
}

impl CoreCaches {
    /// Create the two levels from `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        CoreCaches { l1: Cache::new(config.l1), l2: Cache::new(config.l2) }
    }

    /// Access `address`: L1 first, L2 only on an L1 miss (inclusive fill).
    pub fn access(&mut self, address: Address) {
        if !self.l1.access(address) {
            self.l2.access(address);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats { l1: self.l1.stats(), l2: self.l2.stats() }
    }

    /// Reset contents and counters.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
    }
}

/// One private hierarchy per core.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cores: Vec<CoreCaches>,
}

impl MemoryHierarchy {
    /// Build hierarchies for `num_cores` cores.
    pub fn new(num_cores: usize, config: HierarchyConfig) -> Self {
        assert!(num_cores > 0, "need at least one core");
        MemoryHierarchy { cores: (0..num_cores).map(|_| CoreCaches::new(config)).collect() }
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Access from `core`.
    #[inline]
    pub fn access(&mut self, core: usize, address: Address) {
        self.cores[core].access(address);
    }

    /// Counters of one core.
    pub fn core_stats(&self, core: usize) -> HierarchyStats {
        self.cores[core].stats()
    }

    /// Machine-wide aggregate counters.
    pub fn total_stats(&self) -> HierarchyStats {
        let mut agg = HierarchyStats::default();
        for c in &self.cores {
            agg.merge(&c.stats());
        }
        agg
    }

    /// Reset every core.
    pub fn reset(&mut self) {
        for c in &mut self.cores {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_address;

    fn small_hierarchy() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 },
            l2: CacheConfig { size_bytes: 8 * 1024, line_bytes: 64, ways: 4 },
        }
    }

    #[test]
    fn l2_is_only_touched_on_l1_miss() {
        let mut core = CoreCaches::new(HierarchyConfig::default());
        core.access(0);
        core.access(0);
        core.access(0);
        let stats = core.stats();
        assert_eq!(stats.l1.misses, 1);
        assert_eq!(stats.l1.hits, 2);
        assert_eq!(stats.l2.accesses(), 1, "only the single L1 miss reaches L2");
    }

    #[test]
    fn l1_plus_l2_metric() {
        let mut core = CoreCaches::new(small_hierarchy());
        // Stream 4 KiB: every line misses L1 (1 KiB) once; L2 holds them.
        for line in 0..64u64 {
            core.access(line * 64);
        }
        let s = core.stats();
        assert_eq!(s.l1.misses, 64);
        assert_eq!(s.l2.misses, 64); // cold
        assert_eq!(s.l1_plus_l2_misses(), 128);

        // Second pass: L1 too small (16 lines) so most miss L1, but L2 (128
        // lines) holds everything -> no new L2 misses.
        for line in 0..64u64 {
            core.access(line * 64);
        }
        let s2 = core.stats();
        assert_eq!(s2.l2.misses, 64, "second pass should hit in L2");
        assert!(s2.l1.misses > 64);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let mut core = CoreCaches::new(HierarchyConfig::default());
        for _ in 0..100 {
            for line in 0..8u64 {
                core.access(line * 64);
            }
        }
        let s = core.stats();
        assert_eq!(s.l1.misses, 8, "only cold misses");
        assert_eq!(s.l1_plus_l2_misses(), 16);
    }

    #[test]
    fn per_core_hierarchies_are_independent() {
        let mut h = MemoryHierarchy::new(2, small_hierarchy());
        assert_eq!(h.num_cores(), 2);
        h.access(0, synthetic_address(0, 0));
        h.access(0, synthetic_address(0, 0));
        assert_eq!(h.core_stats(0).l1.hits, 1);
        assert_eq!(h.core_stats(1).accesses(), 0);
        let total = h.total_stats();
        assert_eq!(total.accesses(), 2);
    }

    #[test]
    fn reset_clears_all_cores() {
        let mut h = MemoryHierarchy::new(2, small_hierarchy());
        h.access(0, 0);
        h.access(1, 0);
        h.reset();
        assert_eq!(h.total_stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        MemoryHierarchy::new(0, HierarchyConfig::default());
    }
}
