//! A single set-associative cache with LRU replacement.

use crate::Address;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// 32 KiB, 8-way, 64-byte lines — the Zen 3 L1D of the paper's machine.
    pub fn zen3_l1d() -> Self {
        CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 }
    }

    /// 512 KiB, 8-way, 64-byte lines — the Zen 3 private L2.
    pub fn zen3_l2() -> Self {
        CacheConfig { size_bytes: 512 * 1024, line_bytes: 64, ways: 8 }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.ways > 0, "associativity must be positive");
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.ways),
            "cache size must be a multiple of line_bytes * ways"
        );
        assert!(self.num_sets() > 0, "cache must have at least one set");
        assert!(self.num_sets().is_power_of_two(), "number of sets must be a power of two");
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 when there were no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// One set-associative, LRU-replacement cache.
///
/// Each set stores up to `ways` line tags together with a logical timestamp;
/// the least-recently-used tag is evicted on a fill. Only tags are modelled —
/// data never moves, which is all a miss counter needs.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[set][way] = (tag, last_use)`; `tag == u64::MAX` means empty.
    sets: Vec<Vec<(u64, u64)>>,
    clock: u64,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
}

const EMPTY_TAG: u64 = u64::MAX;

impl Cache {
    /// Create an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let num_sets = config.num_sets();
        Cache {
            config,
            sets: vec![vec![(EMPTY_TAG, 0); config.ways]; num_sets],
            clock: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset counters and contents.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for slot in set.iter_mut() {
                *slot = (EMPTY_TAG, 0);
            }
        }
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Access `address`; returns `true` on hit. On miss the line is filled
    /// (evicting the LRU way).
    pub fn access(&mut self, address: Address) -> bool {
        self.clock += 1;
        let line = address >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];

        if let Some(slot) = set.iter_mut().find(|(t, _)| *t == tag) {
            slot.1 = self.clock;
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        // Fill: prefer an empty way, otherwise evict the LRU way.
        let victim = set
            .iter_mut()
            .min_by_key(|(t, last_use)| if *t == EMPTY_TAG { 0 } else { *last_use + 1 })
            .expect("cache set has at least one way");
        *victim = (tag, self.clock);
        false
    }

    /// Probe without updating state or counters; returns `true` if the line
    /// is currently resident.
    pub fn probe(&self, address: Address) -> bool {
        let line = address >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        self.sets[set_idx].iter().any(|(t, _)| *t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(ways: usize, sets: usize) -> Cache {
        // 64-byte lines.
        Cache::new(CacheConfig { size_bytes: 64 * ways * sets, line_bytes: 64, ways })
    }

    #[test]
    fn geometry_of_default_configs() {
        assert_eq!(CacheConfig::zen3_l1d().num_sets(), 64);
        assert_eq!(CacheConfig::zen3_l2().num_sets(), 1024);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny_cache(2, 4);
        assert!(!c.access(0x1000)); // cold miss
        assert!(c.access(0x1000)); // hit
        assert!(c.access(0x1008)); // same line, hit
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn distinct_lines_miss_independently() {
        let mut c = tiny_cache(2, 4);
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(!c.access(128));
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // Direct-mapped-ish: 2 ways, 1 set -> third distinct line evicts LRU.
        let mut c = tiny_cache(2, 1);
        c.access(0); // A
        c.access(64); // B
        c.access(0); // A hit, now B is LRU
        c.access(128); // C evicts B
        assert!(c.probe(0), "A should survive");
        assert!(!c.probe(64), "B should be evicted");
        assert!(c.probe(128));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let config = CacheConfig { size_bytes: 4 * 1024, line_bytes: 64, ways: 4 };
        let mut c = Cache::new(config);
        // Stream over 64 KiB twice: second pass still misses (capacity).
        let lines = 64 * 1024 / 64;
        for _ in 0..2 {
            for l in 0..lines {
                c.access((l * 64) as u64);
            }
        }
        let stats = c.stats();
        assert!(stats.miss_ratio() > 0.9, "expected thrashing, miss ratio {}", stats.miss_ratio());
    }

    #[test]
    fn working_set_smaller_than_cache_hits_on_second_pass() {
        let mut c = Cache::new(CacheConfig::zen3_l1d());
        let lines = 16 * 1024 / 64; // 16 KiB working set in a 32 KiB cache
        for l in 0..lines {
            c.access((l * 64) as u64);
        }
        let cold = c.stats();
        for l in 0..lines {
            c.access((l * 64) as u64);
        }
        let after = c.stats();
        assert_eq!(after.misses, cold.misses, "second pass should be all hits");
        assert_eq!(after.hits, cold.hits + lines as u64);
    }

    #[test]
    fn probe_does_not_change_stats() {
        let mut c = tiny_cache(2, 2);
        c.access(0);
        let before = c.stats();
        c.probe(0);
        c.probe(4096);
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny_cache(2, 2);
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.probe(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_geometry_rejected() {
        Cache::new(CacheConfig { size_bytes: 100, line_bytes: 60, ways: 1 });
    }

    #[test]
    fn miss_ratio_of_empty_stats_is_zero() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
