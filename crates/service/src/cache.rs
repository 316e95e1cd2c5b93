//! A small LRU cache over normalized queries.
//!
//! Serving traffic is heavily repetitive (the same dashboards asking for the
//! same budgets), so responses are memoized under their [`QueryKey`]. The
//! cache is a plain `HashMap` guarded by a mutex with last-used stamps;
//! eviction scans for the oldest stamp, which is O(capacity) but only runs
//! on insert-at-capacity — for the modest capacities a serving cache wants,
//! that beats maintaining an intrusive list, and the lock is held only for
//! map operations (never while a query computes).

use crate::query::{QueryKey, QueryResponse};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hit/miss/occupancy counters of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Maximum entries the cache will hold.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    response: QueryResponse,
    last_used: u64,
}

struct Inner {
    map: HashMap<QueryKey, Entry>,
    tick: u64,
}

/// Thread-safe LRU response cache keyed on normalized queries.
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("QueryCache")
            .field("capacity", &stats.capacity)
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl QueryCache {
    /// Cache holding at most `capacity` responses (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a response, refreshing its recency on a hit.
    pub fn get(&self, key: &QueryKey) -> Option<QueryResponse> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.response.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a response, evicting the least-recently-used entry at capacity.
    pub fn insert(&self, key: QueryKey, response: QueryResponse) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(oldest) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                crate::metrics::CACHE_EVICTIONS.increment();
            }
        }
        inner.map.insert(key, Entry { response, last_used: tick });
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(v: f64) -> QueryResponse {
        QueryResponse::Spread { coverage_fraction: v, estimate: v }
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = QueryCache::new(4);
        let key = QueryKey::TopK(3, None);
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), response(1.0));
        assert_eq!(cache.get(&key), Some(response(1.0)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let cache = QueryCache::new(2);
        cache.insert(QueryKey::TopK(1, None), response(1.0));
        cache.insert(QueryKey::TopK(2, None), response(2.0));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(&QueryKey::TopK(1, None)).is_some());
        cache.insert(QueryKey::TopK(3, None), response(3.0));
        assert!(cache.get(&QueryKey::TopK(1, None)).is_some());
        assert_eq!(cache.get(&QueryKey::TopK(2, None)), None, "LRU entry must be gone");
        assert!(cache.get(&QueryKey::TopK(3, None)).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = QueryCache::new(2);
        cache.insert(QueryKey::TopK(1, None), response(1.0));
        cache.insert(QueryKey::TopK(2, None), response(2.0));
        cache.insert(QueryKey::TopK(2, None), response(2.5));
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get(&QueryKey::TopK(1, None)).is_some());
        assert_eq!(cache.get(&QueryKey::TopK(2, None)), Some(response(2.5)));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = QueryCache::new(0);
        cache.insert(QueryKey::TopK(1, None), response(1.0));
        assert_eq!(cache.get(&QueryKey::TopK(1, None)), None);
        assert_eq!(cache.stats().entries, 0);
    }
}
