//! The shared global occurrence counter and its max reduction.
//!
//! This is the heart of EfficientIMM's new parallelization strategy
//! (Algorithm 2 of the paper): instead of per-thread counters over vertex
//! partitions, all threads scatter atomic increments into a single
//! `counter[v]` array, and the most influential vertex is the array's argmax.
//!
//! The atomics are the selection kernel's. Kernel fusion (Algorithm 3) does
//! not scatter into this counter: a run counts each sampled batch once with
//! `imm_rrr::count_memberships` (bitmap blocks by 64×64 transposes), and the
//! eager kernel can start from those counts ([`GlobalCounter::from_values`]):
//! on a dense IC sample (sets over most of the graph) a per-member
//! `lock xadd` costs about a sixth of sampling.
//!
//! Only the scattered updates are concurrent. The whole-array passes —
//! [`GlobalCounter::argmax`] and [`GlobalCounter::reset`] — are plain loops
//! on the calling thread: a pass visits a counter in ~0.3 ns, a fork-join of
//! two trivial tasks on the persistent pool costs ~0.5–1 µs (the spine's
//! `exec.scope_dispatch_us`, two threads on a 2-vCPU box), and splitting the
//! passes across workers measured slower up to ~512k counters (ROADMAP,
//! "Parallel counter passes").
//!
//! The atomic used is a 64-bit fetch-add with relaxed ordering, which on
//! x86-64 compiles to the same `lock`-prefixed read-modify-write on a single
//! quadword that the paper highlights (`lock incq`/`lock xaddq`): only the
//! touched counter's cache line is locked, so unrelated counters never
//! contend.

use crate::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared per-vertex occurrence counter with concurrent updates.
#[derive(Debug)]
pub struct GlobalCounter {
    counts: Vec<AtomicU64>,
}

impl GlobalCounter {
    /// Zero-initialized counter for `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        let mut counts = Vec::with_capacity(num_nodes);
        counts.resize_with(num_nodes, || AtomicU64::new(0));
        GlobalCounter { counts }
    }

    /// Build from per-vertex counts, as [`imm_rrr::count_memberships`]
    /// leaves them.
    pub fn from_values(values: &[u32]) -> Self {
        GlobalCounter { counts: values.iter().map(|&v| AtomicU64::new(v as u64)).collect() }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the counter is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Atomically increment the counter of `v` (relaxed ordering — counts are
    /// only read after the parallel section joins, so no ordering beyond the
    /// RMW atomicity is needed).
    #[inline]
    pub fn increment(&self, v: NodeId) {
        self.counts[v as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Atomically decrement the counter of `v` (saturating at zero to guard
    /// against double-decrements from overlapping covered sets).
    #[inline]
    pub fn decrement(&self, v: NodeId) {
        let cell = &self.counts[v as usize];
        let mut current = cell.load(Ordering::Relaxed);
        while current > 0 {
            match cell.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Read one counter.
    #[inline]
    pub fn get(&self, v: NodeId) -> u64 {
        self.counts[v as usize].load(Ordering::Relaxed)
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        for cell in &self.counts {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters into a plain vector.
    pub fn snapshot(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The vertex with the largest count, and that count. Ties break toward
    /// the smaller vertex id so results are deterministic.
    ///
    /// Returns `None` only for an empty counter.
    pub fn argmax(&self) -> Option<(NodeId, u64)> {
        if self.counts.is_empty() {
            return None;
        }
        // Strict `>` keeps the first of equal maxima; an all-zero counter
        // yields vertex 0.
        let mut best = (0, 0);
        for (idx, cell) in self.counts.iter().enumerate() {
            let c = cell.load(Ordering::Relaxed);
            if c > best.1 {
                best = (idx, c);
            }
        }
        Some((best.0 as NodeId, best.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn increment_decrement_get() {
        let c = GlobalCounter::new(5);
        c.increment(3);
        c.increment(3);
        c.increment(1);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(1), 1);
        assert_eq!(c.get(0), 0);
        c.decrement(3);
        assert_eq!(c.get(3), 1);
        // Saturating at zero.
        c.decrement(0);
        assert_eq!(c.get(0), 0);
    }

    #[test]
    fn reset_and_snapshot() {
        let c = GlobalCounter::new(4);
        c.increment(0);
        c.increment(2);
        assert_eq!(c.snapshot(), vec![1, 0, 1, 0]);
        c.reset();
        assert_eq!(c.snapshot(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn argmax_finds_unique_maximum() {
        let c = GlobalCounter::from_values(&[3, 7, 2, 7, 9, 1]);
        assert_eq!(c.argmax(), Some((4, 9)));
    }

    #[test]
    fn argmax_breaks_ties_toward_smaller_id() {
        assert_eq!(GlobalCounter::from_values(&[1, 5, 5, 5]).argmax(), Some((1, 5)));
        // All-zero: the smallest vertex id.
        assert_eq!(GlobalCounter::new(3).argmax(), Some((0, 0)));
    }

    #[test]
    fn argmax_of_empty_counter_is_none() {
        assert_eq!(GlobalCounter::new(0).argmax(), None);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = GlobalCounter::new(8);
        let increments_per_thread = 10_000u64;
        rayon::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for i in 0..increments_per_thread {
                        c.increment((i % 8) as NodeId);
                    }
                });
            }
        });
        let total: u64 = c.snapshot().iter().sum();
        assert_eq!(total, 4 * increments_per_thread);
    }

    proptest! {
        #[test]
        fn argmax_is_the_first_occurrence_of_the_maximum(values in proptest::collection::vec(0u32..1000, 1..200)) {
            let c = GlobalCounter::from_values(&values);
            let max = *values.iter().max().unwrap();
            let first = values.iter().position(|&v| v == max).unwrap();
            prop_assert_eq!(c.argmax(), Some((first as NodeId, max as u64)));
        }
    }
}
