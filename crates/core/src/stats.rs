//! Runtime breakdown, work profiles and kernel timings.
//!
//! Figure 2 of the paper breaks Ripples' runtime into its kernels, and the
//! strong-scaling figures (1, 6, 7) are built from per-thread-count runtimes.
//! [`RuntimeBreakdown`] is the per-run record both engines fill in;
//! [`WorkProfile`] additionally records the per-thread operation counts that
//! the benchmark harness's scaling model consumes (this environment has a
//! single physical core, so the *shape* of the scaling curves is derived
//! from measured work distribution rather than wall-clock — see DESIGN.md §4).

use std::time::Duration;

/// Wall-clock time spent in each kernel of one IMM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelTimings {
    /// Time generating RRR sets (`Generate_RRRsets`), across all martingale
    /// iterations.
    pub generate_rrrsets: Duration,
    /// Time selecting seeds (`Find_Most_Influential_Set`), across all calls.
    pub find_most_influential: Duration,
    /// Time spent in θ estimation and other bookkeeping.
    pub other: Duration,
}

impl KernelTimings {
    /// Total runtime.
    pub fn total(&self) -> Duration {
        self.generate_rrrsets + self.find_most_influential + self.other
    }

    /// Fraction of the total spent in seed selection (the kernel whose share
    /// explodes with thread count in the Ripples baseline — Figure 2).
    pub fn selection_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.find_most_influential.as_secs_f64() / total
        }
    }

    /// Merge another run's timings (used when accumulating over repetitions).
    pub fn merge(&mut self, other: &KernelTimings) {
        self.generate_rrrsets += other.generate_rrrsets;
        self.find_most_influential += other.find_most_influential;
        self.other += other.other;
    }
}

/// Per-thread operation counts of one kernel execution.
///
/// "Operations" are the unit the paper's memory-traversal analysis counts:
/// counter loads/stores, RRR-set element visits and binary-search probes.
/// The maximum per-thread count is the modelled parallel span of the kernel;
/// the sum is its total work.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkProfile {
    /// Operations executed by each worker thread.
    pub per_thread_ops: Vec<u64>,
    /// Number of atomic read-modify-write operations issued (EfficientIMM's
    /// concurrent counter updates; zero for the Ripples engine).
    pub atomic_ops: u64,
    /// Membership work of the selection kernel. Ripples: binary-search
    /// probes issued (zero when bitmaps answer membership in O(1)).
    /// EfficientIMM's eager kernel: inverted-index entries built (one per
    /// list-set member, per selection) + postings entries inspected + bitmap
    /// sets probed. CELF: postings entries built + frontier evaluations.
    pub search_probes: u64,
}

impl WorkProfile {
    /// Profile for `threads` workers with no recorded work.
    pub fn new(threads: usize) -> Self {
        WorkProfile { per_thread_ops: vec![0; threads.max(1)], atomic_ops: 0, search_probes: 0 }
    }

    /// Total operations over all threads.
    pub fn total_ops(&self) -> u64 {
        self.per_thread_ops.iter().sum()
    }

    /// The largest per-thread operation count (the modelled span).
    pub fn max_thread_ops(&self) -> u64 {
        self.per_thread_ops.iter().copied().max().unwrap_or(0)
    }

    /// Ratio of the heaviest thread to the average — 1.0 means perfectly
    /// balanced work.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 || self.per_thread_ops.is_empty() {
            return 1.0;
        }
        let avg = total as f64 / self.per_thread_ops.len() as f64;
        self.max_thread_ops() as f64 / avg
    }

    /// Merge another profile (same thread count) into this one.
    pub fn merge(&mut self, other: &WorkProfile) {
        if self.per_thread_ops.len() < other.per_thread_ops.len() {
            self.per_thread_ops.resize(other.per_thread_ops.len(), 0);
        }
        for (mine, theirs) in self.per_thread_ops.iter_mut().zip(&other.per_thread_ops) {
            *mine += theirs;
        }
        self.atomic_ops += other.atomic_ops;
        self.search_probes += other.search_probes;
    }
}

/// Everything recorded about one IMM run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuntimeBreakdown {
    /// Wall-clock per kernel.
    pub timings: KernelTimings,
    /// Work profile of the sampling kernel.
    pub sampling_work: WorkProfile,
    /// Work profile of the selection kernel.
    pub selection_work: WorkProfile,
    /// Number of RRR sets generated in total (θ actually materialized).
    pub rrr_sets_generated: usize,
    /// Number of martingale iterations executed before convergence.
    pub sampling_iterations: usize,
    /// Peak RRR-set storage in bytes.
    pub rrr_memory_bytes: usize,
}

impl RuntimeBreakdown {
    /// Total wall-clock of the run.
    pub fn total_time(&self) -> Duration {
        self.timings.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total_and_fraction() {
        let t = KernelTimings {
            generate_rrrsets: Duration::from_millis(300),
            find_most_influential: Duration::from_millis(600),
            other: Duration::from_millis(100),
        };
        assert_eq!(t.total(), Duration::from_millis(1000));
        assert!((t.selection_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(KernelTimings::default().selection_fraction(), 0.0);
    }

    #[test]
    fn timings_merge_adds() {
        let mut a =
            KernelTimings { generate_rrrsets: Duration::from_millis(10), ..Default::default() };
        let b = KernelTimings {
            generate_rrrsets: Duration::from_millis(5),
            find_most_influential: Duration::from_millis(7),
            other: Duration::ZERO,
        };
        a.merge(&b);
        assert_eq!(a.generate_rrrsets, Duration::from_millis(15));
        assert_eq!(a.find_most_influential, Duration::from_millis(7));
    }

    #[test]
    fn work_profile_aggregates() {
        let mut p = WorkProfile::new(4);
        p.per_thread_ops = vec![10, 20, 30, 40];
        assert_eq!(p.total_ops(), 100);
        assert_eq!(p.max_thread_ops(), 40);
        assert!((p.imbalance() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_is_balanced() {
        let p = WorkProfile::new(3);
        assert_eq!(p.total_ops(), 0);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn work_profile_merge_handles_unequal_lengths() {
        let mut a = WorkProfile::new(2);
        a.per_thread_ops = vec![1, 2];
        let mut b = WorkProfile::new(4);
        b.per_thread_ops = vec![10, 10, 10, 10];
        b.atomic_ops = 5;
        a.merge(&b);
        assert_eq!(a.per_thread_ops, vec![11, 12, 10, 10]);
        assert_eq!(a.atomic_ops, 5);
    }

    #[test]
    fn breakdown_total_time() {
        let mut b = RuntimeBreakdown::default();
        b.timings.generate_rrrsets = Duration::from_secs(1);
        b.timings.find_most_influential = Duration::from_secs(2);
        assert_eq!(b.total_time(), Duration::from_secs(3));
    }
}
