//! `Find_Most_Influential_Set`: the greedy max-coverage seed selection over
//! the sampled RRR sets, in both of the paper's flavours.
//!
//! * [`ripples`] — the baseline: vertices partitioned across threads, every
//!   thread scans every RRR set, sorted sets probed with binary search,
//!   covered sets handled by decrementing per-thread counters.
//! * [`efficient`] — EfficientIMM: RRR sets partitioned across threads,
//!   concurrent atomic updates to one shared counter, a sequential argmax
//!   over it, and the adaptive decrement-vs-rebuild counter update. The
//!   sets a seed covers come from a per-selection inverted index over the
//!   list sets plus a bit probe of the (few, dense) bitmap sets — never from
//!   a scan of all θ sets.
//!
//! Both kernels fork-join on the persistent `imm-exec` pool through
//! `pool.scope` / [`crate::balance::run_jobs`].
//!
//! Both return the same seeds for the same input (greedy max coverage is
//! deterministic up to tie-breaking, and both kernels break ties toward the
//! smaller vertex id); the test suite asserts this equivalence, which is the
//! paper's "without sacrificing accuracy" claim.

pub mod efficient;
pub mod ripples;

use crate::counter::GlobalCounter;
use crate::params::{Algorithm, ExecutionConfig};
use crate::stats::WorkProfile;
use crate::NodeId;
use imm_rrr::RrrCollection;

/// Result of one seed-selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSelection {
    /// The selected seeds, in selection order (most influential first).
    pub seeds: Vec<NodeId>,
    /// Fraction of RRR sets covered by the selected seeds — the estimator
    /// `F(S)` that IMM's guarantee is stated in terms of.
    pub coverage_fraction: f64,
    /// Per-thread operation counts.
    pub work: WorkProfile,
    /// How many counter rebuilds the adaptive update performed (EfficientIMM
    /// only).
    pub counter_rebuilds: usize,
    /// How many seed removals used plain decrements.
    pub counter_decrements: usize,
}

/// Select `k` seeds from `sets` using the engine chosen by `exec`.
///
/// When the EfficientIMM engine runs with kernel fusion the caller may pass
/// the already-populated counter in `fused_counter`; otherwise the kernel
/// builds its own occurrence counts.
pub fn select_seeds(
    sets: &RrrCollection,
    k: usize,
    exec: &ExecutionConfig,
    pool: &rayon::ThreadPool,
    fused_counter: Option<&GlobalCounter>,
) -> SeedSelection {
    match exec.algorithm {
        Algorithm::Ripples => ripples::select_seeds_ripples(sets, k, exec.threads, pool),
        Algorithm::Efficient => {
            efficient::select_seeds_efficient(sets, k, exec, pool, fused_counter)
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use imm_rrr::AdaptivePolicy;

    /// Build an all-list collection from explicit vertex lists.
    pub fn collection(num_nodes: usize, sets: &[&[NodeId]]) -> RrrCollection {
        collection_with_policy(num_nodes, sets, &AdaptivePolicy::always_sorted())
    }

    /// Build a collection whose sets take the representation `policy` picks
    /// (the way sampling pushes them), so list and bitmap sets can mix.
    pub fn collection_with_policy<S: AsRef<[NodeId]>>(
        num_nodes: usize,
        sets: &[S],
        policy: &AdaptivePolicy,
    ) -> RrrCollection {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push_vertices(s.as_ref().to_vec(), policy);
        }
        c
    }

    /// The three representation regimes: mixed, all lists, all bitmaps.
    pub fn policies() -> [AdaptivePolicy; 3] {
        [
            AdaptivePolicy::default(),
            AdaptivePolicy::always_sorted(),
            AdaptivePolicy::always_bitmap(),
        ]
    }

    /// Reference greedy max-coverage implementation: straightforward,
    /// sequential, obviously correct. Both parallel kernels must match it.
    pub fn greedy_reference(sets: &RrrCollection, k: usize) -> (Vec<NodeId>, f64) {
        let n = sets.num_nodes();
        let mut alive: Vec<bool> = vec![true; sets.len()];
        let mut seeds = Vec::new();
        let mut covered = 0usize;
        for _ in 0..k.min(n) {
            let mut counts = vec![0u64; n];
            for (idx, set) in sets.iter().enumerate() {
                if alive[idx] {
                    for v in set.iter() {
                        counts[v as usize] += 1;
                    }
                }
            }
            let (best, best_count) = counts
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(v, &c)| (v as NodeId, c))
                .unwrap_or((0, 0));
            seeds.push(best);
            if best_count == 0 {
                continue;
            }
            for (idx, set) in sets.iter().enumerate() {
                if alive[idx] && set.contains(best) {
                    alive[idx] = false;
                    covered += 1;
                }
            }
        }
        let fraction = if sets.is_empty() { 0.0 } else { covered as f64 / sets.len() as f64 };
        (seeds, fraction)
    }

    #[test]
    fn reference_greedy_on_paper_figure_3_example() {
        // The RRR sets from Figure 3 of the paper:
        // {0,1},{1},{2,4},{1,4},{1,4,5},{3},{0,3},{2}
        let sets =
            collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]);
        // Occurrence counts are [2,4,2,2,3,1] -> the first seed is vertex 1.
        let (seeds, fraction) = greedy_reference(&sets, 1);
        assert_eq!(seeds, vec![1]);
        assert!((fraction - 0.5).abs() < 1e-12, "vertex 1 covers 4 of 8 sets");
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::params::{Algorithm, ExecutionConfig};

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    #[test]
    fn dispatch_runs_both_engines() {
        let sets =
            collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]);
        for algorithm in [Algorithm::Ripples, Algorithm::Efficient] {
            let exec = ExecutionConfig::new(algorithm, 2);
            let p = pool(2);
            let result = select_seeds(&sets, 2, &exec, &p, None);
            assert_eq!(result.seeds.len(), 2);
            assert_eq!(result.seeds[0], 1, "{algorithm:?} must pick vertex 1 first");
            assert!(result.coverage_fraction > 0.0);
        }
    }
}
