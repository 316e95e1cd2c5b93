//! The Ripples baseline `Find_Most_Influential_Set` kernel.
//!
//! Faithful to the scheme the paper profiles (§II-B, §III):
//!
//! * the **vertex space** is partitioned across threads; each thread owns a
//!   contiguous range of vertex counters;
//! * to build its counters every thread scans **all** RRR sets, so the total
//!   counting work grows linearly with the thread count — the root cause of
//!   the baseline's scalability collapse;
//! * after a seed is chosen, every thread again scans all still-alive sets,
//!   probing each sorted set with **binary search** to see whether it
//!   contains the seed, and decrements its own counters for the covered
//!   sets' members.
//!
//! The kernel is correct (it returns the same greedy solution as
//! EfficientIMM); it is the memory-traversal pattern that differs, which is
//! what the cache-miss and scaling experiments measure.

use crate::selection::SeedSelection;
use crate::stats::WorkProfile;
use crate::NodeId;
use imm_graph::block_ranges;
use imm_rrr::{RrrCollection, SetView};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Select `k` seeds with the Ripples-style vertex-partitioned kernel.
pub fn select_seeds_ripples(sets: &RrrCollection, k: usize, threads: usize) -> SeedSelection {
    let threads = threads.max(1);
    let n = sets.num_nodes();
    if n == 0 || k == 0 {
        return SeedSelection {
            seeds: Vec::new(),
            coverage_fraction: 0.0,
            work: WorkProfile::new(threads),
        };
    }

    let ranges = block_ranges(n, threads);
    let per_thread_ops: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let search_probes = AtomicU64::new(0);

    // Thread-local counters over each thread's vertex range.
    let local_counts: Vec<Mutex<Vec<u64>>> =
        ranges.iter().map(|r| Mutex::new(vec![0u64; r.len()])).collect();

    // Initial counting: every thread traverses every RRR set and tallies the
    // members that fall inside its vertex range.
    rayon::scope(|s| {
        for (t, range) in ranges.iter().enumerate() {
            let local_counts = &local_counts;
            let per_thread_ops = &per_thread_ops;
            s.spawn(move |_| {
                let mut counts = local_counts[t].lock();
                let mut ops = 0u64;
                for set in sets.iter() {
                    set.for_each(|v| {
                        ops += 1;
                        let vi = v as usize;
                        if vi >= range.start && vi < range.end {
                            counts[vi - range.start] += 1;
                        }
                    });
                }
                per_thread_ops[t].fetch_add(ops, Ordering::Relaxed);
            });
        }
    });

    let alive: Vec<AtomicBool> = (0..sets.len()).map(|_| AtomicBool::new(true)).collect();
    let mut seeds = Vec::with_capacity(k);
    let mut covered_total = 0usize;

    for _ in 0..k.min(n) {
        // Regional maxima, then a global reduction (same two-level shape the
        // original OpenMP code uses; cheap compared with the scans).
        let mut best: Option<(NodeId, u64)> = None;
        for (t, range) in ranges.iter().enumerate() {
            let counts = local_counts[t].lock();
            for (offset, &c) in counts.iter().enumerate() {
                let v = (range.start + offset) as NodeId;
                if best.map(|(bv, bc)| c > bc || (c == bc && v < bv)).unwrap_or(true) {
                    best = Some((v, c));
                }
            }
        }
        let (seed, seed_count) = best.expect("non-empty vertex set");
        seeds.push(seed);

        if seed_count == 0 {
            // No alive set contains any remaining vertex; later seeds are
            // arbitrary (counts all zero), keep selecting deterministically.
            continue;
        }

        // Decouple the chosen seed: every thread rescans all alive sets,
        // probes for the seed with binary search, and decrements its own
        // counters for members of covered sets. The alive view is snapshotted
        // before the scan so every thread processes the same covered sets
        // even though the flags are flipped concurrently.
        let alive_snapshot: Vec<bool> = alive.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let covered_this_round = AtomicU64::new(0);
        rayon::scope(|s| {
            for (t, range) in ranges.iter().enumerate() {
                let local_counts = &local_counts;
                let per_thread_ops = &per_thread_ops;
                let search_probes = &search_probes;
                let alive = &alive;
                let alive_snapshot = &alive_snapshot;
                let covered_this_round = &covered_this_round;
                s.spawn(move |_| {
                    let mut counts = local_counts[t].lock();
                    let mut ops = 0u64;
                    let mut probes = 0u64;
                    for (idx, set) in sets.iter().enumerate() {
                        if !alive_snapshot[idx] {
                            continue;
                        }
                        // Binary-search probe (the sorted representation's
                        // O(log |R|) membership check).
                        probes += probe_cost(set);
                        if set.contains(seed) {
                            set.for_each(|v| {
                                ops += 1;
                                let vi = v as usize;
                                if vi >= range.start && vi < range.end {
                                    counts[vi - range.start] =
                                        counts[vi - range.start].saturating_sub(1);
                                }
                            });
                            // Every thread discovers the same covered sets;
                            // the swap claims each flag transition exactly
                            // once so the coverage count stays exact.
                            if alive[idx].swap(false, Ordering::Relaxed) {
                                covered_this_round.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    per_thread_ops[t].fetch_add(ops + probes, Ordering::Relaxed);
                    search_probes.fetch_add(probes, Ordering::Relaxed);
                });
            }
        });
        covered_total += covered_this_round.load(Ordering::Relaxed) as usize;
    }

    let coverage_fraction =
        if sets.is_empty() { 0.0 } else { covered_total as f64 / sets.len() as f64 };
    SeedSelection {
        seeds,
        coverage_fraction,
        work: WorkProfile {
            per_thread_ops: per_thread_ops.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            atomic_ops: 0,
            search_probes: search_probes.load(Ordering::Relaxed),
        },
    }
}

/// The number of probes a binary search over this set costs (⌈log₂ |R|⌉,
/// minimum 1) — used for the work accounting the paper's memory-traversal
/// analysis is based on.
fn probe_cost(set: SetView<'_>) -> u64 {
    let len = set.len().max(1) as u64;
    (64 - len.leading_zeros() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::test_support::{collection, greedy_reference};
    use proptest::prelude::*;

    #[test]
    fn picks_the_most_frequent_vertex_first() {
        let sets =
            collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]);
        let result = select_seeds_ripples(&sets, 1, 2);
        assert_eq!(result.seeds, vec![1]);
        assert!((result.coverage_fraction - 0.5).abs() < 1e-12);
        assert!(result.work.search_probes > 0);
    }

    #[test]
    fn matches_reference_greedy_on_small_instances() {
        let sets = collection(
            8,
            &[&[0, 1, 2], &[2, 3], &[3, 4, 5], &[5], &[5, 6], &[6, 7], &[0, 7], &[1, 3, 5, 7]],
        );
        let (ref_seeds, ref_cov) = greedy_reference(&sets, 3);
        let result = select_seeds_ripples(&sets, 3, 3);
        assert_eq!(result.seeds, ref_seeds);
        assert!((result.coverage_fraction - ref_cov).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_distinct_vertices_still_returns_k_seeds() {
        let sets = collection(3, &[&[0], &[0], &[1]]);
        let result = select_seeds_ripples(&sets, 3, 2);
        assert_eq!(result.seeds.len(), 3);
        assert_eq!(result.seeds[0], 0);
        assert!((result.coverage_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_collection_or_zero_k() {
        let sets = collection(5, &[]);
        let result = select_seeds_ripples(&sets, 2, 1);
        assert_eq!(result.seeds.len(), 2);
        assert_eq!(result.coverage_fraction, 0.0);

        let sets = collection(5, &[&[1, 2]]);
        let result = select_seeds_ripples(&sets, 0, 1);
        assert!(result.seeds.is_empty());
    }

    #[test]
    fn counting_work_grows_with_thread_count() {
        // The baseline's defining inefficiency: total operations scale with
        // the number of threads because every thread scans every set.
        let sets = collection(
            100,
            &(0..50)
                .map(|i| vec![i as NodeId, (i + 1) as NodeId, (i + 2) as NodeId])
                .collect::<Vec<_>>()
                .iter()
                .map(|v| v.as_slice())
                .collect::<Vec<_>>(),
        );
        let w1 = select_seeds_ripples(&sets, 1, 1).work.total_ops();
        let w4 = select_seeds_ripples(&sets, 1, 4).work.total_ops();
        assert!(
            w4 as f64 > 2.5 * w1 as f64,
            "4-thread work ({w4}) should be ~4x the 1-thread work ({w1})"
        );
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let sets = collection(
            20,
            &[
                &[0, 1, 2, 3],
                &[1, 2],
                &[4, 5, 6],
                &[7],
                &[8, 9, 10, 11],
                &[1, 9],
                &[12, 13],
                &[14, 15, 16],
                &[17, 18, 19],
                &[2, 9, 16],
            ],
        );
        let baseline = select_seeds_ripples(&sets, 4, 1);
        for threads in [2usize, 3, 8] {
            let r = select_seeds_ripples(&sets, 4, threads);
            assert_eq!(r.seeds, baseline.seeds, "threads={threads}");
            assert!((r.coverage_fraction - baseline.coverage_fraction).abs() < 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn matches_reference_on_random_instances(
            raw_sets in proptest::collection::vec(
                proptest::collection::hash_set(0u32..30, 1..10),
                1..25,
            ),
            k in 1usize..5,
            threads in 1usize..4,
        ) {
            let owned: Vec<Vec<NodeId>> = raw_sets.iter().map(|s| s.iter().copied().collect()).collect();
            let slices: Vec<&[NodeId]> = owned.iter().map(|v| v.as_slice()).collect();
            let sets = collection(30, &slices);
            let (ref_seeds, ref_cov) = greedy_reference(&sets, k);
            let result = select_seeds_ripples(&sets, k, threads);
            prop_assert_eq!(result.seeds, ref_seeds);
            prop_assert!((result.coverage_fraction - ref_cov).abs() < 1e-9);
        }
    }
}
