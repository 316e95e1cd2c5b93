//! The Ripples baseline (Minutoli et al., 2019): the engine the paper
//! measures EfficientIMM against.
//!
//! [`run`] is the baseline's IMM workflow: the θ loop of `run_imm` (core's
//! public [`math`], [`SamplingConfig`] and [`generate_rrr_sets_into`]), with
//! sorted RRR sets sampled in static blocks ([`EfficientFeatures::none`]) and
//! an eager selection at every θ step and after a final top-up that draws.
//!
//! [`select_seeds_ripples`] is its `Find_Most_Influential_Set` kernel,
//! faithful to the scheme the paper profiles (§II-B, §III):
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
//! It fork-joins on the process-global `imm-exec` pool through
//! `rayon::scope`, `threads` tasks wide. The kernel is correct (it returns
//! the same greedy solution as `run_imm`'s CELF, ties broken toward the
//! smaller vertex id); it is the memory-traversal pattern that differs,
//! which is what the cache-miss and scaling experiments measure.

use efficient_imm::math;
use efficient_imm::sampling::{generate_rrr_sets_into, SamplingConfig};
use efficient_imm::{
    EfficientFeatures, ImmParams, ImmResult, NodeId, RuntimeBreakdown, SeedSelection, WorkProfile,
};
use imm_graph::{block_ranges, CsrGraph, EdgeWeights};
use imm_rrr::{RrrCollection, SetView};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Run the Ripples baseline's IMM workflow with `threads`-wide kernels.
///
/// It draws the same sets as `run_imm` (same θ schedule, same per-set RNG
/// streams) and its greedy breaks ties the same way, so its seeds, θ and
/// coverage equal `run_imm`'s for the same input.
///
/// # Panics
/// Panics if `params` do not fit the graph (see [`ImmParams::validate`]).
pub fn run(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    params: &ImmParams,
    threads: usize,
) -> ImmResult {
    if let Err(e) = params.validate(graph.num_nodes()) {
        panic!("invalid IMM parameters: {e}");
    }
    let threads = threads.max(1);
    let (n, k, epsilon) = (graph.num_nodes(), params.k, params.epsilon);
    let ell = math::adjusted_ell(math::ELL, n);
    let features = EfficientFeatures::none();
    let config = SamplingConfig {
        model: params.model,
        rng_seed: params.rng_seed,
        policy: features.representation_policy(),
        schedule: features.schedule(),
        threads,
    };
    let mut breakdown = RuntimeBreakdown::default();
    // Top `sets` up to `target`, the new sets keyed from index `sets.len()`
    // on. Returns whether it drew any.
    let draw = |sets: &mut RrrCollection, target: usize, breakdown: &mut RuntimeBreakdown| {
        if target <= sets.len() {
            return false;
        }
        let start = sets.len();
        let t0 = Instant::now();
        let work = generate_rrr_sets_into(
            graph,
            weights,
            target - start,
            |job| start + job,
            &config,
            sets,
        );
        breakdown.timings.generate_rrrsets += t0.elapsed();
        breakdown.sampling_work.merge(&work);
        true
    };
    let select = |sets: &RrrCollection, breakdown: &mut RuntimeBreakdown| {
        let t0 = Instant::now();
        let selection = select_seeds_ripples(sets, k, threads);
        breakdown.timings.find_most_influential += t0.elapsed();
        breakdown.selection_work.merge(&selection.work);
        breakdown.selections += 1;
        selection
    };

    let mut sets = RrrCollection::new(n);
    // Without a converged step, the weakest admissible bound: OPT >= k.
    let mut lower_bound = k as f64;
    let mut selection = None;
    for i in 1..=math::sampling_iterations(n) {
        draw(&mut sets, math::theta_for_iteration(n, k, epsilon, ell, i), &mut breakdown);
        breakdown.sampling_iterations = i;
        let step = select(&sets, &mut breakdown);
        let converged = math::sampling_converged(n, step.coverage_fraction, epsilon, i);
        if converged {
            lower_bound = math::opt_lower_bound(n, step.coverage_fraction, epsilon);
        }
        selection = Some(step);
        if converged {
            break;
        }
    }

    let t_other = Instant::now();
    let theta = math::final_theta(n, k, epsilon, ell, lower_bound);
    breakdown.timings.other += t_other.elapsed();
    let drew = draw(&mut sets, theta, &mut breakdown);
    let selection = match selection {
        Some(selection) if !drew => selection,
        _ => select(&sets, &mut breakdown),
    };

    breakdown.rrr_sets_generated = sets.len();
    breakdown.rrr_memory_bytes = sets.memory_bytes();
    ImmResult {
        estimated_influence: n as f64 * selection.coverage_fraction,
        coverage_fraction: selection.coverage_fraction,
        seeds: selection.seeds,
        theta: sets.len(),
        breakdown,
        rrr_stats: sets.coverage_stats(),
        threads,
        rrr_sets: None,
        provenance: None,
    }
}

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
    let lock = |t: usize| local_counts[t].lock().unwrap_or_else(PoisonError::into_inner);

    // Initial counting: every thread traverses every RRR set and tallies the
    // members that fall inside its vertex range.
    rayon::scope(|s| {
        for (t, range) in ranges.iter().enumerate() {
            let (lock, per_thread_ops) = (&lock, &per_thread_ops);
            s.spawn(move |_| {
                let mut counts = lock(t);
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
            for (offset, &c) in lock(t).iter().enumerate() {
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
                let (lock, per_thread_ops, search_probes) =
                    (&lock, &per_thread_ops, &search_probes);
                let (alive, alive_snapshot) = (&alive, &alive_snapshot);
                let covered_this_round = &covered_this_round;
                s.spawn(move |_| {
                    let mut counts = lock(t);
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
    use crate::efficient::tests::collection;
    use efficient_imm::selection::select_seeds_celf;
    use proptest::prelude::*;

    #[test]
    fn picks_the_most_frequent_vertex_first() {
        let sets: [&[NodeId]; 8] =
            [&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]];
        let result = select_seeds_ripples(&collection(6, &sets), 1, 2);
        assert_eq!(result.seeds, vec![1]);
        assert!((result.coverage_fraction - 0.5).abs() < 1e-12);
        assert!(result.work.search_probes > 0);
    }

    #[test]
    fn k_larger_than_distinct_vertices_still_returns_k_seeds() {
        let sets: [&[NodeId]; 3] = [&[0], &[0], &[1]];
        let result = select_seeds_ripples(&collection(3, &sets), 3, 2);
        assert_eq!(result.seeds.len(), 3);
        assert_eq!(result.seeds[0], 0);
        assert!((result.coverage_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_collection_or_zero_k() {
        let result = select_seeds_ripples(&collection::<&[NodeId]>(5, &[]), 2, 1);
        assert_eq!(result.seeds.len(), 2);
        assert_eq!(result.coverage_fraction, 0.0);

        let result = select_seeds_ripples(&collection(5, &[[1, 2]]), 0, 1);
        assert!(result.seeds.is_empty());
    }

    #[test]
    fn counting_work_grows_with_thread_count() {
        // The baseline's defining inefficiency: total operations scale with
        // the number of threads because every thread scans every set.
        let owned: Vec<Vec<NodeId>> = (0..50).map(|i| vec![i, i + 1, i + 2]).collect();
        let sets = collection(100, &owned);
        let w1 = select_seeds_ripples(&sets, 1, 1).work.total_ops();
        let w4 = select_seeds_ripples(&sets, 1, 4).work.total_ops();
        assert!(
            w4 as f64 > 2.5 * w1 as f64,
            "4-thread work ({w4}) should be ~4x the 1-thread work ({w1})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Same seeds and coverage bits as CELF (itself checked against a
        /// reference greedy in `efficient-imm`) at every thread count.
        #[test]
        fn matches_celf_on_random_instances(
            raw_sets in proptest::collection::vec(
                proptest::collection::hash_set(0u32..30, 1..10),
                1..25,
            ),
            k in 1usize..5,
            threads in 1usize..9,
        ) {
            let owned: Vec<Vec<NodeId>> = raw_sets.iter().map(|s| s.iter().copied().collect()).collect();
            let sets = collection(30, &owned);
            let celf = select_seeds_celf(&sets, k, 1);
            let result = select_seeds_ripples(&sets, k, threads);
            prop_assert_eq!(result.seeds, celf.seeds);
            prop_assert_eq!(result.coverage_fraction.to_bits(), celf.coverage_fraction.to_bits());
        }
    }
}
