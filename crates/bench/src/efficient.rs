//! The EfficientIMM `Find_Most_Influential_Set` kernel (Algorithm 2 of the
//! paper).
//!
//! This eager kernel is one of the reproduction's subjects — the figure and
//! table binaries measure it — and a parity oracle of the lazy-greedy (CELF)
//! session `run_imm` selects with
//! ([`select_seeds_celf`](efficient_imm::selection::select_seeds_celf));
//! `run_imm` does not call it, so it lives here and not in `efficient-imm`.
//!
//! The RRR sets — not the vertices — are partitioned across threads. Each
//! thread scatters atomic increments for its sets into one shared
//! [`GlobalCounter`]; the most influential vertex is the counter's argmax;
//! and when a seed is removed the counter is either decremented (touching
//! only the covered sets) or rebuilt from the surviving sets, whichever
//! touches less memory — the paper's adaptive counter update.
//!
//! Which sets a seed covers is answered without scanning the collection: each
//! selection first builds the sets' [`Postings`] — the workspace's one
//! inverse, `vertex → ids of the sets holding it`, a bit row for a dense
//! vertex and an ascending list for the rest — so a round walks only the new
//! seed's ids, ascending. A selection's membership work is therefore Σ|R|
//! (the build) + the walked postings, instead of one probe per round per
//! set.
//!
//! What runs in parallel, through the persistent pool's fork-join
//! ([`run_tasks`], `exec.threads` tasks wide under `exec.features`'
//! schedule): the initial counting pass and each round's decrement or
//! rebuild. The per-round argmax, the reset before a rebuild, the postings
//! build and walk run on the calling thread. The kernel feeds the same
//! `core_selection_*` counters as `run_imm`'s CELF.

use crate::counter::GlobalCounter;
use efficient_imm::balance::{run_tasks, Schedule};
use efficient_imm::{metrics, ExecutionConfig, SeedSelection, WorkProfile};
use imm_graph::Range;
use imm_rrr::{Postings, RrrCollection};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Fraction of the alive RRR sets a new seed must cover for the adaptive
/// counter update to rebuild the counter from the survivors instead of
/// decrementing it (only read when the adaptive update is on).
pub const REBUILD_THRESHOLD: f64 = 0.5;

/// Select `k` seeds with the EfficientIMM RRR-set-partitioned kernel; also
/// returns how many rounds rebuilt the counter.
///
/// `adaptive_update` turns on the paper's decrement-vs-rebuild counter
/// update (§IV-C, Figure 5), rebuilding above [`REBUILD_THRESHOLD`]; off,
/// every round decrements. `counts` are the sets' per-vertex occurrence
/// counts as the run's kernel fusion leaves them
/// ([`imm_rrr::count_memberships`]); without them the kernel performs the
/// initial counting pass itself (lines 1–6 of Algorithm 2).
///
/// # Panics
/// Panics if `counts` does not hold one entry per vertex.
pub fn select_seeds_efficient(
    sets: &RrrCollection,
    k: usize,
    exec: &ExecutionConfig,
    adaptive_update: bool,
    counts: Option<&[u32]>,
) -> (SeedSelection, usize) {
    let threads = exec.threads.max(1);
    let n = sets.num_nodes();
    if n == 0 || k == 0 {
        let work = WorkProfile::new(threads);
        return (SeedSelection { seeds: Vec::new(), coverage_fraction: 0.0, work }, 0);
    }

    let schedule = exec.features.schedule();

    let per_thread_ops: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let atomic_ops = AtomicU64::new(0);

    // Working counter: the given counts, or the set-partitioned concurrent
    // update of every membership.
    let counter = match counts {
        Some(counts) => {
            assert_eq!(counts.len(), n, "one count per vertex");
            GlobalCounter::from_values(counts)
        }
        None => {
            let counter = GlobalCounter::new(n);
            run_jobs(threads, sets.len(), schedule, |worker, range| {
                let mut ops = 0u64;
                for idx in range.iter() {
                    sets.get(idx).for_each(|v| {
                        counter.increment(v);
                        ops += 1;
                    });
                }
                per_thread_ops[worker].fetch_add(ops, Ordering::Relaxed);
                atomic_ops.fetch_add(ops, Ordering::Relaxed);
            });
            counter
        }
    };

    let postings = Postings::build(sets).expect("RRR set members lie inside the vertex space");
    let mut postings_walked = 0u64;

    let alive: Vec<AtomicBool> = (0..sets.len()).map(|_| AtomicBool::new(true)).collect();
    let mut alive_count = sets.len();
    let mut covered_total = 0usize;
    let mut seeds = Vec::with_capacity(k);
    let mut covered: Vec<usize> = Vec::new();
    let mut rebuilds = 0;

    for _ in 0..k.min(n) {
        let (seed, seed_count) = counter.argmax().expect("counter covers at least one vertex");
        seeds.push(seed);
        if seed_count == 0 {
            continue;
        }

        // The still-alive sets covered by the new seed, in ascending id
        // order.
        covered.clear();
        postings_walked += postings.degree(seed);
        postings.for_each(seed, |id| {
            if alive[id as usize].load(Ordering::Relaxed) {
                covered.push(id as usize);
            }
        });
        let covered_count = covered.len();
        covered_total += covered_count;

        let rebuild = adaptive_update
            && alive_count > 0
            && (covered_count as f64 / alive_count as f64) > REBUILD_THRESHOLD;

        if rebuild {
            // Rebuild: zero the counter and re-accumulate only the surviving
            // (alive and not covered) sets. Cheaper than decrementing when
            // the seed covers most of what is left.
            rebuilds += 1;
            for &idx in &covered {
                alive[idx].store(false, Ordering::Relaxed);
            }
            counter.reset();
            run_jobs(threads, sets.len(), schedule, |worker, range| {
                let mut ops = 0u64;
                for idx in range.iter() {
                    if !alive[idx].load(Ordering::Relaxed) {
                        continue;
                    }
                    sets.get(idx).for_each(|v| {
                        counter.increment(v);
                        ops += 1;
                    });
                }
                per_thread_ops[worker].fetch_add(ops, Ordering::Relaxed);
                atomic_ops.fetch_add(ops, Ordering::Relaxed);
            });
        } else {
            // Decrement: touch only the covered sets (lines 11–18 of
            // Algorithm 2).
            run_jobs(threads, covered.len(), schedule, |worker, range| {
                let mut ops = 0u64;
                for pos in range.iter() {
                    let idx = covered[pos];
                    alive[idx].store(false, Ordering::Relaxed);
                    sets.get(idx).for_each(|v| {
                        counter.decrement(v);
                        ops += 1;
                    });
                }
                per_thread_ops[worker].fetch_add(ops, Ordering::Relaxed);
                atomic_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        alive_count -= covered_count;
    }

    metrics::register();
    metrics::SELECTION_ROUNDS.add(seeds.len() as u64);
    metrics::SELECTION_POSTINGS_WALKED.add(postings_walked);

    let coverage_fraction =
        if sets.is_empty() { 0.0 } else { covered_total as f64 / sets.len() as f64 };
    let work = WorkProfile {
        per_thread_ops: per_thread_ops.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        atomic_ops: atomic_ops.load(Ordering::Relaxed),
        search_probes: postings.entries() + postings_walked,
    };
    (SeedSelection { seeds, coverage_fraction, work }, rebuilds)
}

/// [`run_tasks`] without task state: `worker(slot, range)` for every range.
fn run_jobs<F>(threads: usize, total: usize, schedule: Schedule, worker: F)
where
    F: Fn(usize, Range) + Sync,
{
    run_tasks(threads, total, schedule, || (), |_, slot, range| worker(slot, range));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ripples::select_seeds_ripples;
    use efficient_imm::selection::select_seeds_celf;
    use efficient_imm::{Algorithm, NodeId};
    use imm_rrr::{AdaptivePolicy, Representation};
    use proptest::prelude::*;

    /// Build a collection whose sets take the representation `policy` picks
    /// (the way sampling pushes them), so list and bitmap sets can mix.
    pub(crate) fn collection_with_policy<S: AsRef<[NodeId]>>(
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

    /// Build an all-list collection from explicit vertex lists.
    pub(crate) fn collection<S: AsRef<[NodeId]>>(num_nodes: usize, sets: &[S]) -> RrrCollection {
        collection_with_policy(num_nodes, sets, &AdaptivePolicy::always_sorted())
    }

    /// The three representation regimes: mixed, all lists, all bitmaps.
    fn policies() -> [AdaptivePolicy; 3] {
        [
            AdaptivePolicy::default(),
            AdaptivePolicy::always_sorted(),
            AdaptivePolicy::always_bitmap(),
        ]
    }

    fn exec(threads: usize) -> ExecutionConfig {
        ExecutionConfig::new(Algorithm::Efficient, threads)
    }

    /// The kernel with the adaptive update on and its own counting pass.
    fn eager(sets: &RrrCollection, k: usize, threads: usize) -> SeedSelection {
        select_seeds_efficient(sets, k, &exec(threads), true, None).0
    }

    /// The eager kernel must give the CELF session's and the Ripples
    /// kernel's seeds and coverage bits.
    fn assert_matches_the_other_greedies(sets: &RrrCollection, k: usize, eager: &SeedSelection) {
        let celf = select_seeds_celf(sets, k, 1);
        let ripples = select_seeds_ripples(sets, k, 2);
        for other in [celf, ripples] {
            assert_eq!(eager.seeds, other.seeds);
            assert_eq!(eager.coverage_fraction.to_bits(), other.coverage_fraction.to_bits());
        }
    }

    #[test]
    fn picks_the_most_frequent_vertex_first_figure3_example() {
        let sets: [&[NodeId]; 8] =
            [&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]];
        let result = eager(&collection(6, &sets), 1, 3);
        assert_eq!(result.seeds, vec![1]);
        assert!((result.coverage_fraction - 0.5).abs() < 1e-12);
        assert!(result.work.atomic_ops > 0);
    }

    /// The per-vertex counts a run's kernel fusion leaves for `sets`.
    fn fused_counts(sets: &RrrCollection) -> Vec<u32> {
        let mut counts = vec![0; sets.num_nodes()];
        imm_rrr::count_memberships(sets, 0, &mut counts).unwrap();
        counts
    }

    #[test]
    fn matches_celf_and_ripples_in_every_representation() {
        // 100 vertices: under the default policy the three sets of 64+
        // members become bitmaps and the rest stay lists.
        let mut owned: Vec<Vec<u32>> = vec![
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![5],
            vec![5, 6],
            vec![6, 7],
            vec![0, 7],
            vec![1, 3, 5, 7],
        ];
        owned.push((0..70).collect());
        owned.push((20..95).collect());
        owned.push((30..100).collect());
        for policy in policies() {
            let sets = collection_with_policy(100, &owned, &policy);
            if policy == AdaptivePolicy::default() {
                let bitmaps = sets
                    .iter()
                    .filter(|set| set.representation() == Representation::Bitmap)
                    .count();
                assert_eq!(bitmaps, 3, "the default policy must mix representations here");
            }
            assert_matches_the_other_greedies(&sets, 4, &eager(&sets, 4, 2));
        }
    }

    /// (seed, set) memberships of distinct seeds: the postings a selection
    /// walks for them.
    fn seed_memberships(sets: &RrrCollection, seeds: &[u32]) -> u64 {
        sets.iter().map(|set| seeds.iter().filter(|&&v| set.contains(v)).count() as u64).sum()
    }

    #[test]
    fn membership_work_follows_the_postings_not_k_times_theta() {
        // 4 000 list sets of up to 3 members over 2 000 vertices: 50 seeds
        // leave sets uncovered, so no round is an all-zero padding round.
        let n = 2000u32;
        let owned: Vec<Vec<u32>> = (0..4000u32)
            .map(|i| {
                let hub = (i.wrapping_mul(2654435761) >> 7) % 300;
                let mut set = vec![hub, (i * 13) % n, (i * 29 + 5) % n];
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        let sets = collection(n as usize, &owned);
        let members: u64 = sets.iter().map(|set| set.len() as u64).sum();

        let at_25 = eager(&sets, 25, 2);
        let at_50 = eager(&sets, 50, 2);
        assert_eq!(at_50.seeds[..25], at_25.seeds[..]);
        assert!(at_50.coverage_fraction < 1.0);

        // Exactly: one index entry per member, plus the postings of each seed.
        let walked_25 = seed_memberships(&sets, &at_25.seeds);
        let walked_50 = seed_memberships(&sets, &at_50.seeds);
        assert_eq!(at_25.work.search_probes, members + walked_25);
        assert_eq!(at_50.work.search_probes, members + walked_50);
        // Doubling k adds only the extra seeds' postings — a θ-wide scan per
        // round would add 25·θ = 100 000 probes and break both bounds.
        assert_eq!(
            at_50.work.search_probes - at_25.work.search_probes,
            seed_memberships(&sets, &at_50.seeds[25..])
        );
        assert!(at_50.work.search_probes <= 2 * members + walked_50);
        assert!(at_50.work.search_probes < 25 * sets.len() as u64);
    }

    #[test]
    fn bitmap_sets_are_walked_in_the_one_postings() {
        // All-bitmap collection: the postings index every membership, and
        // each round walks the new seed's ids.
        let owned: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![4, 5], vec![5, 6]];
        let sets = collection_with_policy(8, &owned, &AdaptivePolicy::always_bitmap());
        let (result, _) = select_seeds_efficient(&sets, 3, &exec(1), false, None);
        assert_eq!(result.seeds, vec![0, 5, 0]);
        // 10 entries built; round 1 walks vertex 0's 3 ids, round 2 vertex
        // 5's 2, round 3 finds an all-zero counter and walks nothing.
        assert_eq!(result.work.search_probes, 10 + seed_memberships(&sets, &[0, 5]));
    }

    #[test]
    fn adaptive_update_rebuilds_on_skewed_input() {
        // One vertex (0) appears in almost every set, so removing it covers
        // >90% of the sets and the adaptive policy must choose a rebuild.
        let owned: Vec<Vec<u32>> = (0..40)
            .map(|i| if i < 38 { vec![0, (i % 10) + 1] } else { vec![(i % 10) + 1] })
            .collect();
        let sets = collection(12, &owned);

        let (adaptive, rebuilds) = select_seeds_efficient(&sets, 2, &exec(2), true, None);
        assert!(rebuilds >= 1, "expected at least one rebuild");

        let (plain, rebuilds) = select_seeds_efficient(&sets, 2, &exec(2), false, None);
        assert_eq!(rebuilds, 0);
        assert_eq!(adaptive.seeds, plain.seeds, "adaptive update must not change the result");
        assert!((adaptive.coverage_fraction - plain.coverage_fraction).abs() < 1e-12);
    }

    #[test]
    fn static_and_dynamic_schedules_agree() {
        let sets: [&[NodeId]; 7] =
            [&[0, 1, 2], &[3, 4], &[5, 6, 7, 8], &[9], &[0, 9], &[4, 5], &[2, 3, 4]];
        let sets = collection(10, &sets);
        let mut dynamic_cfg = exec(3);
        dynamic_cfg.features.dynamic_balancing = true;
        let mut static_cfg = exec(3);
        static_cfg.features.dynamic_balancing = false;
        let (a, _) = select_seeds_efficient(&sets, 3, &dynamic_cfg, true, None);
        let (b, _) = select_seeds_efficient(&sets, 3, &static_cfg, true, None);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn zero_k_and_empty_collection() {
        let sets = collection(4, &[[0, 1]]);
        assert!(eager(&sets, 0, 1).seeds.is_empty());
        let empty = collection::<&[NodeId]>(4, &[]);
        let r = eager(&empty, 2, 1);
        assert_eq!(r.seeds.len(), 2);
        assert_eq!(r.coverage_fraction, 0.0);
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let owned: Vec<Vec<u32>> = (0..30)
            .map(|i| (0..(i % 5 + 1)).map(|j| ((i * 7 + j * 3) % 25) as u32).collect())
            .collect();
        let sets = collection(25, &owned);
        let baseline = eager(&sets, 5, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(eager(&sets, 5, threads).seeds, baseline.seeds, "threads={threads}");
        }
    }

    #[test]
    fn work_does_not_grow_with_thread_count() {
        // The contrast with the Ripples baseline: the initial counting work
        // is independent of the number of threads (each set is touched once).
        let owned: Vec<Vec<u32>> = (0..60)
            .map(|i| vec![i as u32 % 40, (i + 1) as u32 % 40, (i + 2) as u32 % 40])
            .collect();
        let sets = collection(40, &owned);
        let w1 = eager(&sets, 1, 1).work.total_ops();
        let w4 = eager(&sets, 1, 4).work.total_ops();
        assert_eq!(w1, w4, "total work must be thread-count independent");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn matches_celf_and_ripples_on_random_instances(
            // Sets of up to 90 of 100 vertices: the default policy turns the
            // ones with 64+ members into bitmaps and keeps the rest as lists.
            raw_sets in proptest::collection::vec(
                proptest::collection::hash_set(0u32..100, 1..90),
                1..25,
            ),
            policy in 0usize..3,
            // 1, 4, n, and past n: the last two run all-zero padding rounds
            // once every set is covered.
            k in 0usize..4,
            threads in 1usize..5,
            adaptive in any::<bool>(),
        ) {
            let owned: Vec<Vec<u32>> = raw_sets.iter().map(|s| s.iter().copied().collect()).collect();
            let sets = collection_with_policy(100, &owned, &policies()[policy]);
            let k = [1usize, 4, 100, 107][k];
            let (result, _) = select_seeds_efficient(&sets, k, &exec(threads), adaptive, None);
            assert_matches_the_other_greedies(&sets, k, &result);
        }

        /// The kernel seeded with the run's fused counts, the kernel's own
        /// counting pass and the CELF session give the same seeds and
        /// coverage bits in every representation, adaptive update on or off.
        #[test]
        fn fused_counts_own_counts_and_celf_agree(
            raw_sets in proptest::collection::vec(
                proptest::collection::hash_set(0u32..100, 1..90),
                1..40,
            ),
            k in 1usize..12,
            threads in 1usize..4,
        ) {
            let owned: Vec<Vec<u32>> = raw_sets.iter().map(|s| s.iter().copied().collect()).collect();
            for policy in policies() {
                let sets = collection_with_policy(100, &owned, &policy);
                let celf = select_seeds_celf(&sets, k, threads);
                let counts = fused_counts(&sets);
                for adaptive in [false, true] {
                    for given in [Some(counts.as_slice()), None] {
                        let (eager, _) =
                            select_seeds_efficient(&sets, k, &exec(threads), adaptive, given);
                        prop_assert_eq!(&eager.seeds, &celf.seeds, "{:?}", policy);
                        prop_assert_eq!(
                            eager.coverage_fraction.to_bits(),
                            celf.coverage_fraction.to_bits()
                        );
                    }
                }
            }
        }
    }
}
