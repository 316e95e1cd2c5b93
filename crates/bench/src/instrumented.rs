//! Instrumented kernel variants that emit their memory-access streams.
//!
//! Hardware performance counters and real NUMA placement are not available in
//! this reproduction environment, so the two experiments that depend on them
//! are driven by software models instead (see DESIGN.md §4). They are the
//! reproduction's alone, which is why the simulators are reached from here
//! and from no serving crate:
//!
//! * **Table IV (L1+L2 cache misses of `Find_Most_Influential_Set`)** —
//!   [`cache_misses_ripples`] and [`cache_misses_efficient`] replay the exact
//!   sequence of counter/RRR-set accesses each kernel performs through the
//!   [`imm_memsim`] cache hierarchy and report the combined miss count.
//! * **Table II (% of core time spent on the visited-bitmap check, original
//!   vs. NUMA-aware placement)** — [`bitmap_check_cost`] replays the sampling
//!   kernel's accesses against two [`imm_numa`] placements and reports the
//!   modelled share of time spent on the bitmap.
//!
//! The instrumented paths are sequential per simulated core (cache state is
//! inherently per-core), but they walk the same data in the same order as the
//! parallel kernels, so the per-algorithm access-volume asymmetry — the thing
//! the paper's numbers are driven by — is preserved.

use crate::efficient::REBUILD_THRESHOLD;
use efficient_imm::sampling::{generate_rrr_set, SamplingGraph, SetKey, VisitMarker};
use efficient_imm::selection::select_seeds_celf;
use imm_diffusion::DiffusionModel;
use imm_graph::{block_ranges, CsrGraph, EdgeWeights, NodeId};
use imm_memsim::{synthetic_address, HierarchyConfig, MemoryHierarchy};
use imm_numa::{AccessKind, AccessTracker, CostModel, NumaRegion, PlacementPolicy, Topology};
use imm_rrr::RrrCollection;

/// Memory regions used when synthesizing addresses.
mod region {
    /// The per-vertex occurrence counter array.
    pub const COUNTER: u32 = 1;
    /// The RRR-set payload storage (element `i` of set `s` lives at
    /// `s * stride + i`).
    pub const RRR_SETS: u32 = 2;
    /// Per-thread local counter arrays of the Ripples kernel.
    pub const LOCAL_COUNTERS: u32 = 3;
}

const COUNTER_ELEM_BYTES: u64 = 8;
const VERTEX_BYTES: u64 = 4;
/// Synthetic stride separating consecutive RRR sets in the trace address
/// space; large enough that distinct sets never share a cache line.
const RRR_SET_STRIDE: u64 = 1 << 20;

/// Result of a cache-instrumented selection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheMissReport {
    /// Combined L1 + L2 misses over all simulated cores.
    pub l1_plus_l2_misses: u64,
    /// Total memory accesses issued.
    pub accesses: u64,
}

/// Replay the Ripples selection kernel's access stream for `threads`
/// simulated cores and report the combined miss count.
///
/// Access pattern per the baseline: every core walks **all** RRR sets for the
/// counting pass (reading every element and writing its own local counter),
/// and for every selected seed walks all alive sets again (binary-search
/// probes plus decrements of its local counters).
pub fn cache_misses_ripples(
    sets: &RrrCollection,
    k: usize,
    threads: usize,
    config: HierarchyConfig,
) -> CacheMissReport {
    let threads = threads.max(1);
    let n = sets.num_nodes();
    let mut hierarchy = MemoryHierarchy::new(threads, config);
    let ranges = block_ranges(n, threads);

    // Counting pass: every core reads every element of every set and updates
    // its own local counter when the vertex falls in its range.
    for (core, range) in ranges.iter().enumerate() {
        for (set_idx, set) in sets.iter().enumerate() {
            for v in set.iter() {
                hierarchy.access(core, rrr_element_address(set_idx, v));
                let vi = v as usize;
                if vi >= range.start && vi < range.end {
                    hierarchy.access(
                        core,
                        synthetic_address(
                            region::LOCAL_COUNTERS,
                            ((core as u64) << 32)
                                | ((vi - range.start) as u64 * COUNTER_ELEM_BYTES),
                        ),
                    );
                }
            }
        }
    }

    // Seed extraction + decouple passes.
    let mut alive = vec![true; sets.len()];
    // The greedy's seeds (CELF's; both replays remove the same seeds in the
    // same order).
    for seed in select_seeds_celf(sets, k, 1).seeds {
        for (core, range) in ranges.iter().enumerate() {
            // Regional max scan over the core's local counters.
            for offset in 0..range.len() {
                hierarchy.access(
                    core,
                    synthetic_address(
                        region::LOCAL_COUNTERS,
                        ((core as u64) << 32) | (offset as u64 * COUNTER_ELEM_BYTES),
                    ),
                );
            }
            for (set_idx, set) in sets.iter().enumerate() {
                if !alive[set_idx] {
                    continue;
                }
                // Binary-search probe touches ~log2(|R|) elements.
                let len = set.len().max(1);
                let probes = (usize::BITS - (len - 1).leading_zeros()).max(1) as u64;
                for p in 0..probes {
                    hierarchy.access(
                        core,
                        rrr_element_address(set_idx, (p * (len as u64 / probes.max(1))) as NodeId),
                    );
                }
                if set.contains(seed) {
                    for v in set.iter() {
                        hierarchy.access(core, rrr_element_address(set_idx, v));
                        let vi = v as usize;
                        if vi >= range.start && vi < range.end {
                            hierarchy.access(
                                core,
                                synthetic_address(
                                    region::LOCAL_COUNTERS,
                                    ((core as u64) << 32)
                                        | ((vi - range.start) as u64 * COUNTER_ELEM_BYTES),
                                ),
                            );
                        }
                    }
                }
            }
        }
        for (set_idx, set) in sets.iter().enumerate() {
            if alive[set_idx] && set.contains(seed) {
                alive[set_idx] = false;
            }
        }
    }

    let stats = hierarchy.total_stats();
    CacheMissReport { l1_plus_l2_misses: stats.l1_plus_l2_misses(), accesses: stats.accesses() }
}

/// Replay the EfficientIMM selection kernel's access stream.
///
/// Access pattern per Algorithm 2: the RRR sets are partitioned across cores,
/// each element is read once and triggers one atomic counter update; seed
/// extraction scans the shared counter once per core range; the decouple step
/// touches only the covered sets (or rebuilds from the survivors when they
/// cover more than [`REBUILD_THRESHOLD`] of the alive sets, mirroring the
/// adaptive update).
pub fn cache_misses_efficient(
    sets: &RrrCollection,
    k: usize,
    threads: usize,
    config: HierarchyConfig,
) -> CacheMissReport {
    let threads = threads.max(1);
    let n = sets.num_nodes();
    let mut hierarchy = MemoryHierarchy::new(threads, config);
    let set_ranges = block_ranges(sets.len(), threads);
    let counter_ranges = block_ranges(n, threads);

    // Counting pass: each set is touched by exactly one core.
    for (core, set_range) in set_ranges.iter().enumerate() {
        for set_idx in set_range.iter() {
            let set = sets.get(set_idx);
            for v in set.iter() {
                hierarchy.access(core, rrr_element_address(set_idx, v));
                hierarchy.access(core, counter_address(v));
            }
        }
    }

    let mut alive = vec![true; sets.len()];
    let mut alive_count = sets.len();
    for seed in select_seeds_celf(sets, k, 1).seeds {
        // Two-level parallel reduction: each core scans its slice of the
        // shared counter once.
        for (core, counter_range) in counter_ranges.iter().enumerate() {
            for v in counter_range.iter() {
                hierarchy.access(core, counter_address(v as NodeId));
            }
        }
        let covered: Vec<usize> =
            (0..sets.len()).filter(|&idx| alive[idx] && sets.get(idx).contains(seed)).collect();
        let rebuild =
            alive_count > 0 && (covered.len() as f64 / alive_count as f64) > REBUILD_THRESHOLD;

        if rebuild {
            for &idx in &covered {
                alive[idx] = false;
            }
            // Rebuild touches the surviving sets, partitioned across cores.
            for (core, set_range) in set_ranges.iter().enumerate() {
                for set_idx in set_range.iter() {
                    if !alive[set_idx] {
                        continue;
                    }
                    let set = sets.get(set_idx);
                    for v in set.iter() {
                        hierarchy.access(core, rrr_element_address(set_idx, v));
                        hierarchy.access(core, counter_address(v));
                    }
                }
            }
        } else {
            // Decrement pass: covered sets partitioned across cores.
            let covered_ranges = block_ranges(covered.len(), threads);
            for (core, covered_range) in covered_ranges.iter().enumerate() {
                for pos in covered_range.iter() {
                    let set_idx = covered[pos];
                    let set = sets.get(set_idx);
                    for v in set.iter() {
                        hierarchy.access(core, rrr_element_address(set_idx, v));
                        hierarchy.access(core, counter_address(v));
                    }
                }
            }
            for &idx in &covered {
                alive[idx] = false;
            }
        }
        alive_count -= covered.len();
    }

    let stats = hierarchy.total_stats();
    CacheMissReport { l1_plus_l2_misses: stats.l1_plus_l2_misses(), accesses: stats.accesses() }
}

fn counter_address(v: NodeId) -> u64 {
    synthetic_address(region::COUNTER, v as u64 * COUNTER_ELEM_BYTES)
}

fn rrr_element_address(set_idx: usize, v: NodeId) -> u64 {
    synthetic_address(region::RRR_SETS, set_idx as u64 * RRR_SET_STRIDE + v as u64 * VERTEX_BYTES)
}

/// Result of the NUMA-placement experiment for one placement.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BitmapCostReport {
    /// Modelled cost of the visited-bitmap accesses.
    pub bitmap_cost: f64,
    /// Modelled cost of all other accesses of the sampling kernel
    /// (graph traversal + RRR-set writes).
    pub other_cost: f64,
    /// Fraction of the total modelled cost spent on the bitmap check —
    /// the paper's Table II metric.
    pub bitmap_fraction: f64,
    /// Fraction of bitmap accesses that were remote.
    pub bitmap_remote_fraction: f64,
}

/// Model the sampling kernel's memory-access cost under a given placement of
/// the visited bitmap and RRR-set buffers.
///
/// `numa_aware` selects the placement being evaluated: the "original" layout
/// places the bitmap (and RRR buffers) on a single node, the NUMA-aware
/// layout binds them to each worker's local node.
#[allow(clippy::too_many_arguments)] // mirrors the experiment axes; a config struct would obscure the table-binary call sites
pub fn bitmap_check_cost(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    num_sets: usize,
    rng_seed: u64,
    topology: Topology,
    threads: usize,
    numa_aware: bool,
) -> BitmapCostReport {
    let threads = threads.max(1).min(topology.num_cores());
    let n = graph.num_nodes();
    let cost_model = CostModel::default();

    // The graph is interleaved in both configurations (the paper interleaves
    // it in the NUMA-aware design and it is the default under numactl).
    let graph_region =
        NumaRegion::place(graph.num_edges().max(1), 8, PlacementPolicy::Interleaved, &topology);

    let mut tracker = AccessTracker::new(topology);
    let mut bitmap_tracker = AccessTracker::new(topology);
    let mut marker = VisitMarker::new(n);
    let source = SamplingGraph::new(graph, weights);

    for set_idx in 0..num_sets {
        let worker = set_idx % threads;
        let core = topology.core_for_thread(worker, threads);
        let worker_node = topology.node_of_core(core);
        // Original layout: bitmap and RRR buffers live wherever they were
        // first touched (node 0). NUMA-aware layout: bound to the worker's
        // node via mbind.
        let data_placement = if numa_aware {
            PlacementPolicy::ThreadLocal(worker_node)
        } else {
            PlacementPolicy::SingleNode(0)
        };
        let bitmap_region = NumaRegion::place(n.div_ceil(8).max(1), 1, data_placement, &topology);
        let rrr_region = NumaRegion::place(n.max(1), 4, data_placement, &topology);

        let key = SetKey::new(rng_seed, set_idx);
        let vertices = generate_rrr_set(&source, model, key.root(n), key, &mut marker);

        // Replay the paper's top-down traversal of the set, whichever
        // direction the kernel reached it in: for every member we walk its
        // in-edges (graph reads), check the bitmap once per examined
        // neighbor (bitmap reads), and write the vertex into the RRR buffer.
        for (i, &v) in vertices.iter().enumerate() {
            for &u in graph.in_neighbors(v) {
                tracker.record(
                    core,
                    &graph_region,
                    v as usize % graph.num_edges().max(1),
                    AccessKind::Read,
                );
                bitmap_tracker.record(core, &bitmap_region, (u as usize) / 8, AccessKind::Read);
            }
            tracker.record(core, &rrr_region, i, AccessKind::Write);
        }
        // The bitmap writes for newly visited vertices.
        for &v in &vertices {
            bitmap_tracker.record(core, &bitmap_region, (v as usize) / 8, AccessKind::Write);
        }
    }

    let bitmap_stats = bitmap_tracker.total();
    let other_stats = tracker.total();
    let bitmap_cost = cost_model.cost(&bitmap_stats);
    let other_cost = cost_model.cost(&other_stats);
    let total = bitmap_cost + other_cost;
    BitmapCostReport {
        bitmap_cost,
        other_cost,
        bitmap_fraction: if total == 0.0 { 0.0 } else { bitmap_cost / total },
        bitmap_remote_fraction: bitmap_stats.remote_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficient::tests::collection;
    use imm_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn skewed_sets(num_sets: usize, n: usize) -> RrrCollection {
        // Dense sets sharing a popular vertex 0 — the structure that makes
        // the baseline's full rescans expensive.
        let owned: Vec<Vec<u32>> = (0..num_sets)
            .map(|i| {
                let mut v: Vec<u32> = (0..(n / 4)).map(|j| ((i + j * 3) % n) as u32).collect();
                v.push(0);
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        collection(n, &owned)
    }

    #[test]
    fn efficient_kernel_has_far_fewer_misses_than_ripples() {
        let sets = skewed_sets(64, 512);
        let config = HierarchyConfig::default();
        let ripples = cache_misses_ripples(&sets, 5, 4, config);
        let efficient = cache_misses_efficient(&sets, 5, 4, config);
        assert!(ripples.accesses > efficient.accesses, "baseline touches more memory");
        assert!(
            ripples.l1_plus_l2_misses > 2 * efficient.l1_plus_l2_misses,
            "expected a large miss reduction: ripples={} efficient={}",
            ripples.l1_plus_l2_misses,
            efficient.l1_plus_l2_misses
        );
    }

    #[test]
    fn miss_counts_are_deterministic() {
        let sets = skewed_sets(32, 256);
        let config = HierarchyConfig::default();
        let a = cache_misses_efficient(&sets, 3, 2, config);
        let b = cache_misses_efficient(&sets, 3, 2, config);
        assert_eq!(a, b);
    }

    #[test]
    fn ripples_misses_grow_with_thread_count() {
        let sets = skewed_sets(32, 256);
        let config = HierarchyConfig::default();
        let t1 = cache_misses_ripples(&sets, 3, 1, config);
        let t8 = cache_misses_ripples(&sets, 3, 8, config);
        assert!(t8.accesses > 4 * t1.accesses);
    }

    #[test]
    fn zero_seeds_report_zero_misses() {
        let sets = collection::<&[NodeId]>(16, &[]);
        let config = HierarchyConfig::default();
        let r = cache_misses_ripples(&sets, 0, 2, config);
        assert_eq!(r.l1_plus_l2_misses, 0);
        assert_eq!(r.accesses, 0);
        let e = cache_misses_efficient(&sets, 0, 2, config);
        assert_eq!(e.l1_plus_l2_misses, 0);
        assert_eq!(e.accesses, 0);
    }

    #[test]
    fn numa_aware_placement_reduces_bitmap_cost_share() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = CsrGraph::from_edge_list(&generators::social_network(800, 8, 0.3, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let topo = Topology::new(8, 4);
        let original =
            bitmap_check_cost(&g, &w, DiffusionModel::IndependentCascade, 48, 7, topo, 32, false);
        let aware =
            bitmap_check_cost(&g, &w, DiffusionModel::IndependentCascade, 48, 7, topo, 32, true);
        assert!(
            aware.bitmap_fraction < original.bitmap_fraction,
            "NUMA-aware placement must lower the bitmap share: {} vs {}",
            aware.bitmap_fraction,
            original.bitmap_fraction
        );
        assert!(aware.bitmap_remote_fraction < original.bitmap_remote_fraction);
        assert!(original.bitmap_fraction > 0.0 && original.bitmap_fraction < 1.0);
    }
}
