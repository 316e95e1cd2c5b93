//! NUMA-aware placement of pinned shard workers and their scratch state.
//!
//! The sharded engine's scatter pool is where the workspace's two NUMA
//! halves meet: the *model* in `imm-numa` (topology, placement policies,
//! page→node maps) and the *runtime* in `imm-exec` (shard-pinned worker
//! threads). An engine that has pinned workers — only such an engine has
//! cells to place — turns the machine's topology into the plain-data
//! [`PoolPlacement`] record the pool consumes:
//!
//! * worker `w` is assigned the core [`Topology::core_for_thread`] picks
//!   (round-robin across nodes first, so small pools still span sockets)
//!   and is pinned there on thread start via
//!   [`imm_numa::pin_current_thread`];
//! * shard cell `c` inherits the node of the worker that owns it under
//!   the pool's `c % workers` affinity, so a served request is node-local
//!   exactly when the owning worker (not a helper) answered it;
//! * each shard's scratch marks bitset is accounted as a
//!   [`NumaRegion`] bound thread-local to the owning worker's node.
//!
//! On a single-node topology (or when detection degrades to one) all of
//! this is skipped and `numa_single_node_fallbacks` records the decision
//! — placement is advisory, never required for correctness.

use imm_exec::PoolPlacement;
use imm_numa::metrics as numa_metrics;
use imm_numa::{NumaRegion, PlacementPolicy, Topology};
use std::sync::Arc;

/// Plan the pinned-pool placement for `num_shards` shard cells served by
/// `worker_count` workers (the pool's own sizing,
/// [`imm_exec::WakeMode::worker_count`]; at least one) on `topology`.
/// Registers and feeds the `numa_*` metrics; returns `None` — counting the
/// explicit fallback — when the topology offers a single node.
pub(crate) fn plan_pool_placement(
    topology: Topology,
    num_shards: usize,
    worker_count: usize,
) -> Option<PoolPlacement> {
    numa_metrics::register();
    numa_metrics::TOPOLOGY_NODES.set(topology.num_nodes() as f64);
    if topology.num_nodes() <= 1 {
        numa_metrics::SINGLE_NODE_FALLBACKS.increment();
        return None;
    }
    let worker_node: Vec<usize> = (0..worker_count)
        .map(|w| topology.node_of_core(topology.core_for_thread(w, worker_count)))
        .collect();
    let cell_node: Vec<usize> = (0..num_shards).map(|c| worker_node[c % worker_count]).collect();
    let on_worker_start = Arc::new(move |w: usize| {
        let core = topology.core_for_thread(w, worker_count);
        // The pin is advisory: on a machine smaller than the modelled
        // topology the syscall refuses and the worker floats, which only
        // shows up as remote accesses — never as an error.
        imm_numa::pin_current_thread(core);
        numa_metrics::WORKER_PINNINGS.increment();
    }) as Arc<dyn Fn(usize) + Send + Sync>;
    Some(PoolPlacement {
        worker_node,
        cell_node,
        local: &numa_metrics::LOCAL_ACCESSES,
        remote: &numa_metrics::REMOTE_ACCESSES,
        on_worker_start: Some(on_worker_start),
    })
}

/// Account each shard's scratch marks bitset (the per-request covered-set
/// marking state, one bit per shard-local set) as a placed region:
/// thread-local to the owning worker's node under a real placement,
/// single-node otherwise. Feeds `numa_scratch_regions`.
pub(crate) fn account_scratch_regions(
    topology: Topology,
    placement: Option<&PoolPlacement>,
    shard_lens: &[usize],
) {
    for (shard, &len) in shard_lens.iter().enumerate() {
        let policy = match placement {
            Some(p) => PlacementPolicy::ThreadLocal(p.cell_node[shard]),
            None => PlacementPolicy::SingleNode(0),
        };
        let words = len.div_ceil(64);
        let _region = NumaRegion::place(words, 8, policy, &topology);
        numa_metrics::SCRATCH_REGIONS.increment();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_node_topologies_yield_a_placement() {
        let placement = plan_pool_placement(Topology::new(2, 4), 4, 2)
            .expect("two nodes must produce a placement");
        assert_eq!(placement.worker_node.len(), 2);
        assert_eq!(placement.cell_node.len(), 4);
        // core_for_thread spreads across nodes first: the two workers
        // land on distinct nodes, and the cells alternate with them.
        assert_eq!(placement.worker_node, vec![0, 1]);
        assert_eq!(placement.cell_node, vec![0, 1, 0, 1]);
        assert!(placement.on_worker_start.is_some());
    }

    #[test]
    fn single_node_topologies_fall_back_and_count_it() {
        let before = numa_metrics::SINGLE_NODE_FALLBACKS.value();
        assert!(plan_pool_placement(Topology::uma(8), 4, 2).is_none());
        if imm_obs::recording_enabled() {
            assert_eq!(numa_metrics::SINGLE_NODE_FALLBACKS.value(), before + 1);
        }
    }

    #[test]
    fn scratch_regions_are_counted_per_shard() {
        let topology = Topology::new(2, 4);
        let placement = plan_pool_placement(topology, 3, 3);
        let before = numa_metrics::SCRATCH_REGIONS.value();
        account_scratch_regions(topology, placement.as_ref(), &[100, 200, 300]);
        if imm_obs::recording_enabled() {
            assert_eq!(numa_metrics::SCRATCH_REGIONS.value(), before + 3);
        }
        // The fallback path accounts them too, on node 0.
        account_scratch_regions(Topology::uma(4), None, &[10]);
        if imm_obs::recording_enabled() {
            assert_eq!(numa_metrics::SCRATCH_REGIONS.value(), before + 4);
        }
    }
}
