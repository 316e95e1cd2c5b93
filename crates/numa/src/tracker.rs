//! Per-core local/remote access accounting and the modelled access cost.
//!
//! The tracker is deliberately simple: every recorded access is classified as
//! local (the accessing core's node owns the page) or remote, and a
//! [`CostModel`] turns the two counts into a single modelled cost figure
//! (remote accesses are a configurable factor more expensive, reflecting the
//! inter-socket latency/bandwidth gap the paper's §IV-B discusses).

use crate::placement::NumaRegion;
use crate::topology::Topology;

/// Read or write — tracked separately because the paper's counter-update
/// kernel is write-heavy while the bitmap check is read-heavy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (including atomic read-modify-write).
    Write,
}

/// Aggregated access counts for one core (or one thread pinned to a core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct AccessStats {
    /// Loads that hit the local NUMA node.
    pub local_reads: u64,
    /// Loads served by a remote node.
    pub remote_reads: u64,
    /// Stores to the local node.
    pub local_writes: u64,
    /// Stores to a remote node.
    pub remote_writes: u64,
}

impl AccessStats {
    /// Total accesses of any kind.
    pub fn total(&self) -> u64 {
        self.local_reads + self.remote_reads + self.local_writes + self.remote_writes
    }

    /// Total remote accesses.
    pub fn remote(&self) -> u64 {
        self.remote_reads + self.remote_writes
    }

    /// Fraction of accesses that were remote (0 when there were none).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.remote() as f64 / total as f64
        }
    }

    /// Merge another core's stats into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.local_reads += other.local_reads;
        self.remote_reads += other.remote_reads;
        self.local_writes += other.local_writes;
        self.remote_writes += other.remote_writes;
    }
}

/// Converts access counts into a modelled cost (arbitrary "cycles" units).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CostModel {
    /// Cost of an access that stays on the local node.
    pub local_cost: f64,
    /// Cost of an access that crosses to a remote node. The ~2–3× local
    /// figure is the usual inter-socket latency ratio on EPYC-class parts.
    pub remote_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { local_cost: 1.0, remote_cost: 2.5 }
    }
}

impl CostModel {
    /// Modelled cost of the given stats.
    pub fn cost(&self, stats: &AccessStats) -> f64 {
        (stats.local_reads + stats.local_writes) as f64 * self.local_cost
            + (stats.remote_reads + stats.remote_writes) as f64 * self.remote_cost
    }
}

/// Records accesses issued by cores against placed regions.
#[derive(Debug, Clone)]
pub struct AccessTracker {
    topology: Topology,
    per_core: Vec<AccessStats>,
}

impl AccessTracker {
    /// Tracker for `topology`.
    pub fn new(topology: Topology) -> Self {
        AccessTracker { topology, per_core: vec![AccessStats::default(); topology.num_cores()] }
    }

    /// The topology this tracker was built for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Record an access from `core` to element `index` of `region`.
    #[inline]
    pub fn record(&mut self, core: usize, region: &NumaRegion, index: usize, kind: AccessKind) {
        let target_node = region.node_of_element(index);
        self.record_to_node(core, target_node, kind);
    }

    /// Record an access from `core` straight to a node (when the caller
    /// already resolved the page owner).
    #[inline]
    pub fn record_to_node(&mut self, core: usize, target_node: usize, kind: AccessKind) {
        let local = self.topology.node_of_core(core) == target_node;
        let stats = &mut self.per_core[core];
        match (kind, local) {
            (AccessKind::Read, true) => stats.local_reads += 1,
            (AccessKind::Read, false) => stats.remote_reads += 1,
            (AccessKind::Write, true) => stats.local_writes += 1,
            (AccessKind::Write, false) => stats.remote_writes += 1,
        }
    }

    /// Stats of one core.
    pub fn core_stats(&self, core: usize) -> &AccessStats {
        &self.per_core[core]
    }

    /// Aggregate stats over all cores.
    pub fn total(&self) -> AccessStats {
        let mut agg = AccessStats::default();
        for s in &self.per_core {
            agg.merge(s);
        }
        agg
    }

    /// Aggregate stats per NUMA node of the *accessing* core.
    pub fn per_node(&self) -> Vec<AccessStats> {
        let mut out = vec![AccessStats::default(); self.topology.num_nodes()];
        for (core, s) in self.per_core.iter().enumerate() {
            out[self.topology.node_of_core(core)].merge(s);
        }
        out
    }

    /// Merge another tracker (e.g. one per worker thread) into this one.
    ///
    /// # Panics
    /// Panics if the topologies differ.
    pub fn merge(&mut self, other: &AccessTracker) {
        assert_eq!(self.topology, other.topology, "cannot merge trackers of different machines");
        for (mine, theirs) in self.per_core.iter_mut().zip(other.per_core.iter()) {
            mine.merge(theirs);
        }
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        for s in &mut self.per_core {
            *s = AccessStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;

    fn topo() -> Topology {
        Topology::new(2, 2) // cores 0,1 on node 0; cores 2,3 on node 1
    }

    #[test]
    fn local_vs_remote_classification() {
        let t = topo();
        let region_on_0 = NumaRegion::place(1024, 4, PlacementPolicy::SingleNode(0), &t);
        let mut tracker = AccessTracker::new(t);

        tracker.record(0, &region_on_0, 5, AccessKind::Read); // core 0 -> node 0: local
        tracker.record(3, &region_on_0, 5, AccessKind::Read); // core 3 -> node 0: remote
        tracker.record(3, &region_on_0, 7, AccessKind::Write); // remote write

        assert_eq!(tracker.core_stats(0).local_reads, 1);
        assert_eq!(tracker.core_stats(0).remote_reads, 0);
        assert_eq!(tracker.core_stats(3).remote_reads, 1);
        assert_eq!(tracker.core_stats(3).remote_writes, 1);

        let total = tracker.total();
        assert_eq!(total.total(), 3);
        assert_eq!(total.remote(), 2);
        assert!((total.remote_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn interleaved_region_halves_remote_accesses() {
        let t = topo();
        // Large region, interleaved over 2 nodes: a core touching random
        // elements should see ~50% local.
        let region = NumaRegion::place(1 << 16, 4, PlacementPolicy::Interleaved, &t);
        let mut tracker = AccessTracker::new(t);
        for i in 0..(1 << 16) {
            tracker.record(0, &region, i, AccessKind::Read);
        }
        let stats = tracker.core_stats(0);
        let frac = stats.remote_fraction();
        assert!((frac - 0.5).abs() < 0.05, "remote fraction {frac}");
    }

    #[test]
    fn thread_local_region_is_all_local_for_owner() {
        let t = topo();
        let region = NumaRegion::place(4096, 4, PlacementPolicy::ThreadLocal(1), &t);
        let mut tracker = AccessTracker::new(t);
        for i in 0..1000 {
            tracker.record(2, &region, i, AccessKind::Write); // core 2 is on node 1
        }
        assert_eq!(tracker.core_stats(2).remote_writes, 0);
        assert_eq!(tracker.core_stats(2).local_writes, 1000);
    }

    #[test]
    fn cost_model_penalizes_remote() {
        let model = CostModel::default();
        let local_only = AccessStats { local_reads: 100, ..Default::default() };
        let remote_only = AccessStats { remote_reads: 100, ..Default::default() };
        assert!(model.cost(&remote_only) > 2.0 * model.cost(&local_only));
    }

    #[test]
    fn repeated_records_accumulate() {
        let t = topo();
        let region = NumaRegion::place(128, 4, PlacementPolicy::SingleNode(0), &t);
        let mut a = AccessTracker::new(t);
        for _ in 0..50 {
            a.record(1, &region, 3, AccessKind::Write);
        }
        assert_eq!(a.core_stats(1), &AccessStats { local_writes: 50, ..Default::default() });
    }

    #[test]
    fn merge_and_reset() {
        let t = topo();
        let region = NumaRegion::place(128, 4, PlacementPolicy::SingleNode(1), &t);
        let mut a = AccessTracker::new(t);
        let mut b = AccessTracker::new(t);
        a.record(0, &region, 0, AccessKind::Read);
        b.record(0, &region, 0, AccessKind::Read);
        a.merge(&b);
        assert_eq!(a.core_stats(0).remote_reads, 2);
        a.reset();
        assert_eq!(a.total().total(), 0);
    }

    #[test]
    fn per_node_aggregation() {
        let t = topo();
        let region = NumaRegion::place(128, 4, PlacementPolicy::SingleNode(0), &t);
        let mut tracker = AccessTracker::new(t);
        tracker.record(0, &region, 0, AccessKind::Read); // node 0 core
        tracker.record(1, &region, 0, AccessKind::Read); // node 0 core
        tracker.record(2, &region, 0, AccessKind::Read); // node 1 core (remote)
        let per_node = tracker.per_node();
        assert_eq!(per_node[0].local_reads, 2);
        assert_eq!(per_node[1].remote_reads, 1);
    }
}
