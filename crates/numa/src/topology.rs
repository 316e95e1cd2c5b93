//! Machine topology: NUMA nodes and the cores that belong to them.

/// A NUMA machine description: `nodes` memory domains with
/// `cores_per_node` cores each, numbered so that core `c` belongs to node
/// `c / cores_per_node` (the same contiguous mapping `numactl --hardware`
/// reports for the EPYC system in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct Topology {
    nodes: usize,
    cores_per_node: usize,
}

impl Topology {
    /// Create a topology.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, cores_per_node: usize) -> Self {
        assert!(nodes > 0, "need at least one NUMA node");
        assert!(cores_per_node > 0, "need at least one core per node");
        Topology { nodes, cores_per_node }
    }

    /// The paper's evaluation machine: 8 NUMA nodes × 16 cores = 128 cores.
    pub fn perlmutter_node() -> Self {
        Topology::new(8, 16)
    }

    /// Single node with `cores` cores (the "older CPU model" the paper
    /// contrasts against, and the degenerate no-NUMA case).
    pub fn uma(cores: usize) -> Self {
        Topology::new(1, cores)
    }

    /// Number of NUMA nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Cores per NUMA node.
    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Total core count.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// NUMA node that owns core `core`.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    #[inline]
    pub fn node_of_core(&self, core: usize) -> usize {
        assert!(core < self.num_cores(), "core {core} out of range");
        core / self.cores_per_node
    }

    /// Detect the topology of the machine this process runs on.
    ///
    /// On Linux, counts the `node<N>` directories under
    /// `/sys/devices/system/node` and divides the online cores evenly
    /// among them (the kernel's contiguous core→node numbering for the
    /// machines this reproduction targets). Anywhere the sysfs probe is
    /// unavailable — non-Linux targets, containers that mask sysfs — the
    /// result degrades to a single-node [`Topology::uma`] machine.
    pub fn detect() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let nodes = detect_node_count().max(1).min(cores);
        Topology::new(nodes, (cores / nodes).max(1))
    }

    /// Restrict a thread-count to the machine and map thread `t` (of
    /// `threads`) to a core, spreading threads round-robin across nodes first
    /// — the compact-then-spread placement used when benchmarking strong
    /// scaling so that low thread counts still exercise several NUMA domains.
    pub fn core_for_thread(&self, thread: usize, threads: usize) -> usize {
        let threads = threads.max(1);
        let t = thread % threads.min(self.num_cores()).max(1);
        // Spread: thread t goes to node (t % nodes), slot (t / nodes).
        let node = t % self.nodes;
        let slot = (t / self.nodes) % self.cores_per_node;
        node * self.cores_per_node + slot
    }
}

/// Count NUMA node directories in sysfs (`node0`, `node1`, …).
#[cfg(target_os = "linux")]
fn detect_node_count() -> usize {
    let Ok(entries) = std::fs::read_dir("/sys/devices/system/node") else { return 1 };
    entries
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.strip_prefix("node")
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        })
        .count()
}

#[cfg(not(target_os = "linux"))]
fn detect_node_count() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perlmutter_topology_matches_paper() {
        let t = Topology::perlmutter_node();
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_cores(), 128);
        assert_eq!(t.cores_per_node(), 16);
    }

    #[test]
    fn node_of_core_is_contiguous() {
        let t = Topology::new(4, 4);
        assert_eq!(t.node_of_core(0), 0);
        assert_eq!(t.node_of_core(3), 0);
        assert_eq!(t.node_of_core(4), 1);
        assert_eq!(t.node_of_core(15), 3);
        for core in 0..t.num_cores() {
            assert_eq!(t.node_of_core(core), core / t.cores_per_node());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_core_out_of_range_panics() {
        Topology::new(2, 2).node_of_core(4);
    }

    #[test]
    fn uma_is_single_node() {
        let t = Topology::uma(16);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.node_of_core(7), 0);
    }

    #[test]
    fn thread_mapping_spreads_across_nodes() {
        let t = Topology::new(4, 4);
        // First 4 threads should land on 4 distinct nodes.
        let nodes: std::collections::HashSet<_> =
            (0..4).map(|th| t.node_of_core(t.core_for_thread(th, 4))).collect();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn thread_mapping_is_within_range() {
        let t = Topology::new(8, 16);
        for threads in [1usize, 2, 7, 64, 128, 200] {
            for th in 0..threads {
                assert!(t.core_for_thread(th, threads) < t.num_cores());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_nodes_rejected() {
        Topology::new(0, 4);
    }

    #[test]
    fn detect_yields_a_valid_topology() {
        let t = Topology::detect();
        assert!(t.num_nodes() >= 1);
        assert!(t.cores_per_node() >= 1);
        // Nodes never outnumber cores: detect() clamps.
        assert!(t.num_nodes() <= t.num_cores());
    }
}
