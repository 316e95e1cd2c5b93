//! Data-placement policies and the page→node map of a placed region.

use crate::topology::Topology;

/// Simulated page size. 4 KiB, matching the default small-page size the
/// paper's `numactl`/`mbind` calls operate on.
pub const PAGE_BYTES: usize = 4096;

/// Where the pages of a data structure are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum PlacementPolicy {
    /// Every page on one node — the default first-touch outcome when a single
    /// thread initializes the structure; the configuration whose bandwidth
    /// hot-spot the paper's §IV-B diagnoses.
    SingleNode(usize),
    /// Pages distributed round-robin across all nodes
    /// (`numactl --interleave=all`).
    Interleaved,
    /// Each page bound to the node of the thread that will use it
    /// (`mbind` of thread-local structures — the paper's NUMA-aware design).
    /// The owner node is supplied per region at placement time.
    ThreadLocal(usize),
}

/// A placed memory region: which NUMA node owns each simulated page.
#[derive(Debug, Clone, PartialEq)]
pub struct NumaRegion {
    /// Owner node per page.
    page_owner: Vec<usize>,
    /// Bytes per element of the logical array mapped onto this region.
    element_bytes: usize,
    /// Total bytes in the region.
    bytes: usize,
}

impl NumaRegion {
    /// Place a region of `elements` items, each `element_bytes` wide, under
    /// `policy` on `topology`.
    ///
    /// # Panics
    /// Panics if a policy references a node outside the topology or if
    /// `element_bytes` is zero.
    pub fn place(
        elements: usize,
        element_bytes: usize,
        policy: PlacementPolicy,
        topology: &Topology,
    ) -> Self {
        assert!(element_bytes > 0, "element size must be positive");
        let bytes = elements * element_bytes;
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        let page_owner = match policy {
            PlacementPolicy::SingleNode(node) | PlacementPolicy::ThreadLocal(node) => {
                assert!(node < topology.num_nodes(), "placement node {node} out of range");
                vec![node; pages]
            }
            PlacementPolicy::Interleaved => (0..pages).map(|p| p % topology.num_nodes()).collect(),
        };
        NumaRegion { page_owner, element_bytes, bytes }
    }

    /// NUMA node owning element `index`.
    #[inline]
    pub fn node_of_element(&self, index: usize) -> usize {
        let byte = index * self.element_bytes;
        debug_assert!(byte < self.bytes || self.bytes == 0, "element {index} beyond region");
        let page = (byte / PAGE_BYTES).min(self.page_owner.len() - 1);
        self.page_owner[page]
    }

    /// Number of simulated pages.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.page_owner.len()
    }

    /// Total bytes covered.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// How many pages each node owns (histogram indexed by node id, length =
    /// max owner + 1).
    pub fn pages_per_node(&self, num_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_nodes];
        for &owner in &self.page_owner {
            counts[owner] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_places_everything_on_one_node() {
        let topo = Topology::new(4, 2);
        let r = NumaRegion::place(10_000, 4, PlacementPolicy::SingleNode(2), &topo);
        assert!(r.num_pages() >= 9);
        let per_node = r.pages_per_node(4);
        assert_eq!(per_node[2], r.num_pages());
        assert_eq!(per_node[0] + per_node[1] + per_node[3], 0);
        assert_eq!(r.node_of_element(0), 2);
        assert_eq!(r.node_of_element(9_999), 2);
    }

    #[test]
    fn interleaved_spreads_pages_evenly() {
        let topo = Topology::new(4, 2);
        // 64 KiB = 16 pages across 4 nodes -> 4 pages each.
        let r = NumaRegion::place(16 * 1024, 4, PlacementPolicy::Interleaved, &topo);
        assert_eq!(r.num_pages(), 16);
        assert_eq!(r.pages_per_node(4), vec![4, 4, 4, 4]);
    }

    #[test]
    fn interleaved_element_owner_follows_pages() {
        let topo = Topology::new(2, 1);
        let r = NumaRegion::place(4096, 4, PlacementPolicy::Interleaved, &topo);
        // 16 KiB = 4 pages: elements 0..1023 page 0 (node 0), 1024..2047 page 1 (node 1)...
        assert_eq!(r.node_of_element(0), 0);
        assert_eq!(r.node_of_element(1023), 0);
        assert_eq!(r.node_of_element(1024), 1);
        assert_eq!(r.node_of_element(2048), 0);
    }

    #[test]
    fn thread_local_binds_to_owner() {
        let topo = Topology::new(8, 16);
        let r = NumaRegion::place(100, 8, PlacementPolicy::ThreadLocal(5), &topo);
        assert_eq!(r.node_of_element(50), 5);
    }

    #[test]
    fn tiny_region_still_has_one_page() {
        let topo = Topology::new(2, 2);
        let r = NumaRegion::place(1, 1, PlacementPolicy::Interleaved, &topo);
        assert_eq!(r.num_pages(), 1);
        assert_eq!(r.node_of_element(0), 0);
    }

    #[test]
    fn element_addressing_finds_the_page_owner() {
        let topo = Topology::new(4, 1);
        let r = NumaRegion::place(10_000, 8, PlacementPolicy::Interleaved, &topo);
        for idx in [0usize, 100, 511, 512, 5_000, 9_999] {
            assert_eq!(r.node_of_element(idx), (idx * 8 / PAGE_BYTES) % 4);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placement_on_missing_node_panics() {
        let topo = Topology::new(2, 2);
        NumaRegion::place(10, 4, PlacementPolicy::SingleNode(7), &topo);
    }
}
