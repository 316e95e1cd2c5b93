//! Mutable edge container used while assembling graphs.
//!
//! Generators and file loaders produce an [`EdgeList`]; it is then cleaned
//! (self-loops removed, duplicates merged, optionally symmetrized the way
//! SNAP "undirected" datasets are) and frozen into a [`crate::CsrGraph`].

use crate::NodeId;

/// A single directed edge `src -> dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: NodeId,
    /// Destination vertex.
    pub dst: NodeId,
}

impl Edge {
    /// Construct an edge.
    #[inline]
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Edge { src, dst }
    }

    /// The reversed edge `dst -> src`.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge { src: self.dst, dst: self.src }
    }

    /// Whether the edge is a self-loop.
    #[inline]
    pub fn is_loop(self) -> bool {
        self.src == self.dst
    }
}

/// A growable list of directed edges plus a vertex-count bound.
///
/// The vertex count is the maximum of the declared count and
/// `max(node id) + 1`, so loaders may either pre-declare the count or let it
/// be inferred.
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    edges: Vec<Edge>,
    num_nodes: usize,
}

impl EdgeList {
    /// Empty edge list with a pre-declared number of vertices.
    pub fn with_nodes(num_nodes: usize) -> Self {
        EdgeList { edges: Vec::new(), num_nodes }
    }

    /// Empty edge list with room for `cap` edges.
    pub fn with_capacity(num_nodes: usize, cap: usize) -> Self {
        EdgeList { edges: Vec::with_capacity(cap), num_nodes }
    }

    /// Wrap `edges` whose ids all lie below `num_nodes`.
    pub(crate) fn from_parts(edges: Vec<Edge>, num_nodes: usize) -> Self {
        debug_assert!(edges.iter().all(|e| (e.src.max(e.dst) as usize) < num_nodes));
        EdgeList { edges, num_nodes }
    }

    /// Build from raw `(src, dst)` pairs.
    pub fn from_pairs(num_nodes: usize, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut el = EdgeList::with_nodes(num_nodes);
        for (s, d) in pairs {
            el.push(s, d);
        }
        el
    }

    /// Append an edge, growing the vertex count if needed.
    #[inline]
    pub fn push(&mut self, src: NodeId, dst: NodeId) {
        let hi = src.max(dst) as usize + 1;
        if hi > self.num_nodes {
            self.num_nodes = hi;
        }
        self.edges.push(Edge::new(src, dst));
    }

    /// Append an [`Edge`].
    #[inline]
    pub fn push_edge(&mut self, e: Edge) {
        self.push(e.src, e.dst);
    }

    /// Number of vertices (declared or inferred).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges currently stored (including any duplicates).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Read-only view of the edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterate over the edges as `(src, dst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().map(|e| (e.src, e.dst))
    }

    /// Force the vertex count to at least `n`.
    pub fn ensure_nodes(&mut self, n: usize) {
        if n > self.num_nodes {
            self.num_nodes = n;
        }
    }

    /// Remove self-loops in place. Returns the number of edges removed.
    pub fn remove_self_loops(&mut self) -> usize {
        let before = self.edges.len();
        self.edges.retain(|e| !e.is_loop());
        before - self.edges.len()
    }

    /// Sort and remove duplicate edges. Returns the number removed.
    pub fn dedup(&mut self) -> usize {
        let before = self.edges.len();
        self.edges.sort_unstable();
        self.edges.dedup();
        before - self.edges.len()
    }

    /// Add the reverse of every edge (skipping resulting duplicates), turning
    /// an undirected edge list into the bidirectional directed form the SNAP
    /// `com-*` datasets use once ingested by Ripples.
    pub fn symmetrize(&mut self) {
        let mut rev: Vec<Edge> = self.edges.iter().map(|e| e.reversed()).collect();
        self.edges.append(&mut rev);
        self.dedup();
    }

    /// Renumber vertices densely so that only vertices that appear in at
    /// least one edge get ids, in order of first appearance of the sorted id
    /// space. Returns the mapping `old id -> new id` (entries for unused ids
    /// are `None`).
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let mut used = vec![false; self.num_nodes];
        for e in &self.edges {
            used[e.src as usize] = true;
            used[e.dst as usize] = true;
        }
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.num_nodes];
        let mut next: NodeId = 0;
        for (old, &u) in used.iter().enumerate() {
            if u {
                mapping[old] = Some(next);
                next += 1;
            }
        }
        for e in &mut self.edges {
            e.src = mapping[e.src as usize].expect("used node must be mapped");
            e.dst = mapping[e.dst as usize].expect("used node must be mapped");
        }
        self.num_nodes = next as usize;
        mapping
    }

    /// Consume the list and return the raw edges.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }
}

impl FromIterator<(NodeId, NodeId)> for EdgeList {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        EdgeList::from_pairs(0, iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_grows_node_count() {
        let mut el = EdgeList::with_nodes(0);
        el.push(0, 5);
        assert_eq!(el.num_nodes(), 6);
        el.push(9, 2);
        assert_eq!(el.num_nodes(), 10);
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn declared_node_count_is_respected() {
        let el = EdgeList::from_pairs(100, vec![(0, 1), (1, 2)]);
        assert_eq!(el.num_nodes(), 100);
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn remove_self_loops_works() {
        let mut el = EdgeList::from_pairs(4, vec![(0, 0), (0, 1), (2, 2), (3, 1)]);
        let removed = el.remove_self_loops();
        assert_eq!(removed, 2);
        assert_eq!(el.num_edges(), 2);
        assert!(el.iter().all(|(s, d)| s != d));
    }

    #[test]
    fn dedup_removes_duplicates_and_sorts() {
        let mut el = EdgeList::from_pairs(3, vec![(1, 2), (0, 1), (1, 2), (0, 1), (2, 0)]);
        let removed = el.dedup();
        assert_eq!(removed, 2);
        assert_eq!(el.num_edges(), 3);
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges_once() {
        let mut el = EdgeList::from_pairs(3, vec![(0, 1), (1, 0), (1, 2)]);
        el.symmetrize();
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn compact_renumbers_densely() {
        let mut el = EdgeList::from_pairs(10, vec![(2, 5), (5, 9)]);
        let mapping = el.compact();
        assert_eq!(el.num_nodes(), 3);
        assert_eq!(mapping[2], Some(0));
        assert_eq!(mapping[5], Some(1));
        assert_eq!(mapping[9], Some(2));
        assert_eq!(mapping[0], None);
        let edges: Vec<_> = el.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn edge_helpers() {
        let e = Edge::new(3, 7);
        assert_eq!(e.reversed(), Edge::new(7, 3));
        assert!(!e.is_loop());
        assert!(Edge::new(4, 4).is_loop());
    }

    #[test]
    fn from_iterator_infers_nodes() {
        let el: EdgeList = vec![(0u32, 3u32), (3, 1)].into_iter().collect();
        assert_eq!(el.num_nodes(), 4);
        assert_eq!(el.num_edges(), 2);
    }
}
