//! Compressed-sparse-row graph with forward and reverse adjacency.
//!
//! The reverse (in-edge) adjacency is what the reverse-influence-sampling
//! kernels traverse: a random reverse-reachable set rooted at `v` follows
//! in-edges of `v`. Ripples and EfficientIMM both keep the CSR immutable and
//! shared across all worker threads, so [`CsrGraph`] is `Send + Sync` and all
//! accessors take `&self`.

use crate::edge_list::EdgeList;
use crate::{GraphError, NodeId};

/// Immutable directed graph in CSR form.
///
/// Both directions are materialized:
///
/// * `out_offsets`/`out_targets` — forward adjacency (used by forward
///   diffusion simulation and the LT weight normalization).
/// * `in_offsets`/`in_sources` — reverse adjacency (used by RRR-set
///   generation). `in_edge_ids[i]` maps the i-th reverse slot back to the
///   forward edge index so per-edge weights are stored once.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    num_nodes: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
    in_edge_ids: Vec<usize>,
}

impl CsrGraph {
    /// Build a CSR graph from an edge list.
    ///
    /// Self-loops and duplicate edges are kept as-is (callers should clean the
    /// [`EdgeList`] first if they matter); edges referencing out-of-range
    /// vertices cannot occur because `EdgeList` grows its node count.
    pub fn from_edge_list(edge_list: &EdgeList) -> Self {
        let n = edge_list.num_nodes();
        let m = edge_list.num_edges();

        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for (s, d) in edge_list.iter() {
            out_deg[s as usize] += 1;
            in_deg[d as usize] += 1;
        }

        let out_offsets = prefix_sum(&out_deg);
        let in_offsets = prefix_sum(&in_deg);

        let mut out_targets = vec![0 as NodeId; m];
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_edge_ids = vec![0usize; m];

        // The canonical edge id is the forward CSR slot (index into
        // `out_targets`), so per-edge weight arrays are indexed the same way
        // from both directions.
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (s, d) in edge_list.iter() {
            let so = &mut out_cursor[s as usize];
            let forward_slot = *so;
            out_targets[forward_slot] = d;
            *so += 1;

            let di = &mut in_cursor[d as usize];
            in_sources[*di] = s;
            in_edge_ids[*di] = forward_slot;
            *di += 1;
        }

        CsrGraph { num_nodes: n, out_offsets, out_targets, in_offsets, in_sources, in_edge_ids }
    }

    /// Build directly from `(src, dst)` pairs with a declared vertex count.
    pub fn from_edges(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let mut el = EdgeList::with_nodes(num_nodes);
        for (s, d) in edges {
            if (s as usize) >= num_nodes || (d as usize) >= num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: s.max(d) as u64,
                    num_nodes: num_nodes as u64,
                });
            }
            el.push(s, d);
        }
        el.ensure_nodes(num_nodes);
        Ok(CsrGraph::from_edge_list(&el))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Iterator over `(in-neighbor, forward edge id)` pairs for `v`.
    ///
    /// The edge id indexes per-edge weight arrays stored in forward-edge
    /// order, which is how [`crate::weights::EdgeWeights`] stores them.
    #[inline]
    pub fn in_neighbors_with_edge_ids(&self, v: NodeId) -> NeighborIter<'_> {
        let v = v as usize;
        let lo = self.in_offsets[v];
        let hi = self.in_offsets[v + 1];
        NeighborIter {
            sources: &self.in_sources[lo..hi],
            edge_ids: &self.in_edge_ids[lo..hi],
            pos: 0,
        }
    }

    /// Range of forward edge ids leaving `v` (edge id `i` targets
    /// `out_targets[i]`).
    #[inline]
    pub fn out_edge_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.out_offsets[v]..self.out_offsets[v + 1]
    }

    /// Forward edge target by edge id.
    #[inline]
    pub fn edge_target(&self, edge_id: usize) -> NodeId {
        self.out_targets[edge_id]
    }

    /// Iterate over all `(src, dst)` edges in forward-edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes).flat_map(move |v| {
            self.out_edge_range(v as NodeId).map(move |eid| (v as NodeId, self.out_targets[eid]))
        })
    }

    /// All vertices as an iterator of `NodeId`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes as NodeId).collect::<Vec<_>>().into_iter()
    }

    /// The transposed graph (every edge reversed).
    pub fn transpose(&self) -> CsrGraph {
        let mut el = EdgeList::with_capacity(self.num_nodes, self.num_edges());
        for (s, d) in self.edges() {
            el.push(d, s);
        }
        el.ensure_nodes(self.num_nodes);
        CsrGraph::from_edge_list(&el)
    }

    /// This graph with the forward edges `deleted` removed and `inserted`
    /// added, together with `per_edge` (a payload in forward-edge-id order,
    /// such as the weights) carried along the same way.
    ///
    /// Both adjacency directions are spliced, not rebuilt: the runs between
    /// touched vertices are copied whole, so the cost is O(n + m) sequential
    /// copying plus work proportional to the touched vertices' lists.
    ///
    /// * A touched source keeps its surviving out-edges in their old order,
    ///   followed by its insertions in `inserted` order.
    /// * A touched destination keeps its surviving in-edges in their old
    ///   scan order, followed by its insertions in `inserted` order.
    /// * The forward ids of a source without deletions shift by one
    ///   per-source constant; only a source that lost an edge (at most
    ///   `deleted.len()` of them) renumbers edge by edge.
    ///
    /// `deleted` must be strictly ascending forward edge ids, and `inserted`
    /// must name vertices below `num_nodes`.
    pub(crate) fn spliced<T: Copy>(
        &self,
        deleted: &[usize],
        inserted: &[(NodeId, NodeId, T)],
        per_edge: &[T],
    ) -> (CsrGraph, Vec<T>) {
        let n = self.num_nodes;
        assert!(deleted.windows(2).all(|w| w[0] < w[1]), "deleted ids must be strictly ascending");
        assert_eq!(per_edge.len(), self.num_edges());
        let m = self.num_edges() - deleted.len() + inserted.len();

        // Source of each deleted edge (ascending, as the ids are), and the
        // insertions ordered by source and by destination, each stable so
        // that one vertex's insertions stay in `inserted` order.
        let deleted_sources: Vec<usize> =
            deleted.iter().map(|&id| self.out_offsets.partition_point(|&o| o <= id) - 1).collect();
        let mut by_source: Vec<usize> = (0..inserted.len()).collect();
        by_source.sort_by_key(|&i| inserted[i].0);
        let mut by_dest: Vec<usize> = (0..inserted.len()).collect();
        by_dest.sort_by_key(|&i| inserted[i].1);

        // Forward side. `d` and `i` count the deletions and insertions at
        // the sources already passed, so an untouched source's new offset
        // is its old one plus `i - d`.
        let mut touched: Vec<usize> = deleted_sources.clone();
        touched.extend(inserted.iter().map(|&(s, _, _)| s as usize));
        touched.sort_unstable();
        touched.dedup();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(m);
        let mut payload = Vec::with_capacity(m);
        let mut inserted_ids = vec![0usize; inserted.len()];
        let (mut d, mut i, mut next_vertex, mut next_edge) = (0, 0, 0, 0);
        for s in touched.into_iter().chain([n]) {
            out_offsets.extend(self.out_offsets[next_vertex..s].iter().map(|&o| o + i - d));
            let run = next_edge..self.out_offsets[s];
            out_targets.extend_from_slice(&self.out_targets[run.clone()]);
            payload.extend_from_slice(&per_edge[run]);
            out_offsets.push(out_targets.len());
            if s == n {
                break;
            }
            let old = self.out_edge_range(s as NodeId);
            for id in old.clone() {
                if deleted.get(d) == Some(&id) {
                    d += 1;
                } else {
                    out_targets.push(self.out_targets[id]);
                    payload.push(per_edge[id]);
                }
            }
            while let Some(&k) = by_source.get(i).filter(|&&k| inserted[k].0 as usize == s) {
                inserted_ids[k] = out_targets.len();
                out_targets.push(inserted[k].1);
                payload.push(inserted[k].2);
                i += 1;
            }
            (next_vertex, next_edge) = (s + 1, old.end);
        }

        // The new forward id of a surviving edge `id` leaving `src`: its old
        // id plus the source's shift, one read of one array per edge. A
        // source that lost an edge is marked `LOST` instead and also closes
        // the gaps its deletions left below `id`.
        const LOST: isize = isize::MIN;
        let mut shift: Vec<isize> = out_offsets[..n]
            .iter()
            .zip(&self.out_offsets)
            .map(|(&new, &old)| new as isize - old as isize)
            .collect();
        for &s in &deleted_sources {
            shift[s] = LOST;
        }
        let renumber = |src: NodeId, id: usize| match shift[src as usize] {
            LOST => {
                let (old, new) = (self.out_offsets[src as usize], out_offsets[src as usize]);
                let below = |x: usize| deleted.partition_point(|&e| e < x);
                new + (id - old) - (below(id) - below(old))
            }
            shift => id.wrapping_add_signed(shift),
        };

        // Reverse side, by the same walk over destinations; a survivor's
        // edge id is renumbered, an insertion's is the one assigned above.
        let mut touched: Vec<usize> =
            deleted.iter().map(|&id| self.out_targets[id] as usize).collect();
        touched.extend(inserted.iter().map(|&(_, t, _)| t as usize));
        touched.sort_unstable();
        touched.dedup();
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        let mut in_edge_ids = Vec::with_capacity(m);
        let (mut d, mut i, mut next_vertex, mut next_slot) = (0, 0, 0, 0);
        for v in touched.into_iter().chain([n]) {
            in_offsets.extend(self.in_offsets[next_vertex..v].iter().map(|&o| o + i - d));
            let run = next_slot..self.in_offsets[v];
            let (sources, ids) = (&self.in_sources[run.clone()], &self.in_edge_ids[run]);
            in_sources.extend_from_slice(sources);
            in_edge_ids.extend(sources.iter().zip(ids).map(|(&u, &id)| renumber(u, id)));
            in_offsets.push(in_sources.len());
            if v == n {
                break;
            }
            let old = self.in_offsets[v]..self.in_offsets[v + 1];
            let (sources, ids) = (&self.in_sources[old.clone()], &self.in_edge_ids[old.clone()]);
            for (&u, &id) in sources.iter().zip(ids) {
                if deleted.binary_search(&id).is_ok() {
                    d += 1;
                } else {
                    in_sources.push(u);
                    in_edge_ids.push(renumber(u, id));
                }
            }
            while let Some(&k) = by_dest.get(i).filter(|&&k| inserted[k].1 as usize == v) {
                in_sources.push(inserted[k].0);
                in_edge_ids.push(inserted_ids[k]);
                i += 1;
            }
            (next_vertex, next_slot) = (v + 1, old.end);
        }

        let graph = CsrGraph {
            num_nodes: n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
        };
        (graph, payload)
    }

    /// Rough heap footprint in bytes (offsets + adjacency arrays).
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<NodeId>()
            + self.in_sources.len() * std::mem::size_of::<NodeId>()
            + self.in_edge_ids.len() * std::mem::size_of::<usize>()
    }
}

/// Iterator over `(in-neighbor, forward edge id)` pairs.
pub struct NeighborIter<'a> {
    sources: &'a [NodeId],
    edge_ids: &'a [usize],
    pos: usize,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = (NodeId, usize);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.sources.len() {
            let item = (self.sources[self.pos], self.edge_ids[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.sources.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for NeighborIter<'a> {}

fn prefix_sum(degrees: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in degrees {
        acc += d;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        // 0 -> 1, 1 -> 2, 2 -> 0, 0 -> 2
        CsrGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.in_degree(0), 1);

        let mut n0: Vec<_> = g.out_neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);

        let mut in2: Vec<_> = g.in_neighbors(2).to_vec();
        in2.sort_unstable();
        assert_eq!(in2, vec![0, 1]);
    }

    #[test]
    fn in_edge_ids_map_back_to_forward_edges() {
        let g = triangle();
        for v in 0..3u32 {
            for (u, eid) in g.in_neighbors_with_edge_ids(v) {
                // forward edge eid must be u -> v
                assert_eq!(g.edge_target(eid), v);
                // and its source must have eid within its out range
                assert!(g.out_edge_range(u).contains(&eid));
            }
        }
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = triangle();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    fn transpose_reverses_all_edges() {
        let g = triangle();
        let t = g.transpose();
        assert_eq!(t.num_nodes(), g.num_nodes());
        assert_eq!(t.num_edges(), g.num_edges());
        let mut orig: Vec<_> = g.edges().map(|(s, d)| (d, s)).collect();
        orig.sort_unstable();
        let mut rev: Vec<_> = t.edges().collect();
        rev.sort_unstable();
        assert_eq!(orig, rev);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = CsrGraph::from_edges(2, vec![(0, 5)]);
        assert!(matches!(err, Err(GraphError::NodeOutOfRange { .. })));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(4, std::iter::empty()).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
        for v in 0..4u32 {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
            assert!(g.out_neighbors(v).is_empty());
        }
    }

    #[test]
    fn isolated_vertices_are_preserved() {
        let g = CsrGraph::from_edges(10, vec![(0, 1)]).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn memory_bytes_is_positive_and_scales() {
        let small = CsrGraph::from_edges(3, vec![(0, 1)]).unwrap();
        let large = CsrGraph::from_edges(1000, (0..999u32).map(|i| (i, i + 1))).unwrap();
        assert!(small.memory_bytes() > 0);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn neighbor_iter_is_exact_size() {
        let g = triangle();
        let it = g.in_neighbors_with_edge_ids(2);
        assert_eq!(it.len(), 2);
        assert_eq!(it.count(), 2);
    }

    #[test]
    fn self_loops_and_duplicates_are_kept_verbatim() {
        let mut el = EdgeList::with_nodes(2);
        el.push(0, 0);
        el.push(0, 1);
        el.push(0, 1);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(1), 2);
    }
}
