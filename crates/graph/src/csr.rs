//! Compressed-sparse-row graph: the reverse (in-edge) adjacency.
//!
//! The reverse adjacency is what the reverse-influence-sampling kernels
//! traverse: a random reverse-reachable set rooted at `v` follows in-edges
//! of `v`. It is the only adjacency a [`CsrGraph`] stores, and per-edge data
//! is stored per **in-slot**, parallel to the in-sources, so a kernel reads
//! an in-list and its weights as two slices with no id indirection. The few
//! forward consumers (forward cascade simulation, out-degree statistics)
//! build one [`CsrGraph::transpose_with_slots`] instead. Ripples and
//! EfficientIMM both keep the CSR immutable and shared across all worker
//! threads, so [`CsrGraph`] is `Send + Sync` and all accessors take `&self`.

use crate::edge_list::{Edge, EdgeList};
use crate::partition::{block_ranges, map_scoped, split_parts};
use crate::{GraphError, NodeId};
use std::ops::Range;

/// Immutable directed graph in CSR form: `in_offsets`/`in_sources` is the
/// reverse adjacency, and in-slot `i` is the edge `in_sources[i] -> v` for
/// the `v` whose range `in_offsets[v]..in_offsets[v + 1]` holds `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    num_nodes: usize,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
}

impl CsrGraph {
    /// Build a CSR graph from an edge list.
    ///
    /// Self-loops and duplicate edges are kept as-is (callers should clean the
    /// [`EdgeList`] first if they matter); edges referencing out-of-range
    /// vertices cannot occur because `EdgeList` grows its node count. Each
    /// in-list holds its edges in edge-list order.
    pub fn from_edge_list(edge_list: &EdgeList) -> Self {
        CsrGraph::from_edge_list_with(edge_list, &vec![(); edge_list.num_edges()]).0
    }

    /// [`from_edge_list`](CsrGraph::from_edge_list), carrying `per_edge` (a
    /// payload in edge-list order, such as a file's weight column) to the
    /// in-slot order of the returned graph.
    ///
    /// The destinations are split into contiguous blocks, one per available
    /// core (`std::thread::available_parallelism`) but none for less than
    /// 1 MiB of edges, so a list under 2 MiB of edges (262 144) is built on
    /// the calling thread. Each block's thread scans the whole edge list
    /// twice: once to count its destinations' in-degrees, and, after one
    /// prefix sum over all blocks, once to scatter its edges' sources and
    /// payload into its own slice of the in-slots. Every block therefore
    /// keeps edge-list order within each in-list, so the result does not
    /// depend on the split. As with the file parse, the split follows the
    /// machine, not `--threads` or `IMM_THREADS`.
    pub fn from_edge_list_with<T: Copy + Default + Send + Sync>(
        edge_list: &EdgeList,
        per_edge: &[T],
    ) -> (Self, Vec<T>) {
        let blocks = split_parts(edge_list.num_edges() * std::mem::size_of::<Edge>());
        CsrGraph::from_edge_list_in_blocks(edge_list, per_edge, blocks)
    }

    /// [`from_edge_list_with`](CsrGraph::from_edge_list_with) over exactly
    /// `blocks` destination blocks.
    pub(crate) fn from_edge_list_in_blocks<T: Copy + Default + Send + Sync>(
        edge_list: &EdgeList,
        per_edge: &[T],
        blocks: usize,
    ) -> (Self, Vec<T>) {
        assert_eq!(per_edge.len(), edge_list.num_edges(), "one payload entry per edge");
        let n = edge_list.num_nodes();
        let edges = edge_list.edges();
        let dests = block_ranges(n, blocks);
        let vertices = || dests.iter().map(|block| block.len());

        // `in_offsets[v + 1]` counts `v`'s in-edges, then holds their first
        // slot and serves as `v`'s cursor: the scatter leaves it at `v`'s
        // end, which is the offset of `v + 1`.
        let mut in_offsets = vec![0usize; n + 1];
        let counts = split_runs(&mut in_offsets[1..], vertices());
        map_scoped(dests.iter().zip(counts), |(block, counts)| {
            for e in edges {
                if let Some(count) = counts.get_mut((e.dst as usize).wrapping_sub(block.start)) {
                    *count += 1;
                }
            }
        });
        let mut first = 0;
        for cursor in &mut in_offsets[1..] {
            (*cursor, first) = (first, first + *cursor);
        }

        // Each block's first slot, and the end of the last.
        let firsts: Vec<usize> = dests
            .iter()
            .map(|block| in_offsets.get(block.start + 1).copied().unwrap_or(first))
            .chain([first])
            .collect();
        let slots = || firsts.windows(2).map(|w| w[1] - w[0]);
        let mut in_sources = vec![0 as NodeId; per_edge.len()];
        let mut payload = vec![T::default(); per_edge.len()];
        let scatters = dests
            .iter()
            .zip(&firsts)
            .zip(split_runs(&mut in_offsets[1..], vertices()))
            .zip(split_runs(&mut in_sources, slots()))
            .zip(split_runs(&mut payload, slots()));
        map_scoped(scatters, |((((block, &base), cursors), sources), block_payload)| {
            for (e, &p) in edges.iter().zip(per_edge) {
                if let Some(at) = cursors.get_mut((e.dst as usize).wrapping_sub(block.start)) {
                    sources[*at - base] = e.src;
                    block_payload[*at - base] = p;
                    *at += 1;
                }
            }
        });
        (CsrGraph { num_nodes: n, in_offsets, in_sources }, payload)
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
        self.in_sources.len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_slots(v).len()
    }

    /// In-neighbors of `v` (sources of edges entering `v`), in scan order.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.in_sources[self.in_slots(v)]
    }

    /// The in-slots of `v`: where its in-edges, and any per-edge data stored
    /// in in-slot order, lie.
    #[inline]
    pub fn in_slots(&self, v: NodeId) -> Range<usize> {
        let v = v as usize;
        self.in_offsets[v]..self.in_offsets[v + 1]
    }

    /// Out-degree of every vertex, counted off the in-sources.
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut degrees = vec![0usize; self.num_nodes];
        for &u in &self.in_sources {
            degrees[u as usize] += 1;
        }
        degrees
    }

    /// Iterate over all `(src, dst)` edges in in-slot order: by destination,
    /// each destination's in-edges in scan order. Per-edge data stored in
    /// in-slot order zips with it.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes as NodeId)
            .flat_map(move |v| self.in_neighbors(v).iter().map(move |&u| (u, v)))
    }

    /// All vertices as an iterator of `NodeId`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes as NodeId).collect::<Vec<_>>().into_iter()
    }

    /// The transposed graph (every edge reversed).
    pub fn transpose(&self) -> CsrGraph {
        self.transpose_with_slots().0
    }

    /// The transposed graph, and for each of its in-slots the in-slot of
    /// `self` that holds the same edge.
    ///
    /// One counting sort of the in-slots by source, walking the destinations
    /// ascending: the transpose's in-list of `u` (the out-list of `u` here)
    /// holds `u`'s destinations ascending, parallel copies in scan order.
    /// For a graph built from an edge list sorted by `(src, dst)` the
    /// returned slots are therefore the edges in edge-list order, which is
    /// the order forward consumers and [`crate::WeightModel::IcUniform`]
    /// read them in.
    pub fn transpose_with_slots(&self) -> (CsrGraph, Vec<usize>) {
        let offsets = prefix_sum(&self.out_degrees());
        let mut sources = vec![0 as NodeId; self.num_edges()];
        let mut slots = vec![0usize; self.num_edges()];
        let mut cursor = offsets.clone();
        for v in 0..self.num_nodes as NodeId {
            for slot in self.in_slots(v) {
                let at = &mut cursor[self.in_sources[slot] as usize];
                sources[*at] = v;
                slots[*at] = slot;
                *at += 1;
            }
        }
        let transposed =
            CsrGraph { num_nodes: self.num_nodes, in_offsets: offsets, in_sources: sources };
        (transposed, slots)
    }

    /// This graph with the in-slots `deleted` removed and `inserted` added,
    /// together with `per_slot` (a payload in in-slot order, such as the
    /// weights) carried along the same way.
    ///
    /// The in-lists are spliced, not rebuilt: the runs between touched
    /// destinations are copied whole, so the cost is O(n + m) sequential
    /// copying plus work proportional to the touched destinations' lists. A
    /// touched destination keeps its surviving in-edges in their old scan
    /// order, followed by its insertions in `inserted` order.
    ///
    /// `deleted` must be strictly ascending in-slots, and `inserted` must
    /// name vertices below `num_nodes`.
    pub(crate) fn spliced<T: Copy>(
        &self,
        deleted: &[usize],
        inserted: &[(NodeId, NodeId, T)],
        per_slot: &[T],
    ) -> (CsrGraph, Vec<T>) {
        let n = self.num_nodes;
        assert!(
            deleted.windows(2).all(|w| w[0] < w[1]),
            "deleted slots must be strictly ascending"
        );
        assert_eq!(per_slot.len(), self.num_edges());
        let m = self.num_edges() - deleted.len() + inserted.len();

        // The insertions ordered by destination, stably so that one
        // destination's insertions stay in `inserted` order.
        let mut by_dest: Vec<usize> = (0..inserted.len()).collect();
        by_dest.sort_by_key(|&i| inserted[i].1);
        let mut touched: Vec<usize> = deleted
            .iter()
            .map(|&slot| self.in_offsets.partition_point(|&o| o <= slot) - 1)
            .collect();
        touched.extend(inserted.iter().map(|&(_, t, _)| t as usize));
        touched.sort_unstable();
        touched.dedup();

        // `d` and `i` count the deletions and insertions at the destinations
        // already passed, so an untouched destination's new offset is its
        // old one plus `i - d`.
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        let mut payload = Vec::with_capacity(m);
        let (mut d, mut i, mut next_vertex, mut next_slot) = (0, 0, 0, 0);
        for v in touched.into_iter().chain([n]) {
            in_offsets.extend(self.in_offsets[next_vertex..v].iter().map(|&o| o + i - d));
            let run = next_slot..self.in_offsets[v];
            in_sources.extend_from_slice(&self.in_sources[run.clone()]);
            payload.extend_from_slice(&per_slot[run]);
            in_offsets.push(in_sources.len());
            if v == n {
                break;
            }
            let old = self.in_slots(v as NodeId);
            for slot in old.clone() {
                if deleted.get(d) == Some(&slot) {
                    d += 1;
                } else {
                    in_sources.push(self.in_sources[slot]);
                    payload.push(per_slot[slot]);
                }
            }
            while let Some(&k) = by_dest.get(i).filter(|&&k| inserted[k].1 as usize == v) {
                in_sources.push(inserted[k].0);
                payload.push(inserted[k].2);
                i += 1;
            }
            (next_vertex, next_slot) = (v + 1, old.end);
        }

        (CsrGraph { num_nodes: n, in_offsets, in_sources }, payload)
    }

    /// Heap footprint in bytes (offsets + in-sources).
    pub fn memory_bytes(&self) -> usize {
        self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.in_sources.len() * std::mem::size_of::<NodeId>()
    }
}

/// `slice` cut into consecutive runs of the given lengths.
fn split_runs<T>(mut slice: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (run, rest) = std::mem::take(&mut slice).split_at_mut(len);
            slice = rest;
            run
        })
        .collect()
}

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
pub(crate) mod tests {
    use super::*;

    /// The one-pass counting sort the block build replaced, kept as the
    /// oracle: count every in-degree, then scatter the edges in list order.
    pub(crate) fn reference_csr<T: Copy + Default>(
        edge_list: &EdgeList,
        per_edge: &[T],
    ) -> (CsrGraph, Vec<T>) {
        let n = edge_list.num_nodes();
        let mut in_deg = vec![0usize; n];
        for (_, d) in edge_list.iter() {
            in_deg[d as usize] += 1;
        }
        let in_offsets = prefix_sum(&in_deg);
        let mut in_sources = vec![0 as NodeId; per_edge.len()];
        let mut payload = vec![T::default(); per_edge.len()];
        let mut cursor = in_offsets.clone();
        for ((s, d), &p) in edge_list.iter().zip(per_edge) {
            let slot = &mut cursor[d as usize];
            in_sources[*slot] = s;
            payload[*slot] = p;
            *slot += 1;
        }
        (CsrGraph { num_nodes: n, in_offsets, in_sources }, payload)
    }

    #[test]
    fn every_block_count_builds_the_reference_graph() {
        // A hub that holds every edge into it, a vertex past the last
        // edge's ids, parallel copies and self-loops.
        let mut el = EdgeList::with_nodes(13);
        for i in 0..40u32 {
            el.push(i % 11, 5);
            el.push(i % 7, (i * 3) % 11);
        }
        el.push(4, 4);
        el.push(4, 4);
        let one_hub = EdgeList::from_pairs(9, (0..30u32).map(|i| (i % 9, 3)));
        for el in [el, one_hub, EdgeList::with_nodes(4), EdgeList::default()] {
            let ids: Vec<usize> = (0..el.num_edges()).collect();
            let want = reference_csr(&el, &ids);
            for blocks in 1..=8 {
                assert_eq!(CsrGraph::from_edge_list_in_blocks(&el, &ids, blocks), want, "{blocks}");
            }
        }
    }

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
        assert_eq!(g.out_degrees(), vec![2, 1, 1]);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.in_degree(0), 1);
        // In-lists hold their edges in edge-list order.
        assert_eq!(g.in_neighbors(2), &[1, 0]);
        assert_eq!(g.in_slots(2), 2..4);
    }

    #[test]
    fn payload_follows_its_edge_into_in_slot_order() {
        let el = EdgeList::from_pairs(3, vec![(0, 1), (1, 2), (2, 0), (0, 2)]);
        let (g, payload) = CsrGraph::from_edge_list_with(&el, &['a', 'b', 'c', 'd']);
        assert_eq!(g, CsrGraph::from_edge_list(&el));
        let tagged: Vec<_> = g.edges().zip(payload).collect();
        assert_eq!(tagged, vec![((2, 0), 'c'), ((0, 1), 'a'), ((1, 2), 'b'), ((0, 2), 'd')]);
    }

    #[test]
    fn transposed_slots_name_the_same_edges_by_source_then_destination() {
        // Parallel copies of 0 -> 2 keep their scan order in the transpose.
        let g = CsrGraph::from_edges(3, vec![(1, 2), (0, 2), (2, 0), (0, 1), (0, 2)]).unwrap();
        let (t, slots) = g.transpose_with_slots();
        let in_slot_edges: Vec<_> = g.edges().collect();
        let walked: Vec<_> = t.edges().zip(&slots).map(|((d, s), &slot)| (s, d, slot)).collect();
        assert_eq!(walked, vec![(0, 1, 1), (0, 2, 3), (0, 2, 4), (1, 2, 2), (2, 0, 0)]);
        for (s, d, slot) in walked {
            assert_eq!(in_slot_edges[slot], (s, d));
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
            assert_eq!(g.in_degree(v), 0);
            assert!(g.in_neighbors(v).is_empty());
        }
    }

    #[test]
    fn isolated_vertices_are_preserved() {
        let g = CsrGraph::from_edges(10, vec![(0, 1)]).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.in_degree(9), 0);
        assert_eq!(g.out_degrees()[9], 0);
    }

    #[test]
    fn memory_bytes_is_positive_and_scales() {
        let small = CsrGraph::from_edges(3, vec![(0, 1)]).unwrap();
        let large = CsrGraph::from_edges(1000, (0..999u32).map(|i| (i, i + 1))).unwrap();
        assert!(small.memory_bytes() > 0);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn self_loops_and_duplicates_are_kept_verbatim() {
        let mut el = EdgeList::with_nodes(2);
        el.push(0, 0);
        el.push(0, 1);
        el.push(0, 1);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degrees()[0], 3);
        assert_eq!(g.in_degree(1), 2);
    }
}
