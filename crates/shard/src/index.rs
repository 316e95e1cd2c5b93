//! The range-sharded sketch index.
//!
//! A [`ShardedIndex`] is a [`SketchIndex`] plus a shard map. The **base**
//! owns everything there is to own — the metadata, the sampling provenance
//! and the global postings (under `--mmap` the mapped sections themselves) —
//! and the map is one [`ShardSegment`] per contiguous **RRR-set range**:
//! where the range starts, how many sets it holds and how many postings
//! entries they add up to, counted off the global postings. Nothing is
//! built per shard here, so partitioning an index, cloning a sharded index
//! and comparing two of them cost the map, not the sets.
//!
//! Incremental refresh is the base's ([`SketchIndex::apply_delta`], over the
//! workspace's one refresh driver: invalidate by the coins, resample from the
//! sets' own keys, patch the global postings); the next generation is the
//! refreshed base under the same ranges, re-weighed.

use crate::segment::ShardSegment;
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::{Postings, RrrCollection};
use imm_service::{
    DynamicError, IndexError, IndexMeta, RefreshStats, SketchIndex, SketchProvenance,
};
use std::sync::Arc;

/// The near-equal contiguous partition of `theta` sets into `shards` ranges
/// (clamped to at least one), as `(start, len)` pairs tiling `[0, theta)` in
/// order.
fn shard_ranges(theta: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    (0..shards)
        .map(|i| {
            let start = i * theta / shards;
            (start, (i + 1) * theta / shards - start)
        })
        .collect()
}

/// A sketch index partitioned into contiguous set-range shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIndex {
    /// The one owner of the metadata, provenance and global postings.
    base: Arc<SketchIndex>,
    segments: Vec<ShardSegment>,
}

impl ShardedIndex {
    /// Partition a built [`SketchIndex`] into `shards` near-equal contiguous
    /// set ranges. The index is kept whole as the base —
    /// nothing is cloned or rebuilt, so this cannot fail; the `Result` is the
    /// shape the crate's other constructors share.
    pub fn from_index(index: SketchIndex, shards: usize) -> Result<Self, IndexError> {
        let ranges = shard_ranges(index.num_sets(), shards);
        Ok(Self::from_ranges(Arc::new(index), &ranges))
    }

    /// Index raw components ([`SketchIndex::from_collection_with_provenance`])
    /// and partition the result into `shards` near-equal contiguous ranges.
    pub fn from_parts(
        collection: RrrCollection,
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
        shards: usize,
    ) -> Result<Self, IndexError> {
        let base = SketchIndex::from_collection_with_provenance(collection, meta, provenance)?;
        Self::from_index(base, shards)
    }

    /// Lay explicit contiguous ranges over `base` (a rollout keeps the
    /// previous generation's) and weigh them off its postings. Ranges must
    /// tile `[0, θ)` in order.
    fn from_ranges(base: Arc<SketchIndex>, ranges: &[(usize, usize)]) -> Self {
        let mut cursor = 0usize;
        for &(start, len) in ranges {
            assert_eq!(start, cursor, "shard ranges must tile the set space in order");
            cursor += len;
        }
        assert_eq!(cursor, base.num_sets(), "shard ranges must cover every set");
        let segments = ShardSegment::weigh(base.postings(), ranges);
        ShardedIndex { base, segments }
    }

    /// The single index this one was partitioned from, handed back as it is
    /// held (nothing is rebuilt; copied only if another holder shares it).
    pub fn into_index(self) -> SketchIndex {
        Arc::unwrap_or_clone(self.base)
    }

    /// The base index: the metadata, provenance and global postings.
    #[inline]
    pub fn base(&self) -> &Arc<SketchIndex> {
        &self.base
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.segments.len()
    }

    /// The shard map, in set-range order.
    #[inline]
    pub fn segments(&self) -> &[ShardSegment] {
        &self.segments
    }

    /// Number of vertices of the indexed vertex space.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Number of indexed RRR sets (θ, across all shards).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.base.num_sets()
    }

    /// The postings over **all** sets (ids global) — the base's, and the
    /// only postings the index holds: what every Top-K, every invalidation,
    /// every admission price and every Spread/Marginal walk.
    #[inline]
    pub fn global_postings(&self) -> &Arc<Postings> {
        self.base.postings()
    }

    /// Provenance metadata.
    #[inline]
    pub fn meta(&self) -> &IndexMeta {
        self.base.meta()
    }

    /// Sampling provenance (present when the source index was dynamic, which
    /// is when `rebuilt_with_delta` is available).
    #[inline]
    pub fn provenance(&self) -> Option<&SketchProvenance> {
        self.base.provenance()
    }

    /// Bytes of the base's global postings; the shard map adds nothing worth
    /// counting.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes()
    }

    /// Build the *replacement* index for a rolling refresh, leaving `self`
    /// untouched: refresh a copy of the base ([`SketchIndex::apply_delta`])
    /// and lay the same ranges over it, handing it back alongside the
    /// mutated graph pair and stats. The result equals
    /// `ShardedIndex::from_index` over the single-index refresh of the same
    /// delta, and with it a from-scratch `SketchIndex::sample` over the
    /// mutated pair; when nothing was resampled it shares the global
    /// postings with `self` by pointer.
    ///
    /// This is the graceful-rollout lever for a serving daemon: queries keep
    /// running over the old index while the replacement is assembled off to
    /// the side, and the swap is one pointer store.
    pub fn rebuilt_with_delta(
        &self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(Self, CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        let mut base = SketchIndex::clone(&self.base);
        let (new_graph, new_weights, stats) = base.apply_delta(graph, weights, delta)?;
        let ranges: Vec<(usize, usize)> =
            self.segments.iter().map(|s| (s.start(), s.len())).collect();
        Ok((Self::from_ranges(Arc::new(base), &ranges), new_graph, new_weights, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{AdaptivePolicy, NodeId};

    fn collection(num_nodes: usize, sets: &[&[NodeId]]) -> RrrCollection {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push_vertices(s.to_vec(), &AdaptivePolicy::always_sorted());
        }
        c
    }

    #[test]
    fn ranges_tile_the_set_space_for_any_shard_count() {
        let c = collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3]]);
        for shards in 1..=10 {
            let index =
                ShardedIndex::from_parts(c.clone(), IndexMeta::default(), None, shards).unwrap();
            assert_eq!(index.num_shards(), shards);
            assert_eq!(index.segments().iter().map(|s| s.len()).sum::<usize>(), 7);
            let mut cursor = 0;
            for (s, seg) in index.segments().iter().enumerate() {
                assert_eq!(seg.start(), cursor, "shard {s}");
                cursor += seg.len();
            }
            assert_eq!(cursor, 7);
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let c = collection(4, &[&[0], &[1]]);
        let index = ShardedIndex::from_parts(c, IndexMeta::default(), None, 0).unwrap();
        assert_eq!(index.num_shards(), 1);
    }

    #[test]
    fn into_index_round_trips_through_from_index() {
        let c = collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4]]);
        let single = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
        let sharded = ShardedIndex::from_index(single.clone(), 3).unwrap();
        assert_eq!(sharded.num_sets(), 4);
        assert_eq!(sharded.into_index(), single);
    }

    #[test]
    fn static_indexes_refuse_a_rollout() {
        let c = collection(4, &[&[0], &[1]]);
        let index = ShardedIndex::from_parts(c, IndexMeta::default(), None, 2).unwrap();
        let graph = imm_graph::CsrGraph::from_edge_list(&imm_graph::EdgeList::from_pairs(
            4,
            [(0, 1), (1, 2)],
        ));
        let weights = EdgeWeights::constant(&graph, 0.1);
        assert!(matches!(
            index.rebuilt_with_delta(&graph, &weights, &GraphDelta::new()),
            Err(DynamicError::NotDynamic)
        ));
    }
}
