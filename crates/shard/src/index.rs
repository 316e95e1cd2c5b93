//! The range-sharded sketch index.
//!
//! A [`ShardedIndex`] is a [`SketchIndex`] plus a shard map: the **base**
//! owns the collection (one shared arena — a shard's sets are a
//! span-directory slice over it, never a copy), the metadata, the sampling
//! provenance and the global postings (local ids = global ids; under
//! `--mmap` the mapped section itself), and next to it sit the
//! [`ShardSegment`]s, one per contiguous **RRR-set range**. What is per
//! shard is the counting structure: each segment carries its own
//! vertex-adaptive postings over its range, so Spread/Marginal marking
//! scatters across shard workers (see [`crate::ShardedEngine`]), while Top-K
//! and invalidation read the base's global postings.
//!
//! Incremental refresh is the base's ([`SketchIndex::refresh`], the
//! workspace's one refresh driver: invalidate by the coins, resample from
//! the sets' own keys, patch the global postings); the sharded index then
//! rebuilds only the segments owning a resampled set — untouched shards keep
//! their structures by pointer.

use crate::segment::ShardSegment;
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::{Postings, PostingsStats, RrrCollection};
use imm_service::{
    DynamicError, IndexError, IndexMeta, RefreshStats, SketchIndex, SketchProvenance,
};
use std::sync::Arc;

/// A sketch index partitioned into contiguous set-range shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIndex {
    /// The one owner of the sets, metadata, provenance and global postings.
    base: SketchIndex,
    segments: Vec<Arc<ShardSegment>>,
}

impl ShardedIndex {
    /// Partition a built [`SketchIndex`] into `shards` near-equal contiguous
    /// ranges (clamped to at least one shard). The index is kept whole as
    /// the base — nothing is cloned or rebuilt; only the segments are built.
    pub fn from_index(index: SketchIndex, shards: usize) -> Result<Self, IndexError> {
        let theta = index.num_sets();
        let shards = shards.max(1);
        let ranges: Vec<(usize, usize)> = (0..shards)
            .map(|i| {
                let start = i * theta / shards;
                let end = (i + 1) * theta / shards;
                (start, end - start)
            })
            .collect();
        Self::from_ranges(index, &ranges)
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

    /// Build over explicit contiguous ranges (shard-file reassembly keeps
    /// each file's range as one shard). Ranges must tile `[0, θ)` in order.
    pub(crate) fn from_ranges(
        base: SketchIndex,
        ranges: &[(usize, usize)],
    ) -> Result<Self, IndexError> {
        let mut cursor = 0usize;
        for &(start, len) in ranges {
            assert_eq!(start, cursor, "shard ranges must tile the set space in order");
            cursor += len;
        }
        assert_eq!(cursor, base.num_sets(), "shard ranges must cover every set");

        // Scatter the segment builds across worker threads — each shard's
        // postings pass is independent of every other's.
        let mut built: Vec<Option<Result<ShardSegment, IndexError>>> = Vec::new();
        built.resize_with(ranges.len(), || None);
        rayon::scope(|scope| {
            for (&(start, len), slot) in ranges.iter().zip(built.iter_mut()) {
                let collection = base.sets();
                scope.spawn(move |_| {
                    *slot = Some(ShardSegment::build(collection, start, len));
                });
            }
        });
        let segments = built
            .into_iter()
            .map(|slot| slot.expect("every segment is built by its worker").map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedIndex { base, segments })
    }

    /// The single index this one was partitioned from, handed back as it is
    /// held (nothing is rebuilt).
    pub fn into_index(self) -> SketchIndex {
        self.base
    }

    /// The base index: the sets, metadata, provenance and global postings.
    #[inline]
    pub fn base(&self) -> &SketchIndex {
        &self.base
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.segments.len()
    }

    /// The shard segments, in set-range order.
    #[inline]
    pub fn segments(&self) -> &[Arc<ShardSegment>] {
        &self.segments
    }

    /// The shared collection the shards view.
    #[inline]
    pub fn collection(&self) -> &RrrCollection {
        self.base.sets()
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

    /// The postings over **all** sets (ids global) — the base's: what every
    /// Top-K and every invalidation walks, one structure per vertex instead
    /// of one per shard.
    #[inline]
    pub fn global_postings(&self) -> &Arc<Postings> {
        self.base.postings()
    }

    /// Provenance metadata.
    #[inline]
    pub fn meta(&self) -> &IndexMeta {
        self.base.meta()
    }

    /// Sampling provenance (present when the source index was dynamic).
    #[inline]
    pub fn provenance(&self) -> Option<&SketchProvenance> {
        self.base.provenance()
    }

    /// Whether `apply_delta` is available.
    #[inline]
    pub fn is_dynamic(&self) -> bool {
        self.base.is_dynamic()
    }

    /// Which shard owns global set `sid` (the shard map).
    #[inline]
    pub fn shard_of(&self, sid: usize) -> usize {
        debug_assert!(sid < self.num_sets());
        // Ranges are contiguous and ordered: the owner is the last segment
        // starting at or before `sid`.
        self.segments.partition_point(|seg| seg.start() <= sid) - 1
    }

    /// Row vertices, list entries and bytes of the shards' postings, summed
    /// over the shards.
    pub fn postings_stats(&self) -> PostingsStats {
        let mut total = PostingsStats::default();
        for segment in &self.segments {
            total += segment.postings().stats();
        }
        total
    }

    /// Heap bytes: the base (collection and global postings) and every
    /// shard's own structures.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes() + self.segments.iter().map(|s| s.memory_bytes()).sum::<usize>()
    }

    /// Build the *replacement* index for a rolling refresh, leaving `self`
    /// untouched: clone, apply the delta to the clone, and hand back the
    /// refreshed index alongside the mutated graph pair and stats.
    ///
    /// Because dirty-shard rebuild swaps in new `Arc<ShardSegment>`s and
    /// leaves clean shards alone, the clone **shares every clean shard's
    /// segment** with the original (and, when nothing was resampled, the
    /// global postings too) — this is the graceful-rollout lever for a
    /// serving daemon: queries keep scattering over the old index while the
    /// replacement is assembled off to the side, and the swap is one pointer
    /// store.
    pub fn rebuilt_with_delta(
        &self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(Self, CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        let mut next = self.clone();
        let (new_graph, new_weights, stats) = next.apply_delta(graph, weights, delta)?;
        Ok((next, new_graph, new_weights, stats))
    }

    /// Refresh the sharded index against `delta`: refresh the base
    /// ([`SketchIndex::refresh`]), then rebuild the segments owning a set it
    /// resampled. The result equals `ShardedIndex::from_index` over the
    /// single-index refresh of the same delta, and with it a from-scratch
    /// `SketchIndex::sample` over the mutated pair. On an error the index is
    /// untouched.
    pub fn apply_delta(
        &mut self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        let (new_graph, new_weights, stats, resampled) =
            self.base.refresh(graph, weights, delta)?;
        // Ascending ids map to ascending shards: the owners, each once.
        let mut stale: Vec<usize> = resampled.iter().map(|&sid| self.shard_of(sid)).collect();
        stale.dedup();
        for shard in stale {
            let (start, len) = (self.segments[shard].start(), self.segments[shard].len());
            self.segments[shard] = Arc::new(
                ShardSegment::build(self.base.sets(), start, len)
                    .expect("resampled sets stay inside the vertex space"),
            );
        }
        Ok((new_graph, new_weights, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{NodeId, RrrSet};

    fn collection(num_nodes: usize, sets: &[&[NodeId]]) -> RrrCollection {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
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
            for sid in 0..7 {
                let owner = index.shard_of(sid);
                assert!(index.segments()[owner].range().contains(&sid));
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let c = collection(4, &[&[0], &[1]]);
        let index = ShardedIndex::from_parts(c, IndexMeta::default(), None, 0).unwrap();
        assert_eq!(index.num_shards(), 1);
    }

    #[test]
    fn misaligned_provenance_is_rejected() {
        let c = collection(4, &[&[0], &[1]]);
        let p = SketchProvenance {
            spec: imm_service::SampleSpec::new(
                imm_diffusion::DiffusionModel::IndependentCascade,
                1,
            ),
            sets: Vec::new(),
            delta_log: Vec::new(),
        };
        assert_eq!(
            ShardedIndex::from_parts(c, IndexMeta::default(), Some(p), 2),
            Err(IndexError::ProvenanceMismatch { sets: 2, records: 0 })
        );
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
    fn static_indexes_refuse_apply_delta() {
        let c = collection(4, &[&[0], &[1]]);
        let mut index = ShardedIndex::from_parts(c, IndexMeta::default(), None, 2).unwrap();
        let graph = imm_graph::CsrGraph::from_edge_list(&imm_graph::EdgeList::from_pairs(
            4,
            [(0, 1), (1, 2)],
        ));
        let weights = EdgeWeights::constant(&graph, 0.1);
        assert!(matches!(
            index.apply_delta(&graph, &weights, &GraphDelta::new()),
            Err(DynamicError::NotDynamic)
        ));
    }
}
