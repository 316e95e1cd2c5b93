//! The range-sharded sketch index.
//!
//! A [`ShardedIndex`] partitions one sampled collection by **RRR-set range**
//! into [`ShardSegment`]s. The collection itself stays whole (one shared
//! arena — a shard's sets are a span-directory slice over it, never a copy);
//! what is per shard is the serving structure: each segment carries its own
//! vertex-adaptive postings and occurrence counts, so counting work scatters
//! across shard workers (see [`crate::ShardedEngine`]). Next to the shards
//! the index keeps the **global** postings (local ids = global ids) an
//! engine without workers walks instead: adopted from the `SketchIndex` it
//! was partitioned from — under `--mmap` that is the mapped section itself —
//! or built on first use, never re-merged from the segments.
//!
//! Incremental refresh (PR 3's `apply_delta`) routes through the shard map:
//! invalidation walks the per-shard postings, the touched sets are resampled
//! from their own keys exactly as the single-index path does,
//! and only the segments owning a resampled set rebuild their postings —
//! untouched shards keep their structures byte-for-byte — while the global
//! postings, where materialized, are patched by the changed memberships.

use crate::segment::ShardSegment;
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::{Postings, PostingsStats, RrrCollection};
use imm_service::{
    DeltaLogEntry, DynamicError, IndexError, IndexMeta, RefreshStats, SketchIndex, SketchProvenance,
};
use std::sync::{Arc, OnceLock};

/// A sketch index partitioned into contiguous set-range shards.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    collection: RrrCollection,
    meta: IndexMeta,
    provenance: Option<SketchProvenance>,
    segments: Vec<Arc<ShardSegment>>,
    /// Postings over all sets; see [`ShardedIndex::global_postings`].
    global: OnceLock<Arc<Postings>>,
}

/// The global postings are derived from the collection: whether they have
/// been materialized is not part of an index's identity.
impl PartialEq for ShardedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.collection == other.collection
            && self.meta == other.meta
            && self.provenance == other.provenance
            && self.segments == other.segments
    }
}

impl ShardedIndex {
    /// Partition a built [`SketchIndex`] into `shards` near-equal contiguous
    /// ranges. The collection and provenance move over without cloning, and
    /// the single index's postings stay on as the global postings.
    pub fn from_index(index: SketchIndex, shards: usize) -> Result<Self, IndexError> {
        let (collection, meta, provenance, postings) = index.into_parts();
        let sharded = Self::from_parts(collection, meta, provenance, shards)?;
        sharded.global.set(postings).expect("a fresh index has no global postings yet");
        Ok(sharded)
    }

    /// Partition raw index components into `shards` near-equal contiguous
    /// ranges (clamped to at least one shard).
    pub fn from_parts(
        collection: RrrCollection,
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
        shards: usize,
    ) -> Result<Self, IndexError> {
        let theta = collection.len();
        let shards = shards.max(1);
        let ranges: Vec<(usize, usize)> = (0..shards)
            .map(|i| {
                let start = i * theta / shards;
                let end = (i + 1) * theta / shards;
                (start, end - start)
            })
            .collect();
        Self::from_ranges(collection, meta, provenance, &ranges)
    }

    /// Build over explicit contiguous ranges (shard-file reassembly keeps
    /// each file's range as one shard). Ranges must tile `[0, θ)` in order.
    pub(crate) fn from_ranges(
        collection: RrrCollection,
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
        ranges: &[(usize, usize)],
    ) -> Result<Self, IndexError> {
        if u32::try_from(collection.len()).is_err() {
            return Err(IndexError::TooManySets(collection.len()));
        }
        if let Some(p) = &provenance {
            if p.sets.len() != collection.len() {
                return Err(IndexError::ProvenanceMismatch {
                    sets: collection.len(),
                    records: p.sets.len(),
                });
            }
        }
        let mut cursor = 0usize;
        for &(start, len) in ranges {
            assert_eq!(start, cursor, "shard ranges must tile the set space in order");
            cursor += len;
        }
        assert_eq!(cursor, collection.len(), "shard ranges must cover every set");

        // Scatter the segment builds across worker threads — each shard's
        // postings pass is independent of every other's.
        let mut built: Vec<Option<Result<ShardSegment, IndexError>>> = Vec::new();
        built.resize_with(ranges.len(), || None);
        rayon::scope(|scope| {
            for (&(start, len), slot) in ranges.iter().zip(built.iter_mut()) {
                let collection = &collection;
                scope.spawn(move |_| {
                    *slot = Some(ShardSegment::build(collection, start, len));
                });
            }
        });
        let segments = built
            .into_iter()
            .map(|slot| slot.expect("every segment is built by its worker").map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedIndex { collection, meta, provenance, segments, global: OnceLock::new() })
    }

    /// Reassemble into a single [`SketchIndex`] (rebuilding its postings).
    pub fn into_index(self) -> Result<SketchIndex, IndexError> {
        SketchIndex::from_collection_with_provenance(self.collection, self.meta, self.provenance)
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
        &self.collection
    }

    /// Number of vertices of the indexed vertex space.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.collection.num_nodes()
    }

    /// Number of indexed RRR sets (θ, across all shards).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.collection.len()
    }

    /// The postings over **all** sets (ids global): what an engine whose
    /// pool has no workers walks, one structure per vertex instead of one per
    /// shard. Adopted from the partitioned `SketchIndex` where there was one,
    /// else built by the first caller; an engine with workers never asks.
    pub fn global_postings(&self) -> &Arc<Postings> {
        self.global.get_or_init(|| {
            let built = Postings::build(&self.collection, 0, self.collection.len());
            Arc::new(built.expect("the segments were built from the same sets"))
        })
    }

    /// Provenance metadata.
    #[inline]
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Sampling provenance (present when the source index was dynamic).
    #[inline]
    pub fn provenance(&self) -> Option<&SketchProvenance> {
        self.provenance.as_ref()
    }

    /// Whether `apply_delta` is available.
    #[inline]
    pub fn is_dynamic(&self) -> bool {
        self.provenance.is_some()
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

    /// Heap bytes: shared collection, every shard's own structures, and the
    /// global postings where materialized.
    pub fn memory_bytes(&self) -> usize {
        self.collection.memory_bytes()
            + self.segments.iter().map(|s| s.memory_bytes()).sum::<usize>()
            + self.global.get().map_or(0, |global| global.stats().bytes())
    }

    /// Build the *replacement* index for a rolling refresh, leaving `self`
    /// untouched: clone, apply the delta to the clone, and hand back the
    /// refreshed index alongside the mutated graph pair and stats.
    ///
    /// Because dirty-shard rebuild swaps in new `Arc<ShardSegment>`s and
    /// leaves clean shards alone, the clone **shares every clean shard's
    /// segment** with the original — this is the graceful-rollout lever
    /// for a serving daemon: queries keep scattering over the old index
    /// while the replacement is assembled off to the side, and the swap
    /// is one pointer store.
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

    /// Refresh the sharded index against `delta` — the shard-routed mirror
    /// of [`SketchIndex::apply_delta`].
    ///
    /// Invalidation walks the per-shard postings through the same coin
    /// predicate, the invalidated sets are resampled from their own keys
    /// `(rng_seed, set_index)` on the mutated graph, and then only the
    /// shards owning a resampled set rebuild their postings. The
    /// refreshed index is byte-identical to a from-scratch
    /// `SketchIndex::sample` + `ShardedIndex::from_index` over the mutated
    /// pair — the shard parity suite pins this against the single-index
    /// refresh path.
    pub fn apply_delta(
        &mut self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        let provenance = self.provenance.as_ref().ok_or(DynamicError::NotDynamic)?;
        if graph.num_nodes() != self.num_nodes() || graph.num_edges() != self.meta.num_edges {
            return Err(DynamicError::GraphMismatch {
                expected: (self.num_nodes(), self.meta.num_edges),
                found: (graph.num_nodes(), graph.num_edges()),
            });
        }
        let (new_graph, new_weights) = delta.apply(graph, weights)?;

        // Invalidate through the shard map — same shared predicate as the
        // single-index path, with each shard's postings answering "which of
        // *your* sets contain the touched destination" — then resample the
        // invalidated sets from their own keys.
        let invalid_ids = imm_service::invalidated_sets(
            delta,
            (graph, weights),
            (&new_graph, &new_weights),
            provenance.spec,
            &self.collection,
            |v, sink| {
                for seg in &self.segments {
                    seg.postings().for_each(v, |lsid| sink(seg.start() + lsid as usize));
                }
            },
        );
        let changed =
            imm_service::resample_sets(provenance.spec, &invalid_ids, &new_graph, &new_weights);

        let stats = RefreshStats {
            total_sets: self.num_sets(),
            resampled_sets: changed.len(),
            inserted_edges: delta.insertions().len(),
            deleted_edges: delta.deletions().len(),
            reweighted_edges: delta.reweights().len(),
            num_edges_after: new_graph.num_edges(),
        };

        // Patch: the global postings by the memberships that changed, then
        // swap the resampled sets into the shared collection and rebuild
        // postings only for the shards that own one.
        if let Some(global) = self.global.get_mut() {
            let edits = imm_rrr::membership_edits(&self.collection, &changed);
            *global = Arc::new(global.patched(&edits));
        }
        let mut dirty = vec![false; self.segments.len()];
        for (sid, set) in changed {
            dirty[self.shard_of(sid)] = true;
            self.collection.replace(sid, set);
        }
        self.provenance.as_mut().expect("checked above").delta_log.push(DeltaLogEntry {
            delta: delta.clone(),
            resampled_sets: stats.resampled_sets as u64,
        });
        for (s, is_dirty) in dirty.iter().enumerate() {
            if *is_dirty {
                let (start, len) = (self.segments[s].start(), self.segments[s].len());
                self.segments[s] = Arc::new(
                    ShardSegment::build(&self.collection, start, len)
                        .expect("resampled sets stay inside the vertex space"),
                );
            }
        }
        self.meta.num_edges = new_graph.num_edges();

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
        assert_eq!(sharded.into_index().unwrap(), single);
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
