//! One shard of a range-partitioned sketch index.
//!
//! A [`ShardSegment`] is the serving-side unit of the divide-the-sketches
//! structure: it owns **no set data** — a shard's sets are exactly the
//! contiguous arena range `[start, start + len)` of the shared
//! [`imm_rrr::RrrCollection`], borrowed on demand as a zero-copy
//! [`imm_rrr::CollectionSlice`] — plus its *own* vertex-adaptive
//! [`Postings`] over that range: a vertex in more than `len / 32` of the
//! shard's sets stores a `len`-bit row, the rest ascending lists. Ids are
//! **local** (`0..len`), so a segment's working state (marking bitmaps) is
//! sized to the shard, not to θ, a row ORs straight into it, and a worker
//! thread counting over one shard never touches another shard's structures.

use imm_rrr::{CollectionSlice, Postings, RrrCollection};
use imm_service::IndexError;

/// One shard: a contiguous set range plus its own postings and counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSegment {
    /// Global id of the first set of the range.
    start: usize,
    /// The range's inverted structure (local ids); its length is the
    /// shard's.
    postings: Postings,
}

impl ShardSegment {
    /// Build the segment over `collection.slice(start, len)` — the per-shard
    /// call of the counting sort `SketchIndex::from_collection` runs over
    /// all sets.
    pub fn build(collection: &RrrCollection, start: usize, len: usize) -> Result<Self, IndexError> {
        let postings = Postings::build(collection, start, len).map_err(|vertex| {
            IndexError::VertexOutOfRange { vertex, num_nodes: collection.num_nodes() }
        })?;
        Ok(ShardSegment { start, postings })
    }

    /// Global id of the shard's first set.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of sets in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.postings.range_len()
    }

    /// Whether the shard holds no sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard's global set-id range.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len()
    }

    /// The shard's inverted structure; ids are local to the shard.
    #[inline]
    pub fn postings(&self) -> &Postings {
        &self.postings
    }

    /// Total postings entries of the shard (Σ over vertices of the sets
    /// of the range containing them, whichever form stores them) — the shard's
    /// contribution to a serving cost model.
    #[inline]
    pub fn postings_entries(&self) -> u64 {
        self.postings.entries()
    }

    /// Borrow the shard's sets out of the shared collection (zero-copy).
    #[inline]
    pub fn slice<'a>(&self, collection: &'a RrrCollection) -> CollectionSlice<'a> {
        collection.slice(self.start, self.len())
    }

    /// Heap bytes of the segment's own structures (the shared arena is
    /// accounted by the collection, not per shard).
    pub fn memory_bytes(&self) -> usize {
        self.postings.stats().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{NodeId, RrrSet};

    fn figure3_collection() -> RrrCollection {
        let sets: &[&[NodeId]] =
            &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]];
        let mut c = RrrCollection::new(6);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
        }
        c
    }

    #[test]
    fn segment_postings_are_local_and_match_the_range() {
        let c = figure3_collection();
        // Shard over sets 2..6 ({2,4}, {1,4}, {1,4,5}, {3}).
        let seg = ShardSegment::build(&c, 2, 4).unwrap();
        assert_eq!(seg.range(), 2..6);
        assert_eq!(seg.postings().ids(4), [0, 1, 2], "local ids of sets 2, 3, 4");
        assert_eq!(seg.postings().ids(1), [1, 2]);
        assert_eq!(seg.postings().ids(3), [3]);
        assert!(seg.postings().ids(0).is_empty(), "vertex 0 only occurs outside the range");
        assert_eq!(seg.postings().degree(4), 3);
        assert_eq!(seg.postings().degree(0), 0);
        assert_eq!(seg.slice(&c).get(3).to_vec(), vec![3]);
    }

    #[test]
    fn shard_degrees_sum_to_the_global_occurrence_counts() {
        let c = figure3_collection();
        let full = ShardSegment::build(&c, 0, c.len()).unwrap();
        let parts = [
            ShardSegment::build(&c, 0, 3).unwrap(),
            ShardSegment::build(&c, 3, 3).unwrap(),
            ShardSegment::build(&c, 6, 2).unwrap(),
        ];
        for v in 0..6u32 {
            let summed: u64 = parts.iter().map(|p| p.postings().degree(v)).sum();
            assert_eq!(summed, full.postings().degree(v), "vertex {v}");
        }
    }

    #[test]
    fn out_of_range_members_are_rejected() {
        let mut c = RrrCollection::new(4);
        c.push(RrrSet::sorted(vec![0, 9]));
        assert_eq!(
            ShardSegment::build(&c, 0, 1),
            Err(IndexError::VertexOutOfRange { vertex: 9, num_nodes: 4 })
        );
    }

    #[test]
    fn empty_segments_are_fine() {
        let c = figure3_collection();
        let seg = ShardSegment::build(&c, 8, 0).unwrap();
        assert!(seg.is_empty());
        assert_eq!(seg.postings().degree(1), 0);
    }
}
