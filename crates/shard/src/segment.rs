//! One entry of a sharded index's shard map.
//!
//! A [`ShardSegment`] names a contiguous **RRR-set range**
//! `[start, start + len)` of the base index's collection and what the range
//! weighs. It owns nothing — no sets (they are the base's, borrowed on
//! demand as an [`imm_rrr::CollectionSlice`]) and no postings: every query
//! is served from the base's global postings (see [`crate::ShardedEngine`]).

use imm_rrr::RrrCollection;

/// One shard: a contiguous set range and its weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSegment {
    start: usize,
    len: usize,
    postings_entries: u64,
}

impl ShardSegment {
    /// The entry for `collection`'s sets `[start, start + len)`; one pass
    /// over the range's set lengths.
    pub(crate) fn over(collection: &RrrCollection, start: usize, len: usize) -> Self {
        let postings_entries = collection.slice(start, len).iter().map(|s| s.len() as u64).sum();
        ShardSegment { start, len, postings_entries }
    }

    /// Global id of the shard's first set.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of sets in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shard holds no sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total postings entries of the shard (Σ over vertices of the sets of
    /// the range containing them, which is Σ of the range's set lengths) —
    /// what `shard_load_imbalance` compares.
    #[inline]
    pub fn postings_entries(&self) -> u64 {
        self.postings_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{AdaptivePolicy, NodeId};

    #[test]
    fn an_entry_weighs_the_set_lengths_of_its_range_in_either_representation() {
        let sets: &[&[NodeId]] =
            &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]];
        let mut c = RrrCollection::new(6);
        for (i, s) in sets.iter().enumerate() {
            let policy = if i % 3 == 0 {
                AdaptivePolicy::always_bitmap()
            } else {
                AdaptivePolicy::always_sorted()
            };
            c.push_vertices(s.to_vec(), &policy);
        }
        for (start, len, entries) in [(0, 8, 14), (2, 4, 8), (6, 2, 3), (8, 0, 0)] {
            let seg = ShardSegment::over(&c, start, len);
            assert_eq!((seg.start(), seg.len()), (start, len));
            assert_eq!(seg.is_empty(), len == 0);
            assert_eq!(seg.postings_entries(), entries, "sets {start}..{}", start + len);
        }
    }
}
