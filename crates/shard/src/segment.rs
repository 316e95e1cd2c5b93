//! One entry of a sharded index's shard map.
//!
//! A [`ShardSegment`] names a contiguous **RRR-set range**
//! `[start, start + len)` of the base index and what the range weighs. It
//! owns nothing — the base holds no sets, only their postings, and every
//! query is served from those global postings (see
//! [`crate::ShardedEngine`]) — so the weight is read off the postings too.

use imm_rrr::{NodeId, Postings};

/// One shard: a contiguous set range and its weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSegment {
    start: usize,
    len: usize,
    postings_entries: u64,
}

impl ShardSegment {
    /// The entries for `ranges` — contiguous, tiling the sets of `postings`
    /// in order — in one pass over the vertices: a vertex adds to each range
    /// the difference of [`imm_rrr::PostingsView::count_below`] at the
    /// range's two ends (a popcount of a row's words, a `partition_point` in
    /// a list).
    pub(crate) fn weigh(postings: &Postings, ranges: &[(usize, usize)]) -> Vec<Self> {
        let view = postings.view();
        let ends: Vec<u32> = ranges.iter().map(|&(start, len)| (start + len) as u32).collect();
        let mut entries = vec![0u64; ranges.len()];
        for v in 0..postings.num_nodes() as NodeId {
            if view.degree(v) == 0 {
                continue;
            }
            let mut below = 0u64;
            for (weight, &end) in entries.iter_mut().zip(&ends) {
                let upto = view.count_below(v, end);
                *weight += upto - below;
                below = upto;
            }
        }
        ranges
            .iter()
            .zip(entries)
            .map(|(&(start, len), postings_entries)| ShardSegment { start, len, postings_entries })
            .collect()
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
    use imm_rrr::{AdaptivePolicy, RrrCollection};
    use imm_service::{IndexMeta, SketchIndex};

    #[test]
    fn an_entry_weighs_the_set_lengths_of_its_range_in_either_postings_form() {
        // Figure 3 padded to 40 sets: vertices 0–4 store rows, vertex 5 a list.
        let sets: &[&[NodeId]] =
            &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]];
        let mut c = RrrCollection::new(6);
        for i in 0..40 {
            let policy = if i % 3 == 0 {
                AdaptivePolicy::always_bitmap()
            } else {
                AdaptivePolicy::always_sorted()
            };
            c.push_vertices(sets.get(i).map_or(vec![], |s| s.to_vec()), &policy);
        }
        let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
        let postings = index.postings();
        assert!(postings.is_row(4) && !postings.is_row(5));
        let ranges = [(0, 2), (2, 4), (6, 2), (8, 32)];
        let segments = ShardSegment::weigh(postings, &ranges);
        for (seg, (&(start, len), entries)) in segments.iter().zip(ranges.iter().zip([3, 8, 3, 0]))
        {
            assert_eq!((seg.start(), seg.len()), (start, len));
            assert!(!seg.is_empty());
            assert_eq!(seg.postings_entries(), entries, "sets {start}..{}", start + len);
        }
        assert!(ShardSegment::weigh(postings, &[(0, 40), (40, 0)])[1].is_empty());
    }
}
