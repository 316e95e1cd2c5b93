//! A fixed-capacity bitmap over vertex ids.
//!
//! Used both as the dense RRR-set representation and as the per-walk
//! "visited" structure inside the reverse BFS (line 8 of the paper's
//! Algorithm 3, the access the NUMA-aware placement optimizes).

/// Fixed-size bit set over `[0, capacity)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
    ones: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Empty bit set able to hold values in `[0, capacity)`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0u64; capacity.div_ceil(WORD_BITS)], capacity, ones: 0 }
    }

    /// Build from an iterator of indices.
    pub fn from_iter_with_capacity(capacity: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut bs = BitSet::new(capacity);
        for i in iter {
            bs.insert(i);
        }
        bs
    }

    /// Capacity (exclusive upper bound on storable values).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.ones
    }

    /// Whether no bits are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Set bit `index`. Returns `true` if it was previously clear.
    ///
    /// # Panics
    /// Panics if `index >= capacity`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "bit {index} out of capacity {}", self.capacity);
        let word = index / WORD_BITS;
        let mask = 1u64 << (index % WORD_BITS);
        let was_clear = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.ones += usize::from(was_clear);
        was_clear
    }

    /// Clear bit `index`. Returns `true` if it was previously set.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "bit {index} out of capacity {}", self.capacity);
        let word = index / WORD_BITS;
        let mask = 1u64 << (index % WORD_BITS);
        let was_set = self.words[word] & mask != 0;
        self.words[word] &= !mask;
        self.ones -= usize::from(was_set);
        was_set
    }

    /// Whether bit `index` is set. Out-of-range indices are reported as
    /// absent rather than panicking, so membership tests against a smaller
    /// visited bitmap are safe.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let word = index / WORD_BITS;
        self.words[word] & (1u64 << (index % WORD_BITS)) != 0
    }

    /// Clear all bits, keeping the allocation (the "workhorse" reuse pattern
    /// used by the sampling loop).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Iterate over set bits in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        let words = &self.words;
        BitSetIter { words, word_idx: 0, current: words.first().copied().unwrap_or(0) }
    }

    /// Heap bytes of the word array.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.words[..])
    }

    /// The raw backing words, least-significant bit first (for serialization).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterator over the set bits of a [`BitSet`].
#[derive(Debug, Clone)]
pub struct BitSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iterator for BitSetIter<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut bs = BitSet::new(200);
        assert!(!bs.contains(5));
        assert!(bs.insert(5));
        assert!(bs.contains(5));
        assert!(!bs.insert(5), "second insert reports already present");
        assert_eq!(bs.len(), 1);
        assert!(bs.remove(5));
        assert!(!bs.remove(5));
        assert!(bs.is_empty());
    }

    #[test]
    fn word_boundaries() {
        let mut bs = BitSet::new(130);
        for i in [0usize, 63, 64, 65, 127, 128, 129] {
            bs.insert(i);
        }
        assert_eq!(bs.len(), 7);
        let collected: Vec<_> = bs.iter().collect();
        assert_eq!(collected, vec![0, 63, 64, 65, 127, 128, 129]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let bs = BitSet::new(10);
        assert!(!bs.contains(1000));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut bs = BitSet::from_iter_with_capacity(100, [1, 2, 3]);
        assert_eq!(bs.len(), 3);
        bs.clear();
        assert!(bs.is_empty());
        assert_eq!(bs.capacity(), 100);
        assert!(!bs.contains(1));
    }

    #[test]
    fn empty_bitset_iter() {
        let bs = BitSet::new(0);
        assert_eq!(bs.iter().count(), 0);
        assert_eq!(bs.memory_bytes(), 0);
    }

    #[test]
    fn memory_bytes_rounds_up_to_words() {
        assert_eq!(BitSet::new(1).memory_bytes(), 8);
        assert_eq!(BitSet::new(64).memory_bytes(), 8);
        assert_eq!(BitSet::new(65).memory_bytes(), 16);
    }

    proptest! {
        #[test]
        fn matches_reference_hashset(ops in proptest::collection::vec((0usize..500, any::<bool>()), 0..300)) {
            let mut bs = BitSet::new(500);
            let mut reference = std::collections::HashSet::new();
            for (idx, insert) in ops {
                if insert {
                    prop_assert_eq!(bs.insert(idx), reference.insert(idx));
                } else {
                    prop_assert_eq!(bs.remove(idx), reference.remove(&idx));
                }
            }
            prop_assert_eq!(bs.len(), reference.len());
            let mut from_bs: Vec<_> = bs.iter().collect();
            let mut from_ref: Vec<_> = reference.into_iter().collect();
            from_bs.sort_unstable();
            from_ref.sort_unstable();
            prop_assert_eq!(from_bs, from_ref);
        }

        #[test]
        fn iter_is_sorted_and_unique(indices in proptest::collection::hash_set(0usize..1000, 0..200)) {
            let bs = BitSet::from_iter_with_capacity(1000, indices.iter().copied());
            let collected: Vec<_> = bs.iter().collect();
            let mut sorted = collected.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&collected, &sorted);
            prop_assert_eq!(collected.len(), indices.len());
        }
    }
}
