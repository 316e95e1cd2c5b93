//! The arena-backed collection of sampled RRR sets.
//!
//! The θ sets are the hottest data structure in the whole pipeline: sampling
//! writes them once, then counting, selection and index building stream over
//! every member again and again. Storing each set as its own heap allocation
//! (the layout this module replaced) costs an allocator round-trip per set
//! and scatters the member lists across the heap, so the streaming passes
//! pointer-chase instead of prefetch. The arena layout fixes both:
//!
//! * **One flat vertex arena** (`Vec<NodeId>`) holds every sorted-list set's
//!   members back to back, CSR-style — the same offsets-into-a-flat-array
//!   scheme `imm-graph::CsrGraph` uses for adjacency.
//! * **A directory of spans** (`start`, `len` — `u32` offsets) locates set
//!   `i`'s slice; [`RrrCollection::get`] hands out borrowed [`SetView`]s
//!   whose list form is a plain `&[NodeId]` slice.
//! * **The adaptive bitmap representation is preserved as a side table**: a
//!   set the [`AdaptivePolicy`] marks heavy lives *only* as a [`BitSet`] in
//!   the side table (`O(1)` membership, memory proportional to the graph —
//!   the paper's §IV-C trade-off is unchanged), while the arena never pays
//!   for its members.
//!
//! A collection is written once, by the sampler, and read by selection and
//! by the one postings build of a serving index; nothing edits a set in
//! place, so the arena holds live members only.
//!
//! Table I of the paper characterizes each dataset by the *average* and
//! *maximum* fraction of graph vertices covered by a single RRR set; those
//! numbers come straight out of [`RrrCollection::coverage_stats`].

use crate::bitset::{BitSet, BitSetIter};
use crate::set::{AdaptivePolicy, Representation};
use crate::NodeId;
use std::ops::Range;

/// Sentinel in a span's `bitmap` field: the set has no side-table entry.
const NO_BITMAP: u32 = u32::MAX;

/// Directory entry locating one set (12 bytes per set).
///
/// For a sorted-list set, `start..start+len` is its arena slice. For a
/// bitmap set the arena holds nothing (`len` still records the member count
/// for the statistics paths) and `bitmap` points into the side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SetSpan {
    /// First member's offset in the vertex arena (list sets).
    start: u32,
    /// Member count.
    len: u32,
    /// Bitmap side-table slot, or [`NO_BITMAP`].
    bitmap: u32,
}

/// Coverage and size statistics over a set of RRR sets (the paper's Table I
/// columns, plus memory accounting used for the Twitter7 OOM discussion).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CoverageStats {
    /// Number of RRR sets.
    pub count: usize,
    /// Average set size in vertices.
    pub avg_size: f64,
    /// Largest set size in vertices.
    pub max_size: usize,
    /// Average fraction of graph vertices covered by one set.
    pub avg_coverage: f64,
    /// Maximum fraction of graph vertices covered by one set.
    pub max_coverage: f64,
    /// Total heap bytes of the collection: vertex arena, span directory and
    /// bitmap side table.
    pub memory_bytes: usize,
    /// How many sets are stored as bitmaps (vs. sorted lists).
    pub bitmap_sets: usize,
}

/// A borrowed view of one RRR set: either its flat member slice out of the
/// arena, or its bitmap side-table entry.
///
/// List sets iterate as sequential memory and test membership by binary
/// search (`O(log |R|)`); bitmap sets test membership with a single bit
/// probe (`O(1)`) — exactly the adaptive trade-off the paper describes.
#[derive(Debug, Clone, Copy)]
pub enum SetView<'a> {
    /// Sorted member slice backed by the arena.
    Sorted(&'a [NodeId]),
    /// Bitmap over all graph vertices, from the side table.
    Bitmap(&'a BitSet),
}

impl<'a> SetView<'a> {
    /// The sorted member slice, when the set is list-represented.
    #[inline]
    pub fn members(&self) -> Option<&'a [NodeId]> {
        match self {
            SetView::Sorted(slice) => Some(slice),
            SetView::Bitmap(_) => None,
        }
    }

    /// The bitmap, when the set is bitmap-represented.
    #[inline]
    pub fn bitmap(&self) -> Option<&'a BitSet> {
        match self {
            SetView::Sorted(_) => None,
            SetView::Bitmap(b) => Some(b),
        }
    }

    /// Number of vertices in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SetView::Sorted(slice) => slice.len(),
            SetView::Bitmap(b) => b.len(),
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which representation the set uses.
    #[inline]
    pub fn representation(&self) -> Representation {
        match self {
            SetView::Sorted(_) => Representation::SortedList,
            SetView::Bitmap(_) => Representation::Bitmap,
        }
    }

    /// Membership test: binary search for list sets, bit probe for bitmaps.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        match self {
            SetView::Sorted(slice) => slice.binary_search(&v).is_ok(),
            SetView::Bitmap(b) => b.contains(v as usize),
        }
    }

    /// Iterate over the member vertices in increasing order. The returned
    /// iterator is a concrete enum (no boxing): a copied slice walk for list
    /// sets, a word scan for bitmaps.
    #[inline]
    pub fn iter(&self) -> SetIter<'a> {
        match self {
            SetView::Sorted(slice) => SetIter::Slice(slice.iter().copied()),
            SetView::Bitmap(b) => SetIter::Bits(b.iter()),
        }
    }

    /// Internal iteration over the members: the representation is matched
    /// **once per set**, then the whole slice (or bitmap word scan) runs as
    /// a tight monomorphic loop — the form the counting kernels hot-loop on.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(NodeId)) {
        match self {
            SetView::Sorted(slice) => {
                for &v in *slice {
                    f(v);
                }
            }
            SetView::Bitmap(b) => {
                for i in b.iter() {
                    f(i as NodeId);
                }
            }
        }
    }

    /// Collect the members into a vector (increasing order).
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

/// Iterator over one set's members (the concrete type behind
/// [`SetView::iter`]).
#[derive(Debug, Clone)]
pub enum SetIter<'a> {
    /// Sequential walk of an arena slice.
    Slice(std::iter::Copied<std::slice::Iter<'a, NodeId>>),
    /// Set-bit scan of a side-table bitmap.
    Bits(BitSetIter<'a>),
}

impl Iterator for SetIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            SetIter::Slice(it) => it.next(),
            SetIter::Bits(it) => it.next().map(|i| i as NodeId),
        }
    }
}

/// The θ sampled RRR sets, stored in one flat vertex arena plus a bitmap
/// side table for heavy sets.
#[derive(Debug, Clone, Default)]
pub struct RrrCollection {
    /// Every list set's sorted members, back to back.
    arena: Vec<NodeId>,
    /// Per-set directory into the arena and the bitmap side table.
    spans: Vec<SetSpan>,
    /// Bitmap side table for heavy sets.
    bitmaps: Vec<BitSet>,
    /// Vertex-space size of the underlying graph.
    num_nodes: usize,
}

impl RrrCollection {
    /// Empty collection for a graph of `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        RrrCollection { num_nodes, ..Default::default() }
    }

    /// Reserve room for exactly `sets` more sets holding `arena` more arena
    /// entries (a bulk builder knows both before it appends).
    pub fn reserve_exact(&mut self, sets: usize, arena: usize) {
        self.spans.reserve_exact(sets);
        self.arena.reserve_exact(arena);
    }

    /// Total arena entries (the members of every list set).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Whether any set of `[start, start + len)` is a bitmap (a directory scan).
    pub fn has_bitmap_in(&self, start: usize, len: usize) -> bool {
        self.spans[start..start + len].iter().any(|span| span.bitmap != NO_BITMAP)
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of stored RRR sets (θ′ so far).
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the collection is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The arena offset a segment of `added` more entries would start at,
    /// panicking before the `u32` span fields can overflow.
    fn next_start(&self, added: usize) -> u32 {
        let start = self.arena.len();
        assert!(
            start + added <= u32::MAX as usize,
            "RRR vertex arena exceeds the u32 offset space ({start} + {added} entries)"
        );
        start as u32
    }

    /// Claim the next bitmap side-table slot.
    fn alloc_bitmap(&mut self, bitmap: BitSet) -> u32 {
        assert!(self.bitmaps.len() < NO_BITMAP as usize, "bitmap side table overflow");
        self.bitmaps.push(bitmap);
        (self.bitmaps.len() - 1) as u32
    }

    /// Append a bitmap set to the side table (the arena stays untouched).
    fn push_bitmap(&mut self, bitmap: BitSet) {
        let start = self.next_start(0);
        let len = bitmap.len() as u32;
        let slot = self.alloc_bitmap(bitmap);
        self.spans.push(SetSpan { start, len, bitmap: slot });
    }

    /// Append a list set given its **sorted, duplicate-free** members.
    fn push_list(&mut self, members: &[NodeId]) {
        let start = self.next_start(members.len());
        self.arena.extend_from_slice(members);
        self.spans.push(SetSpan { start, len: members.len() as u32, bitmap: NO_BITMAP });
    }

    /// Append a raw vertex list (unsorted, duplicate-free), applying the
    /// adaptive representation policy. A list-bound set is sorted in place
    /// and spliced into the arena — no intermediate per-set allocation
    /// survives; a bitmap-bound one never touches the arena at all.
    pub fn push_vertices(&mut self, mut vertices: Vec<NodeId>, policy: &AdaptivePolicy) {
        match policy.choose(vertices.len(), self.num_nodes) {
            Representation::SortedList => {
                vertices.sort_unstable();
                self.push_list(&vertices);
            }
            Representation::Bitmap => {
                let bs = BitSet::from_iter_with_capacity(
                    self.num_nodes,
                    vertices.iter().map(|&v| v as usize),
                );
                self.push_bitmap(bs);
            }
        }
    }

    /// Append a set's duplicate-free members with an explicit
    /// representation, as the sampler decides it once per set: a list's
    /// members must be sorted, a bitmap takes them in any order.
    pub fn push_known_representation(
        &mut self,
        members: &[NodeId],
        representation: Representation,
    ) {
        match representation {
            Representation::SortedList => self.push_list(members),
            Representation::Bitmap => {
                let bs = BitSet::from_iter_with_capacity(
                    self.num_nodes,
                    members.iter().map(|&v| v as usize),
                );
                self.push_bitmap(bs);
            }
        }
    }

    /// The arena run of the list sets among `range` (one contiguous run,
    /// since sets are appended in order).
    fn arena_run(&self, range: Range<usize>) -> Range<usize> {
        let end = self.spans.get(range.end).map_or(self.arena.len(), |span| span.start as usize);
        let start = self.spans.get(range.start).map_or(end, |span| span.start as usize);
        start..end
    }

    /// Append the sets `range` of `other`, in order (used to assemble
    /// per-worker outputs in job order): one bulk copy of their arena run,
    /// spans rebased by a constant offset, and their bitmaps moved out of
    /// `other`'s side table (left empty there), not rebuilt.
    pub fn append_from(&mut self, other: &mut RrrCollection, range: Range<usize>) {
        debug_assert_eq!(self.num_nodes, other.num_nodes);
        let run = other.arena_run(range.clone());
        let start = self.next_start(run.len());
        self.arena.extend_from_slice(&other.arena[run.clone()]);
        for span in &other.spans[range] {
            let bitmap = if span.bitmap == NO_BITMAP {
                NO_BITMAP
            } else {
                let taken =
                    std::mem::replace(&mut other.bitmaps[span.bitmap as usize], BitSet::new(0));
                self.alloc_bitmap(taken)
            };
            let rebased = start + (span.start - run.start as u32);
            self.spans.push(SetSpan { start: rebased, len: span.len, bitmap });
        }
    }

    /// Access a set by index.
    #[inline]
    pub fn get(&self, idx: usize) -> SetView<'_> {
        let span = self.spans[idx];
        if span.bitmap == NO_BITMAP {
            SetView::Sorted(&self.arena[span.start as usize..(span.start + span.len) as usize])
        } else {
            SetView::Bitmap(&self.bitmaps[span.bitmap as usize])
        }
    }

    /// Iterate over the sets as borrowed [`SetView`]s.
    pub fn iter(&self) -> SetViews<'_> {
        SetViews { collection: self, next: 0 }
    }

    /// Drop all sets, keeping the graph size (used when the martingale loop
    /// has to restart sampling with a larger θ in some IMM variants).
    pub fn clear(&mut self) {
        self.arena.clear();
        self.spans.clear();
        self.bitmaps.clear();
    }

    /// Total heap bytes held by the collection: the vertex arena, the span
    /// directory, and the bitmap side table. Vec over-allocation slack is
    /// excluded so the figure is a function of the logical contents, not of
    /// the build path.
    pub fn memory_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<NodeId>()
            + self.spans.len() * std::mem::size_of::<SetSpan>()
            + self.bitmaps.len() * std::mem::size_of::<BitSet>()
            + self.bitmaps.iter().map(|b| b.memory_bytes()).sum::<usize>()
    }

    /// Coverage/size statistics (paper Table I).
    pub fn coverage_stats(&self) -> CoverageStats {
        let count = self.spans.len();
        if count == 0 || self.num_nodes == 0 {
            return CoverageStats {
                count,
                avg_size: 0.0,
                max_size: 0,
                avg_coverage: 0.0,
                max_coverage: 0.0,
                memory_bytes: self.memory_bytes(),
                bitmap_sets: 0,
            };
        }
        let mut total = 0usize;
        let mut max_size = 0usize;
        let mut bitmap_sets = 0usize;
        for span in &self.spans {
            let len = span.len as usize;
            total += len;
            max_size = max_size.max(len);
            bitmap_sets += usize::from(span.bitmap != NO_BITMAP);
        }
        let n = self.num_nodes as f64;
        CoverageStats {
            count,
            avg_size: total as f64 / count as f64,
            max_size,
            avg_coverage: total as f64 / count as f64 / n,
            max_coverage: max_size as f64 / n,
            memory_bytes: self.memory_bytes(),
            bitmap_sets,
        }
    }

    /// Fraction of sets that contain at least one vertex from `seeds` — the
    /// unbiased estimator of `σ(seeds) / n` that IMM's theory is built on.
    pub fn coverage_fraction(&self, seeds: &[NodeId]) -> f64 {
        if self.spans.is_empty() {
            return 0.0;
        }
        let covered = self.iter().filter(|s| seeds.iter().any(|&v| s.contains(v))).count();
        covered as f64 / self.spans.len() as f64
    }

    /// Estimated influence spread of `seeds`: `n * coverage_fraction`.
    pub fn estimate_influence(&self, seeds: &[NodeId]) -> f64 {
        self.num_nodes as f64 * self.coverage_fraction(seeds)
    }
}

/// Logical equality: same vertex space, same sets (members **and**
/// representation), regardless of how the sets were merged into the arena.
impl PartialEq for RrrCollection {
    fn eq(&self, other: &Self) -> bool {
        if self.num_nodes != other.num_nodes || self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|i| match (self.get(i), other.get(i)) {
            (SetView::Sorted(a), SetView::Sorted(b)) => a == b,
            (SetView::Bitmap(a), SetView::Bitmap(b)) => a == b,
            _ => false,
        })
    }
}

/// Iterator over the sets of a collection as [`SetView`]s.
#[derive(Debug, Clone)]
pub struct SetViews<'a> {
    collection: &'a RrrCollection,
    next: usize,
}

impl<'a> Iterator for SetViews<'a> {
    type Item = SetView<'a>;

    fn next(&mut self) -> Option<SetView<'a>> {
        if self.next >= self.collection.len() {
            return None;
        }
        let view = self.collection.get(self.next);
        self.next += 1;
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.collection.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SetViews<'_> {}

/// Borrowed iteration (`for set in &collection`), so consumers that only
/// read the sets — index builders, stats code — never clone them.
impl<'a> IntoIterator for &'a RrrCollection {
    type Item = SetView<'a>;
    type IntoIter = SetViews<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collection_with(sets: Vec<Vec<NodeId>>, n: usize) -> RrrCollection {
        let mut c = RrrCollection::new(n);
        for s in sets {
            c.push_vertices(s, &AdaptivePolicy::always_sorted());
        }
        c
    }

    #[test]
    fn push_and_len() {
        let mut c = RrrCollection::new(10);
        assert!(c.is_empty());
        c.push_vertices(vec![1, 2, 3], &AdaptivePolicy::default());
        c.push_vertices(vec![4], &AdaptivePolicy::default());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0).len(), 3);
        assert_eq!(c.get(0).members(), Some([1, 2, 3].as_slice()));
    }

    #[test]
    fn coverage_stats_match_hand_computation() {
        // Graph of 10 nodes; sets of sizes 2, 4, 6.
        let c = collection_with(vec![vec![0, 1], vec![0, 1, 2, 3], vec![0, 1, 2, 3, 4, 5]], 10);
        let stats = c.coverage_stats();
        assert_eq!(stats.count, 3);
        assert!((stats.avg_size - 4.0).abs() < 1e-12);
        assert_eq!(stats.max_size, 6);
        assert!((stats.avg_coverage - 0.4).abs() < 1e-12);
        assert!((stats.max_coverage - 0.6).abs() < 1e-12);
        assert_eq!(stats.bitmap_sets, 0);
    }

    #[test]
    fn coverage_stats_empty() {
        let c = RrrCollection::new(100);
        let stats = c.coverage_stats();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.max_coverage, 0.0);
    }

    #[test]
    fn coverage_fraction_and_influence_estimate() {
        // Sets: {0,1}, {1}, {2,4}, {3}. Seeds {1} cover 2 of 4 sets.
        let c = collection_with(vec![vec![0, 1], vec![1], vec![2, 4], vec![3]], 5);
        assert!((c.coverage_fraction(&[1]) - 0.5).abs() < 1e-12);
        assert!((c.estimate_influence(&[1]) - 2.5).abs() < 1e-12);
        // Seeds {1,3} cover 3 of 4.
        assert!((c.coverage_fraction(&[1, 3]) - 0.75).abs() < 1e-12);
        // No seeds cover nothing.
        assert_eq!(c.coverage_fraction(&[]), 0.0);
    }

    #[test]
    fn append_from_copies_a_range_in_order() {
        let mut a = collection_with(vec![vec![0]], 5);
        let mut b = collection_with(vec![vec![1], vec![2, 3], vec![4]], 5);
        a.append_from(&mut b, 1..3);
        a.append_from(&mut b, 0..1);
        a.append_from(&mut b, 3..3);
        assert_eq!(a, collection_with(vec![vec![0], vec![2, 3], vec![4], vec![1]], 5));
        assert_eq!(a.arena_len(), 5);
    }

    #[test]
    fn append_from_moves_bitmap_side_table_entries() {
        let mut a = RrrCollection::new(64);
        a.push_vertices(vec![1, 2], &AdaptivePolicy::always_sorted());
        let mut b = RrrCollection::new(64);
        b.push_vertices(vec![7], &AdaptivePolicy::always_sorted());
        b.push_vertices((0..40).collect(), &AdaptivePolicy::always_bitmap());
        b.push_vertices(vec![5], &AdaptivePolicy::always_sorted());
        a.append_from(&mut b, 1..3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(1).representation(), Representation::Bitmap);
        assert!(a.get(1).contains(39));
        assert!(!a.get(1).contains(41));
        assert_eq!(a.get(2).members(), Some([5].as_slice()));
        assert_eq!(a.arena_len(), 3);
    }

    #[test]
    fn bitmap_sets_are_counted() {
        let mut c = RrrCollection::new(64);
        c.push_vertices((0..40).collect(), &AdaptivePolicy::always_bitmap());
        c.push_vertices(vec![1, 2], &AdaptivePolicy::always_sorted());
        let stats = c.coverage_stats();
        assert_eq!(stats.bitmap_sets, 1);
        assert!(stats.memory_bytes > 0);
    }

    #[test]
    fn clear_resets_sets_only() {
        let mut c = collection_with(vec![vec![0, 1]], 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.num_nodes(), 10);
    }

    #[test]
    fn equality_is_layout_independent() {
        let mut a = collection_with(vec![vec![0, 1, 2]], 10);
        a.append_from(&mut collection_with(vec![vec![3, 4]], 10), 0..1);
        assert_eq!(a, collection_with(vec![vec![0, 1, 2], vec![3, 4]], 10));
        // Representation is part of equality.
        let mut c = RrrCollection::new(10);
        c.push_vertices(vec![0, 1, 2], &AdaptivePolicy::always_bitmap());
        c.push_vertices(vec![3, 4], &AdaptivePolicy::always_sorted());
        assert_ne!(a, c);
    }

    #[test]
    fn push_known_representation_matches_push_vertices() {
        let mut a = RrrCollection::new(1000);
        let mut b = RrrCollection::new(1000);
        a.push_vertices(vec![9, 3, 7], &AdaptivePolicy::default());
        a.push_vertices(vec![9, 3, 7], &AdaptivePolicy::always_bitmap());
        b.push_known_representation(&[3, 7, 9], Representation::SortedList);
        b.push_known_representation(&[9, 3, 7], Representation::Bitmap);
        assert_eq!(a, b);
    }

    #[test]
    fn push_vertices_respects_the_policy() {
        let mut c = RrrCollection::new(1_000_000);
        c.push_vertices(vec![5, 1, 9, 3], &AdaptivePolicy::default());
        assert_eq!(c.get(0).representation(), Representation::SortedList);
        assert_eq!(c.get(0).members(), Some([1, 3, 5, 9].as_slice()));
        let mut dense = RrrCollection::new(10);
        dense.push_vertices(vec![5, 1, 9, 3], &AdaptivePolicy::always_bitmap());
        assert_eq!(dense.get(0).representation(), Representation::Bitmap);
        assert_eq!(dense.get(0).to_vec(), [1, 3, 5, 9]);
    }

    /// One collection per form holding the same members.
    fn both_forms(vertices: &[NodeId], n: usize) -> (RrrCollection, RrrCollection) {
        let form = |policy: AdaptivePolicy| {
            let mut c = RrrCollection::new(n);
            c.push_vertices(vertices.to_vec(), &policy);
            c
        };
        (form(AdaptivePolicy::always_sorted()), form(AdaptivePolicy::always_bitmap()))
    }

    #[test]
    fn contains_is_consistent_across_representations() {
        let vertices = [2u32, 4, 8, 16, 32];
        let (sorted, bitmap) = both_forms(&vertices, 64);
        let (sorted, bitmap) = (sorted.get(0), bitmap.get(0));
        for v in 0..64u32 {
            assert_eq!(sorted.contains(v), bitmap.contains(v), "vertex {v}");
            assert_eq!(sorted.contains(v), vertices.contains(&v));
        }
        assert_eq!(sorted.to_vec(), bitmap.to_vec());
        assert_eq!(sorted.len(), bitmap.len());
    }

    #[test]
    fn memory_accounting_differs_by_representation() {
        let vertices: Vec<u32> = (0..100).collect();
        let (sorted, bitmap) = both_forms(&vertices, 100_000);
        let span = std::mem::size_of::<SetSpan>();
        assert_eq!(sorted.memory_bytes(), span + 400);
        // Bitmap over 100_000 vertices = 12_500 bytes regardless of contents.
        let words = 100_000usize.div_ceil(64) * 8;
        assert_eq!(bitmap.memory_bytes(), span + std::mem::size_of::<BitSet>() + words);
        assert!(bitmap.memory_bytes() > sorted.memory_bytes());
    }

    #[test]
    fn empty_set() {
        let mut c = RrrCollection::new(100);
        c.push_vertices(Vec::new(), &AdaptivePolicy::default());
        let s = c.get(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
    }

    proptest! {
        #[test]
        fn representations_agree(vertices in proptest::collection::hash_set(0u32..2000, 0..300)) {
            let raw: Vec<u32> = vertices.iter().copied().collect();
            let (sorted, bitmap) = both_forms(&raw, 2000);
            let (sorted, bitmap) = (sorted.get(0), bitmap.get(0));
            prop_assert_eq!(sorted.to_vec(), bitmap.to_vec());
            for probe in [0u32, 1, 999, 1999] {
                prop_assert_eq!(sorted.contains(probe), bitmap.contains(probe));
            }
        }
    }

    #[test]
    fn bitmap_sets_never_touch_the_arena() {
        let mut c = RrrCollection::new(64);
        c.push_vertices((0..40).collect(), &AdaptivePolicy::always_bitmap());
        assert_eq!(c.arena_len(), 0, "heavy sets pay only their side-table bitmap");
        assert_eq!(c.get(0).len(), 40);
        c.push_vertices(vec![1, 2], &AdaptivePolicy::always_sorted());
        assert_eq!(c.arena_len(), 2);
    }
}
