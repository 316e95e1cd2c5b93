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
//! * **`replace` rewrites in place when the new list fits** and otherwise
//!   appends at the arena tail, tombstoning the old span; a compaction pass
//!   runs amortized (only once the dead space outweighs the live data), so
//!   incremental refresh (`imm-service::dynamic`) stays O(resampled work).
//!
//! Table I of the paper characterizes each dataset by the *average* and
//! *maximum* fraction of graph vertices covered by a single RRR set; those
//! numbers come straight out of [`RrrCollection::coverage_stats`].

use std::sync::Arc;

use crate::bitset::{BitSet, BitSetIter};
use crate::set::{AdaptivePolicy, Representation, RrrSet};
use crate::NodeId;

/// Read-only provider of a vertex arena that outlives the collection
/// borrowing from it. `imm-store` implements this over the page-aligned
/// arena section of a memory-mapped snapshot; the contract is only that the
/// slice stays valid and immutable for the provider's lifetime.
pub trait ArenaSource: Send + Sync + std::panic::RefUnwindSafe + std::fmt::Debug {
    /// The backing vertex arena.
    fn nodes(&self) -> &[NodeId];
}

/// Backing storage of a collection's vertex arena.
#[derive(Debug, Clone)]
enum ArenaStore {
    /// Heap-owned arena (the default, build-time form).
    Owned(Vec<NodeId>),
    /// Arena borrowed wholesale from a shared read-only buffer.
    Shared(Arc<dyn ArenaSource>),
}

impl Default for ArenaStore {
    fn default() -> Self {
        ArenaStore::Owned(Vec::new())
    }
}

impl ArenaStore {
    #[inline]
    fn as_slice(&self) -> &[NodeId] {
        match self {
            ArenaStore::Owned(v) => v,
            ArenaStore::Shared(s) => s.nodes(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Copy-on-write: materialize an owned `Vec` (no-op when already owned).
    fn make_owned(&mut self) -> &mut Vec<NodeId> {
        if let ArenaStore::Shared(s) = self {
            *self = ArenaStore::Owned(s.nodes().to_vec());
        }
        match self {
            ArenaStore::Owned(v) => v,
            ArenaStore::Shared(_) => unreachable!("just converted to owned"),
        }
    }
}

/// Sentinel in a span's `bitmap` field: the set has no side-table entry.
const NO_BITMAP: u32 = u32::MAX;

/// Dead arena entries tolerated before a `replace` may trigger compaction
/// (tiny collections never bother).
const COMPACTION_MIN_DEAD: usize = 1024;

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

impl SetSpan {
    /// Arena entries this span occupies (0 for bitmap sets).
    #[inline]
    fn arena_len(&self) -> usize {
        if self.bitmap == NO_BITMAP {
            self.len as usize
        } else {
            0
        }
    }
}

/// Coverage and size statistics over a set of RRR sets (the paper's Table I
/// columns, plus memory accounting used for the Twitter7 OOM discussion).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
    /// Total heap bytes of the collection: vertex arena (tombstoned space
    /// included — it stays resident until compaction), span directory and
    /// bitmap side table.
    pub memory_bytes: usize,
    /// How many sets are stored as bitmaps (vs. sorted lists).
    pub bitmap_sets: usize,
}

/// A borrowed view of one RRR set: either its flat member slice out of the
/// arena, or its bitmap side-table entry — the borrowed mirror of
/// [`RrrSet`].
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

    /// Materialize an owned [`RrrSet`] with the same representation.
    pub fn to_set(&self) -> RrrSet {
        match self {
            SetView::Sorted(slice) => RrrSet::Sorted(slice.to_vec()),
            SetView::Bitmap(b) => RrrSet::Bitmap((*b).clone()),
        }
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
    /// Every list set's sorted members, back to back (plus tombstoned
    /// segments awaiting compaction). Owned on the build path; borrowed
    /// wholesale from a shared buffer on the zero-copy snapshot path, with
    /// copy-on-write on the first mutation.
    arena: ArenaStore,
    /// Per-set directory into the arena and the bitmap side table.
    spans: Vec<SetSpan>,
    /// Bitmap side table for heavy sets.
    bitmaps: Vec<BitSet>,
    /// Recycled side-table slots (freed by `replace`).
    free_bitmaps: Vec<u32>,
    /// Vertex-space size of the underlying graph.
    num_nodes: usize,
    /// Arena entries tombstoned by `replace`, reclaimed by compaction.
    dead: usize,
}

impl RrrCollection {
    /// Empty collection for a graph of `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        RrrCollection { num_nodes, ..Default::default() }
    }

    /// Empty collection with a reserved set-directory capacity.
    pub fn with_capacity(num_nodes: usize, cap: usize) -> Self {
        let mut c = Self::new(num_nodes);
        c.spans.reserve(cap);
        c
    }

    /// Empty collection with both directory and arena capacity reserved
    /// (bulk builders know the total member count up front).
    pub fn with_arena_capacity(num_nodes: usize, cap: usize, arena_cap: usize) -> Self {
        let mut c = Self::with_capacity(num_nodes, cap);
        c.arena.make_owned().reserve(arena_cap);
        c
    }

    /// Total arena entries (live and tombstoned), wherever the arena lives.
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the arena is borrowed from a shared (e.g. memory-mapped)
    /// buffer rather than owned on this collection's heap.
    #[inline]
    pub fn is_arena_shared(&self) -> bool {
        matches!(self.arena, ArenaStore::Shared(_))
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

    /// Claim a bitmap side-table slot (recycling freed ones).
    fn alloc_bitmap(&mut self, bitmap: BitSet) -> u32 {
        if let Some(slot) = self.free_bitmaps.pop() {
            self.bitmaps[slot as usize] = bitmap;
            slot
        } else {
            assert!(self.bitmaps.len() < NO_BITMAP as usize, "bitmap side table overflow");
            self.bitmaps.push(bitmap);
            (self.bitmaps.len() - 1) as u32
        }
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
        self.arena.make_owned().extend_from_slice(members);
        self.spans.push(SetSpan { start, len: members.len() as u32, bitmap: NO_BITMAP });
    }

    /// Append one RRR set (the [`RrrSet`] build-time value is ingested: a
    /// sorted list is spliced into the arena, a bitmap moves into the side
    /// table).
    pub fn push(&mut self, set: RrrSet) {
        match set {
            RrrSet::Sorted(list) => self.push_list(&list),
            RrrSet::Bitmap(bs) => self.push_bitmap(bs),
        }
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

    /// Append a **sorted** member slice, applying the adaptive policy.
    /// This is the zero-copy entry point bulk samplers use to splice
    /// per-worker arenas into the global collection.
    pub fn push_sorted_slice(&mut self, members: &[NodeId], policy: &AdaptivePolicy) {
        self.push_known_representation(members, policy.choose(members.len(), self.num_nodes));
    }

    /// Append a **sorted** member slice with an explicit representation
    /// (deserializers replay the stored choice instead of re-deciding).
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

    /// Adopt an already validated arena wholesale (zero-copy decode path):
    /// the buffer becomes the collection's arena, and the caller registers
    /// each list set's span with [`RrrCollection::push_adopted_span`].
    pub fn adopt_arena(num_nodes: usize, arena: Vec<NodeId>, set_cap: usize) -> Self {
        let mut c = Self::with_capacity(num_nodes, set_cap);
        c.arena = ArenaStore::Owned(arena);
        c
    }

    /// Adopt a **shared** arena (the memory-mapped snapshot path): the
    /// collection borrows `source`'s vertex slice wholesale and the caller
    /// registers spans with [`RrrCollection::push_adopted_span`] (eager
    /// validation) or [`RrrCollection::push_span_trusted`] (lazy — no member
    /// pages are touched). Any later mutation copies the arena onto the heap
    /// first.
    pub fn adopt_shared_arena(
        num_nodes: usize,
        source: Arc<dyn ArenaSource>,
        set_cap: usize,
    ) -> Self {
        let mut c = Self::with_capacity(num_nodes, set_cap);
        c.arena = ArenaStore::Shared(source);
        c
    }

    /// Validate and register a list set over an adopted arena segment: the
    /// slice must be in bounds, strictly increasing, and within the vertex
    /// space. On success the span is pushed without copying any members.
    pub fn push_adopted_span(&mut self, start: usize, len: usize) -> Result<(), &'static str> {
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.arena.len())
            .ok_or("arena length disagrees with the set lengths")?;
        let members = &self.arena.as_slice()[start..end];
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err("arena set is not strictly increasing");
        }
        if members.last().is_some_and(|&v| (v as usize) >= self.num_nodes) {
            return Err("set member outside the vertex space");
        }
        self.spans.push(SetSpan { start: start as u32, len: len as u32, bitmap: NO_BITMAP });
        Ok(())
    }

    /// Register a list set over an adopted arena segment **without reading
    /// its members**: only the bounds are checked. The zero-copy snapshot
    /// path uses this so `Store::open` touches no arena pages — the members
    /// were validated when the snapshot was written, and the file is guarded
    /// by the store's checksum/atomic-rename discipline.
    pub fn push_span_trusted(&mut self, start: usize, len: usize) -> Result<(), &'static str> {
        if start.checked_add(len).is_none_or(|e| e > self.arena.len()) {
            return Err("arena length disagrees with the set lengths");
        }
        if start + len > u32::MAX as usize {
            return Err("arena span exceeds the u32 offset space");
        }
        self.spans.push(SetSpan { start: start as u32, len: len as u32, bitmap: NO_BITMAP });
        Ok(())
    }

    /// Append every set from `other` (used to merge per-thread partitions).
    /// The live arena is spliced over in bulk; `other`'s bitmap side table
    /// is moved, not rebuilt.
    pub fn extend_from(&mut self, mut other: RrrCollection) {
        debug_assert_eq!(self.num_nodes, other.num_nodes);
        if other.dead == 0 {
            // Fast path: one bulk copy, spans rebased by a constant offset.
            let offset = self.next_start(other.arena.len());
            self.arena.make_owned().extend_from_slice(other.arena.as_slice());
            for span in &other.spans {
                let bitmap = if span.bitmap == NO_BITMAP {
                    NO_BITMAP
                } else {
                    let taken =
                        std::mem::replace(&mut other.bitmaps[span.bitmap as usize], BitSet::new(0));
                    self.alloc_bitmap(taken)
                };
                self.spans.push(SetSpan { start: span.start + offset, len: span.len, bitmap });
            }
        } else {
            for i in 0..other.len() {
                let span = other.spans[i];
                if span.bitmap == NO_BITMAP {
                    let src = span.start as usize..(span.start + span.len) as usize;
                    let start = self.next_start(span.len as usize);
                    self.arena.make_owned().extend_from_slice(&other.arena.as_slice()[src]);
                    self.spans.push(SetSpan { start, len: span.len, bitmap: NO_BITMAP });
                } else {
                    let taken =
                        std::mem::replace(&mut other.bitmaps[span.bitmap as usize], BitSet::new(0));
                    self.push_bitmap(taken);
                }
            }
        }
    }

    /// Access a set by index.
    #[inline]
    pub fn get(&self, idx: usize) -> SetView<'_> {
        let span = self.spans[idx];
        if span.bitmap == NO_BITMAP {
            SetView::Sorted(
                &self.arena.as_slice()[span.start as usize..(span.start + span.len) as usize],
            )
        } else {
            SetView::Bitmap(&self.bitmaps[span.bitmap as usize])
        }
    }

    /// Replace the set at `idx` (incremental refresh swaps resampled sets in
    /// place; the collection length never changes).
    ///
    /// A list replacement that fits rewrites the arena slot in place; a
    /// larger one is appended at the arena tail. Either way the old
    /// segment's leftover is tombstoned, and once the dead space outweighs
    /// the live data the arena is compacted — amortized O(1) per
    /// replacement. Bitmap slots are recycled through a free list.
    pub fn replace(&mut self, idx: usize, set: RrrSet) {
        let old = self.spans[idx];
        let old_arena = old.arena_len();
        match set {
            RrrSet::Sorted(members) => {
                let new_len = members.len();
                if new_len <= old_arena {
                    let dst = old.start as usize..old.start as usize + new_len;
                    self.arena.make_owned()[dst].copy_from_slice(&members);
                    self.dead += old_arena - new_len;
                } else {
                    let start = self.next_start(new_len);
                    self.arena.make_owned().extend_from_slice(&members);
                    self.dead += old_arena;
                    self.spans[idx].start = start;
                }
                self.spans[idx].len = new_len as u32;
                if old.bitmap != NO_BITMAP {
                    self.bitmaps[old.bitmap as usize] = BitSet::new(0);
                    self.free_bitmaps.push(old.bitmap);
                    self.spans[idx].bitmap = NO_BITMAP;
                }
            }
            RrrSet::Bitmap(bs) => {
                self.dead += old_arena;
                self.spans[idx].len = bs.len() as u32;
                if old.bitmap == NO_BITMAP {
                    let slot = self.alloc_bitmap(bs);
                    self.spans[idx].bitmap = slot;
                } else {
                    self.bitmaps[old.bitmap as usize] = bs;
                }
            }
        }
        self.maybe_compact();
    }

    /// Arena entries currently tombstoned (exposed for tests and accounting).
    #[inline]
    pub fn dead_entries(&self) -> usize {
        self.dead
    }

    /// Compact once the dead space outweighs the live data.
    fn maybe_compact(&mut self) {
        if self.dead >= COMPACTION_MIN_DEAD && self.dead * 2 > self.arena.len() {
            self.compact();
        }
    }

    /// Rebuild the arena with every live segment packed in set order.
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let live = self.arena.len() - self.dead;
        let old = std::mem::take(&mut self.arena);
        let old_arena = old.as_slice();
        let mut packed = Vec::with_capacity(live);
        for span in &mut self.spans {
            if span.bitmap != NO_BITMAP {
                span.start = packed.len() as u32;
                continue;
            }
            let src = span.start as usize..(span.start + span.len) as usize;
            span.start = packed.len() as u32;
            packed.extend_from_slice(&old_arena[src]);
        }
        self.arena = ArenaStore::Owned(packed);
        self.dead = 0;
    }

    /// Iterate over the sets as borrowed [`SetView`]s.
    pub fn iter(&self) -> SetViews<'_> {
        SetViews { collection: self, next: 0 }
    }

    /// Drop all sets, keeping the graph size (used when the martingale loop
    /// has to restart sampling with a larger θ in some IMM variants).
    pub fn clear(&mut self) {
        self.arena = ArenaStore::default();
        self.spans.clear();
        self.bitmaps.clear();
        self.free_bitmaps.clear();
        self.dead = 0;
    }

    /// Total heap bytes held by the collection: the vertex arena (live
    /// **and** tombstoned entries — both are resident until compaction), the
    /// span directory, and the bitmap side table. Vec over-allocation slack
    /// is excluded so the figure is a function of the logical contents, not
    /// of the build path.
    pub fn memory_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<NodeId>()
            + self.spans.len() * std::mem::size_of::<SetSpan>()
            + self.free_bitmaps.len() * std::mem::size_of::<u32>()
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

/// A borrowed view of a **contiguous set range** of a collection — the
/// substrate of index sharding: a shard is exactly `collection.slice(start,
/// len)`, i.e. a span-directory slice over the shared arena. Nothing is
/// copied; `get` hands out the same zero-copy [`SetView`]s the full
/// collection does, with set ids local to the range.
#[derive(Debug, Clone, Copy)]
pub struct CollectionSlice<'a> {
    collection: &'a RrrCollection,
    start: usize,
    len: usize,
}

impl<'a> CollectionSlice<'a> {
    /// Number of sets in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global id of the range's first set.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of vertices of the underlying graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.collection.num_nodes()
    }

    /// Access a set by its **local** index in `[0, len)`.
    #[inline]
    pub fn get(&self, local: usize) -> SetView<'a> {
        assert!(local < self.len, "local set {local} out of slice length {}", self.len);
        self.collection.get(self.start + local)
    }

    /// Iterate over the range's sets as borrowed [`SetView`]s, in local order.
    pub fn iter(&self) -> SliceViews<'a> {
        SliceViews { slice: *self, next: 0 }
    }
}

/// Iterator over the sets of a [`CollectionSlice`].
#[derive(Debug, Clone)]
pub struct SliceViews<'a> {
    slice: CollectionSlice<'a>,
    next: usize,
}

impl<'a> Iterator for SliceViews<'a> {
    type Item = SetView<'a>;

    fn next(&mut self) -> Option<SetView<'a>> {
        if self.next >= self.slice.len() {
            return None;
        }
        let view = self.slice.get(self.next);
        self.next += 1;
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.slice.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SliceViews<'_> {}

impl<'a> IntoIterator for CollectionSlice<'a> {
    type Item = SetView<'a>;
    type IntoIter = SliceViews<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl RrrCollection {
    /// Borrow the contiguous set range `[start, start + len)` as a
    /// [`CollectionSlice`].
    ///
    /// # Panics
    /// Panics if the range reaches past the collection.
    pub fn slice(&self, start: usize, len: usize) -> CollectionSlice<'_> {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice [{start}, {start} + {len}) out of bounds for {} sets",
            self.len()
        );
        CollectionSlice { collection: self, start, len }
    }
}

/// Logical equality: same vertex space, same sets (members **and**
/// representation), regardless of arena layout — a freshly built collection
/// and one that went through `replace`/compaction compare equal when their
/// sets do.
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

/// Owned iteration materializes each set back into an [`RrrSet`] value.
impl IntoIterator for RrrCollection {
    type Item = RrrSet;
    type IntoIter = std::vec::IntoIter<RrrSet>;

    fn into_iter(self) -> Self::IntoIter {
        let sets: Vec<RrrSet> = self.iter().map(|v| v.to_set()).collect();
        sets.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collection_with(sets: Vec<Vec<NodeId>>, n: usize) -> RrrCollection {
        let mut c = RrrCollection::new(n);
        for s in sets {
            c.push(RrrSet::sorted(s));
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
    fn extend_from_merges_partitions() {
        let mut a = collection_with(vec![vec![0]], 5);
        let b = collection_with(vec![vec![1], vec![2]], 5);
        a.extend_from(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(1).to_vec(), vec![1]);
        assert_eq!(a.get(2).to_vec(), vec![2]);
    }

    #[test]
    fn extend_from_moves_bitmap_side_table_entries() {
        let mut a = RrrCollection::new(64);
        a.push_vertices(vec![1, 2], &AdaptivePolicy::always_sorted());
        let mut b = RrrCollection::new(64);
        b.push_vertices((0..40).collect(), &AdaptivePolicy::always_bitmap());
        b.push_vertices(vec![5], &AdaptivePolicy::always_sorted());
        a.extend_from(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(1).representation(), Representation::Bitmap);
        assert!(a.get(1).contains(39));
        assert!(!a.get(1).contains(41));
        assert_eq!(a.get(2).representation(), Representation::SortedList);
    }

    #[test]
    fn extend_from_a_tombstoned_source_keeps_only_live_data() {
        let mut src = collection_with(vec![vec![0, 1, 2, 3], vec![4, 5]], 10);
        src.replace(0, RrrSet::sorted(vec![7]));
        assert!(src.dead_entries() > 0);
        let mut dst = collection_with(vec![vec![9]], 10);
        dst.extend_from(src);
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.get(1).to_vec(), vec![7]);
        assert_eq!(dst.get(2).to_vec(), vec![4, 5]);
        assert_eq!(dst.dead_entries(), 0, "tombstones never cross an extend_from");
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
    fn replace_swaps_one_set_in_place() {
        let mut c = collection_with(vec![vec![0, 1], vec![2]], 5);
        c.replace(1, RrrSet::sorted(vec![3, 4]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0).to_vec(), vec![0, 1]);
        assert_eq!(c.get(1).to_vec(), vec![3, 4]);
    }

    #[test]
    fn replace_shrinking_tombstones_and_growing_appends() {
        let mut c = collection_with(vec![vec![0, 1, 2], vec![3]], 5);
        c.replace(0, RrrSet::sorted(vec![4]));
        assert_eq!(c.get(0).to_vec(), vec![4]);
        assert_eq!(c.dead_entries(), 2, "shrinking tombstones the leftover");
        c.replace(1, RrrSet::sorted(vec![0, 1, 2, 3]));
        assert_eq!(c.get(1).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(c.dead_entries(), 3, "growing tombstones the whole old span");
        // Untouched set is unaffected.
        assert_eq!(c.get(0).to_vec(), vec![4]);
    }

    #[test]
    fn replace_swaps_representations_both_ways() {
        let mut c = RrrCollection::new(64);
        c.push_vertices(vec![1, 2], &AdaptivePolicy::always_sorted());
        c.push_vertices((0..40).collect(), &AdaptivePolicy::always_bitmap());
        // Sorted -> bitmap.
        c.replace(
            0,
            RrrSet::from_vertices((10..50).collect(), 64, &AdaptivePolicy::always_bitmap()),
        );
        assert_eq!(c.get(0).representation(), Representation::Bitmap);
        assert!(c.get(0).contains(49));
        assert_eq!(c.get(0).to_vec(), (10..50).collect::<Vec<_>>());
        // Bitmap -> sorted frees the side-table slot for reuse.
        c.replace(1, RrrSet::sorted(vec![7]));
        assert_eq!(c.get(1).representation(), Representation::SortedList);
        assert_eq!(c.get(1).to_vec(), vec![7]);
        c.push_vertices((0..64).collect(), &AdaptivePolicy::always_bitmap());
        assert_eq!(c.coverage_stats().bitmap_sets, 2);
    }

    #[test]
    fn compaction_reclaims_dead_space_and_preserves_contents() {
        let n = 100usize;
        let mut c = RrrCollection::new(n);
        for i in 0..50u32 {
            c.push(RrrSet::sorted((0..60).map(|j| (i + j) % 100).collect::<Vec<_>>()));
        }
        // Shrink every set: dead space grows past the live size and the
        // amortized compaction must kick in at some point.
        for i in 0..50usize {
            c.replace(i, RrrSet::sorted(vec![i as NodeId]));
        }
        assert!(
            c.dead_entries() < COMPACTION_MIN_DEAD || c.dead_entries() * 2 <= c.arena_len(),
            "compaction bounded the dead space (dead = {}, arena = {})",
            c.dead_entries(),
            c.arena_len()
        );
        assert!(c.arena_len() < 3000, "at least one compaction must have run");
        for i in 0..50usize {
            assert_eq!(c.get(i).to_vec(), vec![i as NodeId]);
        }
        // Explicit compaction packs fully and changes nothing logically.
        let before = c.clone();
        c.compact();
        assert_eq!(c.dead_entries(), 0);
        assert_eq!(c, before);
    }

    #[test]
    fn equality_is_layout_independent() {
        let mut a = collection_with(vec![vec![0, 1, 2], vec![3, 4]], 10);
        let b = collection_with(vec![vec![5], vec![3, 4]], 10);
        a.replace(0, RrrSet::sorted(vec![5]));
        assert_eq!(a, b, "tombstoned layout must compare equal to a fresh build");
        a.compact();
        assert_eq!(a, b);
        // Representation is part of equality.
        let mut c = RrrCollection::new(10);
        c.push_vertices(vec![5], &AdaptivePolicy::always_bitmap());
        c.push_vertices(vec![3, 4], &AdaptivePolicy::always_sorted());
        assert_ne!(a, c);
    }

    proptest! {
        /// A collection driven through arbitrary `replace` sequences (and the
        /// compactions they trigger) equals the collection built fresh from a
        /// shadow model holding each set as its own `RrrSet` value.
        #[test]
        fn replaced_collections_equal_a_fresh_build_of_the_same_sets(
            initial in proptest::collection::vec(
                (proptest::collection::hash_set(0u32..400, 0..80), any::<bool>()),
                1..16,
            ),
            replacements in proptest::collection::vec(
                (any::<prop::sample::Index>(),
                 proptest::collection::hash_set(0u32..400, 0..80),
                 any::<bool>()),
                0..24,
            ),
        ) {
            let set_of = |vertices: &std::collections::HashSet<u32>, bitmap: bool| {
                let policy =
                    if bitmap { AdaptivePolicy::always_bitmap() } else { AdaptivePolicy::always_sorted() };
                RrrSet::from_vertices(vertices.iter().copied().collect(), 400, &policy)
            };
            let collect = |sets: &[RrrSet]| {
                let mut c = RrrCollection::new(400);
                sets.iter().for_each(|set| c.push(set.clone()));
                c
            };
            let mut model: Vec<RrrSet> = initial.iter().map(|(v, bitmap)| set_of(v, *bitmap)).collect();
            let mut arena = collect(&model);
            for (idx, vertices, bitmap) in &replacements {
                let slot = idx.index(model.len());
                model[slot] = set_of(vertices, *bitmap);
                arena.replace(slot, model[slot].clone());
            }
            prop_assert_eq!(&arena, &collect(&model));
            // And an explicit compaction changes nothing observable.
            arena.compact();
            prop_assert_eq!(arena.dead_entries(), 0);
            prop_assert_eq!(&arena, &collect(&model));
        }
    }

    #[test]
    fn into_iterator_yields_all_sets() {
        let c = collection_with(vec![vec![0], vec![1], vec![2]], 5);
        assert_eq!(c.into_iter().count(), 3);
    }

    #[test]
    fn push_sorted_slice_matches_push_vertices() {
        let mut a = RrrCollection::new(1000);
        let mut b = RrrCollection::new(1000);
        a.push_vertices(vec![9, 3, 7], &AdaptivePolicy::default());
        b.push_sorted_slice(&[3, 7, 9], &AdaptivePolicy::default());
        assert_eq!(a, b);
    }

    #[test]
    fn slices_view_the_arena_without_copying() {
        let mut c = RrrCollection::new(64);
        c.push(RrrSet::sorted(vec![0, 1]));
        c.push_vertices((0..40).collect(), &AdaptivePolicy::always_bitmap());
        c.push(RrrSet::sorted(vec![5, 9]));
        c.push(RrrSet::sorted(vec![7]));

        let slice = c.slice(1, 2);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.start(), 1);
        assert_eq!(slice.num_nodes(), 64);
        assert_eq!(slice.get(0).representation(), Representation::Bitmap);
        assert_eq!(slice.get(1).to_vec(), vec![5, 9]);
        let sizes: Vec<usize> = slice.iter().map(|v| v.len()).collect();
        assert_eq!(sizes, vec![40, 2]);
        // The sorted view borrows the very arena slice the collection holds.
        assert_eq!(
            slice.get(1).members().unwrap().as_ptr(),
            c.get(2).members().unwrap().as_ptr(),
            "slice views must not copy members"
        );

        // Empty and full ranges are fine; overruns panic.
        assert!(c.slice(4, 0).is_empty());
        assert_eq!(c.slice(0, 4).iter().count(), 4);
        assert!(std::panic::catch_unwind(|| c.slice(3, 2)).is_err());
        let full = c.slice(0, 4);
        assert!(std::panic::catch_unwind(move || full.get(4)).is_err());
    }

    /// A heap-backed stand-in for a mapped snapshot arena section.
    #[derive(Debug)]
    struct VecArena(Vec<NodeId>);

    impl ArenaSource for VecArena {
        fn nodes(&self) -> &[NodeId] {
            &self.0
        }
    }

    #[test]
    fn shared_arena_serves_borrowed_views() {
        let source: Arc<dyn ArenaSource> = Arc::new(VecArena(vec![0, 1, 2, 3, 4, 2, 7]));
        let mut c = RrrCollection::adopt_shared_arena(10, Arc::clone(&source), 3);
        c.push_span_trusted(0, 2).unwrap();
        c.push_span_trusted(2, 3).unwrap();
        c.push_span_trusted(5, 2).unwrap();
        assert!(c.is_arena_shared());
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0).to_vec(), vec![0, 1]);
        assert_eq!(c.get(1).to_vec(), vec![2, 3, 4]);
        // The borrowed view points straight into the shared buffer.
        assert_eq!(c.get(2).members().unwrap().as_ptr(), source.nodes()[5..].as_ptr());
        // Out-of-bounds spans are rejected without reading members.
        assert!(c.push_span_trusted(6, 2).is_err());
        assert!(c.push_span_trusted(usize::MAX, 2).is_err());
        // Equality against an owned build of the same sets.
        let owned = collection_with(vec![vec![0, 1], vec![2, 3, 4], vec![2, 7]], 10);
        assert_eq!(c, owned);
    }

    #[test]
    fn shared_arena_copy_on_write_detaches() {
        let source: Arc<dyn ArenaSource> = Arc::new(VecArena(vec![0, 1, 2, 3]));
        let mut c = RrrCollection::adopt_shared_arena(10, Arc::clone(&source), 2);
        c.push_span_trusted(0, 2).unwrap();
        c.push_span_trusted(2, 2).unwrap();
        // replace() must copy the arena to the heap, leaving the source as-is.
        c.replace(0, RrrSet::sorted(vec![8, 9]));
        assert!(!c.is_arena_shared());
        assert_eq!(c.get(0).to_vec(), vec![8, 9]);
        assert_eq!(c.get(1).to_vec(), vec![2, 3]);
        assert_eq!(source.nodes(), &[0, 1, 2, 3]);
        // push after adoption also detaches.
        let mut d = RrrCollection::adopt_shared_arena(10, Arc::clone(&source), 1);
        d.push_span_trusted(0, 4).unwrap();
        d.push(RrrSet::sorted(vec![5]));
        assert!(!d.is_arena_shared());
        assert_eq!(d.get(1).to_vec(), vec![5]);
        // clear drops the shared reference entirely.
        let mut e = RrrCollection::adopt_shared_arena(10, source, 1);
        e.clear();
        assert!(!e.is_arena_shared());
        assert_eq!(e.arena_len(), 0);
    }

    #[test]
    fn adopted_spans_validate_members_eagerly() {
        // 2 is repeated => {4, 2} would be non-increasing.
        let mut c = RrrCollection::adopt_arena(10, vec![0, 1, 4, 2], 2);
        assert!(c.push_adopted_span(0, 2).is_ok());
        assert!(c.push_adopted_span(2, 2).is_err(), "non-increasing members rejected");
        let mut d = RrrCollection::adopt_arena(3, vec![0, 9], 1);
        assert!(d.push_adopted_span(0, 2).is_err(), "vertex outside the space rejected");
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
