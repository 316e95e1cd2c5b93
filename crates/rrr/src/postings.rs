//! The vertex-adaptive inverted structure: "which sets contain vertex `v`",
//! with the representation chosen per vertex.
//!
//! [`AdaptivePolicy`](crate::AdaptivePolicy) stores a *set* denser than 1/32
//! of the graph as a bitmap, because a `u32` list then costs more memory
//! than one bit per vertex. [`Postings`] applies the dual rule to the
//! inverse: a vertex contained in more than `range_len / 32` of the
//! `range_len` sets stores a `⌈range_len / 64⌉`-word bit **row** (bit `i` =
//! "set `i` contains me"), every other vertex keeps its ascending `u32`
//! **list** in a CSR. The form is a pure function of (degree, set count):
//! there is no knob, and a structure patched by [`Postings::patched`] is
//! indistinguishable from one rebuilt by [`Postings::build`].
//!
//! A serving generation holds nothing else: the postings are the whole
//! sample, so every set-major question a refresh or a shard map asks is
//! answered from them ([`membership_edits`], [`PostingsView::count_below`]).
//!
//! In the dense regime (IC, uniform weights) nearly every vertex is a row:
//! at θ = 2 758 a row is 44 words ≈ 6 cache lines where the list it replaces
//! is ~11 KB ≈ 170 lines, and covering a seed set is an OR of rows plus a
//! popcount ([`PostingsView::or_into`], [`PostingsView::count_outside`])
//! instead of one marked bit per membership. In the sparse regime (LT, sets of a few
//! vertices) no vertex qualifies and the structure is exactly the CSR it
//! replaces.
//!
//! One counting sort builds it ([`Postings::build`]), for a serving index,
//! a run's selection and the eager batch kernel's cover index alike.
//! Bitmap sets enter through 64×64 bit-block transposes of their words
//! rather than one store per member. The four arrays are also, verbatim, the
//! postings sections of the mappable snapshot: [`Postings::from_source`]
//! serves them in place from any [`PostingsSource`].

use crate::bitset::BitSet;
use crate::collection::{RrrCollection, SetView};
use crate::NodeId;
use std::sync::Arc;

/// Read-only provider of the four postings sections of a mappable snapshot.
/// `imm-store` implements this over the mapped file so a loaded index serves
/// postings without rebuilding them.
pub trait PostingsSource: Send + Sync + std::panic::RefUnwindSafe + std::fmt::Debug {
    /// CSR offsets of the list vertices (`num_nodes + 1` entries; a row
    /// vertex has an empty range).
    fn offsets(&self) -> &[u64];
    /// The flat list array (`offsets().last()` entries).
    fn set_ids(&self) -> &[u32];
    /// The row table: the `R` row-vertex ids, ascending, then their `R`
    /// degrees.
    fn row_table(&self) -> &[u32];
    /// The rows, `⌈range_len / 64⌉` words each, in row-table order.
    fn rows(&self) -> &[u64];
}

/// `row_of` entry of a list vertex.
const NO_ROW: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Store {
    Owned { offsets: Vec<u64>, lists: Vec<u32>, row_table: Vec<u32>, rows: Vec<u64> },
    Shared(Arc<dyn PostingsSource>),
}

/// How many vertices and bytes each form of a [`Postings`] holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingsStats {
    /// Vertices stored as bit rows.
    pub row_vertices: usize,
    /// Bytes of the rows and their table.
    pub row_bytes: usize,
    /// Entries of the `u32` lists.
    pub list_entries: usize,
    /// Bytes of the lists and their offsets.
    pub list_bytes: usize,
}

impl PostingsStats {
    /// Bytes of both forms.
    pub fn bytes(&self) -> usize {
        self.row_bytes + self.list_bytes
    }
}

impl std::ops::AddAssign for PostingsStats {
    fn add_assign(&mut self, other: Self) {
        self.row_vertices += other.row_vertices;
        self.row_bytes += other.row_bytes;
        self.list_entries += other.list_entries;
        self.list_bytes += other.list_bytes;
    }
}

/// One membership edit of [`Postings::patched`]: `(vertex, set id, joins)`.
pub type MembershipEdit = (NodeId, u32, bool);

/// Vertex → ids of the sets containing it; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Postings {
    num_nodes: usize,
    range_len: usize,
    /// A vertex of larger degree stores a row.
    row_threshold: usize,
    /// Σ degree.
    entries: u64,
    store: Store,
    /// Row slot per vertex ([`NO_ROW`] for list vertices); empty when no
    /// vertex stores a row.
    row_of: Vec<u32>,
}

/// In-place transpose of a 64×64 bit matrix, least-significant bit first:
/// afterwards bit `r` of word `c` is what bit `c` of word `r` was.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// What a pass of the counting sort does with the memberships
/// [`walk_memberships`] delivers; a vertex sees its set ids ascending across
/// both calls.
trait MembershipSink {
    /// Set `local` — a list set in a block without bitmap sets — contains `v`.
    fn one(&mut self, v: NodeId, local: u32);
    /// All membership bits of `v` among the sets `64·block .. 64·block + 64`.
    fn word(&mut self, v: NodeId, block: usize, word: u64);
}

/// Pass 1: occurrence counts.
struct CountDegrees<'a>(&'a mut [u32]);

impl MembershipSink for CountDegrees<'_> {
    #[inline]
    fn one(&mut self, v: NodeId, _: u32) {
        self.0[v as usize] += 1;
    }

    #[inline]
    fn word(&mut self, v: NodeId, _: usize, word: u64) {
        self.0[v as usize] += word.count_ones();
    }
}

/// Pass 2: bits into the rows, ids behind the list cursors.
struct Fill<'a> {
    row_of: &'a [u32],
    words: usize,
    rows: &'a mut [u64],
    cursor: &'a mut [u64],
    lists: &'a mut [u32],
}

impl Fill<'_> {
    #[inline]
    fn push(&mut self, v: NodeId, local: u32) {
        let at = &mut self.cursor[v as usize];
        self.lists[*at as usize] = local;
        *at += 1;
    }
}

impl MembershipSink for Fill<'_> {
    #[inline]
    fn one(&mut self, v: NodeId, local: u32) {
        match row_slot(self.row_of, v) {
            Some(slot) => {
                self.rows[slot * self.words + (local / 64) as usize] |= 1u64 << (local % 64)
            }
            None => self.push(v, local),
        }
    }

    #[inline]
    fn word(&mut self, v: NodeId, block: usize, word: u64) {
        match row_slot(self.row_of, v) {
            Some(slot) => self.rows[slot * self.words + block] |= word,
            None => for_each_bit(word, (block * 64) as u32, |local| self.push(v, local)),
        }
    }
}

/// Call `f` with every member of `set`; the first one outside a space of
/// `n` vertices is reported instead.
fn members_in_space(set: SetView<'_>, n: usize, mut f: impl FnMut(NodeId)) -> Result<(), NodeId> {
    let mut outside = None;
    set.for_each(|v| {
        if (v as usize) < n {
            f(v);
        } else {
            outside = outside.or(Some(v));
        }
    });
    outside.map_or(Ok(()), Err)
}

/// Deliver every membership of the collection's sets `from..` to `sink`,
/// blocks of 64 set ids ascending from `from` (block `b` holds the ids
/// `from + 64·b ..`). A block holding a bitmap set delivers each vertex's bits
/// whole, out of 64×64 transposes of the sets' words (one per 64 vertices,
/// instead of one store per member); a block of list sets delivers its
/// members one by one, sets ascending. A member outside the vertex space
/// aborts the walk.
fn walk_memberships(
    sets: &RrrCollection,
    from: usize,
    sink: &mut impl MembershipSink,
) -> Result<(), NodeId> {
    let (n, len) = (sets.num_nodes(), sets.len());
    // A bitmap over another vertex space is walked bit by bit, like a list,
    // so a member beyond `n` is reported rather than dropped.
    fn transposable<'a>(set: &SetView<'a>, n: usize) -> Option<&'a BitSet> {
        set.bitmap().filter(|bits| bits.capacity() == n)
    }
    let mut scratch: Vec<u64> = Vec::new();
    for block in 0..len.saturating_sub(from).div_ceil(64) {
        let first = from + block * 64;
        let ids = first..(first + 64).min(len);
        if !sets.has_bitmap_in(ids.start, ids.len()) {
            for local in ids {
                members_in_space(sets.get(local), n, |v| sink.one(v, local as u32))?;
            }
            continue;
        }
        let views: Vec<SetView<'_>> = ids.map(|local| sets.get(local)).collect();
        scratch.resize(n.div_ceil(64) * 64, 0);
        for (j, out) in scratch.chunks_exact_mut(64).enumerate() {
            let mut m = [0u64; 64];
            for (row, set) in m.iter_mut().zip(&views) {
                *row = transposable(set, n).map_or(0, |bits| bits.words()[j]);
            }
            transpose64(&mut m);
            out.copy_from_slice(&m);
        }
        for (i, &set) in views.iter().enumerate().filter(|(_, set)| transposable(set, n).is_none())
        {
            members_in_space(set, n, |v| scratch[v as usize] |= 1u64 << i)?;
        }
        for (v, &word) in scratch[..n].iter().enumerate().filter(|(_, &word)| word != 0) {
            sink.word(v as NodeId, block, word);
        }
    }
    Ok(())
}

/// Add to `counts[v]` how many of the sets `from..` of `sets` contain `v`:
/// the count pass of [`Postings::build`] over those sets, bitmap sets
/// counted out of 64×64 bit-block transposes. Counting a growing collection
/// batch by batch leaves the degrees [`Postings::build_with_degrees`] takes.
/// Fails with the first member outside the vertex space.
///
/// # Panics
/// Panics if `counts` does not hold one entry per vertex.
pub fn count_memberships(
    sets: &RrrCollection,
    from: usize,
    counts: &mut [u32],
) -> Result<(), NodeId> {
    assert_eq!(counts.len(), sets.num_nodes(), "one count per vertex");
    walk_memberships(sets, from, &mut CountDegrees(counts))
}

/// Call `f` with the index of every set bit of `word`, ascending, offset by
/// `base`.
#[inline]
fn for_each_bit(mut word: u64, base: u32, mut f: impl FnMut(u32)) {
    while word != 0 {
        f(base + word.trailing_zeros());
        word &= word - 1;
    }
}

impl Postings {
    /// Invert every set of `sets`: the workspace's one vertex → set counting
    /// sort. Fails with the first member outside the vertex space.
    ///
    /// # Panics
    /// Panics if the collection holds more than `u32::MAX` sets.
    pub fn build(sets: &RrrCollection) -> Result<Self, NodeId> {
        Self::build_with_threshold(sets, sets.len() / 32)
    }

    /// [`Postings::build`] with the row threshold forced: a vertex stores a
    /// row iff its degree exceeds `row_threshold` (`usize::MAX`: all lists;
    /// `0`: a row for every vertex of positive degree). For the property
    /// tests that drive all three mixes over one collection.
    pub fn build_with_threshold(
        sets: &RrrCollection,
        row_threshold: usize,
    ) -> Result<Self, NodeId> {
        let mut degrees = vec![0u32; sets.num_nodes()];
        count_memberships(sets, 0, &mut degrees)?;
        Self::counting_sort(sets, row_threshold, &degrees)
    }

    /// [`Postings::build`] from the degrees the caller already holds —
    /// `degrees[v]` sets of `sets` contain `v`, as [`count_memberships`]
    /// counts them — so the counting sort skips its count pass and walks
    /// the sets (and transposes their bitmap blocks) once.
    ///
    /// # Panics
    /// Panics if `degrees` does not hold one entry per vertex, and may panic
    /// or build wrong postings if an entry is not the vertex's degree.
    pub fn build_with_degrees(sets: &RrrCollection, degrees: &[u32]) -> Result<Self, NodeId> {
        assert_eq!(degrees.len(), sets.num_nodes(), "one degree per vertex");
        Self::counting_sort(sets, sets.len() / 32, degrees)
    }

    /// The counting sort's fill pass, over the sets' `degrees`.
    fn counting_sort(
        sets: &RrrCollection,
        row_threshold: usize,
        degrees: &[u32],
    ) -> Result<Self, NodeId> {
        let (n, len) = (sets.num_nodes(), sets.len());
        assert!(u32::try_from(len).is_ok(), "more than u32::MAX sets in one postings structure");
        let words = len.div_ceil(64);

        let mut offsets = Vec::with_capacity(n + 1);
        let (mut row_ids, mut row_degrees) = (Vec::new(), Vec::new());
        let mut total = 0u64;
        let mut entries = 0u64;
        for (v, &degree) in degrees.iter().enumerate() {
            offsets.push(total);
            entries += degree as u64;
            if degree as usize > row_threshold {
                row_ids.push(v as u32);
                row_degrees.push(degree);
            } else {
                total += degree as u64;
            }
        }
        offsets.push(total);
        let row_of = row_slots(n, &row_ids);

        let mut cursor = offsets.clone();
        let mut lists = vec![0u32; total as usize];
        let mut rows = vec![0u64; row_ids.len() * words];
        let mut fill = Fill {
            row_of: &row_of,
            words,
            rows: &mut rows,
            cursor: &mut cursor,
            lists: &mut lists,
        };
        walk_memberships(sets, 0, &mut fill)?;
        debug_assert!(
            (0..n).all(|v| row_of.get(v).is_some_and(|&slot| slot != NO_ROW)
                || cursor[v] == offsets[v + 1]),
            "the degrees are the sets' memberships"
        );

        row_ids.append(&mut row_degrees);
        let store = Store::Owned { offsets, lists, row_table: row_ids, rows };
        Ok(Postings { num_nodes: n, range_len: len, row_threshold, entries, store, row_of })
    }

    /// Serve the four sections of `source` in place, as the postings of
    /// `range_len` sets over `num_nodes` vertices. Validates what the
    /// offsets and the row table alone can show — section lengths,
    /// monotonic offsets, row ids ascending and in range, no row vertex with
    /// a list, every degree on its form's side of `range_len / 32` — and
    /// reads no list and no row: bits a row sets beyond `range_len` are
    /// masked wherever a row is read, so no id outside the range can come
    /// out of a lying file.
    pub fn from_source(
        num_nodes: usize,
        range_len: usize,
        source: Arc<dyn PostingsSource>,
    ) -> Result<Self, &'static str> {
        Self::adopt(num_nodes, range_len, Store::Shared(source))
    }

    /// Own four decoded sections, after the checks of
    /// [`Postings::from_source`].
    pub fn from_sections(
        num_nodes: usize,
        range_len: usize,
        offsets: Vec<u64>,
        lists: Vec<u32>,
        row_table: Vec<u32>,
        rows: Vec<u64>,
    ) -> Result<Self, &'static str> {
        Self::adopt(num_nodes, range_len, Store::Owned { offsets, lists, row_table, rows })
    }

    fn adopt(num_nodes: usize, range_len: usize, store: Store) -> Result<Self, &'static str> {
        let row_threshold = range_len / 32;
        let mut postings =
            Postings { num_nodes, range_len, row_threshold, entries: 0, store, row_of: Vec::new() };
        (postings.entries, postings.row_of) = {
            let (offsets, lists, row_table, rows) = postings.sections();
            validate_shape(num_nodes, range_len, offsets, row_table, (lists.len(), rows.len()))?
        };
        Ok(postings)
    }

    /// What [`Postings::from_source`] leaves to trust, checked by reading
    /// everything: every list strictly ascending and inside the range, no
    /// row bit beyond the range, every stored row degree equal to the row's
    /// popcount. The checksummed read-decode path runs this.
    ///
    /// The list checks are branch-free passes over the flat section. A
    /// descent (a neighbour pair `a >= b`) may only straddle the start of a
    /// list, so the lists are strictly ascending exactly when the descents
    /// of the whole section are the descents at list starts; and ascending
    /// lists stay inside the range exactly when the section's maximum does.
    pub fn validate_contents(&self) -> Result<(), &'static str> {
        let view = self.view();
        let lists = view.lists;
        if let Some(last) = lists.len().checked_sub(1).filter(|&last| last > 0) {
            // Counted in `u32` per block of pairs, which vectorizes twice as
            // wide as a `usize` count.
            let blocks = lists[..last].chunks(1 << 20).zip(lists[1..].chunks(1 << 20));
            let descents: usize = blocks
                .map(|(a, b)| a.iter().zip(b).map(|(x, y)| u32::from(x >= y)).sum::<u32>() as usize)
                .sum();
            let at_starts: usize = (view.offsets.windows(2))
                .map(|w| {
                    let (start, end) = (w[0] as usize, w[1] as usize);
                    let at = start.clamp(1, last);
                    usize::from((start > 0) & (start < end) & (lists[at - 1] >= lists[at]))
                })
                .sum();
            if descents != at_starts {
                return Err("posting list is not strictly ascending");
            }
        }
        let max = lists.iter().copied().fold(0, u32::max);
        if !lists.is_empty() && max as usize >= self.range_len {
            return Err("posting list names a set outside the range");
        }
        let tail = view.tail_mask();
        for (row, &degree) in view.rows.chunks_exact(view.words.max(1)).zip(view.row_degrees) {
            if row.last().is_some_and(|&last| last & !tail != 0) {
                return Err("row sets a bit beyond the range");
            }
            if row.iter().map(|w| w.count_ones()).sum::<u32>() != degree {
                return Err("stored row degree disagrees with the row's popcount");
            }
        }
        Ok(())
    }

    /// The four arrays as the snapshot stores them: offsets, lists, row
    /// table (ids then degrees), rows.
    pub fn sections(&self) -> (&[u64], &[u32], &[u32], &[u64]) {
        match &self.store {
            Store::Owned { offsets, lists, row_table, rows } => (offsets, lists, row_table, rows),
            Store::Shared(source) => {
                (source.offsets(), source.set_ids(), source.row_table(), source.rows())
            }
        }
    }

    /// The arrays resolved once, for a loop that reads many vertices: on a
    /// shared backing every section is a virtual call away, which a hot loop
    /// should pay per query, not per vertex.
    #[inline]
    pub fn view(&self) -> PostingsView<'_> {
        let (offsets, lists, row_table, rows) = self.sections();
        PostingsView {
            words: self.range_len.div_ceil(64),
            tail_bits: (self.range_len % 64) as u32,
            offsets,
            lists,
            row_of: &self.row_of,
            row_degrees: &row_table[row_table.len() / 2..],
            rows,
        }
    }

    /// Words of one row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.range_len.div_ceil(64)
    }

    /// Vertices of the indexed vertex space.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of indexed sets: ids run over `0..range_len`.
    #[inline]
    pub fn range_len(&self) -> usize {
        self.range_len
    }

    /// Total memberships (Σ over vertices of [`Postings::degree`]).
    #[inline]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Whether the arrays are borrowed from a shared (e.g. memory-mapped)
    /// buffer rather than heap-built.
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self.store, Store::Shared(_))
    }

    /// [`PostingsView::is_row`] of a one-off view.
    #[inline]
    pub fn is_row(&self, v: NodeId) -> bool {
        self.view().is_row(v)
    }

    /// [`PostingsView::degree`] of a one-off view — except that a list on the
    /// heap answers from its offsets alone, small enough to inline into a
    /// caller's loop (admission prices a query one degree at a time).
    #[inline]
    pub fn degree(&self, v: NodeId) -> u64 {
        match (row_slot(&self.row_of, v), &self.store) {
            (None, Store::Owned { offsets, .. }) => offsets[v as usize + 1] - offsets[v as usize],
            _ => self.viewed_degree(v),
        }
    }

    #[inline(never)]
    fn viewed_degree(&self, v: NodeId) -> u64 {
        self.view().degree(v)
    }

    /// [`PostingsView::for_each`] of a one-off view.
    #[inline]
    pub fn for_each(&self, v: NodeId, f: impl FnMut(u32)) {
        self.view().for_each(v, f);
    }

    /// The local ids of the sets containing `v`, ascending.
    pub fn ids(&self, v: NodeId) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.degree(v) as usize);
        self.for_each(v, |id| ids.push(id));
        ids
    }

    /// Vertices and bytes per form.
    pub fn stats(&self) -> PostingsStats {
        let (offsets, lists, row_table, rows) = self.sections();
        PostingsStats {
            row_vertices: row_table.len() / 2,
            row_bytes: std::mem::size_of_val(row_table)
                + std::mem::size_of_val(rows)
                + std::mem::size_of_val(&self.row_of[..]),
            list_entries: lists.len(),
            list_bytes: std::mem::size_of_val(offsets) + std::mem::size_of_val(lists),
        }
    }

    /// The structure after `edits` — sorted, each a membership that really
    /// changes — leaving `self` untouched (a generation still serving it
    /// keeps doing so). Rows flip bits, lists splice, and a vertex whose
    /// degree crosses the threshold changes form, so the result equals a
    /// [`Postings::build`] over the edited sets array for array.
    pub fn patched(&self, edits: &[MembershipEdit]) -> Postings {
        debug_assert!(edits.windows(2).all(|w| w[0] < w[1]), "edits are sorted and distinct");
        let old = self.view();
        let n = self.num_nodes;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut lists: Vec<u32> = Vec::with_capacity(old.lists.len() + edits.len());
        let (mut row_ids, mut row_degrees) = (Vec::new(), Vec::new());
        let mut rows: Vec<u64> = Vec::with_capacity(old.rows.len());
        let mut entries = 0u64;
        let mut pending = edits;
        for v in 0..n as NodeId {
            offsets.push(lists.len() as u64);
            let mine = pending.iter().take_while(|edit| edit.0 == v).count();
            let (edits_of_v, later) = pending.split_at(mine);
            pending = later;
            let joins = edits_of_v.iter().filter(|edit| edit.2).count() as u64;
            let degree = old.degree(v) + joins - (edits_of_v.len() as u64 - joins);
            entries += degree;
            let old_row = old.row(v);
            if degree as usize > self.row_threshold {
                let at = rows.len();
                match old_row {
                    Some(row) => old.for_each_row_word(row, |_, word| rows.push(word)),
                    None => {
                        rows.resize(at + old.words, 0);
                        for &id in old.list(v) {
                            rows[at + (id / 64) as usize] |= 1u64 << (id % 64);
                        }
                    }
                }
                for &(_, id, joins) in edits_of_v {
                    let (word, bit) = (&mut rows[at + (id / 64) as usize], 1u64 << (id % 64));
                    debug_assert_eq!(*word & bit == 0, joins, "edit changes the membership");
                    *word ^= bit;
                }
                row_ids.push(v);
                row_degrees.push(degree as u32);
            } else if let Some(row) = old_row {
                let mut row = row.to_vec();
                for &(_, id, _) in edits_of_v {
                    row[(id / 64) as usize] ^= 1u64 << (id % 64);
                }
                old.for_each_row_word(&row, |w, word| {
                    for_each_bit(word, (w * 64) as u32, |id| lists.push(id));
                });
            } else {
                // Everything between two edits is copied in bulk.
                let mut rest = old.list(v);
                for &(_, id, joins) in edits_of_v {
                    let (before, from) = rest.split_at(rest.partition_point(|&s| s < id));
                    lists.extend_from_slice(before);
                    if joins {
                        lists.push(id);
                    }
                    rest = &from[usize::from(!joins)..];
                }
                lists.extend_from_slice(rest);
            }
        }
        offsets.push(lists.len() as u64);
        let row_of = row_slots(n, &row_ids);
        row_ids.append(&mut row_degrees);
        Postings {
            num_nodes: n,
            range_len: self.range_len,
            row_threshold: self.row_threshold,
            entries,
            store: Store::Owned { offsets, lists, row_table: row_ids, rows },
            row_of,
        }
    }
}

/// The arrays of a [`Postings`], resolved once ([`Postings::view`]): every
/// read the serving loops make, with no dispatch left inside them.
#[derive(Debug, Clone, Copy)]
pub struct PostingsView<'a> {
    /// Words of one row.
    words: usize,
    /// Sets the last word of a row names (0: all 64).
    tail_bits: u32,
    offsets: &'a [u64],
    lists: &'a [u32],
    row_of: &'a [u32],
    row_degrees: &'a [u32],
    rows: &'a [u64],
}

impl<'a> PostingsView<'a> {
    /// The bits of a row's last word that name sets of the range. Bits a
    /// lying file sets beyond them are masked wherever a row is read.
    #[inline]
    fn tail_mask(&self) -> u64 {
        match self.tail_bits {
            0 => u64::MAX,
            bits => (1u64 << bits) - 1,
        }
    }

    /// The row of `v`, when it stores one.
    #[inline]
    fn row(&self, v: NodeId) -> Option<&'a [u64]> {
        row_slot(self.row_of, v).map(|slot| &self.rows[slot * self.words..(slot + 1) * self.words])
    }

    /// The list of `v` (empty for a row vertex).
    #[inline]
    fn list(&self, v: NodeId) -> &'a [u32] {
        &self.lists[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Call `f(word index, word)` for every word of `row`, the last one
    /// masked to the range.
    #[inline]
    fn for_each_row_word(&self, row: &[u64], mut f: impl FnMut(usize, u64)) {
        let last = row.len().saturating_sub(1);
        let tail = self.tail_mask();
        for (w, &word) in row.iter().enumerate() {
            f(w, if w == last { word & tail } else { word });
        }
    }

    /// Whether `v` stores a row.
    #[inline]
    pub fn is_row(&self, v: NodeId) -> bool {
        row_slot(self.row_of, v).is_some()
    }

    /// How many sets of the range contain `v`, in O(1).
    #[inline]
    pub fn degree(&self, v: NodeId) -> u64 {
        match row_slot(self.row_of, v) {
            Some(slot) => self.row_degrees[slot] as u64,
            None => self.offsets[v as usize + 1] - self.offsets[v as usize],
        }
    }

    /// Whether set `sid` of the range contains `v`: one bit of a row, a
    /// binary search of a list.
    #[inline]
    pub fn contains(&self, v: NodeId, sid: u32) -> bool {
        match self.row(v) {
            Some(row) => row[(sid / 64) as usize] & (1u64 << (sid % 64)) != 0,
            None => self.list(v).binary_search(&sid).is_ok(),
        }
    }

    /// Call `f` with the local id of every set containing `v`, ascending.
    #[inline]
    pub fn for_each(&self, v: NodeId, mut f: impl FnMut(u32)) {
        match self.row(v) {
            Some(row) => {
                self.for_each_row_word(row, |w, word| for_each_bit(word, (w * 64) as u32, &mut f))
            }
            None => self.list(v).iter().copied().for_each(f),
        }
    }

    /// How many sets with an id below `end` (at most the set count) contain
    /// `v`: a popcount of the row's words up to `end`, or a binary search of
    /// the list.
    #[inline]
    pub fn count_below(&self, v: NodeId, end: u32) -> u64 {
        match self.row(v) {
            Some(row) => {
                let (full, bits) = ((end / 64) as usize, end % 64);
                let whole: u32 = row[..full].iter().map(|w| w.count_ones()).sum();
                let part =
                    if bits == 0 { 0 } else { (row[full] & ((1u64 << bits) - 1)).count_ones() };
                (whole + part) as u64
            }
            None => self.list(v).partition_point(|&id| id < end) as u64,
        }
    }

    /// OR the sets containing `v` into the bitmap `acc` (one bit per set of
    /// the range) and return how many were not in it before.
    #[inline]
    pub fn or_into(&self, v: NodeId, acc: &mut [u64]) -> usize {
        let mut newly = 0usize;
        match self.row(v) {
            Some(row) => self.for_each_row_word(row, |w, word| {
                newly += (word & !acc[w]).count_ones() as usize;
                acc[w] |= word;
            }),
            None => {
                for &id in self.list(v) {
                    let (w, bit) = ((id / 64) as usize, 1u64 << (id % 64));
                    newly += usize::from(acc[w] & bit == 0);
                    acc[w] |= bit;
                }
            }
        }
        newly
    }

    /// How many sets containing `v` are not in the bitmap `acc`.
    #[inline]
    pub fn count_outside(&self, v: NodeId, acc: &[u64]) -> usize {
        let mut outside = 0usize;
        match self.row(v) {
            Some(row) => self.for_each_row_word(row, |w, word| {
                outside += (word & !acc[w]).count_ones() as usize;
            }),
            None => {
                outside = self
                    .list(v)
                    .iter()
                    .filter(|&&id| acc[(id / 64) as usize] & (1u64 << (id % 64)) == 0)
                    .count();
            }
        }
        outside
    }
}

/// The row slot of `v` in a table built by [`row_slots`].
#[inline]
fn row_slot(row_of: &[u32], v: NodeId) -> Option<usize> {
    row_of.get(v as usize).filter(|&&slot| slot != NO_ROW).map(|&slot| slot as usize)
}

/// The per-vertex row-slot table of `row_ids` (empty when there are none).
fn row_slots(num_nodes: usize, row_ids: &[u32]) -> Vec<u32> {
    if row_ids.is_empty() {
        return Vec::new();
    }
    let mut row_of = vec![NO_ROW; num_nodes];
    for (slot, &v) in row_ids.iter().enumerate() {
        row_of[v as usize] = slot as u32;
    }
    row_of
}

/// The checks a postings structure must pass before any accessor may index
/// it: Σ degree and the row-slot table on success. `(lists, rows)` are the
/// lengths of those two sections.
fn validate_shape(
    num_nodes: usize,
    range_len: usize,
    offsets: &[u64],
    row_table: &[u32],
    (lists, rows): (usize, usize),
) -> Result<(u64, Vec<u32>), &'static str> {
    if offsets.len() != num_nodes + 1 {
        return Err("offset count is not num_nodes + 1");
    }
    // One pass over the offsets: monotonic, and no list past the threshold.
    let (mut monotonic, mut longest) = (offsets[0] == 0, 0u64);
    for w in offsets.windows(2) {
        monotonic &= w[0] <= w[1];
        longest = longest.max(w[1].wrapping_sub(w[0]));
    }
    if !monotonic {
        return Err("offsets are not monotonic from zero");
    }
    if offsets[num_nodes] != lists as u64 {
        return Err("offset total disagrees with the postings");
    }
    if !row_table.len().is_multiple_of(2) {
        return Err("row table is not ids followed by degrees");
    }
    let (row_ids, row_degrees) = row_table.split_at(row_table.len() / 2);
    if Some(rows) != row_ids.len().checked_mul(range_len.div_ceil(64)) {
        return Err("rows section disagrees with the row table");
    }
    if !row_ids.windows(2).all(|w| w[0] < w[1]) {
        return Err("row ids are not strictly ascending");
    }
    if row_ids.last().is_some_and(|&v| v as usize >= num_nodes) {
        return Err("row id outside the vertex space");
    }
    if row_ids.iter().any(|&v| offsets[v as usize] != offsets[v as usize + 1]) {
        return Err("row vertex also has a list");
    }
    // The form is a function of the degree: a patch relies on it, and a
    // re-save of what was loaded reproduces the file.
    let threshold = (range_len / 32) as u64;
    if row_degrees.iter().any(|&d| d as u64 <= threshold || d as usize > range_len) {
        return Err("row degree is outside (range/32, range]");
    }
    if longest > threshold {
        return Err("list is longer than range/32");
    }
    let entries = offsets[num_nodes] + row_degrees.iter().map(|&d| d as u64).sum::<u64>();
    Ok((entries, row_slots(num_nodes, row_ids)))
}

/// The memberships that differ between set `ids[j]` (`ids` ascending) and
/// its replacement `replacements.get(j)`, sorted — the input of
/// [`Postings::patched`]. The old sets are read from `postings` alone: a
/// join is a member of a replacement the postings do not list under its id,
/// and the leaves come out of one pass over the arrays that keeps only the
/// changed ids — the flat lists filtered by a changed-id mask (a hit's
/// vertex found by a binary search of the offsets), each row `AND` it.
pub fn membership_edits(
    postings: &Postings,
    ids: &[usize],
    replacements: &RrrCollection,
) -> Vec<MembershipEdit> {
    debug_assert_eq!(ids.len(), replacements.len());
    let view = postings.view();
    let mut edits = Vec::new();
    let mut mask = vec![0u64; view.words];
    for (&sid, new_set) in ids.iter().zip(replacements) {
        let sid = sid as u32;
        mask[(sid / 64) as usize] |= 1u64 << (sid % 64);
        edits.extend(new_set.iter().filter(|&v| !view.contains(v, sid)).map(|v| (v, sid, true)));
    }
    let mut leave = |v: NodeId, sid: u32| {
        let at = ids.binary_search(&(sid as usize)).expect("a masked id is a changed one");
        if !replacements.get(at).contains(v) {
            edits.push((v, sid, false));
        }
    };
    for (at, &sid) in view.lists.iter().enumerate() {
        if mask[(sid / 64) as usize] & (1u64 << (sid % 64)) != 0 {
            let v = view.offsets.partition_point(|&offset| offset <= at as u64) - 1;
            leave(v as NodeId, sid);
        }
    }
    let (_, _, row_table, _) = postings.sections();
    for &v in &row_table[..row_table.len() / 2] {
        let row = view.row(v).expect("a row-table vertex stores a row");
        for (w, (&word, &changed_ids)) in row.iter().zip(&mask).enumerate() {
            for_each_bit(word & changed_ids, (w * 64) as u32, |sid| leave(v, sid));
        }
    }
    edits.sort_unstable();
    edits
}

/// Logical equality: the same sets contain each vertex, whatever the form
/// and wherever the arrays live.
impl PartialEq for Postings {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes == other.num_nodes
            && self.range_len == other.range_len
            && self.entries == other.entries
            && (0..self.num_nodes as NodeId)
                .all(|v| self.degree(v) == other.degree(v) && self.ids(v) == other.ids(v))
    }
}

impl Eq for Postings {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::AdaptivePolicy;

    /// The branch-free list checks agree with the per-list definition: a
    /// descent may straddle a list start (empty lists between included) but
    /// not sit inside a list, and the largest id must be inside the range.
    #[test]
    fn list_checks_accept_descents_only_at_list_starts() {
        // Range 64: lists stay at most 2 long. Vertices 0..6, vertex 1 and 4
        // empty.
        let check = |lists: Vec<u32>| {
            let offsets = vec![0, 2, 2, 3, 5, 5, 6];
            Postings::from_sections(6, 64, offsets, lists, Vec::new(), Vec::new())
                .unwrap()
                .validate_contents()
        };
        assert_eq!(check(vec![5, 9, 1, 0, 63, 2]), Ok(()));
        assert_eq!(check(vec![5, 9, 9, 1, 63, 2]), Ok(()), "a tie across an empty list");
        assert_eq!(check(vec![9, 5, 1, 0, 63, 2]), Err("posting list is not strictly ascending"));
        assert_eq!(check(vec![5, 9, 1, 7, 7, 2]), Err("posting list is not strictly ascending"));
        assert_eq!(
            check(vec![5, 9, 1, 0, 64, 2]),
            Err("posting list names a set outside the range")
        );
        let single = Postings::from_sections(1, 64, vec![0, 1], vec![64], Vec::new(), Vec::new());
        assert_eq!(
            single.unwrap().validate_contents(),
            Err("posting list names a set outside the range")
        );
    }

    #[test]
    fn transpose_matches_the_naive_definition() {
        let mut m = [0u64; 64];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for word in m.iter_mut() {
            state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            *word = state ^ (state >> 29);
        }
        let original = m;
        transpose64(&mut m);
        for (r, &row) in original.iter().enumerate() {
            for (c, &column) in m.iter().enumerate() {
                assert_eq!(row >> c & 1, column >> r & 1, "({r}, {c})");
            }
        }
    }

    /// The sorted-list sets `sets` over six vertices.
    fn sorted_sets(sets: &[&[NodeId]]) -> RrrCollection {
        let mut collection = RrrCollection::new(6);
        for set in sets {
            collection.push_vertices(set.to_vec(), &AdaptivePolicy::always_sorted());
        }
        collection
    }

    /// Figure 3 of the paper, set `ids[j]` replaced by `replacements.get(j)`,
    /// padded to 40 sets (a threshold of 1): vertex 1 is in five of them.
    fn figure3_with(ids: &[usize], replacements: &RrrCollection) -> Postings {
        let figure3: [&[NodeId]; 8] =
            [&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[1, 2]];
        let mut sets = RrrCollection::new(6);
        for sid in 0..40 {
            let members = match ids.iter().position(|&id| id == sid) {
                Some(j) => replacements.get(j).to_vec(),
                None => figure3.get(sid).map_or(vec![], |m| m.to_vec()),
            };
            sets.push_vertices(members, &AdaptivePolicy::always_sorted());
        }
        Postings::build(&sets).unwrap()
    }

    fn mixed() -> Postings {
        figure3_with(&[], &RrrCollection::new(6))
    }

    #[test]
    fn the_form_follows_the_degree_and_reads_the_same_either_way() {
        let postings = mixed();
        // Threshold 40 / 32 = 1: degrees [2, 5, 2, 2, 3, 1] leave vertex 5 a list.
        assert_eq!(
            (0..6).map(|v| postings.is_row(v)).collect::<Vec<_>>(),
            [true, true, true, true, true, false]
        );
        assert_eq!(postings.ids(1), [0, 1, 3, 4, 7]);
        assert_eq!(postings.ids(5), [4]);
        assert_eq!((postings.degree(1), postings.degree(5)), (5, 1));
        assert_eq!(postings.entries(), 15);
        let stats = postings.stats();
        assert_eq!((stats.row_vertices, stats.list_entries), (5, 1));

        let (view, mut acc) = (postings.view(), vec![0u64; 1]);
        assert_eq!(view.or_into(1, &mut acc), 5);
        assert_eq!(view.or_into(4, &mut acc), 1, "only set 2 is new");
        assert_eq!(view.count_outside(5, &acc), 0);
        assert_eq!(view.count_outside(3, &acc), 2);
        assert_eq!(acc[0], 0b1001_1111);
    }

    #[test]
    fn out_of_range_members_are_reported() {
        let mut bad = RrrCollection::new(4);
        bad.push_vertices(vec![0, 9], &AdaptivePolicy::always_sorted());
        assert_eq!(Postings::build(&bad), Err(9));
    }

    #[test]
    fn patching_equals_rebuilding_across_a_threshold_crossing() {
        let postings = mixed();
        // Vertex 5 joins set 0 (degree 2: becomes a row); vertex 0 leaves
        // set 0 (degree 1: becomes a list); vertex 1 stays a row. The old
        // memberships come from the postings alone.
        let replacements = sorted_sets(&[&[1, 5], &[2]]);
        let edits = membership_edits(&postings, &[0, 7], &replacements);
        assert_eq!(edits, [(0, 0, false), (1, 7, false), (5, 0, true)]);
        let patched = postings.patched(&edits);
        let rebuilt = figure3_with(&[0, 7], &replacements);
        assert_eq!(patched, rebuilt);
        assert_eq!(patched.sections(), rebuilt.sections());
        assert!(patched.is_row(5) && !patched.is_row(0));
        assert_ne!(patched, postings);
        // A bitmap replacement reads the same, and an unchanged one edits
        // nothing.
        let mut bitmap = RrrCollection::new(6);
        bitmap.push_vertices(vec![1, 5], &AdaptivePolicy::always_bitmap());
        assert_eq!(membership_edits(&postings, &[0], &bitmap), [(0, 0, false), (5, 0, true)]);
        assert!(membership_edits(&postings, &[2], &sorted_sets(&[&[2, 4]])).is_empty());
    }

    #[test]
    fn counts_below_an_id_read_rows_and_lists_alike() {
        let postings = mixed();
        let view = postings.view();
        for v in 0..6 {
            for end in 0..=40u32 {
                let expected = postings.ids(v).iter().filter(|&&id| id < end).count() as u64;
                assert_eq!(view.count_below(v, end), expected, "vertex {v}, end {end}");
            }
        }
    }
}
