//! The frozen sketch index: an [`RrrCollection`] plus the inverted postings
//! and precomputed occurrence counts that make query serving cheap.
//!
//! Building the index is a single pass over the sets (via the collection's
//! borrowed iterator — nothing is cloned); afterwards the structure is
//! immutable and can be shared across worker threads behind an `Arc`. The
//! postings are laid out CSR-style (one offsets array, one flat set-id
//! array), mirroring how `imm-graph` stores adjacency: answering "which sets
//! contain vertex v" is a slice lookup instead of a scan over all θ sets.

use std::sync::Arc;

use crate::dynamic::SketchProvenance;
use imm_graph::CsrGraph;
use imm_rrr::{CoverageStats, NodeId, RrrCollection};

/// Identifier of one RRR set inside the indexed collection.
pub type SetId = u32;

/// Read-only provider of the CSR postings sections of a v4 snapshot:
/// `offsets()` has one `u64` per vertex plus a trailing total, `set_ids()`
/// is the flat posting array. `imm-store` implements this over the mapped
/// file so a loaded index serves postings without rebuilding them.
pub trait PostingsSource: Send + Sync + std::panic::RefUnwindSafe + std::fmt::Debug {
    /// The CSR offset array (`num_nodes + 1` entries).
    fn offsets(&self) -> &[u64];
    /// The flat set-id array (`offsets().last()` entries).
    fn set_ids(&self) -> &[SetId];
}

/// Backing storage of an index's inverted postings: built on the heap by
/// [`SketchIndex::from_collection`], or borrowed from a shared buffer (the
/// memory-mapped snapshot path). Mutation happens only through wholesale
/// replacement (`dynamic::patch` rebuilds both arrays), which lands in the
/// `Owned` form.
#[derive(Debug, Clone)]
pub(crate) enum PostingsStore {
    /// Heap-owned CSR arrays.
    Owned {
        /// One offset per vertex, plus the trailing total.
        offsets: Vec<usize>,
        /// Flat posting array.
        postings: Vec<SetId>,
    },
    /// Both arrays borrowed from a shared read-only buffer.
    Shared(Arc<dyn PostingsSource>),
}

impl PostingsStore {
    /// Postings of vertex `v`.
    #[inline]
    fn slice(&self, v: usize) -> &[SetId] {
        match self {
            PostingsStore::Owned { offsets, postings } => &postings[offsets[v]..offsets[v + 1]],
            PostingsStore::Shared(s) => {
                let offsets = s.offsets();
                &s.set_ids()[offsets[v] as usize..offsets[v + 1] as usize]
            }
        }
    }

    /// Posting-list length of vertex `v`.
    #[inline]
    fn degree(&self, v: usize) -> u64 {
        match self {
            PostingsStore::Owned { offsets, .. } => (offsets[v + 1] - offsets[v]) as u64,
            PostingsStore::Shared(s) => {
                let offsets = s.offsets();
                offsets[v + 1] - offsets[v]
            }
        }
    }

    fn num_offsets(&self) -> usize {
        match self {
            PostingsStore::Owned { offsets, .. } => offsets.len(),
            PostingsStore::Shared(s) => s.offsets().len(),
        }
    }

    pub(crate) fn num_postings(&self) -> usize {
        match self {
            PostingsStore::Owned { postings, .. } => postings.len(),
            PostingsStore::Shared(s) => s.set_ids().len(),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            PostingsStore::Owned { offsets, postings } => {
                offsets.len() * std::mem::size_of::<usize>()
                    + postings.len() * std::mem::size_of::<SetId>()
            }
            // The mapped sections are u64 offsets regardless of the host's
            // usize; count their resident-once-touched footprint.
            PostingsStore::Shared(s) => {
                std::mem::size_of_val(s.offsets()) + std::mem::size_of_val(s.set_ids())
            }
        }
    }
}

/// Logical equality regardless of backing.
impl PartialEq for PostingsStore {
    fn eq(&self, other: &Self) -> bool {
        if self.num_offsets() != other.num_offsets() || self.num_postings() != other.num_postings()
        {
            return false;
        }
        let n = self.num_offsets().saturating_sub(1);
        (0..n).all(|v| self.slice(v) == other.slice(v))
    }
}

/// Provenance carried alongside the index (and through snapshots), so a
/// loaded index can report what it was built from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexMeta {
    /// Number of edges of the source graph (0 when built without a graph).
    pub num_edges: usize,
    /// Free-form description of the source (dataset name, file path, …).
    pub label: String,
}

/// Errors produced while building a [`SketchIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// A set contains a vertex id outside `[0, num_nodes)`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: NodeId,
        /// The collection's vertex-space size.
        num_nodes: usize,
    },
    /// The collection holds more sets than a [`SetId`] can address.
    TooManySets(usize),
    /// The collection's vertex space disagrees with the provided graph.
    GraphMismatch {
        /// Vertices in the graph.
        graph_nodes: usize,
        /// Vertices the collection was sampled over.
        collection_nodes: usize,
    },
    /// A provenance log does not line up with the collection it describes.
    ProvenanceMismatch {
        /// Sets in the collection.
        sets: usize,
        /// Records in the provenance log.
        records: usize,
    },
    /// A mapped postings section does not line up with the collection
    /// (wrong offset count, non-monotonic offsets, or total mismatch).
    PostingsCorrupt(&'static str),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::VertexOutOfRange { vertex, num_nodes } => {
                write!(f, "set member {vertex} is outside the vertex space [0, {num_nodes})")
            }
            IndexError::TooManySets(count) => {
                write!(f, "collection has {count} sets, more than a u32 set id can address")
            }
            IndexError::GraphMismatch { graph_nodes, collection_nodes } => write!(
                f,
                "graph has {graph_nodes} vertices but the collection was sampled over \
                 {collection_nodes}"
            ),
            IndexError::ProvenanceMismatch { sets, records } => {
                write!(f, "provenance log has {records} records for a collection of {sets} sets")
            }
            IndexError::PostingsCorrupt(reason) => {
                write!(f, "mapped postings section is corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// A frozen, immutable index over a sampled RRR collection.
///
/// Holds the collection itself (queries still need per-set membership),
/// the inverted vertex → set-id postings, and each vertex's occurrence
/// count (its posting-list length) — the initial counter state of the
/// greedy selection, precomputed once at build time.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchIndex {
    pub(crate) sets: RrrCollection,
    pub(crate) meta: IndexMeta,
    pub(crate) postings: PostingsStore,
    /// Sampling provenance; present only on indexes built through the
    /// dynamic constructors (see [`crate::dynamic`]). A provenance-free index
    /// serves queries normally but cannot `apply_delta`.
    pub(crate) provenance: Option<SketchProvenance>,
}

impl SketchIndex {
    /// Build an index over `collection`, validating it against `graph`.
    pub fn build(
        graph: &CsrGraph,
        collection: RrrCollection,
        label: impl Into<String>,
    ) -> Result<Self, IndexError> {
        if graph.num_nodes() != collection.num_nodes() {
            return Err(IndexError::GraphMismatch {
                graph_nodes: graph.num_nodes(),
                collection_nodes: collection.num_nodes(),
            });
        }
        Self::from_collection(
            collection,
            IndexMeta { num_edges: graph.num_edges(), label: label.into() },
        )
    }

    /// Build an index over a bare collection (no source graph at hand, e.g.
    /// when reloading a snapshot).
    pub fn from_collection(collection: RrrCollection, meta: IndexMeta) -> Result<Self, IndexError> {
        let (offsets, postings) = build_postings(&collection)?;
        Ok(SketchIndex {
            sets: collection,
            meta,
            postings: PostingsStore::Owned { offsets, postings },
            provenance: None,
        })
    }

    /// Assemble an index whose postings are **borrowed** from a shared
    /// buffer — the zero-copy path `imm-store` takes when a v4 snapshot is
    /// memory-mapped: the stored offsets/postings sections serve directly
    /// instead of being rebuilt from the sets.
    ///
    /// The offset array is validated (length, monotonicity, total); the
    /// posting ids themselves are trusted, like the arena members on the
    /// same path — the file was validated when written and is guarded by
    /// the snapshot checksum/rename discipline.
    pub fn from_mapped_parts(
        collection: RrrCollection,
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
        postings: Arc<dyn PostingsSource>,
    ) -> Result<Self, IndexError> {
        let n = collection.num_nodes();
        if u32::try_from(collection.len()).is_err() {
            return Err(IndexError::TooManySets(collection.len()));
        }
        let offsets = postings.offsets();
        if offsets.len() != n + 1 {
            return Err(IndexError::PostingsCorrupt("offset count is not num_nodes + 1"));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(IndexError::PostingsCorrupt("offsets are not monotonic"));
        }
        if offsets.last().copied().unwrap_or(0) != postings.set_ids().len() as u64 {
            return Err(IndexError::PostingsCorrupt("offset total disagrees with the postings"));
        }
        let mut index = SketchIndex {
            sets: collection,
            meta,
            postings: PostingsStore::Shared(postings),
            provenance: None,
        };
        if let Some(provenance) = provenance {
            index.attach_provenance(provenance)?;
        }
        Ok(index)
    }

    /// Whether the inverted postings are borrowed from a shared (e.g.
    /// memory-mapped) buffer rather than heap-built.
    #[inline]
    pub fn is_postings_shared(&self) -> bool {
        matches!(self.postings, PostingsStore::Shared(_))
    }

    /// Build an index over a bare collection and attach sampling provenance
    /// in one step — the constructor shard reassembly and snapshot loading
    /// use. With `None` the result is a static index.
    pub fn from_collection_with_provenance(
        collection: RrrCollection,
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
    ) -> Result<Self, IndexError> {
        let mut index = Self::from_collection(collection, meta)?;
        if let Some(provenance) = provenance {
            index.attach_provenance(provenance)?;
        }
        Ok(index)
    }

    /// Take the index apart into its owned components (collection, metadata,
    /// provenance), dropping the inverted postings. This is how a sharded
    /// index adopts a single-index build without cloning the arena.
    pub fn into_parts(self) -> (RrrCollection, IndexMeta, Option<SketchProvenance>) {
        (self.sets, self.meta, self.provenance)
    }

    /// Number of vertices of the indexed vertex space.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.sets.num_nodes()
    }

    /// Number of indexed RRR sets (θ).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// The ids of every set containing `v`, in increasing order.
    #[inline]
    pub fn postings(&self, v: NodeId) -> &[SetId] {
        self.postings.slice(v as usize)
    }

    /// Occurrence count of `v` — how many sets contain it. This is the
    /// initial greedy counter value, precomputed at build time.
    #[inline]
    pub fn degree(&self, v: NodeId) -> u64 {
        self.postings.degree(v as usize)
    }

    /// All occurrence counts as a fresh mutable vector (the greedy engine's
    /// working counter).
    pub fn degree_vector(&self) -> Vec<u64> {
        (0..self.num_nodes()).map(|v| self.degree(v as NodeId)).collect()
    }

    /// The indexed collection.
    #[inline]
    pub fn sets(&self) -> &RrrCollection {
        &self.sets
    }

    /// Provenance metadata.
    #[inline]
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Sampling provenance, present only on dynamic indexes (see
    /// [`crate::dynamic`]).
    #[inline]
    pub fn provenance(&self) -> Option<&SketchProvenance> {
        self.provenance.as_ref()
    }

    /// Whether this index carries the provenance `apply_delta` needs.
    #[inline]
    pub fn is_dynamic(&self) -> bool {
        self.provenance.is_some()
    }

    /// Coverage/size statistics of the indexed sets (paper Table I).
    pub fn coverage_stats(&self) -> CoverageStats {
        self.sets.coverage_stats()
    }

    /// Heap bytes of the collection plus the index structures (for shared
    /// backings: the mapped bytes resident once touched).
    pub fn memory_bytes(&self) -> usize {
        self.sets.memory_bytes() + self.postings.memory_bytes()
    }
}

/// The two streaming passes that invert a collection into CSR postings
/// (one branch per set, tight loops per slice): occurrence counts, then the
/// postings fill. Shared by the index constructor and the v4 snapshot
/// encoder, so the stored postings sections are byte-for-byte what a heap
/// build would compute.
pub(crate) fn build_postings(
    collection: &RrrCollection,
) -> Result<(Vec<usize>, Vec<SetId>), IndexError> {
    let n = collection.num_nodes();
    if u32::try_from(collection.len()).is_err() {
        return Err(IndexError::TooManySets(collection.len()));
    }
    let mut offsets = vec![0usize; n + 1];
    let mut bad: Option<NodeId> = None;
    for set in collection {
        set.for_each(|v| {
            if (v as usize) < n {
                offsets[v as usize + 1] += 1;
            } else if bad.is_none() {
                bad = Some(v);
            }
        });
    }
    if let Some(vertex) = bad {
        return Err(IndexError::VertexOutOfRange { vertex, num_nodes: n });
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut postings = vec![0 as SetId; offsets[n]];
    for (sid, set) in collection.iter().enumerate() {
        set.for_each(|v| {
            postings[cursor[v as usize]] = sid as SetId;
            cursor[v as usize] += 1;
        });
    }
    Ok((offsets, postings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{AdaptivePolicy, RrrSet};

    fn collection(num_nodes: usize, sets: &[&[NodeId]]) -> RrrCollection {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
        }
        c
    }

    #[test]
    fn postings_and_degrees_match_hand_computation() {
        // Figure 3 of the paper: occurrence counts [2, 4, 2, 2, 3, 1].
        let c = collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]);
        let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
        assert_eq!(index.num_sets(), 8);
        assert_eq!(index.degree_vector(), vec![2, 4, 2, 2, 3, 1]);
        assert_eq!(index.postings(1), &[0, 1, 3, 4]);
        assert_eq!(index.postings(4), &[2, 3, 4]);
        assert_eq!(index.postings(5), &[4]);
    }

    #[test]
    fn bitmap_and_sorted_sets_index_identically() {
        let mut sorted = RrrCollection::new(64);
        let mut bitmap = RrrCollection::new(64);
        for vertices in [vec![1u32, 5, 9], vec![5, 40, 63], vec![0, 1]] {
            sorted.push_vertices(vertices.clone(), &AdaptivePolicy::always_sorted());
            bitmap.push_vertices(vertices, &AdaptivePolicy::always_bitmap());
        }
        let a = SketchIndex::from_collection(sorted, IndexMeta::default()).unwrap();
        let b = SketchIndex::from_collection(bitmap, IndexMeta::default()).unwrap();
        for v in 0..64u32 {
            assert_eq!(a.postings(v), b.postings(v), "vertex {v}");
            assert_eq!(a.degree(v), b.degree(v));
        }
    }

    #[test]
    fn out_of_range_member_is_rejected() {
        let c = collection(4, &[&[0, 9]]);
        assert_eq!(
            SketchIndex::from_collection(c, IndexMeta::default()),
            Err(IndexError::VertexOutOfRange { vertex: 9, num_nodes: 4 })
        );
    }

    #[test]
    fn empty_collection_indexes_fine() {
        let index =
            SketchIndex::from_collection(RrrCollection::new(10), IndexMeta::default()).unwrap();
        assert_eq!(index.num_sets(), 0);
        assert_eq!(index.degree(3), 0);
        assert!(index.postings(3).is_empty());
    }

    #[test]
    fn memory_accounting_includes_the_postings() {
        let c = collection(6, &[&[0, 1], &[1, 2, 3]]);
        let index = SketchIndex::from_collection(c.clone(), IndexMeta::default()).unwrap();
        assert!(index.memory_bytes() > c.memory_bytes());
    }
}
