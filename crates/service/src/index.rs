//! The frozen sketch index: the inverted postings of a sampled
//! [`RrrCollection`], which are the whole sample a generation keeps.
//!
//! Building the index is the one counting sort of [`imm_rrr::Postings`] over
//! the sets, after which the collection is dropped; the structure is
//! immutable and shared across worker threads behind an `Arc`. The postings
//! are vertex-adaptive — a vertex contained in more than θ/32 of the sets
//! stores a θ-bit row, every other vertex an ascending list in a CSR — so
//! answering "which sets contain vertex v" is a slice or row lookup instead
//! of a scan over all θ sets, and in the dense regime a Spread is an OR of
//! rows. A memory-mapped snapshot serves the same structure in place.

use std::sync::Arc;

use crate::dynamic::SketchProvenance;
use imm_graph::CsrGraph;
use imm_rrr::{NodeId, Postings, RrrCollection};

pub use imm_rrr::PostingsSource;

/// Identifier of one RRR set inside the indexed collection.
pub type SetId = u32;

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
    /// A per-set provenance log does not line up with the collection it
    /// describes.
    ProvenanceMismatch {
        /// Sets in the collection.
        sets: usize,
        /// Records in the provenance log.
        records: usize,
    },
    /// Stored postings sections do not line up with each other (wrong offset
    /// count, non-monotonic offsets, a row table that is unsorted, out of
    /// range or overlaps a list, …).
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
                write!(f, "stored postings sections are corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// A frozen, immutable index over a sampled RRR collection.
///
/// Holds the inverted vertex → set-id postings and nothing set-major: each
/// vertex's occurrence count (the gain bound the greedy selection starts
/// from) is its postings degree, and the refresh, the shard map and the
/// snapshot writer read the postings too.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchIndex {
    pub(crate) meta: IndexMeta,
    /// Shared, so a clone of the index takes the structure by pointer; a
    /// refresh swaps in a patched one.
    pub(crate) postings: Arc<Postings>,
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

    /// Build an index over a bare collection (no source graph at hand).
    pub fn from_collection(collection: RrrCollection, meta: IndexMeta) -> Result<Self, IndexError> {
        Self::from_collection_with_provenance(collection, meta, None)
    }

    /// Assemble an index from postings that already exist (decoded from a
    /// snapshot, or mapped).
    pub(crate) fn from_parts(
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
        postings: Postings,
    ) -> Self {
        SketchIndex { meta, postings: Arc::new(postings), provenance }
    }

    /// Assemble an index whose postings are the sections of a mapped
    /// snapshot, served in place.
    ///
    /// [`Postings::from_source`] validates what the offsets and the row
    /// table can show; the lists and rows themselves are trusted on the
    /// mapped path — the file was validated when written and is guarded by
    /// the snapshot checksum/rename discipline.
    pub fn from_mapped_parts(
        num_nodes: usize,
        num_sets: usize,
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
        postings: Arc<dyn PostingsSource>,
    ) -> Result<Self, IndexError> {
        if u32::try_from(num_sets).is_err() {
            return Err(IndexError::TooManySets(num_sets));
        }
        let postings = Postings::from_source(num_nodes, num_sets, postings)
            .map_err(IndexError::PostingsCorrupt)?;
        Ok(Self::from_parts(meta, provenance, postings))
    }

    /// Whether the inverted postings are borrowed from a shared (e.g.
    /// memory-mapped) buffer rather than heap-built.
    #[inline]
    pub fn is_postings_shared(&self) -> bool {
        self.postings.is_shared()
    }

    /// Build an index over a bare collection and attach sampling provenance
    /// in one step. With `None` the result is a static index. The collection
    /// is dropped once its postings are built.
    pub fn from_collection_with_provenance(
        collection: RrrCollection,
        meta: IndexMeta,
        provenance: Option<SketchProvenance>,
    ) -> Result<Self, IndexError> {
        let postings = build_postings(&collection)?;
        Ok(Self::from_parts(meta, provenance, postings))
    }

    /// Number of vertices of the indexed vertex space.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.postings.num_nodes()
    }

    /// Number of indexed RRR sets (θ).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.postings.range_len()
    }

    /// The inverted structure itself.
    #[inline]
    pub fn postings(&self) -> &Arc<Postings> {
        &self.postings
    }

    /// The ids of every set containing `v`, in increasing order.
    pub fn ids(&self, v: NodeId) -> Vec<SetId> {
        self.postings.ids(v)
    }

    /// Occurrence count of `v` — how many sets contain it. This is the
    /// initial greedy counter value, precomputed at build time.
    #[inline]
    pub fn degree(&self, v: NodeId) -> u64 {
        self.postings.degree(v)
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

    /// Bytes of the postings (for a shared backing: the mapped bytes
    /// resident once touched).
    pub fn memory_bytes(&self) -> usize {
        self.postings.stats().bytes()
    }
}

/// Invert the whole collection ([`Postings::build`]). Shared by the index
/// constructors and the snapshot encoder, so the stored postings sections
/// are byte-for-byte what a heap build computes.
pub(crate) fn build_postings(collection: &RrrCollection) -> Result<Postings, IndexError> {
    if u32::try_from(collection.len()).is_err() {
        return Err(IndexError::TooManySets(collection.len()));
    }
    Postings::build(collection).map_err(|vertex| IndexError::VertexOutOfRange {
        vertex,
        num_nodes: collection.num_nodes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::AdaptivePolicy;

    fn collection(num_nodes: usize, sets: &[&[NodeId]]) -> RrrCollection {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push_vertices(s.to_vec(), &AdaptivePolicy::always_sorted());
        }
        c
    }

    impl SketchIndex {
        /// An index over `sets` of `num_nodes` vertices.
        pub(crate) fn over_sets(num_nodes: usize, sets: &[&[NodeId]]) -> Self {
            SketchIndex::from_collection(collection(num_nodes, sets), IndexMeta::default()).unwrap()
        }
    }

    #[test]
    fn postings_and_degrees_match_hand_computation() {
        // Figure 3 of the paper: occurrence counts [2, 4, 2, 2, 3, 1].
        let c = collection(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]);
        let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
        assert_eq!(index.num_sets(), 8);
        let degrees: Vec<u64> = (0..6).map(|v| index.degree(v)).collect();
        assert_eq!(degrees, vec![2, 4, 2, 2, 3, 1]);
        assert_eq!(index.ids(1), [0, 1, 3, 4]);
        assert_eq!(index.ids(4), [2, 3, 4]);
        assert_eq!(index.ids(5), [4]);
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
            assert_eq!(a.ids(v), b.ids(v), "vertex {v}");
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
        assert!(index.ids(3).is_empty());
    }

    #[test]
    fn memory_accounting_is_the_postings() {
        let c = collection(6, &[&[0, 1], &[1, 2, 3]]);
        let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
        assert_eq!(index.memory_bytes(), index.postings().stats().bytes());
        assert!(index.memory_bytes() > 0);
    }
}
