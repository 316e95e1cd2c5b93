//! # imm-rrr
//!
//! Random reverse-reachable (RRR) set substrate.
//!
//! An RRR set is the set of vertices that can reach a uniformly chosen root
//! under one random realization of the diffusion model. The IMM algorithm
//! materializes θ of them and the seed-selection kernel repeatedly asks two
//! questions about each: *which vertices are in it* (to update occurrence
//! counters) and *does it contain a given seed* (to discard covered sets).
//!
//! The paper's "adaptive RRR-set representation" (§IV-C) stores small sets as
//! sorted vertex lists (cheap to build, `O(log n)` membership, memory
//! proportional to the set) and large/dense sets as bitmaps (`O(1)`
//! membership, memory proportional to the graph). This crate provides:
//!
//! * [`BitSet`] — a plain fixed-size bitmap (built here rather than pulled in
//!   as a dependency so the memory accounting and word layout are explicit).
//! * [`RrrCollection`] — the θ sampled sets, each a sorted slice of one flat
//!   vertex arena or a [`BitSet`] as [`AdaptivePolicy`] selects, read
//!   through borrowed [`SetView`]s, plus the coverage/size/memory statistics
//!   reported in the paper's Table I.
//! * [`codec`] — the length-checked byte cursor and decode error under
//!   `imm-service`'s snapshot decoder.
//! * [`provenance`] — per-set sampling provenance (the root each set was
//!   grown from), as a batch run reports it.
//! * [`Postings`] — the inverse, vertex → sets containing it, with the dual
//!   adaptive rule: a dense vertex stores a bit row, a sparse one a list.
//!   A serving index keeps only this.
//! * [`LazyGreedy`] — the lazy-greedy (CELF) seed selection over a
//!   [`Postings`]: `run_imm`'s selection at every θ step and every Top-K an
//!   `imm-service` engine answers.

pub mod bitset;
pub mod celf;
pub mod codec;
pub mod collection;
pub mod postings;
pub mod provenance;
pub mod set;

pub use bitset::BitSet;
pub use celf::{CelfWork, LazyGreedy};
pub use codec::{ByteReader, CodecError};
pub use collection::{CoverageStats, RrrCollection, SetView, SetViews};
pub use postings::{
    membership_edits, MembershipEdit, Postings, PostingsSource, PostingsStats, PostingsView,
};
pub use provenance::SetProvenance;
pub use set::{AdaptivePolicy, Representation};

/// Vertex identifier (re-exported from `imm-graph` for convenience).
pub type NodeId = imm_graph::NodeId;
