//! # imm-shard
//!
//! Range-sharded sketch index: a `SketchIndex` under a shard map.
//!
//! `imm-service` freezes one sampled RRR collection into one index served by
//! one process and stored as one snapshot file. A shard here is a contiguous
//! RRR-set range of that index — the paper's divide-the-sketches structure —
//! and the map of such ranges decides one thing: the `shard_load_imbalance`
//! gauge. Serving does not split: a point query's whole kernel is one
//! sub-microsecond walk of the global postings, which no cross-thread
//! hand-off can pay for, so the map says nothing about how a query is
//! answered.
//!
//! * [`ShardedIndex`] — a `SketchIndex` (the base: the one owner of the
//!   collection, metadata, provenance and global postings) plus a shard
//!   map: one [`ShardSegment`] — start, length, postings weight, nothing
//!   built — per near-equal contiguous set range. A rollout
//!   (`rebuilt_with_delta`) refreshes a copy of the base through
//!   `imm-service`'s one refresh driver and re-weighs the map.
//! * [`ShardedEngine`] — an `imm_service::QueryEngine` over the base, which
//!   answers the full query vocabulary (Top-K with optional audience masks,
//!   spread, marginal, batches, response cache). Results are
//!   **byte-identical** to the single-index `QueryEngine` for every shard
//!   count and thread count — the crate's parity suite pins this, including
//!   after a rolled delta (`rebuilt_with_delta`, then a new engine over the
//!   next generation: the daemon's path, and the only one).
//!
//! ```
//! use imm_diffusion::DiffusionModel;
//! use imm_graph::{generators, CsrGraph, EdgeWeights};
//! use imm_service::{Query, QueryResponse, SampleSpec, SketchIndex};
//! use imm_shard::{ShardedEngine, ShardedIndex};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = CsrGraph::from_edge_list(&generators::social_network(200, 5, 0.3, &mut rng));
//! let weights = EdgeWeights::constant(&graph, 0.2);
//! let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 7);
//! let index = SketchIndex::sample(&graph, &weights, spec, 150, 2, "docs").unwrap();
//! // The same index under a 4-entry shard map.
//! let single = imm_service::QueryEngine::new(Arc::new(index.clone()));
//! let sharded =
//!     ShardedEngine::new(Arc::new(ShardedIndex::from_index(index, 4).unwrap()));
//! assert_eq!(
//!     sharded.execute(&Query::top_k(5)),
//!     single.execute(&Query::top_k(5)),
//! );
//! ```

pub mod engine;
pub mod index;
pub mod metrics;
pub mod segment;

pub use engine::ShardedEngine;
pub use index::ShardedIndex;
pub use segment::ShardSegment;

/// Vertex identifier (re-exported from `imm-rrr` for convenience).
pub type NodeId = imm_rrr::NodeId;
