//! # imm-service
//!
//! A reusable sketch index and query-serving subsystem over sampled RRR
//! sets.
//!
//! The batch pipeline (`efficient_imm::run_imm`) samples θ RRR sets, selects
//! seeds once, and drops the sample — although sampling dominates runtime
//! (the paper's Fig. 2 breakdown) and greedy selection over an existing
//! sketch is comparatively cheap. This crate freezes the sample into a
//! persistent, shareable index and answers many queries against it:
//!
//! * [`SketchIndex`] — the immutable index an [`imm_rrr::RrrCollection`]
//!   freezes into: its inverted vertex → set postings
//!   ([`imm_rrr::Postings`]: a bit row for a vertex in more than θ/32 of the
//!   sets, an ascending list for the rest), which are the whole sample a
//!   generation keeps, shareable across threads via `Arc`.
//! * [`QueryEngine`] — answers [`Query::TopK`] (incremental greedy with a
//!   shared prefix: budgets `k` then `k + 5` reuse the first `k` rounds and
//!   never resample; an optional **audience** bitmap restricts coverage to
//!   the sets touching a vertex slice — the same session started with
//!   every other set covered; both run `imm_rrr`'s one lazy greedy,
//!   [`imm_rrr::LazyGreedy`], and [`masked`] pools the audience sessions),
//!   [`Query::Spread`] and
//!   [`Query::Marginal`]; batches fan out across worker threads and
//!   responses are memoized in an LRU [`cache::QueryCache`] keyed on
//!   normalized queries.
//! * [`snapshot`] — the binary format (magic bytes, version field,
//!   checksum) so an index built once can be memory-loaded by later
//!   processes: [`SketchIndex::save`] / [`SketchIndex::load`]. The format
//!   persists the sampling spec, the delta log and the postings as the
//!   index holds them, laid out so `imm-store` can serve a file in place.
//!   It is the one format this build writes, reads and maps (version 6).
//! * [`dynamic`] — incremental refresh under graph mutation: a dynamic index
//!   ([`SketchIndex::sample`]) records its sampling spec, and
//!   [`SketchIndex::apply_delta`] resamples only the RRR sets an
//!   [`imm_graph::GraphDelta`] actually touches and patches the postings —
//!   byte-identical to a from-scratch rebuild on the mutated graph. An
//!   engine serves one generation for life: a new revision gets a new
//!   [`QueryEngine`].
//! * [`recover`] — [`SketchIndex::recover`] rebuilds a dynamic snapshot's
//!   live revision from its original source, its delta log and the
//!   daemon's [`DeltaJournal`].
//!
//! ```
//! use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
//! use imm_diffusion::DiffusionModel;
//! use imm_graph::{generators, CsrGraph, EdgeWeights};
//! use imm_service::{Query, QueryEngine, QueryResponse, SketchIndex};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = CsrGraph::from_edge_list(&generators::social_network(300, 5, 0.3, &mut rng));
//! let weights = EdgeWeights::ic_weighted_cascade(&graph);
//! let params = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade).with_seed(7);
//! // Opt in to keeping the sampled collection, then freeze it into an index.
//! let exec = ExecutionConfig::new(Algorithm::Efficient, 2).with_retained_sets(true);
//! let result = run_imm(&graph, &weights, &params, &exec).unwrap();
//! let index = SketchIndex::build(&graph, result.rrr_sets.unwrap(), "docs").unwrap();
//! let engine = QueryEngine::new(Arc::new(index));
//! // Same collection, same greedy — the served seeds match the batch run.
//! match engine.execute(&Query::top_k(4)) {
//!     QueryResponse::TopK { seeds, .. } => assert_eq!(seeds, result.seeds),
//!     _ => unreachable!(),
//! }
//! ```

pub mod cache;
pub mod dynamic;
pub mod engine;
pub mod index;
pub mod masked;
pub mod metrics;
pub mod query;
pub mod recover;
pub mod snapshot;

pub use cache::{CacheStats, QueryCache};
pub use dynamic::{DeltaLogEntry, DynamicError, RefreshStats, SampleSpec, SketchProvenance};
pub use engine::{QueryEngine, DEFAULT_CACHE_CAPACITY};
pub use index::{IndexError, IndexMeta, PostingsSource, SetId, SketchIndex};
pub use masked::MaskedPool;
pub use query::{Query, QueryKey, QueryResponse};
pub use recover::{RecoverError, Recovered};
pub use snapshot::{
    parse_head, recover_interrupted_save, save_parts, snapshot_tmp_path, DeltaJournal,
    JournalEntry, SnapshotError, SnapshotHead, SnapshotSections, JOURNAL_MAGIC,
    SNAPSHOT_HEADER_BYTES, SNAPSHOT_MAGIC, SNAPSHOT_PAGE_BYTES, SNAPSHOT_VERSION,
};

/// Vertex identifier (re-exported from `imm-rrr` for convenience).
pub type NodeId = imm_rrr::NodeId;
