//! # efficient-imm
//!
//! The core of the reproduction: the IMM influence-maximization algorithm
//! (Tang et al., SIGMOD'15) with two interchangeable parallel engines —
//!
//! * the **Ripples baseline** (Minutoli et al. 2019): vertex-partitioned
//!   occurrence counting where every thread scans every RRR set, sorted RRR
//!   sets with binary-search membership, and separate sampling/selection
//!   kernels; and
//! * **EfficientIMM** (this paper): RRR-set partitioning with a shared atomic
//!   occurrence counter, a max reduction over it (the paper's is two-level
//!   and parallel; here a sequential pass, see [`counter`]), kernel fusion of
//!   sampling and counting, adaptive RRR-set representation, adaptive counter
//!   updates, and dynamic job balancing.
//!
//! An EfficientIMM [`run_imm`] samples with that engine and selects, at every
//! θ step, with the lazy-greedy (CELF) session over the sample's postings
//! that every `imm-service` Top-K also runs ([`imm_rrr::LazyGreedy`]); the
//! paper's eager selection kernels (`selection::{efficient, ripples}`, the
//! shared counter, kernel fusion) stay as the reproduction's subjects and as
//! the lazy session's parity oracle, and the Ripples run keeps its own.
//!
//! The high-level entry point is [`run_imm`], which executes the full
//! martingale workflow (Algorithm 1 of the paper) under an
//! [`ExecutionConfig`] selecting the engine, thread count, and feature flags.
//! Lower-level building blocks (sampling, selection kernels, the atomic
//! counter) are public so the benchmark harness can exercise them in
//! isolation, which is how the paper's per-kernel tables and figures are
//! regenerated.
//!
//! ```
//! use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
//! use imm_diffusion::DiffusionModel;
//! use imm_graph::{generators, CsrGraph, EdgeWeights};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = CsrGraph::from_edge_list(&generators::social_network(500, 6, 0.3, &mut rng));
//! let weights = EdgeWeights::ic_weighted_cascade(&graph);
//! let params = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade).with_seed(7);
//! let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
//! let result = run_imm(&graph, &weights, &params, &exec).unwrap();
//! assert_eq!(result.seeds.len(), 5);
//! ```

pub mod balance;
pub mod counter;
pub mod imm;
pub mod instrumented;
pub mod math;
pub mod metrics;
pub mod params;
pub mod sampling;
pub mod selection;
pub mod stats;

pub use counter::GlobalCounter;
pub use imm::{run_imm, ImmError, ImmResult};
pub use params::{Algorithm, EfficientFeatures, ExecutionConfig, ImmParams};
pub use sampling::{generate_rrr_set, generate_rrr_sets, SamplingGraph, SamplingOutput, SetKey};
pub use selection::{select_seeds, SeedSelection};
pub use stats::{KernelTimings, RuntimeBreakdown, WorkProfile};

/// Vertex identifier, re-exported from `imm-graph`.
pub type NodeId = imm_graph::NodeId;
