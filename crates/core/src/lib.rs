//! # efficient-imm
//!
//! The core of the reproduction and of the serving stack: the IMM
//! influence-maximization algorithm (Tang et al., SIGMOD'15) run by one
//! parallel engine, **EfficientIMM** (this paper): RRR-set-partitioned
//! sampling with dynamic job balancing and the adaptive RRR-set
//! representation, kernel fusion of sampling and counting, and a greedy
//! selection over the sample's postings.
//!
//! [`run_imm`] samples with that engine, fuses the counting into its θ loop
//! as one per-batch [`imm_rrr::count_memberships`], and selects, at a θ step
//! whose check those counts let pass, with the lazy-greedy (CELF) session
//! over the sample's postings that every `imm-service` Top-K also runs
//! ([`imm_rrr::LazyGreedy`]).
//!
//! This crate holds only what `run`, `build-index` and the daemon execute:
//! the keyed sampler, the θ loop and CELF. The reproduction's subjects live
//! in `imm-bench`: the baseline the paper measures against (the Ripples
//! engine of Minutoli et al. 2019, `imm_bench::ripples`), the paper's eager
//! EfficientIMM selection kernel with its shared atomic counter, and the
//! Table II/IV memory-model replays.
//!
//! The high-level entry point is [`run_imm`], which executes the full
//! martingale workflow (Algorithm 1 of the paper) under an
//! [`ExecutionConfig`] setting the thread count and feature flags.
//! The sampling driver and the selections are public so the benchmark
//! harness and the serving crates can call them on their own.
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
pub mod imm;
pub mod math;
pub mod metrics;
pub mod params;
pub mod sampling;
pub mod selection;
pub mod stats;

pub use imm::{run_imm, ImmError, ImmResult};
pub use params::{Algorithm, EfficientFeatures, ExecutionConfig, ImmParams};
pub use sampling::{generate_rrr_set, generate_rrr_sets, SamplingGraph, SamplingOutput, SetKey};
pub use selection::SeedSelection;
pub use stats::{KernelTimings, RuntimeBreakdown, WorkProfile};

/// Vertex identifier, re-exported from `imm-graph`.
pub type NodeId = imm_graph::NodeId;
