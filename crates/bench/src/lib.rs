//! # imm-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation section.
//!
//! * [`efficient`] — the paper's eager EfficientIMM selection kernel
//!   (Algorithm 2) over the shared atomic [`counter`], with the adaptive
//!   decrement-vs-rebuild update; `run_imm` selects with CELF instead, so the
//!   kernel is a reproduction subject and a parity oracle only.
//! * [`instrumented`] — the Table II and IV replays through the `imm-numa`
//!   cost model and the `imm-memsim` cache hierarchy.
//! * [`datasets`] — the registry of synthetic analogues standing in for the
//!   eight SNAP datasets (each entry records the paper-reported reference
//!   numbers so the output can be compared side by side).
//! * [`scaling`] — the strong-scaling driver and the work/contention model
//!   used to derive scaling *shapes* on this single-core reproduction host
//!   (see DESIGN.md §4 for the substitution rationale).
//! * [`runner`] — shared helpers for running IMM configurations and
//!   collecting results.
//! * [`output`] — plain-text tables, CSV files and the JSON run logs the
//!   paper's artifact produces.
//!
//! Each table/figure has a dedicated binary under `src/bin/`; see DESIGN.md
//! §6 for the experiment-to-binary index.

pub mod config;
pub mod counter;
pub mod datasets;
pub mod efficient;
pub mod instrumented;
pub mod output;
pub mod runner;
pub mod scaling;

pub use datasets::{registry, Dataset, DatasetSpec, Scale};
pub use runner::{run_configuration, BenchMeasurement};
pub use scaling::{modeled_time, scaling_curve, ScalingPoint};
