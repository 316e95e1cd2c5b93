//! `imm-exec`: the persistent execution runtime for the imm workspace.
//!
//! One worker model: the **shared pool** ([`Executor`]) — a fixed set of
//! long-lived workers fed by per-worker SPSC inboxes, driven through scoped
//! fork-join ([`Executor::scope`], mirroring `rayon::scope`). The vendored
//! rayon shim delegates here, so sampling, selection and batch serving run
//! on persistent threads instead of spawning OS threads per call. The
//! waiting scope owner *helps* run unclaimed tasks, which makes a 1-thread
//! pool a pure inline executor (the right shape for 1-CPU hosts) and makes
//! nested scopes deadlock-free by construction.
//!
//! Process-wide configuration lives in [`configure_global`] /
//! [`global`] / [`default_threads`] (CLI `--threads`, `IMM_THREADS` env,
//! machine parallelism — in that order). Runtime observability (tasks
//! executed, parks/unparks, queue depths) is exported through
//! [`metrics::snapshot`].
//!
//! # Shutdown and panic semantics
//!
//! Dropping the pool flags shutdown, unparks and joins its workers;
//! queued-but-unclaimed work is drained first. Task panics are caught where
//! they happen, recorded, and re-thrown on the thread that owns the scope —
//! worker threads and locks are never poisoned, and the pool stays usable
//! afterwards.

pub mod executor;
pub mod metrics;
pub mod spsc;

pub use executor::{configure_global, default_threads, global, Executor, GlobalPoolError, Scope};
pub use metrics::MetricSample;
