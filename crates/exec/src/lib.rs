//! `imm-exec`: the persistent execution runtime for the imm workspace.
//!
//! One worker model: the **shared pool** ([`Executor`]) — a fixed set of
//! long-lived workers that sleep on one injector of scope handles, driven
//! through scoped fork-join ([`Executor::scope`], mirroring
//! `rayon::scope`). The vendored rayon shim delegates here, so sampling,
//! selection and batch serving run on persistent threads instead of
//! spawning OS threads per call. Each scope owns its task queue and its
//! owner runs whatever no worker took, which makes a 1-thread pool a pure
//! inline executor (the right shape for 1-CPU hosts) and makes nested
//! scopes deadlock-free by construction.
//!
//! Process-wide configuration lives in [`configure_global`] /
//! [`global`] / [`default_threads`] (CLI `--threads`, `IMM_THREADS` env,
//! machine parallelism — in that order). Runtime counters (scopes, tasks
//! by who ran them, parks/unparks) join the `imm-obs` registry through
//! [`metrics::register`].
//!
//! # Shutdown and panic semantics
//!
//! Dropping the pool flags shutdown, wakes and joins its workers. Task
//! panics are caught where they happen, recorded, and re-thrown on the
//! thread that owns the scope — worker threads and locks are never
//! poisoned, and the pool stays usable afterwards.

pub mod executor;
pub mod metrics;

pub use executor::{configure_global, default_threads, global, Executor, GlobalPoolError, Scope};
