//! # imm-store
//!
//! Zero-copy snapshot store: serve a [`imm_service::SketchIndex`] straight
//! from a memory-mapped v7 snapshot file.
//!
//! The read-decode loader pays for the whole file before the first query:
//! one streamed pass reads, checksums and decodes it, then every list and
//! row is validated. For a multi-gigabyte sketch that is seconds of startup
//! even though the first query may touch a few kilobytes. A v7 snapshot is its index's postings
//! (offsets, flat lists, row table, rows) at aligned offsets behind a
//! checksummed directory, so this crate can instead:
//!
//! 1. [`Mapping`] — `mmap` the file read-only (direct libc FFI, no new
//!    dependencies; little-endian Linux only, graceful error elsewhere);
//! 2. [`imm_service::parse_head`] — parse metadata, directory and
//!    provenance from the head pages only;
//! 3. attach the postings sections as borrowed views through
//!    [`imm_service::PostingsSource`] — producing an index that is logically
//!    identical to a heap load while the data pages stay untouched until
//!    queries fault them in.
//!
//! [`Store::open`] is the resilient entry point: any mapped-path failure
//! (unsupported platform, syscall error, injected fault) increments
//! `store_mmap_fallbacks` and re-opens through the checksummed read-decode
//! path; a file of any format version but the current one is
//! `UnsupportedVersion` on both.

pub mod metrics;
pub mod mmap;
mod store;

pub use mmap::{Mapping, PAGE_BYTES};
pub use store::{LoadMode, OpenedIndex, StartupTimings, Store, StoreError, FAULT_SITE_OPEN};
