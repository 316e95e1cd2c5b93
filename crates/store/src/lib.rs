//! # imm-store
//!
//! Zero-copy snapshot store: serve a [`imm_service::SketchIndex`] straight
//! from a memory-mapped v5 snapshot file.
//!
//! The read-decode loader pays for the whole file before the first query:
//! read, checksum, decode, rebuild postings. For a multi-gigabyte sketch
//! that is seconds of startup even though the first query may touch a few
//! kilobytes. The v5 snapshot format lays its data sections (vertex arena,
//! bitmap words, and the vertex-adaptive postings: offsets, flat lists, row
//! table, rows) at aligned offsets behind a checksummed directory, so this
//! crate can instead:
//!
//! 1. [`Mapping`] — `mmap` the file read-only (direct libc FFI, no new
//!    dependencies; little-endian Linux only, graceful error elsewhere);
//! 2. [`imm_service::parse_head`] — parse metadata, directory, per-set
//!    lens/flags and provenance from the head pages only;
//! 3. attach the sections as borrowed views — the arena through
//!    [`imm_rrr::ArenaSource`], bitmaps through [`imm_rrr::WordsSource`],
//!    postings through [`imm_service::PostingsSource`] — producing an index
//!    that is logically identical to a heap load while the data pages stay
//!    untouched until queries fault them in.
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
