//! Opening a snapshot as a served index: the zero-copy mmap path with a
//! counted fallback to the classic read-decode path.
//!
//! [`Store::open`] maps the file, parses the head of a v7 snapshot (prelude,
//! section directory, provenance — no data pages), and assembles a
//! [`SketchIndex`] whose postings (offsets, lists, row table, rows) are
//! **borrowed views into the mapping** — the postings are all a snapshot
//! holds. Nothing is copied at open time and nothing is read but the list
//! offsets and the row table, which are validated; queries fault the lists
//! and rows in on demand, so time-to-first-query drops from "decode the
//! whole file" to "parse the head and check the offsets".
//!
//! Any failure on the mapped path — a non-Linux platform, an mmap error, an
//! injected fault — increments `store_mmap_fallbacks` and falls back to the
//! read-decode path, [`Store::open_read`]: `SketchIndex::load_file`, one
//! streamed pass that checksums the whole payload and decodes the sections
//! onto the heap chunk by chunk, then validates them in full, and serves
//! nothing until both pass. Both paths produce
//! logically equal indices; the `heap load` and `mapped load` rows of the
//! conformance matrix (`tests/conformance.rs`) pin byte-identical query
//! responses. A file of another format version is no
//! path's to serve: the fallback reports the same
//! [`SnapshotError::UnsupportedVersion`] the mapped open did.
//!
//! ## Why skipping the payload checksum is safe (kill-safety)
//!
//! The read-decode path verifies the container XXH64 over the entire payload;
//! the mapped path verifies only the head's own directory checksum. This is
//! sound because snapshots are only ever published by
//! `SketchIndex::save_to_path`'s write-to-temp → fsync → atomic-rename
//! discipline: a reader can never observe a half-written file under the final
//! path, so the data sections of any openable snapshot are exactly the bytes
//! the (already-validated) writer produced. Torn files live under the
//! `.tmp` name, which no open reads or removes (it may be a save in flight);
//! the next save of the path truncates and reuses it. Bit-rot on disk
//! is outside the mmap fast path's contract — `verify` tooling and the
//! fallback path still check the full container hash.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use imm_service::{
    parse_head, IndexError, PostingsSource, SetId, SketchIndex, SnapshotError, SnapshotSections,
};

use crate::metrics;
use crate::mmap::Mapping;

/// Fault-injection site hit once per attempted mapped open.
pub const FAULT_SITE_OPEN: &str = "store.mmap.open";

/// How the snapshot behind an [`OpenedIndex`] is being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Sections are borrowed views into a live memory mapping.
    Mapped,
    /// The file was checksummed and decoded onto the heap.
    ReadDecode,
}

impl LoadMode {
    /// Stable lowercase tag for logs and JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            LoadMode::Mapped => "mapped",
            LoadMode::ReadDecode => "read_decode",
        }
    }
}

/// Per-phase startup timing of one open, in nanoseconds.
///
/// `open` covers file open + metadata on both paths; `map` covers mmap +
/// head parsing (zero on the read-decode path); `decode` covers index
/// assembly — the postings shape checks on the mapped path, and on the
/// read-decode path the one streamed pass: the read, the payload checksum,
/// the decode and the full validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StartupTimings {
    /// File open + metadata phase.
    pub open_ns: u64,
    /// Mapping + head-parse phase.
    pub map_ns: u64,
    /// Index-assembly phase; on the read-decode path the streamed read,
    /// checksum, decode and validation.
    pub decode_ns: u64,
}

impl StartupTimings {
    /// Sum of all phases.
    pub fn total_ns(&self) -> u64 {
        self.open_ns + self.map_ns + self.decode_ns
    }
}

/// Errors of the mapped open path. The public [`Store::open`] converts all
/// of these into a counted fallback; they surface directly only from
/// [`Store::open_mapped`].
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem or mmap syscall failure.
    Io(std::io::Error),
    /// The file is not a parseable snapshot of the current format version;
    /// a directory that lies (a set count outside the set-id space, sections
    /// that overlap or overrun the file) is a
    /// [`SnapshotError::Corrupt`] here.
    Snapshot(SnapshotError),
    /// The head parsed but the index rejected the mapped postings (their
    /// offsets or row table lie).
    Index(IndexError),
    /// An injected fault tripped the open fail point.
    Fault(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Snapshot(e) => write!(f, "store snapshot error: {e}"),
            StoreError::Index(e) => write!(f, "store index error: {e}"),
            StoreError::Fault(site) => write!(f, "store injected fault at {site}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}
impl From<IndexError> for StoreError {
    fn from(e: IndexError) -> Self {
        StoreError::Index(e)
    }
}

/// Reinterpret a little-endian section of the mapping as a typed slice.
///
/// The callers pass the directory's section offsets: page-aligned, so
/// aligned for any `T` here — except the row table, validated 4-aligned and
/// viewed as `u32`, and the offset of an *empty* rows section, which
/// [`MappedPostings`] never passes here. Directory `validate()` and the
/// `file_len == mapping.len()` check in `parse_head` keep every section
/// inside the mapping. Both facts are asserted here as well, so a bad call
/// panics in every build instead of reading out of bounds; the build is
/// little-endian (the mmap module only maps on little-endian targets).
/// `T` is only ever `u32` or `u64`, for which every bit pattern is valid.
fn section_slice<T>(mapping: &Mapping, off: usize, len: usize) -> &[T] {
    assert_eq!(off % std::mem::align_of::<T>(), 0, "section offset {off} is misaligned");
    let end = len.checked_mul(std::mem::size_of::<T>()).and_then(|bytes| bytes.checked_add(off));
    assert!(end.is_some_and(|end| end <= mapping.len()), "section past the mapping's end");
    // SAFETY: the asserts above keep `[off, off + len * size_of::<T>())`
    // aligned for `T` and inside the mapping, and the returned slice borrows
    // `mapping`, which each source holds through an `Arc<Mapping>` for as
    // long as the slice can be used, so the pages stay mapped and read-only.
    unsafe { std::slice::from_raw_parts(mapping.as_slice().as_ptr().add(off).cast::<T>(), len) }
}

/// The four postings sections — offsets, flat lists, row table, rows —
/// served in place.
#[derive(Debug)]
struct MappedPostings {
    mapping: Arc<Mapping>,
    sections: SnapshotSections,
}

impl PostingsSource for MappedPostings {
    fn offsets(&self) -> &[u64] {
        section_slice(&self.mapping, self.sections.offsets_off, self.sections.num_nodes + 1)
    }
    fn set_ids(&self) -> &[SetId] {
        section_slice(&self.mapping, self.sections.postings_off, self.sections.postings_len)
    }
    fn row_table(&self) -> &[u32] {
        section_slice(&self.mapping, self.sections.row_table_off, self.sections.row_vertices * 2)
    }
    fn rows(&self) -> &[u64] {
        // Without a row vertex the section is empty wherever the lists end,
        // which need not be a `u64` boundary.
        match self.sections.row_vertices {
            0 => &[],
            rows => section_slice(
                &self.mapping,
                self.sections.rows_off,
                rows * self.sections.words_per_row(),
            ),
        }
    }
}

/// An index opened through the store, with how it was opened, the phase
/// timings, and (on the mapped path) the live mapping.
#[derive(Debug)]
pub struct OpenedIndex {
    /// The served index; on the mapped path its postings are borrowed views
    /// into the mapping.
    pub index: SketchIndex,
    /// Which path produced the index.
    pub mode: LoadMode,
    /// Per-phase startup timings.
    pub timings: StartupTimings,
    mapping: Option<Arc<Mapping>>,
}

impl OpenedIndex {
    /// Whether the index serves from a live mapping.
    pub fn is_mapped(&self) -> bool {
        self.mode == LoadMode::Mapped
    }

    /// Mapped file length in bytes (0 on the read-decode path).
    pub fn mapped_len(&self) -> usize {
        self.mapping.as_ref().map_or(0, |m| m.len())
    }
}

/// Entry points for opening snapshots. Stateless — all state lives in the
/// returned [`OpenedIndex`].
#[derive(Debug)]
pub struct Store;

impl Store {
    /// Open `path` zero-copy if possible, falling back to read-decode on
    /// any mapped-path failure. The fallback is counted
    /// (`store_mmap_fallbacks`) and never propagates the mapped error —
    /// only a failure of the fallback itself surfaces.
    pub fn open(path: impl AsRef<Path>) -> Result<OpenedIndex, SnapshotError> {
        metrics::register();
        let path = path.as_ref();
        match Self::open_mapped(path) {
            Ok(opened) => Ok(opened),
            Err(_mapped_err) => {
                metrics::MMAP_FALLBACKS.increment();
                Self::open_read(path)
            }
        }
    }

    /// Open `path` through the read-decode path: open the file, take its
    /// length, then `SketchIndex::load_file` (one streamed pass that
    /// checksums, decodes and validates in full; a heap-owned index).
    pub fn open_read(path: impl AsRef<Path>) -> Result<OpenedIndex, SnapshotError> {
        metrics::register();
        let t_open = Instant::now();
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let open_ns = t_open.elapsed().as_nanos() as u64;
        let t_decode = Instant::now();
        let index = SketchIndex::load_file(&mut file, len)?;
        let decode_ns = t_decode.elapsed().as_nanos() as u64;
        Ok(OpenedIndex {
            index,
            mode: LoadMode::ReadDecode,
            timings: StartupTimings { open_ns, map_ns: 0, decode_ns },
            mapping: None,
        })
    }

    /// Open `path` strictly through the mapped path — no fallback. Parity
    /// tests and the startup benchmark use this to guarantee which path
    /// they measure.
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<OpenedIndex, StoreError> {
        metrics::register();
        let t_open = Instant::now();
        let file = File::open(path)?;
        imm_fault::fail_point(FAULT_SITE_OPEN).map_err(|_| StoreError::Fault(FAULT_SITE_OPEN))?;
        let open_ns = t_open.elapsed().as_nanos() as u64;

        let t_map = Instant::now();
        let mapping = Arc::new(Mapping::map_file(&file)?);
        let head = parse_head(mapping.as_slice())?;
        let map_ns = t_map.elapsed().as_nanos() as u64;

        let t_decode = Instant::now();
        let sections = head.sections;
        let postings: Arc<dyn PostingsSource> =
            Arc::new(MappedPostings { mapping: Arc::clone(&mapping), sections });
        let index = SketchIndex::from_mapped_parts(
            sections.num_nodes,
            sections.num_sets,
            head.meta,
            head.provenance,
            postings,
        )?;
        let decode_ns = t_decode.elapsed().as_nanos() as u64;

        metrics::MMAP_OPENS.increment();
        metrics::MAPPED_MEMORY.add(mapping.len() as u64);
        Ok(OpenedIndex {
            index,
            mode: LoadMode::Mapped,
            timings: StartupTimings { open_ns, map_ns, decode_ns },
            mapping: Some(mapping),
        })
    }
}

#[cfg(all(test, target_os = "linux", target_endian = "little"))]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "section past the mapping's end")]
    fn a_section_past_the_mappings_end_panics() {
        let path =
            std::env::temp_dir().join(format!("imm_store_section_slice_{}", std::process::id()));
        std::fs::write(&path, vec![0u8; crate::PAGE_BYTES]).unwrap();
        let mapping = Mapping::map_file(&File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        let words = crate::PAGE_BYTES / 8;
        assert_eq!(section_slice::<u64>(&mapping, 0, words).len(), words);
        section_slice::<u64>(&mapping, 8, words);
    }
}
