//! Opening a snapshot as a served index: the zero-copy mmap path with a
//! counted fallback to the classic read-decode path.
//!
//! [`Store::open`] maps the file, parses the head of a v5 snapshot (prelude,
//! section directory, per-set lens/flags, provenance — no data pages), and
//! assembles a [`SketchIndex`] whose arena, bitmap words and inverted
//! postings (offsets, lists, row table, rows) are **borrowed views into the
//! mapping**. Nothing proportional to the index size is read or copied at
//! open time; queries fault pages in on demand, so time-to-first-query drops
//! from "decode the whole file" to "parse a few head pages".
//!
//! Any failure on the mapped path — a non-Linux platform, an mmap error, an
//! injected fault — increments `store_mmap_fallbacks` and falls back to the
//! read-decode path, which checksums and decodes the whole file onto the
//! heap. Both paths produce logically equal indices; a parity suite pins
//! byte-identical query responses. A file of another format version is no
//! path's to serve: the fallback reports the same
//! [`SnapshotError::UnsupportedVersion`] the mapped open did.
//!
//! ## Why skipping the payload checksum is safe (kill-safety)
//!
//! The read-decode path verifies the container FNV over the entire payload;
//! the mapped path verifies only the head's own directory checksum. This is
//! sound because snapshots are only ever published by
//! `SketchIndex::save_to_path`'s write-to-temp → fsync → atomic-rename discipline
//! (PR 9): a reader can never observe a half-written file under the final
//! path, so the data sections of any openable snapshot are exactly the bytes
//! the (already-validated) writer produced. Torn files live under the
//! `.tmp` name and are swept by `recover_interrupted_save`. Bit-rot on disk
//! is outside the mmap fast path's contract — `verify` tooling and the
//! fallback path still check the full container hash.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use imm_rrr::{ArenaSource, BitSet, NodeId, RrrCollection, RrrSet, WordsSource};
use imm_service::{
    parse_head, IndexError, PostingsSource, SetId, SketchIndex, SnapshotError, SnapshotSections,
    SET_FLAG_BITMAP, SET_FLAG_SORTED,
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
/// `open` covers file open + metadata (+ full read on the fallback path),
/// `map` covers mmap + head parsing (zero on the fallback path), `decode`
/// covers index assembly — span attachment on the mapped path, the whole
/// checksum-and-decode on the fallback path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StartupTimings {
    /// File open/read phase.
    pub open_ns: u64,
    /// Mapping + head-parse phase.
    pub map_ns: u64,
    /// Index-assembly phase.
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
    /// The file is not a parseable snapshot of the current format version.
    Snapshot(SnapshotError),
    /// The head parsed but the index rejected the mapped parts.
    Index(IndexError),
    /// Section bookkeeping disagreed with the per-set lens/flags.
    Corrupt(&'static str),
    /// An injected fault tripped the open fail point.
    Fault(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Snapshot(e) => write!(f, "store snapshot error: {e}"),
            StoreError::Index(e) => write!(f, "store index error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt snapshot: {msg}"),
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

/// The vertex arena section, served in place.
#[derive(Debug)]
struct MappedArena {
    mapping: Arc<Mapping>,
    off: usize,
    len: usize,
}

impl ArenaSource for MappedArena {
    fn nodes(&self) -> &[NodeId] {
        section_slice(&self.mapping, self.off, self.len)
    }
}

/// The bitmap-words section, served in place.
#[derive(Debug)]
struct MappedWords {
    mapping: Arc<Mapping>,
    off: usize,
    len: usize,
}

impl WordsSource for MappedWords {
    fn words(&self) -> &[u64] {
        section_slice(&self.mapping, self.off, self.len)
    }
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
    /// The served index; on the mapped path its arena, bitmaps and postings
    /// are borrowed views into the mapping.
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

    /// Open `path` through the classic read-decode path (full checksum,
    /// heap-owned index).
    pub fn open_read(path: impl AsRef<Path>) -> Result<OpenedIndex, SnapshotError> {
        metrics::register();
        let t_open = Instant::now();
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        let open_ns = t_open.elapsed().as_nanos() as u64;
        let t_decode = Instant::now();
        let index = SketchIndex::load(&mut bytes.as_slice())?;
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
        let arena: Arc<dyn ArenaSource> = Arc::new(MappedArena {
            mapping: Arc::clone(&mapping),
            off: sections.arena_off,
            len: sections.arena_len,
        });
        let mut collection =
            RrrCollection::adopt_shared_arena(sections.num_nodes, arena, sections.num_sets);
        let words_per_bitmap = sections.words_per_bitmap();
        let words: Arc<dyn WordsSource> = Arc::new(MappedWords {
            mapping: Arc::clone(&mapping),
            off: sections.bitmaps_off,
            len: sections.bitmap_sets * words_per_bitmap,
        });
        let mut cursor = 0usize;
        let mut next_bitmap = 0usize;
        for (&len, &flag) in head.lens.iter().zip(head.flags.iter()) {
            match flag {
                SET_FLAG_SORTED => {
                    collection
                        .push_span_trusted(cursor, len as usize)
                        .map_err(StoreError::Corrupt)?;
                    cursor += len as usize;
                }
                SET_FLAG_BITMAP => {
                    if next_bitmap >= sections.bitmap_sets {
                        return Err(StoreError::Corrupt("more bitmap flags than bitmap sections"));
                    }
                    let bs = BitSet::from_shared_words(
                        sections.num_nodes,
                        Arc::clone(&words),
                        next_bitmap * words_per_bitmap,
                        len as usize,
                    )
                    .map_err(StoreError::Corrupt)?;
                    collection.push(RrrSet::Bitmap(bs));
                    next_bitmap += 1;
                }
                _ => return Err(StoreError::Corrupt("unknown representation flag")),
            }
        }
        if cursor != sections.arena_len {
            return Err(StoreError::Corrupt("arena length disagrees with the set lengths"));
        }
        if next_bitmap != sections.bitmap_sets {
            return Err(StoreError::Corrupt("fewer bitmap flags than bitmap sections"));
        }
        let postings: Arc<dyn PostingsSource> =
            Arc::new(MappedPostings { mapping: Arc::clone(&mapping), sections });
        let index =
            SketchIndex::from_mapped_parts(collection, head.meta, head.provenance, postings)?;
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
