//! The binary snapshot format.
//!
//! Sampling dominates IMM runtime, so a sketch sampled once is worth
//! persisting: `save` freezes a [`SketchIndex`] to disk and `load` brings it
//! back in a later process without resampling. The container is defensive —
//! magic bytes, a format version, and an FNV-1a checksum over the payload —
//! so a wrong file, another format, or flipped bits fail loudly instead of
//! deserializing garbage into a serving index.
//!
//! There is one format, version 6: what this build writes is the only thing
//! it reads or maps, and any other version field is
//! [`SnapshotError::UnsupportedVersion`]. A snapshot is its index's
//! postings: there is no per-set section. Layout (all integers
//! little-endian, all offsets **snapshot-relative**: offset 0 is the first
//! magic byte):
//!
//! ```text
//! [0..8)   magic  "IMMSKTCH"
//! [8..12)  format version (6)
//! [12..20) FNV-1a 64 checksum of the payload
//! [20..)   payload — the head:
//!            num_edges u64, label (u32 length + UTF-8 bytes)
//!            section directory: 9 × u64 (num_nodes, num_sets, postings_len,
//!              offsets_off, postings_off, row_vertices, row_table_off,
//!              rows_off, file_len) + the FNV-1a 64 of those 72 bytes
//!            provenance section
//!          then the postings sections at their directory offsets
//! ```
//!
//! The **provenance section** is a presence flag and, when set, the sampling
//! spec (model tag: 2 = IC, 3 = LT — sets drawn from per-set keyed coins;
//! base RNG seed; representation policy) and the **delta log** of every
//! [`imm_graph::GraphDelta`] applied since the initial sample. A snapshot of
//! a dynamic index therefore stays refreshable after a round trip, and the
//! delta log lets `update-index` reconstruct the current graph revision from
//! the original source.
//!
//! The data sections are the vertex-adaptive [`imm_rrr::Postings`], stored
//! section for section: the CSR offsets (`num_nodes + 1` × `u64`) and the
//! flat `u32` lists, each on a 4096-byte page boundary, hold the list
//! vertices only (a row vertex has an empty range); the **row table**
//! (`u32`: the `row_vertices` ids of the vertices stored as rows, ascending,
//! then their degrees) follows the lists directly, and the **rows** (`u64`,
//! `⌈num_sets/64⌉` words per row vertex, in table order) start on the next
//! page boundary and end the file. A snapshot without a row vertex has both
//! sections empty at `file_len`. Padding is zero. Because every section is
//! plain little-endian integers, suitably aligned, `imm-store` can `mmap` a
//! file and serve the postings *in place* from [`parse_head`] alone; the
//! read-decode path decodes the sections and validates them in full (every
//! list ascending and in range, no row bit beyond `num_sets`, stored degree
//! = popcount, no vertex in both forms).
//!
//! # Crash safety
//!
//! File saves are atomic: [`SketchIndex::save_to_path`] writes `<path>.tmp`,
//! fsyncs it, and renames it over `path`, so a reader of `path` always
//! sees either the previous complete snapshot or the new complete
//! snapshot — never a torn prefix. A save interrupted at any write
//! offset (power loss, `kill -9`, injected fault) leaves at worst a
//! stale `.tmp` beside the last good file; the path-based loaders sweep
//! it and count the recovery in the `snapshot_recoveries` metric.
//! [`DeltaJournal`] complements the snapshot: the daemon journals each
//! accepted delta (fsynced) *before* making it visible, so deltas
//! applied after the last snapshot survive a crash, and
//! [`SketchIndex::recover`] replays them at startup.

use crate::dynamic::{DeltaLogEntry, SampleSpec, SketchProvenance};
use crate::index::{IndexError, IndexMeta, SketchIndex};
use imm_diffusion::DiffusionModel;
use imm_graph::GraphDelta;
use imm_rrr::codec::{ByteReader, CodecError};
use imm_rrr::{AdaptivePolicy, Postings, RrrCollection};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"IMMSKTCH";
/// The one snapshot format version: what this build writes, reads and maps.
pub const SNAPSHOT_VERSION: u32 = 6;
/// Alignment of the page-aligned data sections, as a **snapshot-relative** byte
/// offset (offset 0 = first magic byte). Matches the small-page size, so a
/// page-aligned mapping of the file keeps each section alignment-safe for
/// in-place `u32`/`u64` views.
pub const SNAPSHOT_PAGE_BYTES: usize = 4096;
/// Bytes of the container header preceding the payload.
pub const SNAPSHOT_HEADER_BYTES: usize = 20;

/// Round a snapshot-relative offset up to the next section boundary.
#[inline]
fn align_up(offset: usize) -> usize {
    offset.div_ceil(SNAPSHOT_PAGE_BYTES) * SNAPSHOT_PAGE_BYTES
}

/// Errors produced while saving or loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 8]),
    /// The file announces a format version other than [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The payload bytes do not decode (truncation, bad tags, bad lengths).
    Corrupt(CodecError),
    /// The collection handed to the writer cannot be indexed.
    Index(IndexError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic(found) => {
                write!(f, "not a sketch snapshot (magic bytes {found:02x?})")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v}: this build reads and maps version \
                     {SNAPSHOT_VERSION}; rebuild the index with `build-index`"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#018x}, payload {actual:#018x})"
            ),
            SnapshotError::Corrupt(e) => write!(f, "corrupt snapshot payload: {e}"),
            SnapshotError::Index(e) => write!(f, "snapshot decodes but cannot be indexed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Corrupt(e) => Some(e),
            SnapshotError::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Corrupt(e)
    }
}

impl From<IndexError> for SnapshotError {
    fn from(e: IndexError) -> Self {
        SnapshotError::Index(e)
    }
}

/// FNV-1a 64-bit hash of `bytes` — the snapshot layer's dependency-free
/// integrity primitive (container payload, section directory, journal
/// entries).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// Tags 0 and 1 named the sequential-stream sampler that preceded the keyed
// coins; no v6 file carries them, and they are never reused.
const MODEL_IC_KEYED: u8 = 2;
const MODEL_LT_KEYED: u8 = 3;

fn encode_delta(delta: &GraphDelta, out: &mut Vec<u8>) {
    out.extend_from_slice(&(delta.insertions().len() as u64).to_le_bytes());
    for &(s, d, w) in delta.insertions() {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(delta.deletions().len() as u64).to_le_bytes());
    for &(s, d) in delta.deletions() {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
    out.extend_from_slice(&(delta.reweights().len() as u64).to_le_bytes());
    for &(s, d, w) in delta.reweights() {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
}

fn decode_delta(reader: &mut ByteReader<'_>) -> Result<GraphDelta, SnapshotError> {
    let mut delta = GraphDelta::new();
    let insertions = reader.read_len(12)?;
    for _ in 0..insertions {
        let s = reader.read_u32()?;
        let d = reader.read_u32()?;
        let w = f32::from_bits(reader.read_u32()?);
        delta = delta.insert(s, d, w);
    }
    let deletions = reader.read_len(8)?;
    for _ in 0..deletions {
        let s = reader.read_u32()?;
        let d = reader.read_u32()?;
        delta = delta.delete(s, d);
    }
    let reweights = reader.read_len(12)?;
    for _ in 0..reweights {
        let s = reader.read_u32()?;
        let d = reader.read_u32()?;
        let w = f32::from_bits(reader.read_u32()?);
        delta = delta.reweight(s, d, w);
    }
    Ok(delta)
}

fn encode_provenance(provenance: &SketchProvenance, out: &mut Vec<u8>) {
    let spec = &provenance.spec;
    out.push(match spec.model {
        DiffusionModel::IndependentCascade => MODEL_IC_KEYED,
        DiffusionModel::LinearThreshold => MODEL_LT_KEYED,
    });
    out.extend_from_slice(&spec.rng_seed.to_le_bytes());
    out.extend_from_slice(&spec.policy.density_threshold.to_bits().to_le_bytes());
    out.extend_from_slice(&(spec.policy.min_bitmap_size as u64).to_le_bytes());
    out.extend_from_slice(&(provenance.delta_log.len() as u64).to_le_bytes());
    for entry in &provenance.delta_log {
        out.extend_from_slice(&entry.resampled_sets.to_le_bytes());
        encode_delta(&entry.delta, out);
    }
}

/// Decode (and fully validate) a provenance section.
fn decode_provenance(reader: &mut ByteReader<'_>) -> Result<SketchProvenance, SnapshotError> {
    let model = match reader.read_u8()? {
        MODEL_IC_KEYED => DiffusionModel::IndependentCascade,
        MODEL_LT_KEYED => DiffusionModel::LinearThreshold,
        _ => return Err(SnapshotError::Corrupt(CodecError::InvalidValue("unknown model tag"))),
    };
    let rng_seed = reader.read_u64()?;
    let density_threshold = f64::from_bits(reader.read_u64()?);
    if density_threshold.is_nan() || density_threshold < 0.0 {
        return Err(SnapshotError::Corrupt(CodecError::InvalidValue(
            "density threshold is not a fraction",
        )));
    }
    let min_bitmap_size = usize::try_from(reader.read_u64()?)
        .map_err(|_| SnapshotError::Corrupt(CodecError::InvalidValue("bitmap size overflow")))?;
    let spec = SampleSpec::new(model, rng_seed)
        .with_policy(AdaptivePolicy { density_threshold, min_bitmap_size });

    // Each log entry needs at least its resampled count + three lengths.
    let log_len = reader.read_len(32)?;
    let mut delta_log = Vec::with_capacity(log_len);
    for _ in 0..log_len {
        let resampled_sets = reader.read_u64()?;
        let delta = decode_delta(reader)?;
        delta_log.push(DeltaLogEntry { delta, resampled_sets });
    }
    Ok(SketchProvenance { spec, delta_log })
}

/// The section directory of a snapshot: sizes and
/// **snapshot-relative** byte offsets of the postings sections. `imm-store`
/// maps the file and turns these straight into in-place slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSections {
    /// Vertices of the indexed vertex space.
    pub num_nodes: usize,
    /// Indexed RRR sets (θ); at most `u32::MAX`, the set-id space.
    pub num_sets: usize,
    /// Entries (`u32`) in the flat postings-list section.
    pub postings_len: usize,
    /// Snapshot-relative byte offset of the postings offsets
    /// (`num_nodes + 1` × `u64`).
    pub offsets_off: usize,
    /// Snapshot-relative byte offset of the flat postings lists.
    pub postings_off: usize,
    /// Vertices whose postings are a row.
    pub row_vertices: usize,
    /// Snapshot-relative byte offset of the row table (`2 × row_vertices`
    /// × `u32`: ids, then degrees).
    pub row_table_off: usize,
    /// Snapshot-relative byte offset of the rows (`row_vertices ×
    /// ⌈num_sets/64⌉` × `u64`); page-aligned when there are any.
    pub rows_off: usize,
    /// Total snapshot length in bytes (header included).
    pub file_len: usize,
}

/// Directory fields before the checksum.
const DIRECTORY_FIELDS: usize = 9;

impl SnapshotSections {
    /// `u64` words per stored postings row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.num_sets.div_ceil(64)
    }

    fn to_directory_bytes(self) -> Vec<u8> {
        let mut dir = Vec::with_capacity((DIRECTORY_FIELDS + 1) * 8);
        for value in [
            self.num_nodes,
            self.num_sets,
            self.postings_len,
            self.offsets_off,
            self.postings_off,
            self.row_vertices,
            self.row_table_off,
            self.rows_off,
            self.file_len,
        ] {
            dir.extend_from_slice(&(value as u64).to_le_bytes());
        }
        let check = fnv1a64(&dir);
        dir.extend_from_slice(&check.to_le_bytes());
        dir
    }

    /// Read and validate the directory.
    fn read(reader: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let raw = reader.read_bytes((DIRECTORY_FIELDS + 1) * 8)?;
        let words = le_u64s(raw);
        if fnv1a64(&raw[..DIRECTORY_FIELDS * 8]) != words[DIRECTORY_FIELDS] {
            return Err(SnapshotError::Corrupt(CodecError::InvalidValue(
                "section directory checksum mismatch",
            )));
        }
        let mut fields = [0usize; DIRECTORY_FIELDS];
        for (field, &word) in fields.iter_mut().zip(&words) {
            *field = usize::try_from(word).map_err(|_| {
                SnapshotError::Corrupt(CodecError::InvalidValue("directory field overflow"))
            })?;
        }
        let sections = SnapshotSections {
            num_nodes: fields[0],
            num_sets: fields[1],
            postings_len: fields[2],
            offsets_off: fields[3],
            postings_off: fields[4],
            row_vertices: fields[5],
            row_table_off: fields[6],
            rows_off: fields[7],
            file_len: fields[8],
        };
        sections.validate()?;
        Ok(sections)
    }

    /// Structural validation: a set count inside the set-id space, and each
    /// section aligned for its element type (page-aligned where the format
    /// says so), in order, and inside `file_len`. Independent of the data
    /// bytes, so the mmap path can run it without touching a single data
    /// page — and before anything is sized by the directory.
    fn validate(&self) -> Result<(), SnapshotError> {
        let corrupt = |msg: &'static str| SnapshotError::Corrupt(CodecError::InvalidValue(msg));
        // Nothing else bounds the set count when no vertex stores a row.
        if u32::try_from(self.num_sets).is_err() {
            return Err(corrupt("set count exceeds the u32 set-id space"));
        }
        let mut paged = vec![self.offsets_off, self.postings_off];
        if self.row_vertices > 0 {
            paged.push(self.rows_off);
        }
        if paged.iter().any(|off| off % SNAPSHOT_PAGE_BYTES != 0)
            || !self.row_table_off.is_multiple_of(4)
        {
            return Err(corrupt("section offset is not aligned"));
        }
        // End of a section of `count` elements of `width` bytes at `off`.
        let end = |off: usize, count: Option<usize>, width: usize| {
            count
                .and_then(|c| c.checked_mul(width))
                .and_then(|bytes| off.checked_add(bytes))
                .ok_or(corrupt("section size overflow"))
        };
        let offsets_end = end(self.offsets_off, self.num_nodes.checked_add(1), 8)?;
        let postings_end = end(self.postings_off, Some(self.postings_len), 4)?;
        let table_end = end(self.row_table_off, self.row_vertices.checked_mul(2), 4)?;
        let rows_end = end(self.rows_off, self.row_vertices.checked_mul(self.words_per_row()), 8)?;
        if offsets_end > self.postings_off
            || postings_end > self.row_table_off
            || table_end > self.rows_off
            || rows_end != self.file_len
        {
            return Err(corrupt("sections overlap or overrun the file"));
        }
        Ok(())
    }
}

/// Everything a reader of a snapshot learns **before touching any data
/// page**: the metadata prelude, the section directory and the provenance
/// section. The store's mmap path builds its zero-copy index from this head
/// plus in-place section views.
#[derive(Debug)]
pub struct SnapshotHead {
    /// Index metadata (edge count + label).
    pub meta: IndexMeta,
    /// Section directory.
    pub sections: SnapshotSections,
    /// Sampling provenance, when the snapshot was dynamic.
    pub provenance: Option<SketchProvenance>,
}

fn le_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect()
}

fn le_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
}

fn decode_head(payload: &[u8]) -> Result<SnapshotHead, SnapshotError> {
    let mut reader = ByteReader::new(payload);
    let num_edges = usize::try_from(reader.read_u64()?)
        .map_err(|_| SnapshotError::Corrupt(CodecError::InvalidValue("num_edges overflow")))?;
    let label_len = reader.read_u32()? as usize;
    let label = String::from_utf8(reader.read_bytes(label_len)?.to_vec())
        .map_err(|_| SnapshotError::Corrupt(CodecError::InvalidValue("label is not UTF-8")))?;
    let sections = SnapshotSections::read(&mut reader)?;
    let provenance = match reader.read_u8()? {
        0 => None,
        1 => Some(decode_provenance(&mut reader)?),
        _ => {
            return Err(SnapshotError::Corrupt(CodecError::InvalidValue(
                "provenance flag is not 0 or 1",
            )))
        }
    };
    // The head must fit before the first data section.
    let head_end = payload.len() - reader.remaining() + SNAPSHOT_HEADER_BYTES;
    if head_end > sections.offsets_off {
        return Err(SnapshotError::Corrupt(CodecError::InvalidValue(
            "head overruns the offsets section",
        )));
    }
    Ok(SnapshotHead { meta: IndexMeta { num_edges, label }, sections, provenance })
}

/// Parse the head of a snapshot from its raw bytes (magic, version,
/// directory, provenance) **without** verifying the payload
/// checksum or touching the data sections — the entry point of the
/// zero-copy mmap path, whose whole purpose is to leave the data pages
/// untouched until queries fault them in. Integrity of the head's own
/// directory is covered by the directory checksum; the data sections are
/// covered by the container checksum, which the read-decode path (and any
/// `verify` tooling) still checks in full.
pub fn parse_head(snapshot: &[u8]) -> Result<SnapshotHead, SnapshotError> {
    let (_checksum, payload) = split_container(snapshot)?;
    let head = decode_head(payload)?;
    if head.sections.file_len != snapshot.len() {
        return Err(SnapshotError::Corrupt(CodecError::InvalidValue(
            "directory file length disagrees with the snapshot",
        )));
    }
    Ok(head)
}

fn encode_payload(
    meta: &IndexMeta,
    provenance: Option<&SketchProvenance>,
    postings: &Postings,
) -> Vec<u8> {
    let (postings_offsets, lists, row_table, rows) = postings.sections();

    let mut prov_section = Vec::new();
    match provenance {
        None => prov_section.push(0),
        Some(provenance) => {
            prov_section.push(1);
            encode_provenance(provenance, &mut prov_section);
        }
    }

    let prelude_len = 8 + 4 + meta.label.len();
    let head_end =
        SNAPSHOT_HEADER_BYTES + prelude_len + (DIRECTORY_FIELDS + 1) * 8 + prov_section.len();
    let offsets_off = align_up(head_end);
    let postings_off = align_up(offsets_off + postings_offsets.len() * 8);
    // The row table follows the lists directly; the rows start on a page
    // of their own — unless there are none, and the file ends here.
    let row_table_off = postings_off + lists.len() * 4;
    let table_end = row_table_off + row_table.len() * 4;
    let rows_off = if rows.is_empty() { table_end } else { align_up(table_end) };
    let file_len = rows_off + rows.len() * 8;
    let sections = SnapshotSections {
        num_nodes: postings.num_nodes(),
        num_sets: postings.range_len(),
        postings_len: lists.len(),
        offsets_off,
        postings_off,
        row_vertices: row_table.len() / 2,
        row_table_off,
        rows_off,
        file_len,
    };

    let mut payload = Vec::with_capacity(file_len - SNAPSHOT_HEADER_BYTES);
    payload.extend_from_slice(&(meta.num_edges as u64).to_le_bytes());
    payload.extend_from_slice(&(meta.label.len() as u32).to_le_bytes());
    payload.extend_from_slice(meta.label.as_bytes());
    payload.extend_from_slice(&sections.to_directory_bytes());
    payload.extend_from_slice(&prov_section);

    // Data sections, each zero-padded to its offset. The pad bytes are
    // deterministic, so the encoder is byte-stable and the container
    // checksum covers them.
    payload.resize(offsets_off - SNAPSHOT_HEADER_BYTES, 0);
    payload.extend(postings_offsets.iter().flat_map(|offset| offset.to_le_bytes()));
    payload.resize(postings_off - SNAPSHOT_HEADER_BYTES, 0);
    payload.extend(lists.iter().flat_map(|sid| sid.to_le_bytes()));
    payload.extend(row_table.iter().flat_map(|entry| entry.to_le_bytes()));
    payload.resize(rows_off - SNAPSHOT_HEADER_BYTES, 0);
    payload.extend(rows.iter().flat_map(|word| word.to_le_bytes()));
    debug_assert_eq!(payload.len() + SNAPSHOT_HEADER_BYTES, file_len);
    payload
}

/// What a verified snapshot decodes to; the postings are the stored
/// sections, validated in full.
type Decoded = (IndexMeta, Option<SketchProvenance>, Postings);

fn decode_payload(payload: &[u8]) -> Result<Decoded, SnapshotError> {
    let corrupt = |msg: &'static str| SnapshotError::Corrupt(CodecError::InvalidValue(msg));
    let head = decode_head(payload)?;
    let sections = &head.sections;
    if sections.file_len != payload.len() + SNAPSHOT_HEADER_BYTES {
        return Err(corrupt("directory file length disagrees with the payload"));
    }
    // `validate()` placed every section inside `file_len`.
    let section = |off: usize, len: usize| -> &[u8] {
        &payload[off - SNAPSHOT_HEADER_BYTES..off - SNAPSHOT_HEADER_BYTES + len]
    };
    let u32s = |off: usize, len: usize| le_u32s(section(off, len * 4));
    let u64s = |off: usize, len: usize| le_u64s(section(off, len * 8));
    let postings = Postings::from_sections(
        sections.num_nodes,
        sections.num_sets,
        u64s(sections.offsets_off, sections.num_nodes + 1),
        u32s(sections.postings_off, sections.postings_len),
        u32s(sections.row_table_off, sections.row_vertices * 2),
        u64s(sections.rows_off, sections.row_vertices * sections.words_per_row()),
    )
    .map_err(corrupt)?;
    postings.validate_contents().map_err(corrupt)?;
    Ok((head.meta, head.provenance, postings))
}

/// Serialize index components into `writer` exactly as
/// [`SketchIndex::save`] would an index built over `collection` — without
/// requiring a built index (the golden fixture is written this way).
pub fn save_parts(
    meta: &IndexMeta,
    collection: &RrrCollection,
    provenance: Option<&SketchProvenance>,
    writer: &mut impl Write,
) -> Result<(), SnapshotError> {
    let postings = crate::index::build_postings(collection)?;
    write_container(&encode_payload(meta, provenance, &postings), writer)
}

fn write_container(payload: &[u8], writer: &mut impl Write) -> Result<(), SnapshotError> {
    writer.write_all(&SNAPSHOT_MAGIC)?;
    writer.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    writer.write_all(&fnv1a64(payload).to_le_bytes())?;
    writer.write_all(payload)?;
    Ok(())
}

/// The sibling temp file a crash-safe save of `path` stages into before
/// its atomic rename. Public so operational tooling (and the CI crash
/// e2e) can look for evidence of an interrupted save.
pub fn snapshot_tmp_path(path: impl AsRef<Path>) -> PathBuf {
    let mut tmp = path.as_ref().as_os_str().to_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Sweep the leftover `.tmp` of an interrupted save of `path`, if one
/// exists. Returns whether anything was recovered (and counts it in the
/// `snapshot_recoveries` metric). Called by every path-based loader.
pub fn recover_interrupted_save(path: impl AsRef<Path>) -> bool {
    match std::fs::remove_file(snapshot_tmp_path(path)) {
        Ok(()) => {
            crate::metrics::SNAPSHOT_RECOVERIES.increment();
            true
        }
        Err(_) => false,
    }
}

/// Flush the directory entry of a freshly renamed file (best effort —
/// some filesystems refuse directory handles).
fn sync_parent_dir(path: &Path) {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        let _ = dir.sync_all();
    }
}

/// Crash-safe write of a snapshot payload to a file: stage into
/// `<path>.tmp`, fsync, then atomically rename over `path`.
///
/// At *every* interruption offset — any write, the fsync, either side
/// of the rename — the file at `path` is either the previous complete
/// snapshot or the new one, never torn. The staged writes run through a
/// counted [`imm_fault::FaultyIo`] (site `snapshot.write`), so a fault
/// plan can kill the save between any two writes and a test can prove
/// that claim exhaustively. A failed save deliberately leaves its
/// `.tmp` behind (a crashed process cannot clean up either); the
/// path-based loaders sweep it via [`recover_interrupted_save`].
fn write_to_path(payload: &[u8], path: &Path) -> Result<(), SnapshotError> {
    let tmp = snapshot_tmp_path(path);
    let file = std::fs::File::create(&tmp)?;
    let mut writer = io::BufWriter::new(imm_fault::FaultyIo::counted(file, "snapshot.write"));
    write_container(payload, &mut writer)?;
    writer.flush()?;
    let file = writer.into_inner().map_err(io::IntoInnerError::into_error)?.into_inner();
    imm_fault::fsync_fault("snapshot.fsync")?;
    file.sync_all()?;
    drop(file);
    imm_fault::write_point("snapshot.rename")?;
    std::fs::rename(&tmp, path)?;
    imm_fault::write_point("snapshot.renamed")?;
    sync_parent_dir(path);
    Ok(())
}

impl SketchIndex {
    /// The payload [`save_parts`] would encode, from the postings this
    /// index already holds instead of a rebuild.
    fn encode(&self) -> Vec<u8> {
        encode_payload(self.meta(), self.provenance(), &self.postings)
    }

    /// Serialize this index into `writer` (header + checksummed payload).
    pub fn save(&self, writer: &mut impl Write) -> Result<(), SnapshotError> {
        write_container(&self.encode(), writer)
    }

    /// Serialize this index to a file at `path` — crash-safely (temp file,
    /// fsync, atomic rename; see `write_to_path`).
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_to_path(&self.encode(), path.as_ref())
    }

    /// Read an index back from `reader`, verifying magic, version and
    /// checksum; the stored postings are decoded and validated, not rebuilt.
    /// A snapshot with a provenance section comes back dynamic
    /// (refreshable), a provenance-free one static.
    pub fn load(reader: &mut impl Read) -> Result<Self, SnapshotError> {
        let (meta, provenance, postings) = load_verified(reader)?;
        Ok(SketchIndex::from_parts(meta, provenance, postings))
    }

    /// Read an index back from the file at `path`, first sweeping any
    /// `.tmp` left by an interrupted save (see
    /// [`recover_interrupted_save`]).
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        recover_interrupted_save(&path);
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::load(&mut file)
    }
}

/// Check the magic and the version and split a snapshot into its stored
/// payload checksum and payload.
fn split_container(snapshot: &[u8]) -> Result<(u64, &[u8]), SnapshotError> {
    let mut header = ByteReader::new(snapshot);
    let magic = header.read_bytes(SNAPSHOT_MAGIC.len())?;
    if magic != SNAPSHOT_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(SnapshotError::BadMagic(found));
    }
    let (version, checksum) = (header.read_u32()?, header.read_u64()?);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    Ok((checksum, &snapshot[SNAPSHOT_HEADER_BYTES..]))
}

/// Verify the container (magic, version, checksum) and decode the payload.
fn load_verified(reader: &mut impl Read) -> Result<Decoded, SnapshotError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let (expected, payload) = split_container(&bytes)?;
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    decode_payload(payload)
}

/// The magic bytes opening every delta journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"IMMJRNL1";

/// One replayable entry read back from a [`DeltaJournal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The revision the delta moved the served generation from (that
    /// generation's delta-log length): its 0-based place in the index's
    /// history. [`SketchIndex::recover`] checks an entry below a snapshot's
    /// revision against the delta logged there and replays the entries
    /// from the revision on, which must be contiguous.
    pub applied_index: u64,
    /// The delta in the `update-index` text format, verbatim.
    pub text: String,
}

/// An append-only, fsynced write-ahead log of accepted graph deltas.
///
/// The daemon appends the delta text here *before* the rolled-out index
/// becomes visible (refusing the rollout if the append fails), so a
/// delta acknowledged to a client is durable even though the daemon
/// never rewrites snapshots. On restart, [`DeltaJournal::read_entries`]
/// returns everything intact — parsing stops at the first torn or
/// corrupt entry, so a crash mid-append costs at most the entry being
/// written — and [`SketchIndex::recover`] replays the entries newer than
/// the loaded snapshot.
///
/// Layout: [`JOURNAL_MAGIC`], then per entry (little-endian)
/// `[u64 applied_index][u32 text_len][text][u64 fnv1a64 of the rest]`.
#[derive(Debug)]
pub struct DeltaJournal {
    file: std::fs::File,
}

/// The intact entries of a journal file and the length of the prefix they
/// end at (0 for a file shorter than the magic): the one parser behind
/// [`DeltaJournal::read_entries`] and [`DeltaJournal::open`]. Parsing stops
/// at the first torn or checksum-failing entry.
fn parse_journal(bytes: &[u8]) -> io::Result<(Vec<JournalEntry>, usize)> {
    if bytes.len() < JOURNAL_MAGIC.len() {
        return Ok((Vec::new(), 0));
    }
    if bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a delta journal (bad magic)"));
    }
    let mut entries = Vec::new();
    let mut offset = JOURNAL_MAGIC.len();
    while bytes.len() - offset >= 20 {
        let applied_index =
            u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[offset + 8..offset + 12].try_into().expect("4 bytes"))
            as usize;
        if bytes.len() - offset - 12 < len + 8 {
            break; // torn tail
        }
        let body_end = offset + 12 + len;
        let stored = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().expect("8 bytes"));
        if fnv1a64(&bytes[offset..body_end]) != stored {
            break; // torn or corrupt tail
        }
        let Ok(text) = String::from_utf8(bytes[offset + 12..body_end].to_vec()) else {
            break;
        };
        entries.push(JournalEntry { applied_index, text });
        offset = body_end + 8;
    }
    Ok((entries, offset))
}

impl DeltaJournal {
    /// Open (or create) the journal at `path` for appending. A torn tail
    /// (a crash mid-append) is truncated away first: appended after it, a
    /// new entry would be invisible to every later read.
    pub fn open(path: impl AsRef<Path>) -> io::Result<DeltaJournal> {
        let mut file =
            std::fs::OpenOptions::new().read(true).append(true).create(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (_, intact) = parse_journal(&bytes)?;
        if intact == 0 || intact < bytes.len() {
            // Cut back to the last intact entry. A fresh file, or a create
            // that died before the magic landed, starts over with the magic.
            file.set_len(intact as u64)?;
            if intact == 0 {
                file.write_all(&JOURNAL_MAGIC)?;
            }
            file.sync_all()?;
        }
        Ok(DeltaJournal { file })
    }

    /// Durably append one accepted delta (write + fsync). On failure the
    /// torn tail is truncated away, so one failed append cannot wedge
    /// the journal for every later entry.
    pub fn append(&mut self, applied_index: u64, text: &str) -> io::Result<()> {
        let len = u32::try_from(text.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "delta text over 4 GiB"))?;
        let mut entry = Vec::with_capacity(20 + text.len());
        entry.extend_from_slice(&applied_index.to_le_bytes());
        entry.extend_from_slice(&len.to_le_bytes());
        entry.extend_from_slice(text.as_bytes());
        entry.extend_from_slice(&fnv1a64(&entry).to_le_bytes());
        let start = self.file.metadata()?.len();
        let result = self.append_bytes(&entry);
        if result.is_err() {
            let _ = self.file.set_len(start);
        }
        result
    }

    fn append_bytes(&mut self, entry: &[u8]) -> io::Result<()> {
        let mut writer = imm_fault::FaultyIo::new(&mut self.file, "journal.write");
        writer.write_all(entry)?;
        imm_fault::fsync_fault("journal.fsync")?;
        self.file.sync_all()
    }

    /// Read back every intact entry, oldest first. A missing or
    /// still-headerless journal is empty, not an error; parsing stops
    /// (silently) at the first torn or checksum-failing entry, because
    /// that is exactly the shape a crash mid-append leaves behind.
    pub fn read_entries(path: impl AsRef<Path>) -> io::Result<Vec<JournalEntry>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(parse_journal(&bytes)?.0),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Truncate the journal back to empty (just the magic) — called
    /// after its deltas have been folded into a durably saved snapshot.
    /// A missing journal is already clear.
    pub fn clear(path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = match std::fs::OpenOptions::new().write(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        file.set_len(0)?;
        file.write_all(&JOURNAL_MAGIC)?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::AdaptivePolicy;

    fn sample_index() -> SketchIndex {
        let mut c = RrrCollection::new(200);
        c.push_vertices(vec![5, 1, 199], &AdaptivePolicy::always_sorted());
        c.push_vertices((0..150).collect(), &AdaptivePolicy::always_bitmap());
        c.push_vertices(vec![42], &AdaptivePolicy::default());
        SketchIndex::from_collection(
            c,
            IndexMeta { num_edges: 777, label: "unit-test".to_string() },
        )
        .unwrap()
    }

    fn snapshot_bytes(index: &SketchIndex) -> Vec<u8> {
        let mut out = Vec::new();
        index.save(&mut out).unwrap();
        out
    }

    /// A *dynamic* index, with a non-empty delta log.
    fn dynamic_index() -> SketchIndex {
        use imm_graph::generators;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(1);
        let graph =
            imm_graph::CsrGraph::from_edge_list(&generators::social_network(80, 4, 0.3, &mut rng));
        let weights = imm_graph::EdgeWeights::constant(&graph, 0.2);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 42);
        let mut index = SketchIndex::sample(&graph, &weights, spec, 60, 2, "dynamic").unwrap();
        index.apply_delta(&graph, &weights, &GraphDelta::new().insert(0, 7, 0.5)).unwrap();
        index
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let index = sample_index();
        let bytes = snapshot_bytes(&index);
        let loaded = SketchIndex::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded, index);
        assert_eq!(loaded.meta().label, "unit-test");
        assert_eq!(loaded.meta().num_edges, 777);
        assert!(!loaded.is_dynamic(), "no provenance was stored");
    }

    #[test]
    fn dynamic_index_round_trips_with_provenance_and_delta_log() {
        let index = dynamic_index();
        let bytes = snapshot_bytes(&index);
        let loaded = SketchIndex::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded, index);
        let provenance = loaded.provenance().expect("provenance survives the round trip");
        assert_eq!(provenance, index.provenance().unwrap());
        assert_eq!(provenance.delta_log.len(), 1);
    }

    #[test]
    fn sections_are_aligned_and_the_head_parses_without_data() {
        let index = dynamic_index();
        let bytes = snapshot_bytes(&index);
        let head = parse_head(&bytes).unwrap();
        let sections = head.sections;
        assert!(sections.row_vertices > 0, "60 sets over 80 vertices: some vertex is a row");
        for off in [sections.offsets_off, sections.postings_off, sections.rows_off] {
            assert_eq!(off % SNAPSHOT_PAGE_BYTES, 0, "section offset {off} not page-aligned");
        }
        assert_eq!(sections.file_len, bytes.len());
        assert_eq!(sections.num_nodes, index.num_nodes());
        assert_eq!(sections.num_sets, index.num_sets());
        assert_eq!(head.meta, *index.meta());
        assert_eq!(head.provenance.as_ref(), index.provenance());
        // Corrupting a directory byte fails the directory checksum even
        // before the payload checksum would be consulted.
        let mut tampered = bytes.clone();
        let dir_at = SNAPSHOT_HEADER_BYTES + 8 + 4 + index.meta().label.len();
        tampered[dir_at] ^= 0x01;
        assert!(parse_head(&tampered).is_err());
    }

    /// The stored postings sections hold exactly what a heap build computes,
    /// array for array.
    #[test]
    fn stored_postings_sections_are_the_built_postings() {
        let index = sample_index();
        let loaded = SketchIndex::load(&mut snapshot_bytes(&index).as_slice()).unwrap();
        assert_eq!(loaded.postings().sections(), index.postings().sections());
    }

    /// A snapshot without a row vertex ends at its flat lists.
    #[test]
    fn a_snapshot_without_row_vertices_has_no_row_sections() {
        let mut c = RrrCollection::new(50);
        for i in 0..64u32 {
            c.push_vertices(vec![i % 50], &AdaptivePolicy::always_sorted());
        }
        let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
        let bytes = snapshot_bytes(&index);
        let s = parse_head(&bytes).unwrap().sections;
        assert_eq!((s.row_vertices, s.postings_len), (0, 64));
        assert_eq!(s.row_table_off, s.postings_off + 64 * 4);
        assert_eq!((s.rows_off, s.file_len), (s.row_table_off, s.row_table_off));
        assert_eq!(SketchIndex::load(&mut bytes.as_slice()).unwrap(), index);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = snapshot_bytes(&sample_index());
        bytes[0] = b'X';
        assert!(matches!(
            SketchIndex::load(&mut bytes.as_slice()),
            Err(SnapshotError::BadMagic(_))
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let mut bytes = snapshot_bytes(&sample_index());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            SketchIndex::load(&mut bytes.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// A unique scratch directory under the system temp dir (no tempdir
    /// crate in the workspace).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "imm-snapshot-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn path_saves_are_atomic_and_loaders_sweep_leftovers() {
        let dir = scratch_dir("atomic");
        let path = dir.join("index.snap");
        let index = sample_index();
        index.save_to_path(&path).unwrap();
        assert!(!snapshot_tmp_path(&path).exists(), "a clean save leaves no temp file");
        assert_eq!(SketchIndex::load_from_path(&path).unwrap(), index);

        // Plant a fake leftover from an interrupted save: the loader
        // sweeps it and still serves the complete generation.
        std::fs::write(snapshot_tmp_path(&path), b"torn prefix").unwrap();
        assert_eq!(SketchIndex::load_from_path(&path).unwrap(), index);
        assert!(!snapshot_tmp_path(&path).exists(), "the loader sweeps the leftover");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_round_trips_entries_in_order() {
        let dir = scratch_dir("journal");
        let path = dir.join("deltas.journal");
        let mut journal = DeltaJournal::open(&path).unwrap();
        journal.append(0, "insert 1 2 0.5\n").unwrap();
        journal.append(1, "delete 3 4\n").unwrap();
        drop(journal);
        // Reopening appends after the existing entries.
        let mut journal = DeltaJournal::open(&path).unwrap();
        journal.append(2, "reweight 5 6 0.25\n").unwrap();
        assert_eq!(
            DeltaJournal::read_entries(&path).unwrap(),
            vec![
                JournalEntry { applied_index: 0, text: "insert 1 2 0.5\n".into() },
                JournalEntry { applied_index: 1, text: "delete 3 4\n".into() },
                JournalEntry { applied_index: 2, text: "reweight 5 6 0.25\n".into() },
            ]
        );
        DeltaJournal::clear(&path).unwrap();
        assert!(DeltaJournal::read_entries(&path).unwrap().is_empty());
        // Cleared journals keep accepting appends.
        DeltaJournal::open(&path).unwrap().append(7, "insert 9 9 0.1\n").unwrap();
        assert_eq!(DeltaJournal::read_entries(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_reads_stop_at_the_first_torn_entry() {
        let dir = scratch_dir("torn");
        let path = dir.join("deltas.journal");
        let mut journal = DeltaJournal::open(&path).unwrap();
        journal.append(0, "insert 1 2 0.5\n").unwrap();
        journal.append(1, "delete 3 4\n").unwrap();
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        // Every truncation point keeps the intact prefix and drops the
        // torn tail — never errors, never yields garbage.
        let first_entry_end = 8 + 20 + "insert 1 2 0.5\n".len();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let entries = DeltaJournal::read_entries(&path).unwrap();
            let expect = if cut >= full.len() {
                2
            } else if cut >= first_entry_end {
                1
            } else {
                0
            };
            assert_eq!(entries.len(), expect, "cut at {cut}");
        }
        // A flipped bit inside an entry fails its checksum and stops
        // the parse there.
        let mut corrupt = full.clone();
        let last = corrupt.len() - 10; // inside the second entry's text
        corrupt[last] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        assert_eq!(DeltaJournal::read_entries(&path).unwrap().len(), 1);
        // A different magic is a loud error, not an empty journal.
        std::fs::write(&path, b"NOTMAGIC").unwrap();
        assert!(DeltaJournal::read_entries(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_truncates_a_torn_tail_before_appending() {
        let dir = scratch_dir("reopen");
        let path = dir.join("deltas.journal");
        let mut journal = DeltaJournal::open(&path).unwrap();
        journal.append(0, "+ 1 2 0.5\n").unwrap();
        journal.append(1, "- 3 4\n").unwrap();
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        DeltaJournal::open(&path).unwrap().append(1, "~ 5 6 0.25\n").unwrap();
        let entries = DeltaJournal::read_entries(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1], JournalEntry { applied_index: 1, text: "~ 5 6 0.25\n".into() });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_reads_empty_and_clears_clean() {
        let dir = scratch_dir("missing");
        let path = dir.join("never-created.journal");
        assert!(DeltaJournal::read_entries(&path).unwrap().is_empty());
        DeltaJournal::clear(&path).unwrap();
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected_everywhere() {
        let bytes = snapshot_bytes(&sample_index());
        for cut in 0..bytes.len() {
            assert!(
                SketchIndex::load(&mut bytes[..cut].as_ref()).is_err(),
                "prefix of {cut} bytes must not load"
            );
        }
    }
}
