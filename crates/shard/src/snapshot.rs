//! Per-shard snapshot files: split one index snapshot into N shard files and
//! reassemble them.
//!
//! Each shard file is a small header followed by a **complete, standard
//! `imm-service` snapshot** (magic `IMMSKTCH`, current version, checksum)
//! of the shard's sub-collection — so every shard file is independently
//! verifiable, and a shard can even be loaded on its own as a small
//! `SketchIndex` by skipping the header. The wrapper header records where
//! the shard sits in the split:
//!
//! ```text
//! [0..8)    magic  "IMMSHARD"
//! [8..12)   shard-container version (2)
//! [12..16)  shard_index  u32   position of this shard in the split
//! [16..20)  num_shards   u32   how many files the split produced
//! [20..28)  set_offset   u64   global id of the shard's first set
//! [28..36)  total_sets   u64   θ of the whole index (every file agrees)
//! [36..44)  FNV-1a 64 checksum of bytes [12..36)
//! [44..4096) zero padding
//! [4096..)  embedded imm-service snapshot of the shard's sets
//! ```
//!
//! The wrapper header is padded to one snapshot page
//! (`SNAPSHOT_PAGE_BYTES`) so the embedded snapshot starts on a page
//! boundary: the snapshot format lays its data sections on page-aligned
//! *snapshot-relative* offsets, and the padding keeps those offsets
//! page-aligned as **file-absolute** positions too — a memory-mapping of a
//! whole shard file sees the same aligned sections `imm-store` maps from a
//! standalone snapshot. The unpadded container v1 that preceded it is no
//! longer read: a v1 file is [`ShardFileError::UnsupportedVersion`].
//!
//! Provenance splits with the sets: each shard file carries the sampling
//! spec, its own range's per-set records, and the **full delta log** (the
//! log is a per-index property; duplicating it keeps every shard file
//! self-describing, and reassembly takes it from shard 0 after checking all
//! copies agree). Reassembly validates that the files tile `[0, θ)`
//! contiguously, agree on the vertex space, metadata and spec, and then
//! rebuilds a [`ShardedIndex`] whose shard layout is exactly the file
//! layout. Shard files store no global postings (each embeds its own
//! range's), so reassembly pays one counting sort over all θ sets for the
//! base's — once, at load, and no per-range pass (the shard map is the
//! files' ranges, weighed by their set lengths); an index partitioned in
//! memory (`ShardedIndex::from_index`) adopts the single index's postings
//! and pays nothing.

use crate::index::ShardedIndex;
use imm_rrr::{RrrCollection, SetView};
use imm_service::snapshot::fnv1a64;
use imm_service::{
    load_parts, save_parts, IndexError, IndexMeta, SketchIndex, SketchProvenance, SnapshotError,
};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The magic bytes opening every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"IMMSHARD";
/// The shard-container version this build writes: header padded to one
/// snapshot page so the embedded snapshot's page-aligned sections stay
/// page-aligned file-absolute.
pub const SHARD_VERSION: u32 = 2;

/// Bytes of wrapper header the embedded snapshot starts after (one snapshot
/// page).
const SHARD_HEADER_BYTES: usize = imm_service::SNAPSHOT_PAGE_BYTES;
/// Bytes of the header proper (magic + version + fields + hash); the rest of
/// the page is zero padding.
const SHARD_HEADER_FIELD_BYTES: usize = 44;

/// Errors produced while splitting or reassembling shard files.
#[derive(Debug)]
pub enum ShardFileError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The file does not start with [`SHARD_MAGIC`].
    BadMagic([u8; 8]),
    /// The file announces a shard-container version this build cannot read.
    UnsupportedVersion(u32),
    /// The header checksum does not match its fields.
    HeaderChecksumMismatch,
    /// The embedded snapshot failed to load.
    Snapshot(SnapshotError),
    /// The assembled parts cannot be indexed.
    Index(IndexError),
    /// The set of files does not form one consistent split.
    InconsistentSplit(String),
}

impl std::fmt::Display for ShardFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFileError::Io(e) => write!(f, "shard file I/O error: {e}"),
            ShardFileError::BadMagic(found) => {
                write!(f, "not a shard file (magic bytes {found:02x?})")
            }
            ShardFileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported shard-container version {v} (this build reads {SHARD_VERSION})"
                )
            }
            ShardFileError::HeaderChecksumMismatch => {
                write!(f, "shard header checksum mismatch")
            }
            ShardFileError::Snapshot(e) => write!(f, "embedded shard snapshot: {e}"),
            ShardFileError::Index(e) => write!(f, "assembled shards cannot be indexed: {e}"),
            ShardFileError::InconsistentSplit(what) => {
                write!(f, "shard files do not form one split: {what}")
            }
        }
    }
}

impl std::error::Error for ShardFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardFileError::Io(e) => Some(e),
            ShardFileError::Snapshot(e) => Some(e),
            ShardFileError::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ShardFileError {
    fn from(e: std::io::Error) -> Self {
        ShardFileError::Io(e)
    }
}

impl From<SnapshotError> for ShardFileError {
    fn from(e: SnapshotError) -> Self {
        ShardFileError::Snapshot(e)
    }
}

impl From<IndexError> for ShardFileError {
    fn from(e: IndexError) -> Self {
        ShardFileError::Index(e)
    }
}

/// One decoded shard file: its position in the split plus the shard's
/// decoded snapshot components.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPart {
    /// Position of this shard in the split.
    pub shard_index: u32,
    /// Number of files the split produced.
    pub num_shards: u32,
    /// Global id of the shard's first set.
    pub set_offset: u64,
    /// θ of the whole index.
    pub total_sets: u64,
    /// Metadata of the source index (label, edge count).
    pub meta: IndexMeta,
    /// The shard's sets.
    pub collection: RrrCollection,
    /// The shard's provenance slice (spec + its records + the full log).
    pub provenance: Option<SketchProvenance>,
}

/// Materialize the sub-collection of a contiguous set range (the only copy
/// the split makes — it is the serialization buffer).
fn sub_collection(collection: &RrrCollection, start: usize, len: usize) -> RrrCollection {
    let slice = collection.slice(start, len);
    let mut out = RrrCollection::new(collection.num_nodes());
    for view in slice.iter() {
        match view {
            SetView::Sorted(members) => {
                out.push_known_representation(members, imm_rrr::Representation::SortedList)
            }
            SetView::Bitmap(bs) => out.push(imm_rrr::RrrSet::Bitmap(bs.clone())),
        }
    }
    out
}

/// Write one shard of `index` (the range owned by `sharded`'s segment
/// `shard`) into `writer`.
fn write_shard(
    sharded: &ShardedIndex,
    shard: usize,
    writer: &mut impl Write,
) -> Result<(), ShardFileError> {
    let segment = &sharded.segments()[shard];
    let (start, len) = (segment.start(), segment.len());
    let sub = sub_collection(sharded.collection(), start, len);
    let sub_provenance = sharded.provenance().map(|p| SketchProvenance {
        spec: p.spec,
        sets: p.sets[start..start + len].to_vec(),
        delta_log: p.delta_log.clone(),
    });

    let mut header_fields = Vec::with_capacity(24);
    header_fields.extend_from_slice(&(shard as u32).to_le_bytes());
    header_fields.extend_from_slice(&(sharded.num_shards() as u32).to_le_bytes());
    header_fields.extend_from_slice(&(start as u64).to_le_bytes());
    header_fields.extend_from_slice(&(sharded.num_sets() as u64).to_le_bytes());

    writer.write_all(&SHARD_MAGIC)?;
    writer.write_all(&SHARD_VERSION.to_le_bytes())?;
    writer.write_all(&header_fields)?;
    writer.write_all(&fnv1a64(&header_fields).to_le_bytes())?;
    // Pad the wrapper to a full page so the embedded snapshot — and with
    // it every page-aligned section — starts on a file page boundary.
    writer.write_all(&[0u8; SHARD_HEADER_BYTES - SHARD_HEADER_FIELD_BYTES])?;
    save_parts(sharded.meta(), &sub, sub_provenance.as_ref(), writer)?;
    Ok(())
}

/// Split a [`ShardedIndex`] into one in-memory shard file per segment.
pub fn split_to_bytes(sharded: &ShardedIndex) -> Result<Vec<Vec<u8>>, ShardFileError> {
    (0..sharded.num_shards())
        .map(|shard| {
            let mut bytes = Vec::new();
            write_shard(sharded, shard, &mut bytes)?;
            Ok(bytes)
        })
        .collect()
}

/// Write one per-shard snapshot file per segment of `sharded`, named
/// `{prefix}.shard-{i}`, returning the written paths.
pub fn write_sharded_files(
    sharded: &ShardedIndex,
    prefix: &str,
) -> Result<Vec<PathBuf>, ShardFileError> {
    let mut paths = Vec::with_capacity(sharded.num_shards());
    for shard in 0..sharded.num_shards() {
        let path = PathBuf::from(format!("{prefix}.shard-{shard}"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write_shard(sharded, shard, &mut file)?;
        file.flush().map_err(ShardFileError::Io)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Split `index` into `shards` per-shard snapshot files named
/// `{prefix}.shard-{i}`, returning the written paths.
pub fn write_shard_files(
    index: SketchIndex,
    shards: usize,
    prefix: &str,
) -> Result<Vec<PathBuf>, ShardFileError> {
    write_sharded_files(&ShardedIndex::from_index(index, shards)?, prefix)
}

/// Read and verify one shard file.
pub fn read_shard(reader: &mut impl Read) -> Result<ShardPart, ShardFileError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if magic != SHARD_MAGIC {
        return Err(ShardFileError::BadMagic(magic));
    }
    let mut word = [0u8; 4];
    reader.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != SHARD_VERSION {
        return Err(ShardFileError::UnsupportedVersion(version));
    }
    let mut header_fields = [0u8; 24];
    reader.read_exact(&mut header_fields)?;
    let mut checksum = [0u8; 8];
    reader.read_exact(&mut checksum)?;
    if u64::from_le_bytes(checksum) != fnv1a64(&header_fields) {
        return Err(ShardFileError::HeaderChecksumMismatch);
    }
    // Skip the alignment padding (not checksummed, like the snapshot's own
    // intra-file padding).
    reader.read_exact(&mut [0u8; SHARD_HEADER_BYTES - SHARD_HEADER_FIELD_BYTES])?;
    let shard_index = u32::from_le_bytes(header_fields[0..4].try_into().expect("4 bytes"));
    let num_shards = u32::from_le_bytes(header_fields[4..8].try_into().expect("4 bytes"));
    let set_offset = u64::from_le_bytes(header_fields[8..16].try_into().expect("8 bytes"));
    let total_sets = u64::from_le_bytes(header_fields[16..24].try_into().expect("8 bytes"));
    let (meta, collection, provenance) = load_parts(reader)?;
    Ok(ShardPart { shard_index, num_shards, set_offset, total_sets, meta, collection, provenance })
}

/// [`read_shard`] over the file at `path`.
pub fn read_shard_file(path: impl AsRef<Path>) -> Result<ShardPart, ShardFileError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    read_shard(&mut file)
}

/// Reassemble decoded shard parts into a [`ShardedIndex`] whose shard layout
/// is the file layout. Parts may arrive in any order; they must form exactly
/// one complete, consistent split.
pub fn assemble(mut parts: Vec<ShardPart>) -> Result<ShardedIndex, ShardFileError> {
    let bad = |what: String| Err(ShardFileError::InconsistentSplit(what));
    if parts.is_empty() {
        return bad("no shard files given".to_string());
    }
    parts.sort_by_key(|p| p.shard_index);
    let expected_shards = parts[0].num_shards;
    let total_sets = parts[0].total_sets;
    if parts.len() as u32 != expected_shards {
        return bad(format!(
            "split announces {expected_shards} shards but {} files were given",
            parts.len()
        ));
    }

    let meta = parts[0].meta.clone();
    let num_nodes = parts[0].collection.num_nodes();
    let spec = parts[0].provenance.as_ref().map(|p| p.spec);
    let delta_log = parts[0].provenance.as_ref().map(|p| p.delta_log.clone());

    let mut collection = RrrCollection::new(num_nodes);
    let mut records = Vec::new();
    let mut ranges = Vec::with_capacity(parts.len());
    let mut cursor = 0u64;
    for (i, part) in parts.into_iter().enumerate() {
        if part.shard_index != i as u32 {
            return bad(format!("shard {} is {}", i, part.shard_index));
        }
        if part.num_shards != expected_shards || part.total_sets != total_sets {
            return bad(format!("shard {i} disagrees on the split shape"));
        }
        if part.set_offset != cursor {
            return bad(format!(
                "shard {i} starts at set {} but the preceding shards end at {cursor}",
                part.set_offset
            ));
        }
        if part.collection.num_nodes() != num_nodes {
            return bad(format!("shard {i} has a different vertex space"));
        }
        if part.meta != meta {
            return bad(format!("shard {i} has different index metadata"));
        }
        match (&part.provenance, &spec) {
            (Some(p), Some(expected_spec)) => {
                if p.spec != *expected_spec {
                    return bad(format!("shard {i} has a different sampling spec"));
                }
                if p.sets.len() != part.collection.len() {
                    return bad(format!("shard {i} provenance does not align with its sets"));
                }
                if Some(&p.delta_log) != delta_log.as_ref() {
                    return bad(format!("shard {i} has a different delta log"));
                }
                records.extend_from_slice(&p.sets);
            }
            (None, None) => {}
            _ => return bad(format!("shard {i} disagrees on provenance presence")),
        }
        ranges.push((cursor as usize, part.collection.len()));
        cursor += part.collection.len() as u64;
        collection.extend_from(part.collection);
    }
    if cursor != total_sets {
        return bad(format!("shards hold {cursor} sets but the split announces {total_sets}"));
    }

    let provenance = spec.map(|spec| SketchProvenance {
        spec,
        sets: records,
        delta_log: delta_log.unwrap_or_default(),
    });
    let base = SketchIndex::from_collection_with_provenance(collection, meta, provenance)?;
    Ok(ShardedIndex::from_ranges(Arc::new(base), &ranges))
}

/// Load shard files (in any order) and reassemble them.
pub fn load_shard_files<P: AsRef<Path>>(paths: &[P]) -> Result<ShardedIndex, ShardFileError> {
    let parts = paths.iter().map(read_shard_file).collect::<Result<Vec<_>, ShardFileError>>()?;
    assemble(parts)
}
