//! The golden snapshot fixture: one tiny checked-in file pins the snapshot
//! format by **real bytes**, not by a freshly encoded round-trip — if the
//! decoder or the writer drifts, these tests fail against the bytes the
//! writer actually produced.
//!
//! `golden_v6.sketch` is what the writer emits for forty sets in which one
//! vertex is dense enough to store its postings as a **row** and one keeps a
//! **list** — a snapshot is its postings, so those two are the whole file
//! behind the head. It is pinned three ways — against the writer, against a twin
//! assembled here byte by byte from the documented layout, and against the
//! mmap contract: the directory parses without touching a data page and
//! every section it reports is aligned as documented.
//!
//! Regenerating after an *intentional* format change:
//! `REGEN_SNAPSHOT_FIXTURES=1 cargo test -p imm-service --test
//! snapshot_fixtures` rewrites the file; commit the diff alongside the
//! format bump.

use imm_diffusion::DiffusionModel;
use imm_graph::GraphDelta;
use imm_rrr::{AdaptivePolicy, Postings, RrrCollection};
use imm_service::{
    parse_head, save_parts, DeltaLogEntry, IndexMeta, SampleSpec, SketchIndex, SketchProvenance,
    SNAPSHOT_PAGE_BYTES,
};
use imm_store::Store;
use std::path::PathBuf;

const NUM_NODES: usize = 16;
const NUM_EDGES: usize = 42;

/// The fixtures that can be rebuilt in-process, by file stem.
const REGENERABLE: [&str; 1] = ["v6"];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// IC spec and one logged delta touching all three mutation kinds.
fn v6_provenance() -> SketchProvenance {
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 7);
    let delta = GraphDelta::new().insert(0, 1, 0.5).delete(2, 3).reweight(4, 5, 0.25);
    SketchProvenance { spec, delta_log: vec![DeltaLogEntry { delta, resampled_sets: 2 }] }
}

/// Sets of the v6 fixture: enough of them (40, so a row needs degree > 1)
/// for both postings forms. Vertex 3 is in sets 0–3 — a list set, a bitmap
/// set and two more list sets — and stores a row; vertex 9 is in set 0 only
/// and keeps a list; sets 4–39 are empty.
const V6_SETS: usize = 40;

fn v6_collection() -> RrrCollection {
    let (list, bitmap) = (AdaptivePolicy::always_sorted(), AdaptivePolicy::always_bitmap());
    let mut c = RrrCollection::new(NUM_NODES);
    c.push_vertices(vec![3, 9], &list);
    c.push_vertices(vec![3], &bitmap);
    c.push_vertices(vec![3], &list);
    c.push_vertices(vec![3], &list);
    for _ in 4..V6_SETS {
        c.push_vertices(Vec::new(), &list);
    }
    c
}

fn meta(version: u32) -> IndexMeta {
    IndexMeta { num_edges: NUM_EDGES, label: format!("golden-v{version}") }
}

/// FNV-1a 64 — reimplemented here so the twin is assembled from the
/// *documented* container format, not from the crate's internals.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn container(version: u32, payload: Vec<u8>) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(20 + payload.len());
    bytes.extend_from_slice(b"IMMSKTCH");
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

fn payload_header(version: u32) -> Vec<u8> {
    let meta = meta(version);
    let mut payload = Vec::new();
    payload.extend_from_slice(&(meta.num_edges as u64).to_le_bytes());
    payload.extend_from_slice(&(meta.label.len() as u32).to_le_bytes());
    payload.extend_from_slice(meta.label.as_bytes());
    payload
}

/// The provenance section, hand-assembled from the documented layout:
/// model tag (2 = IC), RNG seed, policy, delta log.
fn encode_provenance_section(provenance: &SketchProvenance) -> Vec<u8> {
    let mut out = vec![2u8];
    out.extend_from_slice(&provenance.spec.rng_seed.to_le_bytes());
    out.extend_from_slice(&provenance.spec.policy.density_threshold.to_bits().to_le_bytes());
    out.extend_from_slice(&(provenance.spec.policy.min_bitmap_size as u64).to_le_bytes());
    out.extend_from_slice(&(provenance.delta_log.len() as u64).to_le_bytes());
    for entry in &provenance.delta_log {
        out.extend_from_slice(&entry.resampled_sets.to_le_bytes());
        let delta = &entry.delta;
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
    out
}

/// Rebuild the regenerable fixture's exact bytes through the writer.
fn build_fixture_bytes(stem: &str) -> Vec<u8> {
    assert_eq!(stem, "v6", "no regenerable fixture {stem}");
    let mut bytes = Vec::new();
    save_parts(&meta(6), &v6_collection(), Some(&v6_provenance()), &mut bytes).expect("writer");
    bytes
}

/// Write the fixture files when explicitly asked to (intentional format
/// changes); otherwise a no-op assertion that generation still works.
#[test]
fn regenerate_fixtures_on_request() {
    if std::env::var_os("REGEN_SNAPSHOT_FIXTURES").is_none() {
        for stem in REGENERABLE {
            assert!(!build_fixture_bytes(stem).is_empty());
        }
        return;
    }
    std::fs::create_dir_all(fixture_path("")).unwrap();
    for stem in REGENERABLE {
        let path = fixture_path(&format!("golden_{stem}.sketch"));
        std::fs::write(&path, build_fixture_bytes(stem)).unwrap();
        eprintln!("wrote {}", path.display());
    }
}

fn load_fixture(stem: &str) -> (Vec<u8>, SketchIndex) {
    let path = fixture_path(&format!("golden_{stem}.sketch"));
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let index = SketchIndex::load(&mut bytes.as_slice())
        .unwrap_or_else(|e| panic!("fixture {stem} does not load: {e}"));
    (bytes, index)
}

/// The v6 file, byte by byte from the layout documented in
/// `imm_service::snapshot`: header, prelude, 9-field directory + checksum,
/// provenance, then the four postings sections at their offsets.
fn v6_twin() -> Vec<u8> {
    const PAGE: usize = SNAPSHOT_PAGE_BYTES;
    let (offsets_off, postings_off) = (PAGE, 2 * PAGE);
    let row_table_off = postings_off + 4; // right behind the one list entry
    let rows_off = 3 * PAGE; // ids + degrees end at 2·PAGE + 12: next page
    let file_len = rows_off + 8;

    let mut payload = payload_header(6);
    let mut directory = Vec::new();
    for field in [
        NUM_NODES,
        V6_SETS,
        1, // list entries: vertex 9 -> [0]
        offsets_off,
        postings_off,
        1, // row vertices: vertex 3
        row_table_off,
        rows_off,
        file_len,
    ] {
        directory.extend_from_slice(&(field as u64).to_le_bytes());
    }
    payload.extend_from_slice(&directory);
    payload.extend_from_slice(&fnv1a64(&directory).to_le_bytes());
    payload.push(1); // provenance present
    payload.extend_from_slice(&encode_provenance_section(&v6_provenance()));

    // Offsets are snapshot-relative; the payload starts after the 20-byte
    // container header.
    let pad_to = |payload: &mut Vec<u8>, off: usize| payload.resize(off - 20, 0);
    pad_to(&mut payload, offsets_off);
    for v in 0..=NUM_NODES {
        payload.extend_from_slice(&u64::from(v > 9).to_le_bytes()); // only vertex 9 has a list
    }
    pad_to(&mut payload, postings_off);
    payload.extend_from_slice(&0u32.to_le_bytes()); // vertex 9: set 0
    payload.extend_from_slice(&3u32.to_le_bytes()); // row table: id 3 …
    payload.extend_from_slice(&4u32.to_le_bytes()); // … of degree 4
    pad_to(&mut payload, rows_off);
    payload.extend_from_slice(&0b1111u64.to_le_bytes()); // vertex 3: sets 0–3
    container(6, payload)
}

#[test]
fn v6_fixture_is_the_documented_layout_and_the_writer_reproduces_it() {
    let (bytes, index) = load_fixture("v6");
    assert_eq!(bytes, v6_twin(), "the v6 layout drifted from its documentation");
    assert_eq!(index.meta(), &meta(6));
    let built = Postings::build(&v6_collection()).unwrap();
    assert_eq!(index.postings().sections(), built.sections());
    assert_eq!(**index.postings(), built);
    assert_eq!(index.provenance(), Some(&v6_provenance()));
    // One row vertex, one list vertex, read alike.
    let postings = index.postings();
    assert!(postings.is_row(3) && !postings.is_row(9));
    assert_eq!((index.ids(3), index.ids(9)), (vec![0, 1, 2, 3], vec![0]));
    assert_eq!((index.degree(3), index.degree(9), index.degree(0)), (4, 1, 0));
    let stats = postings.stats();
    assert_eq!((stats.row_vertices, stats.list_entries), (1, 1));

    // The mmap contract: the head parses without a data page, and every
    // section starts where its element type (or the format) needs it to.
    let head = parse_head(&bytes).expect("v6 head parses");
    let sections = head.sections;
    for (name, off) in [
        ("offsets", sections.offsets_off),
        ("postings", sections.postings_off),
        ("rows", sections.rows_off),
    ] {
        assert_eq!(off % SNAPSHOT_PAGE_BYTES, 0, "{name} section offset {off} not page-aligned");
    }
    assert_eq!(sections.row_table_off % 4, 0);
    assert_eq!(sections.file_len, bytes.len());
    assert_eq!((sections.num_nodes, sections.num_sets), (NUM_NODES, V6_SETS));
    assert_eq!((sections.row_vertices, sections.postings_len), (1, 1));
    assert_eq!(head.meta, *index.meta());
    assert_eq!(head.provenance.as_ref(), index.provenance());

    // Writer stability: re-saving the loaded index reproduces the file.
    let mut resaved = Vec::new();
    index.save(&mut resaved).unwrap();
    assert_eq!(resaved, bytes, "the writer drifted from the checked-in fixture");
}

#[test]
fn fixture_bytes_match_the_documented_layouts() {
    for stem in REGENERABLE {
        let path = fixture_path(&format!("golden_{stem}.sketch"));
        let on_disk = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        assert_eq!(
            build_fixture_bytes(stem),
            on_disk,
            "{stem} encoder or container layout drifted from the checked-in fixture"
        );
    }
}

/// One fixed point for every loader: the fixture read from a slice, read
/// from its path, read through the store's read-decode open and mapped in
/// place comes back as one index, and each re-saves to the fixture's bytes.
#[test]
fn every_loader_reads_the_v6_fixture_to_one_index_that_resaves_to_its_bytes() {
    let (bytes, index) = load_fixture("v6");
    let path = fixture_path("golden_v6.sketch");
    let mut loaded = vec![
        ("load", index),
        ("load_from_path", SketchIndex::load_from_path(&path).expect("load_from_path")),
        ("Store::open_read", Store::open_read(&path).expect("open_read").index),
    ];
    if cfg!(all(target_os = "linux", target_endian = "little")) {
        let mapped = Store::open_mapped(&path).expect("open_mapped");
        assert!(mapped.is_mapped());
        loaded.push(("Store::open_mapped", mapped.index));
    }
    for (via, index) in &loaded {
        assert_eq!(index, &loaded[0].1, "{via} read the fixture to another index");
        let mut resaved = Vec::new();
        index.save(&mut resaved).unwrap();
        assert_eq!(resaved, bytes, "the index {via} read re-saves to other bytes");
    }
}
