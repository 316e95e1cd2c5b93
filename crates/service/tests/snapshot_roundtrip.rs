//! Property tests of the snapshot format: arbitrary collections of mixed
//! list/bitmap representation must survive save → load bit-exactly, and
//! corrupted or truncated files must fail with a descriptive error instead
//! of loading garbage. The corruption suite covers the format byte by byte —
//! including provenance and postings sections that lie behind a recomputed
//! checksum, and a directory that lies behind a recomputed directory
//! checksum — and every version field but the current one is refused. The
//! read-decode pass hashes every byte to end of file before it returns a
//! decode error, so a flipped byte anywhere in the payload must still
//! surface as the checksum mismatch, through every loader, whatever the
//! decode made of it.

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::{AdaptivePolicy, RrrCollection};
use imm_service::{
    parse_head, DeltaLogEntry, IndexMeta, SampleSpec, SketchIndex, SketchProvenance, SnapshotError,
    SnapshotSections, Xxh64, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use imm_store::Store;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

const NUM_NODES: usize = 300;

fn index_from(raw_sets: &[Vec<u32>], bitmap_choices: &[bool], label: &str) -> SketchIndex {
    let mut c = RrrCollection::new(NUM_NODES);
    for (i, vertices) in raw_sets.iter().enumerate() {
        let policy = if bitmap_choices.get(i).copied().unwrap_or(false) {
            AdaptivePolicy::always_bitmap()
        } else {
            AdaptivePolicy::always_sorted()
        };
        c.push_vertices(vertices.clone(), &policy);
    }
    SketchIndex::from_collection(
        c,
        IndexMeta { num_edges: raw_sets.len() * 3, label: label.to_string() },
    )
    .expect("members are within range")
}

/// FNV-1a 64 (the section directory's checksum) for refitting a tampered
/// directory.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn snapshot_bytes(index: &SketchIndex) -> Vec<u8> {
    let mut out = Vec::new();
    index.save(&mut out).unwrap();
    out
}

/// A dynamic index (provenance + one applied delta) and its graph/weights.
fn dynamic_index(seed: u64) -> (SketchIndex, CsrGraph, EdgeWeights) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(90, 4, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, seed ^ 0xD17A);
    let mut index = SketchIndex::sample(&graph, &weights, spec, 80, 2, "dynamic-rt").unwrap();
    let (graph, weights, _) = index
        .apply_delta(&graph, &weights, &GraphDelta::new().insert(1, 2, 0.4).insert(7, 8, 0.6))
        .unwrap();
    (index, graph, weights)
}

/// Byte offset where the provenance section starts in a v7 file (header +
/// metadata prelude + 9-field section directory and its checksum + the
/// presence flag).
fn provenance_offset(index: &SketchIndex) -> usize {
    let header = SNAPSHOT_MAGIC.len() + 4 + 8;
    header + 8 + 4 + index.meta().label.len() + 80 + 1
}

/// Recompute the container checksum (XXH64, seed 0) after tampering, so
/// only the decoder itself can object.
fn refix_checksum(bytes: &mut [u8]) {
    let header = SNAPSHOT_MAGIC.len() + 4 + 8;
    let checksum = Xxh64::oneshot(0, &bytes[header..]);
    bytes[12..20].copy_from_slice(&checksum.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_mixed_indices_round_trip(
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..NUM_NODES as u32, 0..60),
            0..25,
        ),
        bitmap_choices in proptest::collection::vec(any::<bool>(), 0..25),
        label_tag in 0u32..10_000,
    ) {
        let owned: Vec<Vec<u32>> = raw_sets.iter().map(|s| s.iter().copied().collect()).collect();
        let label = format!("dataset/run-{label_tag} (ε = 0.5)");
        let index = index_from(&owned, &bitmap_choices, &label);
        let loaded = SketchIndex::load(&mut snapshot_bytes(&index).as_slice()).unwrap();
        prop_assert_eq!(&loaded, &index);
        prop_assert_eq!(loaded.meta(), index.meta());
        prop_assert_eq!(loaded.postings().stats(), index.postings().stats());
    }

    #[test]
    fn truncating_anywhere_is_detected(
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..NUM_NODES as u32, 1..30),
            1..8,
        ),
        cut in any::<prop::sample::Index>(),
    ) {
        let owned: Vec<Vec<u32>> = raw_sets.iter().map(|s| s.iter().copied().collect()).collect();
        let index = index_from(&owned, &[true], "cut");
        let bytes = snapshot_bytes(&index);
        let cut = cut.index(bytes.len());
        prop_assert!(SketchIndex::load(&mut bytes[..cut].as_ref()).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dynamic_snapshots_round_trip_and_stay_refreshable(seed in 0u64..5_000) {
        let (index, graph, weights) = dynamic_index(seed);
        let bytes = snapshot_bytes(&index);
        let mut loaded = SketchIndex::load(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(&loaded, &index);
        prop_assert!(loaded.is_dynamic());
        prop_assert_eq!(loaded.provenance().unwrap().delta_log.len(), 1);
        // The reloaded index accepts the next delta against the current
        // revision — provenance survived byte-exactly.
        let delta = GraphDelta::new().insert(3, 4, 0.5);
        let (_, _, stats) = loaded.apply_delta(&graph, &weights, &delta).unwrap();
        prop_assert_eq!(stats.total_sets, 80);
    }

    #[test]
    fn truncating_the_provenance_section_is_detected(
        seed in 0u64..5_000,
        cut in any::<prop::sample::Index>(),
    ) {
        let (index, _, _) = dynamic_index(seed);
        let bytes = snapshot_bytes(&index);
        let start = provenance_offset(&index);
        let cut = start + cut.index(bytes.len() - start);
        prop_assert!(SketchIndex::load(&mut bytes[..cut].as_ref()).is_err());
    }
}

/// A provenance with a two-entry delta log, and the bytes its section
/// takes after the presence flag (model tag, seed, policy, log length, and
/// per entry the resampled count and three length-prefixed lists).
fn two_delta_provenance(seed: u64) -> (SketchProvenance, usize) {
    let spec = SampleSpec::new(DiffusionModel::LinearThreshold, seed);
    let first = GraphDelta::new().insert(1, 2, 0.25).delete(3, 4);
    let second = GraphDelta::new().reweight(5, 6, 0.75).insert(7, 8, 0.5).insert(9, 1, 0.125);
    // The resampled count and three lengths, then 12 bytes an insert or
    // reweight and 8 a deletion.
    let entry_bytes = |d: &GraphDelta| {
        32 + 12 * (d.insertions().len() + d.reweights().len()) + 8 * d.deletions().len()
    };
    let len = 1 + 8 + 8 + 8 + 8 + entry_bytes(&first) + entry_bytes(&second);
    let delta_log = vec![
        DeltaLogEntry { delta: first, resampled_sets: 3 },
        DeltaLogEntry { delta: second, resampled_sets: 0 },
    ];
    (SketchProvenance { spec, delta_log }, len)
}

/// Sets with a row vertex (vertex 7 is in every set, far above range/32) or
/// without one (at least 64 sets of one distinct vertex each: every degree
/// is 1, at a row threshold of 2 or more).
fn flip_fixture_sets(with_rows: bool, raw_sets: &[Vec<u32>], shift: u32) -> Vec<Vec<u32>> {
    if with_rows {
        raw_sets
            .iter()
            .map(|set| {
                let mut members: Vec<u32> = set.iter().copied().filter(|&v| v != 7).collect();
                members.push(7);
                members
            })
            .collect()
    } else {
        (0..64 + raw_sets.len() as u32 * 4).map(|set| vec![set + shift]).collect()
    }
}

static FLIP_FILES: AtomicUsize = AtomicUsize::new(0);

/// Write `bytes` to a file of its own for the path-based loaders.
fn flip_file(bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("imm_service_snapshot_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let n = FLIP_FILES.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flip-{}-{n}.sketch", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The error order the read-decode path keeps: the checksum covers every
    /// byte to end of file, and a mismatch wins over whatever the decode of
    /// the damaged payload returned. One flipped byte in any region of a static
    /// or dynamic snapshot, with rows or without, reaches `load`,
    /// `load_from_path` and `Store::open_read` as the checksum mismatch with
    /// the stored and the recomputed value, and as nothing else.
    #[test]
    fn flipping_any_payload_byte_is_detected(
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..NUM_NODES as u32, 0..30),
            1..16,
        ),
        with_rows in any::<bool>(),
        dynamic in any::<bool>(),
        shift in 0u32..(NUM_NODES as u32 - 128),
        region in 0usize..5,
        at in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let owned: Vec<Vec<u32>> = raw_sets.iter().map(|s| s.iter().copied().collect()).collect();
        let sets = flip_fixture_sets(with_rows, &owned, shift);
        let mut collection = RrrCollection::new(NUM_NODES);
        for members in sets {
            collection.push_vertices(members, &AdaptivePolicy::always_sorted());
        }
        let label = "flip-order";
        let (provenance, provenance_len) = if dynamic {
            let (provenance, len) = two_delta_provenance(shift as u64);
            (Some(provenance), len)
        } else {
            (None, 0)
        };
        let meta = IndexMeta { num_edges: 12, label: label.to_string() };
        let index =
            SketchIndex::from_collection_with_provenance(collection, meta, provenance).unwrap();
        let good = snapshot_bytes(&index);
        let s = parse_head(&good).unwrap().sections;
        prop_assert_eq!(s.row_vertices > 0, with_rows);
        prop_assert_eq!(index.is_dynamic(), dynamic);

        // The payload's regions, snapshot-relative: prelude (edge count and
        // label), directory and its checksum, provenance (the presence flag
        // and, when dynamic, the section), the zero padding up to the first
        // data page, and the data sections to the end of the file.
        let prelude = 20;
        let directory = prelude + 8 + 4 + label.len();
        let provenance = directory + 80;
        let padding = provenance + 1 + provenance_len;
        let bounds = [prelude, directory, provenance, padding, s.offsets_off, good.len()];
        prop_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "regions {:?}", bounds);
        let target = bounds[region] + at.index(bounds[region + 1] - bounds[region]);

        let mut bytes = good.clone();
        bytes[target] ^= mask;
        let stored = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let recomputed = Xxh64::oneshot(0, &bytes[20..]);
        prop_assert_ne!(stored, recomputed);
        let path = flip_file(&bytes);
        let outcomes = [
            ("load", SketchIndex::load(&mut bytes.as_slice()).map(drop)),
            ("load_from_path", SketchIndex::load_from_path(&path).map(drop)),
            ("Store::open_read", Store::open_read(&path).map(drop)),
        ];
        std::fs::remove_file(&path).ok();
        for (via, outcome) in outcomes {
            match outcome {
                Err(SnapshotError::ChecksumMismatch { expected, actual }) => {
                    prop_assert_eq!((expected, actual), (stored, recomputed), "via {}", via);
                }
                other => prop_assert!(
                    false,
                    "byte {} (region {}) flipped by {:#04x} via {}: {:?}",
                    target,
                    region,
                    mask,
                    via,
                    other.err()
                ),
            }
        }
    }
}

/// Structural corruption *behind* a recomputed checksum: the decoder itself
/// (not the container hash) must reject inconsistent provenance.
#[test]
fn provenance_decode_validates_structure_even_with_a_fixed_checksum() {
    let (index, _, _) = dynamic_index(11);
    let good = snapshot_bytes(&index);
    let flag_offset = provenance_offset(&index) - 1;

    // Corrupt the presence flag, the model tag, and the delta-log length;
    // each time recompute the checksum so only the decoder can object. Tags 0
    // and 1 (the retired stream sampler's) are as unknown as any other.
    for (offset, value, what) in [
        (flag_offset, 7u8, "presence flag"),
        (flag_offset + 1, 9u8, "model tag"),
        (flag_offset + 1, 0u8, "retired IC model tag"),
        (flag_offset + 1, 1u8, "retired LT model tag"),
        (flag_offset + 1 + 1 + 8 + 8 + 8 + 7, 0xFFu8, "delta-log length"),
    ] {
        let mut bytes = good.clone();
        bytes[offset] = value;
        refix_checksum(&mut bytes);
        let err = SketchIndex::load(&mut bytes.as_slice())
            .expect_err(&format!("corrupt {what} must not load"));
        assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "corrupt {what} surfaced as {err:?} instead of a decode error"
        );
        if what.ends_with("model tag") {
            assert!(err.to_string().contains("unknown model tag"), "{what}: {err}");
        }
    }
}

/// 64 sets over 300 vertices (a row needs degree > 2): vertices 0–9 are in
/// every set and store rows, vertex 20 is in set 0 only and vertex 21 in
/// sets 0 and 1 — lists. Sets 0–31 are bitmaps, the rest lists.
fn mixed_forms_index() -> SketchIndex {
    let raw: Vec<Vec<u32>> = (0..64u32)
        .map(|set| {
            let mut members: Vec<u32> = (0..10).collect();
            members.extend([21, 20].iter().take(2usize.saturating_sub(set as usize)));
            members
        })
        .collect();
    let bitmaps: Vec<bool> = (0..64).map(|set| set < 32).collect();
    index_from(&raw, &bitmaps, "mixed-forms")
}

/// Postings sections that lie *behind a recomputed checksum*: the decoder
/// itself must reject each with a decode error — never panic, never hand an
/// out-of-range set id to a query.
#[test]
fn lying_postings_sections_are_rejected_even_with_a_fixed_checksum() {
    let index = mixed_forms_index();
    let postings = index.postings();
    assert!(postings.is_row(0) && postings.is_row(9), "the fixture must hold rows");
    assert!(!postings.is_row(20) && !postings.is_row(21), "… and lists");
    assert_eq!((index.degree(21), index.ids(20)), (2, vec![0]));
    let good = snapshot_bytes(&index);
    assert_eq!(SketchIndex::load(&mut good.as_slice()).unwrap(), index);
    let s = parse_head(&good).unwrap().sections;
    assert_eq!((s.row_vertices, s.postings_len, s.words_per_row()), (10, 3, 1));

    let put_u32 = |bytes: &mut [u8], at: usize, value: u32| {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    };
    type Lie = (&'static str, Box<dyn Fn(&mut [u8], &SnapshotSections)>);
    let lies: Vec<Lie> = vec![
        (
            "row ids unsorted",
            Box::new(move |b, s| {
                put_u32(b, s.row_table_off, 1);
                put_u32(b, s.row_table_off + 4, 0);
            }),
        ),
        (
            "row id outside the vertex space",
            Box::new(move |b, s| {
                put_u32(b, s.row_table_off + 9 * 4, NUM_NODES as u32);
            }),
        ),
        (
            "row id of a vertex that also has a list",
            Box::new(move |b, s| {
                put_u32(b, s.row_table_off + 9 * 4, 21);
            }),
        ),
        (
            "stored degree above the popcount",
            Box::new(move |b, s| {
                // Vertex 1's row holds all 64 sets and says so; clear one bit.
                b[s.rows_off + 8] &= !1;
            }),
        ),
        (
            "stored degree on the list side of the threshold",
            Box::new(move |b, s| {
                put_u32(b, s.row_table_off + 10 * 4, 2);
            }),
        ),
        (
            "list id outside the range",
            Box::new(move |b, s| {
                put_u32(b, s.postings_off, 64);
            }),
        ),
        (
            "list not ascending",
            Box::new(move |b, s| {
                put_u32(b, s.postings_off + 4, 1);
                put_u32(b, s.postings_off + 8, 0);
            }),
        ),
    ];
    for (what, lie) in &lies {
        let mut bytes = good.clone();
        lie(&mut bytes, &s);
        assert_ne!(bytes, good, "{what}: the lie must change the file");
        refix_checksum(&mut bytes);
        let err =
            SketchIndex::load(&mut bytes.as_slice()).expect_err(&format!("{what}: must not load"));
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{what} surfaced as {err:?}");
    }

    // A set count outside the u32 set-id space, behind a refit *directory*
    // checksum — the only gate of the mapped path, which skips the container
    // checksum. 64 one-member sets keep every vertex a list, so no row
    // section bounds the count: the directory itself must.
    let raw: Vec<Vec<u32>> = (0..64u32).map(|set| vec![set]).collect();
    let mut bytes = snapshot_bytes(&index_from(&raw, &[], "count"));
    assert_eq!(parse_head(&bytes).unwrap().sections.row_vertices, 0);
    let dir_at = 20 + 8 + 4 + "count".len();
    bytes[dir_at + 8..dir_at + 16].copy_from_slice(&(u32::MAX as u64 + 1).to_le_bytes());
    let dir_check = fnv1a64(&bytes[dir_at..dir_at + 72]);
    bytes[dir_at + 72..dir_at + 80].copy_from_slice(&dir_check.to_le_bytes());
    let err = parse_head(&bytes).expect_err("the head parser must bound the set count");
    assert!(matches!(err, SnapshotError::Corrupt(_)), "surfaced as {err:?}");
    refix_checksum(&mut bytes);
    let err = SketchIndex::load(&mut bytes.as_slice()).expect_err("… and so must the loader");
    assert!(matches!(err, SnapshotError::Corrupt(_)), "surfaced as {err:?}");
}

/// A row of a range that is not a multiple of 64 has tail bits: one set
/// beyond the range is a lie the decoder rejects.
#[test]
fn a_row_bit_beyond_the_range_is_rejected() {
    let raw: Vec<Vec<u32>> = (0..40).map(|_| vec![7, 8]).collect();
    let index = index_from(&raw, &[], "tail");
    let mut bytes = snapshot_bytes(&index);
    let s = parse_head(&bytes).unwrap().sections;
    assert_eq!((s.row_vertices, s.words_per_row()), (2, 1));
    bytes[s.rows_off + 5] |= 1; // bit 40 of vertex 7's row
    refix_checksum(&mut bytes);
    let err = SketchIndex::load(&mut bytes.as_slice()).expect_err("a tail bit must not load");
    assert!(matches!(err, SnapshotError::Corrupt(_)), "surfaced as {err:?}");
}

/// One format: every version field but the current one — the retired 1–6
/// as much as 0 or a future 8 — is refused before any payload work, by the
/// loaders and by the head parser the mapped path opens with, and the error
/// says what to do about it. (`imm-store`'s `mmap_fallback` suite runs the
/// same fields through `Store::{open, open_read, open_mapped}`.)
#[test]
fn wrong_version_fields_are_rejected_and_the_written_version_loads() {
    let (index, _, _) = dynamic_index(21);
    let good = snapshot_bytes(&index);

    for bogus in [0u32, 1, 2, 3, 4, 5, 6, 8, u32::MAX] {
        let mut bytes = good.clone();
        bytes[8..12].copy_from_slice(&bogus.to_le_bytes());
        for (via, err) in [
            ("load", SketchIndex::load(&mut bytes.as_slice()).unwrap_err()),
            ("parse_head", parse_head(&bytes).unwrap_err()),
        ] {
            assert!(
                matches!(err, SnapshotError::UnsupportedVersion(v) if v == bogus),
                "version {bogus} via {via} surfaced as {err:?}"
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "unsupported snapshot version {bogus}: this build reads and maps version 7; \
                     rebuild the index with `build-index`"
                )
            );
        }
    }

    // The writer emits the current version, and it loads.
    assert_eq!(u32::from_le_bytes(good[8..12].try_into().unwrap()), SNAPSHOT_VERSION);
    assert!(SketchIndex::load(&mut good.as_slice()).is_ok());
}

#[test]
fn corrupted_header_cases_report_specific_errors() {
    let index = index_from(&[vec![1, 2, 3]], &[], "header");
    let good = snapshot_bytes(&index);

    // Wrong magic.
    let mut bad_magic = good.clone();
    bad_magic[..8].copy_from_slice(b"NOTANIDX");
    assert!(matches!(
        SketchIndex::load(&mut bad_magic.as_slice()),
        Err(SnapshotError::BadMagic(_))
    ));

    // Unsupported version.
    let mut bad_version = good.clone();
    bad_version[8..12].copy_from_slice(&8u32.to_le_bytes());
    assert!(matches!(
        SketchIndex::load(&mut bad_version.as_slice()),
        Err(SnapshotError::UnsupportedVersion(8))
    ));

    // Tampered checksum field.
    let mut bad_checksum = good.clone();
    bad_checksum[12] ^= 0xFF;
    assert!(matches!(
        SketchIndex::load(&mut bad_checksum.as_slice()),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Empty file.
    assert!(SketchIndex::load(&mut [].as_ref()).is_err());

    // The pristine bytes still load (the cases above were the only damage).
    assert_eq!(SketchIndex::load(&mut good.as_slice()).unwrap(), index);
}

#[test]
fn round_trip_through_a_real_file() {
    let index =
        index_from(&[vec![0, 5, 9], vec![2], (0..200).collect()], &[false, false, true], "file");
    let dir = std::env::temp_dir().join("imm_service_snapshot_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.sketch");
    index.save_to_path(&path).unwrap();
    let loaded = SketchIndex::load_from_path(&path).unwrap();
    assert_eq!(loaded, index);
    std::fs::remove_file(&path).ok();
}

/// A directory that lies about its sizes behind a valid directory checksum
/// (and a refit container checksum): 2^40 list entries claimed over a file
/// of a few pages. Every loader returns a structured error; none reserves
/// for the claim, which would abort the process on allocation. The
/// path-based loaders hold the directory to the file's real length; the
/// reader-based load never reserves ahead of the bytes that arrive.
#[test]
fn a_directory_claiming_2_pow_40_entries_over_a_short_file_is_an_error() {
    let raw: Vec<Vec<u32>> = (0..64u32).map(|set| vec![set]).collect();
    let mut bytes = snapshot_bytes(&index_from(&raw, &[], "huge"));
    let s = parse_head(&bytes).unwrap().sections;
    assert_eq!(s.row_vertices, 0);
    let claimed = 1usize << 40;
    let row_table_off = s.postings_off + claimed * 4;
    let dir_at = 20 + 8 + 4 + "huge".len();
    for (field, value) in [(2, claimed), (6, row_table_off), (7, row_table_off), (8, row_table_off)]
    {
        bytes[dir_at + 8 * field..dir_at + 8 * field + 8]
            .copy_from_slice(&(value as u64).to_le_bytes());
    }
    let dir_check = fnv1a64(&bytes[dir_at..dir_at + 72]);
    bytes[dir_at + 72..dir_at + 80].copy_from_slice(&dir_check.to_le_bytes());
    refix_checksum(&mut bytes);
    assert_eq!(parse_head(&bytes).unwrap_err().to_string(), {
        "corrupt snapshot payload: invalid encoded value: directory file length disagrees with \
         the snapshot"
    });

    let path = flip_file(&bytes);
    let outcomes = [
        ("load", SketchIndex::load(&mut bytes.as_slice()).map(drop)),
        ("load_from_path", SketchIndex::load_from_path(&path).map(drop)),
        ("Store::open_read", Store::open_read(&path).map(drop)),
    ];
    std::fs::remove_file(&path).ok();
    for (via, outcome) in outcomes {
        assert!(matches!(outcome, Err(SnapshotError::Corrupt(_))), "via {via}: {outcome:?}");
    }
}
