//! Chaos case for the store: an injected fault mid-map must degrade to the
//! read-decode path — counted, logically lossless, and still serving the
//! exact same query responses — while a fault-free open maps and is counted
//! as a mapped open. What no path may serve stays an error on
//! every path: a file of another format version (`UnsupportedVersion`, from
//! the mapped open and the fallback alike), a directory whose set count
//! leaves the set-id space, and postings sections that lie (a structured
//! error where the head shows the lie, masked bits where only the data
//! could — never a panic, never a set id outside the range).
//!
//! Fault plans are process-global and `fail_first: 1` trips the *first* hit
//! of every site — `snapshot.write` and `store.mmap.open` included — so each
//! test does all of its set-up IO under a quiet plan of its own
//! ([`quietly`]); `with_plan` serializes the stages of all tests and is not
//! re-entrant, so set-up and fault stage are two calls.
#![cfg(all(target_os = "linux", target_endian = "little"))]

use imm_diffusion::DiffusionModel;
use imm_fault::FaultConfig;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::{AdaptivePolicy, RrrCollection};
use imm_service::{
    parse_head, IndexError, IndexMeta, Query, QueryEngine, SampleSpec, SketchIndex, SnapshotError,
};
use imm_store::{LoadMode, Store, StoreError};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// FNV-1a 64 (the directory checksum), for refitting a tampered head.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let step = |hash: u64, &b: &u8| (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imm_store_fallback_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.sketch", std::process::id()))
}

fn sample_index(seed: u64) -> SketchIndex {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(100, 4, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, seed);
    SketchIndex::sample(&graph, &weights, spec, 64, 2, "chaos").unwrap()
}

/// Run `f` under a plan that injects nothing, serialized against every
/// armed plan of this binary.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    imm_fault::with_plan(FaultConfig::seeded(0), |_| f())
}

#[test]
fn a_fault_mid_map_degrades_to_read_decode_and_keeps_parity() {
    let index = sample_index(31);
    let path = temp_path("open_fault");
    let queries = [Query::top_k(3), Query::top_k(6), Query::Spread { seeds: vec![2, 4, 8] }];
    let baseline: Vec<_> = quietly(|| {
        index.save_to_path(&path).unwrap();
        let engine = QueryEngine::new(Arc::new(Store::open_mapped(&path).unwrap().index));
        queries.iter().map(|q| engine.execute(q)).collect()
    });

    imm_fault::with_plan(FaultConfig { fail_first: 1, ..FaultConfig::seeded(5) }, |_| {
        // Read inside the plan: sibling tests bump the counter under theirs.
        let fallbacks_before = imm_store::metrics::MMAP_FALLBACKS.value();
        // First open trips `store.mmap.open` and must degrade, not die.
        let degraded = Store::open(&path).expect("fallback must absorb the fault");
        assert_eq!(degraded.mode, LoadMode::ReadDecode);
        assert_eq!(degraded.index, index);
        let engine = QueryEngine::new(Arc::new(degraded.index));
        let served: Vec<_> = queries.iter().map(|q| engine.execute(q)).collect();
        assert_eq!(served, baseline, "degraded path must serve identical batches");

        // The site fails only its first call: the retry maps normally.
        let recovered = Store::open(&path).expect("retry");
        assert_eq!(recovered.mode, LoadMode::Mapped);
        assert_eq!(recovered.index, index);
        if imm_obs::recording_enabled() {
            assert_eq!(
                imm_store::metrics::MMAP_FALLBACKS.value(),
                fallbacks_before + 1,
                "exactly the faulted open is counted as a fallback"
            );
        }
    });
    std::fs::remove_file(&path).ok();
}

/// Without a fault, `Store::open` maps and counts the open. Under a quiet
/// plan, so no sibling's open lands between the two reads of the counter.
#[test]
fn open_prefers_the_mapping_and_counts_it() {
    let index = sample_index(7);
    let path = temp_path("prefer_mmap");
    quietly(|| {
        index.save_to_path(&path).unwrap();
        let opens_before = imm_store::metrics::MMAP_OPENS.value();
        let opened = Store::open(&path).expect("open");
        assert_eq!(opened.mode, LoadMode::Mapped);
        assert!(opened.timings.total_ns() > 0);
        if imm_obs::recording_enabled() {
            assert_eq!(imm_store::metrics::MMAP_OPENS.value(), opens_before + 1);
        }
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_mapped_surfaces_the_injected_fault_without_fallback() {
    let index = sample_index(32);
    let path = temp_path("strict_fault");
    quietly(|| index.save_to_path(&path).unwrap());

    imm_fault::with_plan(FaultConfig { fail_first: 1, ..FaultConfig::seeded(6) }, |_| {
        match Store::open_mapped(&path) {
            Err(StoreError::Fault(site)) => assert_eq!(site, imm_store::FAULT_SITE_OPEN),
            other => panic!("strict open must surface the fault, got {other:?}"),
        }
    });
    std::fs::remove_file(&path).ok();
}

/// One format: a file whose version field is anything but the current one
/// — the retired 6 as much as 0 or a future 8 — is `UnsupportedVersion` from
/// the strict mapped open, from read-decode, and therefore from the resilient
/// open too: the fallback has nothing older to fall back to.
#[test]
fn other_format_versions_are_refused_on_every_path() {
    let index = sample_index(34);
    let path = temp_path("wrong_version");
    quietly(|| {
        index.save_to_path(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        for version in [0u32, 1, 2, 3, 4, 5, 6, 8, u32::MAX] {
            let mut bytes = good.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            for (via, opened) in
                [("open", Store::open(&path)), ("open_read", Store::open_read(&path))]
            {
                match opened {
                    Err(SnapshotError::UnsupportedVersion(v)) if v == version => {}
                    other => panic!("version {version} via {via}: {other:?}"),
                }
            }
            match Store::open_mapped(&path) {
                Err(StoreError::Snapshot(SnapshotError::UnsupportedVersion(v))) if v == version => {
                }
                other => panic!("version {version} via open_mapped: {other:?}"),
            }
        }
    });
    std::fs::remove_file(&path).ok();
}

/// 40 sets over 64 vertices (a row needs degree > 1, and has 24 tail bits):
/// vertices 0–4 are in every set (rows), vertex 9 in set 0 only (a list).
fn rows_and_a_list() -> SketchIndex {
    let mut c = RrrCollection::new(64);
    for set in 0..40u32 {
        let mut members: Vec<u32> = (0..5).collect();
        members.extend((set == 0).then_some(9));
        c.push_vertices(members, &AdaptivePolicy::always_sorted());
    }
    SketchIndex::from_collection(c, IndexMeta { num_edges: 1, label: "lies".into() }).unwrap()
}

#[test]
fn lying_row_sections_are_errors_or_masked_never_panics() {
    quietly(lying_row_sections);
}

fn lying_row_sections() {
    let index = rows_and_a_list();
    assert!(index.postings().is_row(4) && !index.postings().is_row(9));
    let path = temp_path("lies");
    index.save_to_path(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let s = parse_head(&good).unwrap().sections;
    assert_eq!((s.row_vertices, s.postings_len), (5, 1));
    let put_u32 = |bytes: &mut [u8], at: usize, value: u32| {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    };

    // A set count past u32::MAX behind a refit directory checksum: a corrupt head.
    let (mut bytes, dir_at) = (good.clone(), 20 + 8 + 4 + "lies".len());
    bytes[dir_at + 8..dir_at + 16].copy_from_slice(&(u32::MAX as u64 + 1).to_le_bytes());
    let check = fnv1a64(&bytes[dir_at..dir_at + 72]);
    bytes[dir_at + 72..dir_at + 80].copy_from_slice(&check.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = Store::open_mapped(&path).expect_err("a set count past u32::MAX must not map");
    assert!(matches!(err, StoreError::Snapshot(SnapshotError::Corrupt(_))), "{err:?}");
    assert!(Store::open(&path).is_err(), "no path may serve the file");

    // What the offsets and the row table show, the mapped open rejects.
    type Lie<'a> = (&'static str, Box<dyn Fn(&mut [u8]) + 'a>);
    let lies: Vec<Lie> = vec![
        ("unsorted row ids", Box::new(|b| put_u32(b, s.row_table_off, 3))),
        ("a row id outside the vertex space", Box::new(|b| put_u32(b, s.row_table_off + 16, 64))),
        ("a row id of a list vertex", Box::new(|b| put_u32(b, s.row_table_off + 16, 9))),
        ("a row degree beyond the range", Box::new(|b| put_u32(b, s.row_table_off + 20, 41))),
    ];
    for (what, lie) in &lies {
        let mut bytes = good.clone();
        lie(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        match Store::open_mapped(&path) {
            Err(StoreError::Index(IndexError::PostingsCorrupt(_))) => {}
            other => panic!("{what}: the mapped open must say corrupt postings, got {other:?}"),
        }
        // The resilient open degrades to read-decode, whose checksum objects.
        assert!(Store::open(&path).is_err(), "{what}: no path may serve the file");
    }

    // Bits beyond the range in every row's tail: only the data pages show
    // them, so the mapped open succeeds — and masks them wherever a row is
    // read. Every answer equals the honest file's.
    let mut bytes = good.clone();
    for row in 0..s.row_vertices {
        bytes[s.rows_off + row * 8 + 5..s.rows_off + row * 8 + 8].fill(0xFF);
    }
    std::fs::write(&path, &bytes).unwrap();
    let lying = Store::open_mapped(&path).expect("tail bits are not visible from the head");
    for v in 0..64u32 {
        assert_eq!(lying.index.ids(v), index.ids(v), "vertex {v}");
    }
    let honest = QueryEngine::new(Arc::new(index));
    let served = QueryEngine::new(Arc::new(lying.index));
    for query in [
        Query::top_k(3),
        Query::Spread { seeds: vec![0, 9] },
        Query::Marginal { seeds: vec![9], candidate: 2 },
        Query::audience_top_k(2, imm_rrr::BitSet::from_iter_with_capacity(64, [4, 9])),
    ] {
        assert_eq!(served.execute(&query), honest.execute(&query), "{query:?}");
    }
    std::fs::remove_file(&path).ok();
}
