//! Mmap/heap parity: an index served zero-copy from a mapping must be
//! **logically identical** to the same file decoded onto the heap — equal
//! index, equal postings, and byte-identical query responses — across
//! static and dynamic snapshots, mixed list/bitmap set representations, and
//! all-row, all-list and mixed postings.
//!
//! Gated to little-endian Linux like the mapping itself; on other targets
//! the store only has the fallback path and there is nothing to compare.
#![cfg(all(target_os = "linux", target_endian = "little"))]

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::{AdaptivePolicy, RrrCollection};
use imm_service::{IndexMeta, Query, QueryEngine, SampleSpec, SketchIndex};
use imm_store::{LoadMode, Store};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Held for the whole of every test that maps a file: the `store_*`
/// counters are process-wide, so a test that counts its own opens or
/// advice must not overlap a sibling's.
static MAPPING: Mutex<()> = Mutex::new(());

fn mapping_turn() -> MutexGuard<'static, ()> {
    MAPPING.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imm_store_parity_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.sketch", std::process::id()))
}

/// A dynamic index with provenance, mixed representations, and an applied
/// delta — the richest snapshot shape the format supports.
fn dynamic_index(seed: u64) -> SketchIndex {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(120, 4, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, seed ^ 0xA11CE);
    SketchIndex::sample(&graph, &weights, spec, 96, 2, "parity-dyn").unwrap()
}

/// A static index with hand-forced list *and* bitmap sets.
fn static_index() -> SketchIndex {
    let mut c = RrrCollection::new(200);
    let bitmap = AdaptivePolicy::always_bitmap();
    let sorted = AdaptivePolicy::always_sorted();
    for i in 0..40u32 {
        let members: Vec<u32> = (0..(i % 17)).map(|j| (i * 7 + j * 11) % 200).collect();
        let mut members = members;
        members.sort_unstable();
        members.dedup();
        let policy = if i % 3 == 0 { &bitmap } else { &sorted };
        c.push_vertices(members, policy);
    }
    SketchIndex::from_collection(c, IndexMeta { num_edges: 777, label: "parity-static".into() })
        .unwrap()
}

/// `sets` copies of one dense set over 200 vertices plus `sparse` singleton
/// sets: with no singleton every indexed vertex is a row; with many, the
/// dense set's members stay rows and the singletons' vertices are lists.
fn dense_index(sets: u32, sparse: u32, label: &str) -> SketchIndex {
    let mut c = RrrCollection::new(200);
    for i in 0..sets {
        c.push_vertices((0..150).collect(), &AdaptivePolicy::default());
        if i < sparse {
            c.push_vertices(vec![150 + i % 50], &AdaptivePolicy::default());
        }
    }
    SketchIndex::from_collection(c, IndexMeta { num_edges: 9, label: label.into() }).unwrap()
}

fn assert_full_parity(mapped: &SketchIndex, heap: &SketchIndex) {
    assert_eq!(mapped, heap);
    assert_eq!(mapped.meta(), heap.meta());
    assert_eq!(mapped.provenance(), heap.provenance());
    assert_eq!(mapped.postings().stats(), heap.postings().stats());
    for v in 0..mapped.num_nodes() as u32 {
        assert_eq!(mapped.ids(v), heap.ids(v), "postings diverge at vertex {v}");
        assert_eq!(mapped.degree(v), heap.degree(v));
    }
    // Query responses must be byte-identical, not just "equivalent".
    let queries = vec![
        Query::top_k(1),
        Query::top_k(4),
        Query::top_k(9),
        Query::Spread { seeds: vec![0, 3, 5] },
        Query::Marginal { seeds: vec![1, 2], candidate: 7 },
    ];
    let mapped_engine = QueryEngine::new(Arc::new(mapped.clone()));
    let heap_engine = QueryEngine::new(Arc::new(heap.clone()));
    for q in &queries {
        assert_eq!(mapped_engine.execute(q), heap_engine.execute(q), "response diverges on {q:?}");
    }
    let batch_mapped = mapped_engine.execute_batch(&queries, 3);
    let batch_heap = heap_engine.execute_batch(&queries, 3);
    assert_eq!(batch_mapped, batch_heap);
}

#[test]
fn mapped_and_heap_loads_of_a_dynamic_snapshot_are_identical() {
    let _turn = mapping_turn();
    let index = dynamic_index(42);
    let path = temp_path("dynamic");
    index.save_to_path(&path).unwrap();

    let mapped = Store::open_mapped(&path).expect("mapped open");
    let heap = Store::open_read(&path).expect("read open");
    assert_eq!(mapped.mode, LoadMode::Mapped);
    assert_eq!(heap.mode, LoadMode::ReadDecode);
    assert!(mapped.is_mapped());
    assert!(mapped.index.is_postings_shared(), "postings must be a borrowed view");
    assert!(!heap.index.is_postings_shared());
    assert_eq!(mapped.mapped_len(), std::fs::metadata(&path).unwrap().len() as usize);
    assert_full_parity(&mapped.index, &heap.index);
    assert_full_parity(&mapped.index, &index);
    std::fs::remove_file(&path).ok();
}

#[test]
fn mapped_and_heap_loads_of_a_static_mixed_snapshot_are_identical() {
    let _turn = mapping_turn();
    let index = static_index();
    let path = temp_path("static");
    index.save_to_path(&path).unwrap();

    let mapped = Store::open_mapped(&path).expect("mapped open");
    let heap = Store::open_read(&path).expect("read open");
    assert!(!mapped.index.is_dynamic());
    assert_full_parity(&mapped.index, &heap.index);
    assert_full_parity(&mapped.index, &index);
    std::fs::remove_file(&path).ok();
}

/// The dense regime: every vertex with a membership stores a row (no list
/// entry at all), and a mix of the two forms.
#[test]
fn mapped_and_heap_loads_of_all_row_and_mixed_postings_are_identical() {
    let _turn = mapping_turn();
    for (index, rows, list_entries) in
        [(dense_index(70, 0, "all-row"), 150, 0), (dense_index(70, 60, "mixed"), 150, 60)]
    {
        let stats = index.postings().stats();
        assert_eq!((stats.row_vertices, stats.list_entries), (rows, list_entries));
        let path = temp_path(&index.meta().label);
        index.save_to_path(&path).unwrap();
        let mapped = Store::open_mapped(&path).expect("mapped open");
        let heap = Store::open_read(&path).expect("read open");
        assert!(mapped.index.is_postings_shared() && !heap.index.is_postings_shared());
        assert_eq!(mapped.index.postings().stats().row_vertices, rows);
        assert_full_parity(&mapped.index, &heap.index);
        assert_full_parity(&mapped.index, &index);
        // Both loads re-save to the very bytes they were loaded from.
        let on_disk = std::fs::read(&path).unwrap();
        for loaded in [&mapped.index, &heap.index] {
            let mut resaved = Vec::new();
            loaded.save(&mut resaved).unwrap();
            assert_eq!(resaved, on_disk);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn open_prefers_the_mapping_and_counts_it() {
    let _turn = mapping_turn();
    let index = dynamic_index(7);
    let path = temp_path("prefer_mmap");
    index.save_to_path(&path).unwrap();

    let opens_before = imm_store::metrics::MMAP_OPENS.value();
    let opened = Store::open(&path).expect("open");
    assert_eq!(opened.mode, LoadMode::Mapped);
    assert!(opened.timings.total_ns() > 0);
    if imm_obs::recording_enabled() {
        assert_eq!(imm_store::metrics::MMAP_OPENS.value(), opens_before + 1);
    }
    std::fs::remove_file(&path).ok();
}
