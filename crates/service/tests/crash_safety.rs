//! Crash-safe snapshot persistence, proven the hard way: a save killed
//! at **every** write point must leave the snapshot path holding either
//! the previous complete generation or the new complete generation —
//! never a torn file — and the next load must sweep the wreckage.
//!
//! The grid is exhaustive by construction: one clean save under a quiet
//! fault plan counts its write points, then the save is replayed once
//! per point with `kill_at_write_point` aimed at it. The kill aborts
//! the save exactly where a `kill -9` would and the plan stays dead
//! afterwards, so no "cleanup the crash could not have run" sneaks in.
//!
//! Recovery is held to the same standard: `SketchIndex::recover` from the
//! snapshot saved at any revision of a journaled history, or from a
//! journal cut at any byte of its last entry, must rebuild exactly the
//! index, graph and weights of the uninterrupted history — and a journal
//! that does not belong to the snapshot must be refused by name.

use imm_diffusion::DiffusionModel;
use imm_fault::FaultConfig;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_service::{snapshot_tmp_path, DeltaJournal, RecoverError, SampleSpec, SketchIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("imm-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small deterministic index whose identity is visible in its label.
fn index(label: &str, num_nodes: usize) -> SketchIndex {
    use imm_rrr::{AdaptivePolicy, RrrCollection};
    let mut collection = RrrCollection::new(num_nodes);
    for i in 0..48 {
        let mut vertices =
            vec![(i * 7 + 1) % num_nodes, (i * 13 + 3) % num_nodes, (i * 29 + 5) % num_nodes];
        vertices.sort_unstable();
        vertices.dedup();
        collection.push_vertices(
            vertices.into_iter().map(|v| v as u32).collect(),
            &AdaptivePolicy::default(),
        );
    }
    SketchIndex::from_collection(
        collection,
        imm_service::IndexMeta { num_edges: 123, label: label.to_string() },
    )
    .unwrap()
}

#[test]
fn save_killed_at_every_write_point_leaves_old_or_new_never_torn() {
    let dir = scratch_dir("grid");
    let path = dir.join("index.snap");
    let old = index("old-generation", 64);
    let new = index("new-generation", 64);

    // Count the write points one clean save visits (the quiet plan
    // injects nothing but keeps the counter).
    let total = imm_fault::with_plan(FaultConfig::seeded(1), |plan| {
        new.save_to_path(&path).unwrap();
        plan.write_points()
    });
    assert!(total >= 3, "a save must visit several write points, found {total}");

    let recoveries_before = imm_service::metrics::SNAPSHOT_RECOVERIES.value();
    let mut tmp_leftovers = 0u64;
    for point in 0..total {
        // Reset: the old generation is durably on disk.
        imm_fault::with_plan(FaultConfig::seeded(1), |_| old.save_to_path(&path).unwrap());

        let result = imm_fault::with_plan(
            FaultConfig { kill_at_write_point: Some(point), ..FaultConfig::seeded(1) },
            |_| new.save_to_path(&path),
        );
        assert!(result.is_err(), "kill at write point {point} must abort the save");
        if snapshot_tmp_path(&path).exists() {
            tmp_leftovers += 1;
        }

        // Recovery: the path loads, is byte-complete, and is exactly
        // one of the two generations.
        let loaded = SketchIndex::load_from_path(&path)
            .unwrap_or_else(|e| panic!("kill at write point {point} tore the snapshot: {e}"));
        assert!(
            loaded == old || loaded == new,
            "kill at write point {point} produced a third generation ({})",
            loaded.meta().label
        );
        assert!(
            !snapshot_tmp_path(&path).exists(),
            "load after kill at write point {point} must sweep the leftover temp file"
        );
    }
    assert!(tmp_leftovers > 0, "some kill points must strand a temp file");
    assert!(
        imm_service::metrics::SNAPSHOT_RECOVERIES.value() >= recoveries_before + tmp_leftovers,
        "every swept leftover must be counted as a recovery"
    );

    // One point past the grid: the save completes and the new
    // generation is what loads.
    imm_fault::with_plan(
        FaultConfig { kill_at_write_point: Some(total + 1), ..FaultConfig::seeded(1) },
        |_| new.save_to_path(&path).unwrap(),
    );
    assert_eq!(SketchIndex::load_from_path(&path).unwrap(), new);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_failures_abort_the_save_and_keep_the_old_generation() {
    let dir = scratch_dir("fsync");
    let path = dir.join("index.snap");
    let old = index("old-generation", 64);
    let new = index("new-generation", 64);
    imm_fault::with_plan(FaultConfig::seeded(2), |_| old.save_to_path(&path).unwrap());

    let result =
        imm_fault::with_plan(FaultConfig { fsync_error: 1.0, ..FaultConfig::seeded(2) }, |_| {
            new.save_to_path(&path)
        });
    assert!(result.is_err(), "a failed fsync must fail the save");
    assert_eq!(
        SketchIndex::load_from_path(&path).unwrap(),
        old,
        "an un-fsynced save must never replace the old generation"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_writes_do_not_corrupt_a_completed_save() {
    let dir = scratch_dir("partial");
    let path = dir.join("index.snap");
    let new = index("new-generation", 64);
    // Shortened writes are retried by the writer loop; the finished
    // file must still be byte-complete.
    imm_fault::with_plan(FaultConfig { io_partial: 1.0, ..FaultConfig::seeded(3) }, |plan| {
        new.save_to_path(&path).unwrap();
        assert!(plan.injected() > 0, "a certain partial rate must fire");
    });
    assert_eq!(SketchIndex::load_from_path(&path).unwrap(), new);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A dynamic index sampled over a small social graph, with that graph and
/// its weights: the original source a recovery starts from.
fn dynamic_source() -> (CsrGraph, EdgeWeights, SketchIndex) {
    let mut rng = SmallRng::seed_from_u64(21);
    let graph = CsrGraph::from_edge_list(&generators::social_network(150, 5, 0.3, &mut rng));
    let weights = EdgeWeights::ic_weighted_cascade(&graph);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0x5EED);
    let index = SketchIndex::sample(&graph, &weights, spec, 200, 2, "recover").unwrap();
    (graph, weights, index)
}

/// Roll `delta` the way the daemon does: journal its text under the
/// revision the index moves from, then refresh by the parsed text.
fn roll_journaled(
    index: &mut SketchIndex,
    (graph, weights): (&CsrGraph, &EdgeWeights),
    journal: &mut DeltaJournal,
    delta: &GraphDelta,
) -> (CsrGraph, EdgeWeights) {
    let text = delta.to_text();
    let revision = index.provenance().unwrap().delta_log.len() as u64;
    journal.append(revision, &text).unwrap();
    let (graph, weights, _) =
        index.apply_delta(graph, weights, &GraphDelta::parse_text(&text).unwrap()).unwrap();
    (graph, weights)
}

/// The snapshot bytes of `index`.
fn snapshot(index: &SketchIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.save(&mut bytes).unwrap();
    bytes
}

#[test]
fn recovery_from_any_revision_or_torn_tail_equals_the_uninterrupted_history() {
    // A quiet plan: the journal's appends are write points, and a plan
    // another test arms must not land on them.
    imm_fault::with_plan(FaultConfig::seeded(4), |_| {
        let dir = scratch_dir("recover");
        let journal_path = dir.join("deltas.journal");
        let (graph, weights, mut live) = dynamic_source();
        let (e0, e7) = (graph.edges().next().unwrap(), graph.edges().nth(7).unwrap());
        let deltas = [
            GraphDelta::new().insert(3, 77, 0.8).insert(140, 9, 0.6),
            GraphDelta::new().delete(e0.0, e0.1),
            GraphDelta::new().reweight(e7.0, e7.1, 0.4).insert(12, 13, 0.5),
            GraphDelta::new().delete(3, 77).insert(50, 51, 0.7),
        ];
        let mut journal = DeltaJournal::open(&journal_path).unwrap();
        let mut history = vec![(snapshot(&live), graph.clone(), weights.clone())];
        for delta in &deltas {
            let (g, w) = (&history.last().unwrap().1, &history.last().unwrap().2);
            let (g, w) = roll_journaled(&mut live, (g, w), &mut journal, delta);
            history.push((snapshot(&live), g, w));
        }
        drop(journal);

        // Restart from the snapshot saved at every revision k.
        let (want, want_graph, want_weights) = history.last().unwrap();
        for (k, (saved, _, _)) in history.iter().enumerate() {
            let mut index = SketchIndex::load(&mut saved.as_slice()).unwrap();
            let recovered = index
                .recover(graph.clone(), weights.clone(), Some(&journal_path))
                .unwrap_or_else(|e| panic!("from revision {k}: {e}"));
            assert_eq!(index, live, "from revision {k}");
            assert_eq!(&snapshot(&index), want, "from revision {k}");
            assert_eq!(&recovered.graph, want_graph, "from revision {k}");
            assert_eq!(&recovered.weights, want_weights, "from revision {k}");
            assert_eq!(recovered.journal_replayed, deltas.len() - k, "from revision {k}");
        }

        // A crash mid-append: a cut at every byte of the last entry
        // recovers the history without it.
        let full = std::fs::read(&journal_path).unwrap();
        let last_entry = 20 + deltas.last().unwrap().to_text().len();
        let (prefix, prefix_graph, prefix_weights) = &history[deltas.len() - 1];
        for cut in full.len() - last_entry..full.len() {
            std::fs::write(&journal_path, &full[..cut]).unwrap();
            let mut index = SketchIndex::load(&mut history[0].0.as_slice()).unwrap();
            let recovered = index
                .recover(graph.clone(), weights.clone(), Some(&journal_path))
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(&snapshot(&index), prefix, "cut at {cut}");
            assert_eq!(&recovered.graph, prefix_graph, "cut at {cut}");
            assert_eq!(&recovered.weights, prefix_weights, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// A daemon journals deltas a and b and is killed; an offline refresh
/// without the journal folds an unrelated delta d into the snapshot. The
/// journal's entry 0 (a) now sits below the snapshot's revision but is not
/// the delta logged there, so recovery refuses the journal, naming entry 0,
/// instead of replaying b on top of d.
#[test]
fn a_journal_of_another_history_is_refused_by_name() {
    imm_fault::with_plan(FaultConfig::seeded(5), |_| {
        let dir = scratch_dir("foreign");
        let journal_path = dir.join("deltas.journal");
        let (graph, weights, index) = dynamic_source();
        let mut daemon = index.clone();
        let mut journal = DeltaJournal::open(&journal_path).unwrap();
        let a = GraphDelta::new().insert(3, 77, 0.8);
        let b = GraphDelta::new().insert(140, 9, 0.6);
        let (g, w) = roll_journaled(&mut daemon, (&graph, &weights), &mut journal, &a);
        roll_journaled(&mut daemon, (&g, &w), &mut journal, &b);
        drop(journal);

        let mut offline = index;
        offline.apply_delta(&graph, &weights, &GraphDelta::new().insert(5, 6, 0.3)).unwrap();
        let loaded = offline.clone();
        let refused = offline.recover(graph, weights, Some(&journal_path)).unwrap_err();
        assert!(matches!(refused, RecoverError::Foreign(0)), "{refused:?}");
        assert!(refused.to_string().contains("journal entry 0"), "{refused}");
        assert_eq!(offline, loaded, "a refused journal leaves the index as loaded");
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// Entries from the snapshot's revision on must be contiguous: a journal
/// that skips one is refused before anything replays.
#[test]
fn a_journal_with_a_gap_is_refused() {
    imm_fault::with_plan(FaultConfig::seeded(6), |_| {
        let dir = scratch_dir("gap");
        let journal_path = dir.join("deltas.journal");
        let (graph, weights, mut index) = dynamic_source();
        let mut journal = DeltaJournal::open(&journal_path).unwrap();
        journal.append(0, &GraphDelta::new().insert(3, 77, 0.8).to_text()).unwrap();
        journal.append(2, &GraphDelta::new().insert(140, 9, 0.6).to_text()).unwrap();
        drop(journal);

        let loaded = index.clone();
        let refused = index.recover(graph, weights, Some(&journal_path)).unwrap_err();
        assert!(matches!(refused, RecoverError::Gap { expected: 1, found: 2 }), "{refused:?}");
        assert!(refused.to_string().contains("journal entry 1 is missing"), "{refused}");
        assert_eq!(index, loaded, "a refused journal leaves the index as loaded");
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
