//! Split / reassemble round trip for per-shard snapshot files: an index
//! snapshot split into N shard files must come back as the *same* index —
//! same sets, same provenance (spec, records, delta log), same served
//! answers — and every corruption or inconsistent-mixture failure mode must
//! be rejected loudly.

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_service::{Query, QueryEngine, SampleSpec, SketchIndex};
use imm_shard::{
    assemble, load_shard_files, read_shard, split_to_bytes, write_shard_files, ShardFileError,
    ShardedEngine, ShardedIndex,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn dynamic_index() -> (CsrGraph, EdgeWeights, SketchIndex) {
    let mut rng = SmallRng::seed_from_u64(3);
    let graph = CsrGraph::from_edge_list(&generators::social_network(100, 4, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 21);
    let mut index = SketchIndex::sample(&graph, &weights, spec, 120, 2, "split").unwrap();
    // A non-empty delta log must survive the split.
    index.apply_delta(&graph, &weights, &GraphDelta::new().insert(0, 7, 0.5)).unwrap();
    (graph, weights, index)
}

fn temp_prefix(name: &str) -> String {
    let dir = std::env::temp_dir().join("imm_shard_split_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn split_files_reassemble_to_the_identical_index() {
    let (_, _, index) = dynamic_index();
    for shards in [1usize, 3, 5] {
        let prefix = temp_prefix(&format!("roundtrip_{shards}"));
        let paths = write_shard_files(index.clone(), shards, &prefix).unwrap();
        assert_eq!(paths.len(), shards);

        // Reassemble from the files in *reverse* order: the header carries
        // each shard's position, so file order must not matter.
        let reversed: Vec<_> = paths.iter().rev().collect();
        let sharded = load_shard_files(&reversed).unwrap();
        assert_eq!(sharded.num_shards(), shards, "file layout becomes the shard layout");
        assert_eq!(sharded.collection(), index.sets());
        assert_eq!(sharded.provenance(), index.provenance(), "spec + records + delta log");
        assert_eq!(sharded.meta(), index.meta());

        // Fully reassembled single index equals the original.
        let reassembled = sharded.clone().into_index();
        assert_eq!(reassembled, index);

        // And the shard files serve byte-identically to the original index.
        let single = QueryEngine::new(Arc::new(index.clone()));
        let engine = ShardedEngine::new(Arc::new(sharded));
        for k in [1usize, 4, 9] {
            assert_eq!(engine.execute(&Query::top_k(k)), single.execute(&Query::top_k(k)));
        }
        for path in paths {
            std::fs::remove_file(path).ok();
        }
    }
}

#[test]
fn in_memory_split_matches_the_file_path() {
    let (_, _, index) = dynamic_index();
    let sharded = ShardedIndex::from_index(index, 4).unwrap();
    let blobs = split_to_bytes(&sharded).unwrap();
    assert_eq!(blobs.len(), 4);
    let parts = blobs.iter().map(|b| read_shard(&mut b.as_slice()).unwrap()).collect::<Vec<_>>();
    let rebuilt = assemble(parts).unwrap();
    assert_eq!(rebuilt, sharded);
}

/// Container v2 pads the wrapper header to one snapshot page, so the
/// embedded snapshot — and every page-aligned section inside it — sits
/// page-aligned *file-absolute*: a mapping of the whole shard file sees
/// the same alignment `imm-store` gets from a standalone snapshot.
#[test]
fn v2_shard_files_embed_the_snapshot_page_aligned() {
    use imm_service::{parse_head, SNAPSHOT_MAGIC, SNAPSHOT_PAGE_BYTES};
    let (_, _, index) = dynamic_index();
    let sharded = ShardedIndex::from_index(index, 3).unwrap();
    for blob in split_to_bytes(&sharded).unwrap() {
        assert_eq!(&blob[8..12], &imm_shard::SHARD_VERSION.to_le_bytes());
        assert!(blob[44..SNAPSHOT_PAGE_BYTES].iter().all(|&b| b == 0), "padding is zeroed");
        let snapshot = &blob[SNAPSHOT_PAGE_BYTES..];
        assert_eq!(&snapshot[..8], &SNAPSHOT_MAGIC);
        let head = parse_head(snapshot).expect("embedded snapshot parses");
        for off in [
            head.sections.arena_off,
            head.sections.bitmaps_off,
            head.sections.offsets_off,
            head.sections.postings_off,
        ] {
            assert_eq!(off % SNAPSHOT_PAGE_BYTES, 0, "snapshot-relative alignment");
            assert_eq!((SNAPSHOT_PAGE_BYTES + off) % SNAPSHOT_PAGE_BYTES, 0, "file-absolute");
        }
    }
}

/// The unpadded container v1 is no longer read: such a file — the same
/// 44-byte header with version 1, the embedded snapshot right behind it — is
/// rejected by its version, before anything behind the header is trusted.
#[test]
fn v1_shard_files_are_rejected_as_an_unsupported_version() {
    let (_, _, index) = dynamic_index();
    let sharded = ShardedIndex::from_index(index, 2).unwrap();
    for blob in split_to_bytes(&sharded).unwrap() {
        let mut v1 = blob[..44].to_vec();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&blob[imm_service::SNAPSHOT_PAGE_BYTES..]);
        assert!(matches!(
            read_shard(&mut v1.as_slice()),
            Err(ShardFileError::UnsupportedVersion(1))
        ));
    }
}

#[test]
fn corrupted_shard_files_are_rejected() {
    let (_, _, index) = dynamic_index();
    let sharded = ShardedIndex::from_index(index, 2).unwrap();
    let blobs = split_to_bytes(&sharded).unwrap();

    // Magic.
    let mut bad = blobs[0].clone();
    bad[0] = b'X';
    assert!(matches!(read_shard(&mut bad.as_slice()), Err(ShardFileError::BadMagic(_))));

    // Container version.
    let mut bad = blobs[0].clone();
    bad[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(read_shard(&mut bad.as_slice()), Err(ShardFileError::UnsupportedVersion(9))));

    // A flipped bit in the shard header fails the header checksum.
    let mut bad = blobs[0].clone();
    bad[13] ^= 0x01;
    assert!(matches!(read_shard(&mut bad.as_slice()), Err(ShardFileError::HeaderChecksumMismatch)));

    // A flipped bit in the embedded snapshot fails its payload checksum.
    let mut bad = blobs[0].clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(matches!(read_shard(&mut bad.as_slice()), Err(ShardFileError::Snapshot(_))));

    // Truncation anywhere must not decode.
    for cut in [0usize, 7, 20, 43, blobs[0].len() - 1] {
        assert!(read_shard(&mut blobs[0][..cut].as_ref()).is_err(), "prefix of {cut} bytes");
    }
}

#[test]
fn inconsistent_mixtures_are_rejected() {
    let (_, _, index) = dynamic_index();
    let two = split_to_bytes(&ShardedIndex::from_index(index.clone(), 2).unwrap()).unwrap();
    let three = split_to_bytes(&ShardedIndex::from_index(index, 3).unwrap()).unwrap();
    let part = |blob: &Vec<u8>| read_shard(&mut blob.as_slice()).unwrap();

    // Missing shard.
    assert!(matches!(assemble(vec![part(&two[0])]), Err(ShardFileError::InconsistentSplit(_))));
    // Duplicated shard.
    assert!(matches!(
        assemble(vec![part(&two[0]), part(&two[0])]),
        Err(ShardFileError::InconsistentSplit(_))
    ));
    // Shards from different splits of the same index.
    assert!(matches!(
        assemble(vec![part(&two[0]), part(&three[1]), part(&three[2])]),
        Err(ShardFileError::InconsistentSplit(_))
    ));
    // Nothing at all.
    assert!(matches!(assemble(Vec::new()), Err(ShardFileError::InconsistentSplit(_))));
}
