//! The masked session's acceptance property on the single-index engine:
//! the sparse audience Top-K (`imm_service::masked`) is **byte-identical**
//! to the dense whole-index construction it replaced (kept as the oracle
//! in `support/masked_oracle.rs`) — over random collections of list and
//! bitmap sets × every audience shape × budgets on both sides of coverage
//! exhaustion, on one index whose vertices mix bit rows and lists, and on a
//! sampled LT index with hubs, where the degree order is long — and its
//! pooled scratch never leaks from one query into the
//! next, into the persistent prefix, or across concurrent batch workers.

#[path = "support/masked_oracle.rs"]
mod masked_oracle;

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::BitSet;
use imm_service::{Query, QueryEngine, SampleSpec};
use masked_oracle::{
    audience_queries, audiences, budgets, dense_masked_top_k, hash_sets, index_from,
    mixed_form_sets, sampled, sampled_index, Indexed,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const NUM_NODES: usize = 48;

/// Every audience shape × every budget on `index` equals the dense oracle
/// over `sets`, the collection it indexed. One engine serves the whole
/// sweep: every query after the first runs on a recycled session.
fn sweep_equals_the_dense_oracle((index, sets): Indexed, seed: u64) {
    let n = index.num_nodes();
    let engine = QueryEngine::new(Arc::new(index));
    for (shape, audience) in audiences(n, seed) {
        for k in budgets(n) {
            prop_assert_eq!(
                engine.execute(&Query::audience_top_k(k, audience.clone())),
                dense_masked_top_k(&sets, k, &audience),
                "audience: {}, k = {}",
                shape,
                k
            );
        }
    }
}

proptest! {
    #[test]
    fn sparse_session_equals_the_dense_oracle(
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..NUM_NODES as u32, 0..20),
            0..30,
        ),
        bitmap_choices in proptest::collection::vec(any::<bool>(), 0..30),
        seed in 0u64..1_000_000,
    ) {
        sweep_equals_the_dense_oracle(index_from(NUM_NODES, &raw_sets, &bitmap_choices), seed);
    }
}

/// The same sweep on an index whose vertices mix bit rows and lists.
#[test]
fn sparse_session_equals_the_dense_oracle_when_rows_and_lists_mix() {
    let (n, sets) = mixed_form_sets();
    sweep_equals_the_dense_oracle(index_from(n, &hash_sets(&sets), &[]), 0x31C3);
}

/// The shape the benchmark's sparse workload serves, scaled down: an LT
/// index over a 3 000-vertex social graph, whose hubs head a long degree
/// order, audiences of 1–30 % of the vertices, and budgets 1, 5 and 20.
#[test]
fn sparse_session_equals_the_dense_oracle_on_a_sampled_lt_index_with_hubs() {
    let mut rng = SmallRng::seed_from_u64(0x17);
    let graph = CsrGraph::from_edge_list(&generators::social_network(3_000, 10, 0.3, &mut rng));
    let weights = EdgeWeights::lt_normalized(&graph, &mut rng);
    let spec = SampleSpec::new(DiffusionModel::LinearThreshold, 0x5EED);
    let (index, sets) = sampled(&graph, &weights, spec, 6_000);
    let n = index.num_nodes();
    let engine = QueryEngine::new(Arc::new(index.clone()));
    for i in 0..24 {
        let percent = 1 + i * 29 / 23;
        let draws = (0..n * percent / 100).map(|_| rng.gen_range(0..n)).collect::<Vec<_>>();
        let audience = BitSet::from_iter_with_capacity(n, draws);
        for k in [1, 5, 20] {
            assert_eq!(
                engine.execute(&Query::audience_top_k(k, audience.clone())),
                dense_masked_top_k(&sets, k, &audience),
                "audience {i} ({percent} % of n drawn), k = {k}"
            );
        }
    }
}

#[test]
fn back_to_back_audiences_equal_fresh_engine_answers() {
    let (_, _, index, sets) = sampled_index();
    let index = Arc::new(index);
    let engine = QueryEngine::new(Arc::clone(&index));
    // A leaked count or alive bit of query i would change query i + 1.
    for query in &audience_queries(&sets).0 {
        let fresh = QueryEngine::new(Arc::clone(&index));
        assert_eq!(engine.execute(query), fresh.execute(query), "{query:?}");
    }
}

#[test]
fn a_masked_query_leaves_the_persistent_prefix_intact() {
    let (_, _, index, sets) = sampled_index();
    let index = Arc::new(index);
    let engine = QueryEngine::new(Arc::clone(&index));
    let fresh = QueryEngine::new(Arc::clone(&index));
    let three = engine.execute(&Query::top_k(3));
    for query in audience_queries(&sets).0.iter().take(3) {
        engine.execute(query);
    }
    assert_eq!(engine.execute(&Query::top_k(3)), three);
    assert_eq!(engine.execute(&Query::top_k(9)), fresh.execute(&Query::top_k(9)));
}

#[test]
fn concurrent_audience_batches_equal_sequential_execution() {
    let (_, _, index, sets) = sampled_index();
    let index = Arc::new(index);
    let (queries, sequential) = audience_queries(&sets);
    let engine = QueryEngine::new(Arc::clone(&index));
    for threads in [1usize, 2, 4] {
        assert_eq!(engine.execute_batch(&queries, threads), sequential, "threads = {threads}");
    }
}

/// A rollout the daemon's way: the old engine, its pool stocked, keeps its
/// generation's answers, and a new engine over the refreshed copy answers
/// what a rebuild on the mutated graph answers.
#[test]
fn an_engine_over_the_refreshed_index_serves_the_rebuild() {
    let (graph, weights, index, sets) = sampled_index();
    let spec = index.provenance().expect("dynamic").spec;
    let (queries, before) = audience_queries(&sets);
    let engine = QueryEngine::new(Arc::new(index.clone()));
    for query in &queries {
        engine.execute(query); // stock the pool on the old generation
    }
    let (src, dst) = graph.edges().next().expect("graph has edges");
    let delta = GraphDelta::new().insert(3, 77, 0.8).insert(110, 9, 0.6).delete(src, dst);
    let mut next = index;
    let (graph, weights, _) = next.apply_delta(&graph, &weights, &delta).expect("refresh");
    let rolled = QueryEngine::new(Arc::new(next));
    // A refresh equals the rebuild, so the oracle reads the rebuild's sets.
    let (_, expected) = audience_queries(&sampled(&graph, &weights, spec, sets.len()).1);
    for ((query, expected), before) in queries.iter().zip(&expected).zip(&before) {
        assert_eq!(&rolled.execute(query), expected, "{query:?}");
        assert_eq!(&engine.execute(query), before, "{query:?}");
    }
}
