//! The sampler's registry budget: a worker tallies its sets and members in
//! its visit marker and flushes them once, when the marker drops, so a bulk
//! call's `core_rrr_sets_sampled` and `core_rrr_set_vertices` grow by exactly
//! its set count and its members by the time it returns. The counters are
//! process-global: this binary holds this one test, so nothing else adds to
//! them while it runs.

use efficient_imm::balance::Schedule;
use efficient_imm::metrics::{SETS_SAMPLED, SET_VERTICES};
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig, VisitMarker};
use efficient_imm::{generate_rrr_set, SamplingGraph, SetKey};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::AdaptivePolicy;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn a_call_adds_its_sets_and_members_once_per_worker() {
    if !imm_obs::recording_enabled() {
        return;
    }
    efficient_imm::metrics::register();
    let mut rng = SmallRng::seed_from_u64(3);
    let graph = CsrGraph::from_edge_list(&generators::social_network(500, 6, 0.2, &mut rng));
    let inputs = [
        (DiffusionModel::IndependentCascade, EdgeWeights::constant(&graph, 0.2)),
        (DiffusionModel::LinearThreshold, EdgeWeights::lt_normalized(&graph, &mut rng)),
    ];
    for (model, weights) in &inputs {
        for (threads, schedule) in [(1, Schedule::Static), (3, Schedule::Dynamic { chunk: 4 })] {
            let config = SamplingConfig {
                model: *model,
                rng_seed: 7,
                policy: AdaptivePolicy::default(),
                schedule,
                threads,
            };
            let (sets_before, vertices_before) = (SETS_SAMPLED.value(), SET_VERTICES.value());
            let out = generate_rrr_sets(&graph, weights, 250, |i| i, &config);
            let members: usize = out.sets.iter().map(|set| set.len()).sum();
            let label = format!("{model:?}, {threads} threads");
            assert_eq!(SETS_SAMPLED.value() - sets_before, 250, "{label}");
            assert_eq!(SET_VERTICES.value() - vertices_before, members as u64, "{label}");
        }
    }

    // The one-shot path tallies in the caller's marker, flushed at its drop.
    let (model, weights) = &inputs[0];
    let source = SamplingGraph::new(&graph, weights);
    let mut marker = VisitMarker::new(graph.num_nodes());
    let (sets_before, vertices_before) = (SETS_SAMPLED.value(), SET_VERTICES.value());
    let key = SetKey::new(1, 0);
    let a = generate_rrr_set(&source, *model, key.root(graph.num_nodes()), key, &mut marker);
    let key = SetKey::new(1, 1);
    let b = generate_rrr_set(&source, *model, key.root(graph.num_nodes()), key, &mut marker);
    assert_eq!(SETS_SAMPLED.value(), sets_before, "nothing is flushed per set");
    drop(marker);
    assert_eq!(SETS_SAMPLED.value() - sets_before, 2);
    assert_eq!(SET_VERTICES.value() - vertices_before, (a.len() + b.len()) as u64);
}
