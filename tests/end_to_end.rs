//! Cross-crate integration tests: the full pipeline from graph construction
//! through IMM to forward-simulation validation of the selected seeds.

use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
use imm_bench::ripples;
use imm_diffusion::{monte_carlo_spread, DiffusionModel};
use imm_graph::{generators, io, CsrGraph, EdgeWeights};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn social_instance(n: usize, seed: u64) -> (CsrGraph, EdgeWeights) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 8, 0.3, &mut rng));
    let weights = EdgeWeights::ic_weighted_cascade(&graph);
    (graph, weights)
}

#[test]
fn imm_seeds_beat_random_seeds_under_forward_simulation() {
    let (graph, weights) = social_instance(1_200, 1);
    let k = 10;
    let params = ImmParams::new(k, 0.5, DiffusionModel::IndependentCascade).with_seed(5);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
    let result = run_imm(&graph, &weights, &params, &exec).unwrap();

    let mut rng = SmallRng::seed_from_u64(99);
    let mut all: Vec<u32> = (0..graph.num_nodes() as u32).collect();
    all.shuffle(&mut rng);
    let random_seeds: Vec<u32> = all.into_iter().take(k).collect();

    let model = DiffusionModel::IndependentCascade;
    let imm_spread = monte_carlo_spread(&graph, &weights, model, &result.seeds, 1_500, 7);
    let random_spread = monte_carlo_spread(&graph, &weights, model, &random_seeds, 1_500, 7);

    assert!(
        imm_spread.mean > 1.5 * random_spread.mean,
        "IMM seeds ({:.1}) must clearly beat random seeds ({:.1})",
        imm_spread.mean,
        random_spread.mean
    );
}

#[test]
fn rrr_estimate_agrees_with_forward_simulation() {
    // The martingale machinery's whole point: n * F(S) estimates sigma(S).
    let (graph, weights) = social_instance(800, 2);
    let params = ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade).with_seed(3);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
    let result = run_imm(&graph, &weights, &params, &exec).unwrap();

    let simulated = monte_carlo_spread(
        &graph,
        &weights,
        DiffusionModel::IndependentCascade,
        &result.seeds,
        3_000,
        11,
    );
    let rel_err = (result.estimated_influence - simulated.mean).abs() / simulated.mean;
    assert!(
        rel_err < 0.35,
        "RRR estimate {:.1} vs simulated {:.1}: relative error {:.2} too large",
        result.estimated_influence,
        simulated.mean,
        rel_err
    );
}

#[test]
fn engines_agree_end_to_end_on_both_models() {
    let mut rng = SmallRng::seed_from_u64(4);
    let graph = CsrGraph::from_edge_list(&generators::social_network(500, 6, 0.25, &mut rng));
    for (model, weights) in [
        (DiffusionModel::IndependentCascade, EdgeWeights::ic_weighted_cascade(&graph)),
        (DiffusionModel::LinearThreshold, EdgeWeights::lt_normalized(&graph, &mut rng)),
    ] {
        let params = ImmParams::new(6, 0.5, model).with_seed(17);
        let ripples = ripples::run(&graph, &weights, &params, 2);
        let efficient =
            run_imm(&graph, &weights, &params, &ExecutionConfig::new(Algorithm::Efficient, 4))
                .unwrap();
        assert_eq!(ripples.seeds, efficient.seeds, "engines disagree under {model}");
        assert_eq!(ripples.theta, efficient.theta);
        assert_eq!(ripples.coverage_fraction.to_bits(), efficient.coverage_fraction.to_bits());
    }
}

#[test]
fn snap_file_round_trip_preserves_imm_results() {
    // Write a graph to the SNAP text format, read it back, and check IMM
    // produces the same seeds on both copies.
    let mut rng = SmallRng::seed_from_u64(6);
    let el = generators::social_network(400, 6, 0.2, &mut rng);
    let mut buffer = Vec::new();
    io::write_snap_edge_list(&mut buffer, &el, None).unwrap();
    let (parsed, _) = io::read_snap_edge_list(buffer.as_slice()).unwrap();

    let original = CsrGraph::from_edge_list(&el);
    let reloaded = CsrGraph::from_edge_list(&parsed);
    assert_eq!(original.num_nodes(), reloaded.num_nodes());
    assert_eq!(original.num_edges(), reloaded.num_edges());

    let weights_a = EdgeWeights::ic_weighted_cascade(&original);
    let weights_b = EdgeWeights::ic_weighted_cascade(&reloaded);
    let params = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade).with_seed(23);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
    let a = run_imm(&original, &weights_a, &params, &exec).unwrap();
    let b = run_imm(&reloaded, &weights_b, &params, &exec).unwrap();
    assert_eq!(a.seeds, b.seeds);
}

#[test]
fn results_are_fully_deterministic_for_a_fixed_seed() {
    let (graph, weights) = social_instance(600, 8);
    let params = ImmParams::new(7, 0.5, DiffusionModel::IndependentCascade).with_seed(77);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 3);
    let a = run_imm(&graph, &weights, &params, &exec).unwrap();
    let b = run_imm(&graph, &weights, &params, &exec).unwrap();
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.theta, b.theta);
    assert_eq!(a.estimated_influence, b.estimated_influence);
}

#[test]
fn changing_the_rng_seed_changes_the_sample_but_not_the_quality() {
    let (graph, weights) = social_instance(800, 9);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
    let model = DiffusionModel::IndependentCascade;
    let a = run_imm(&graph, &weights, &ImmParams::new(8, 0.5, model).with_seed(1), &exec).unwrap();
    let b = run_imm(&graph, &weights, &ImmParams::new(8, 0.5, model).with_seed(2), &exec).unwrap();

    // Different samples may pick different seeds...
    let spread_a = monte_carlo_spread(&graph, &weights, model, &a.seeds, 1_500, 5);
    let spread_b = monte_carlo_spread(&graph, &weights, model, &b.seeds, 1_500, 5);
    // ...but both must be near-optimal, hence close to each other.
    let ratio = spread_a.mean.min(spread_b.mean) / spread_a.mean.max(spread_b.mean);
    assert!(ratio > 0.8, "seed sets from different samples differ too much in quality: {ratio:.2}");
}
