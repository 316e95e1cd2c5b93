//! `run_imm` selects once per sample: every θ step plays k greedy rounds,
//! and the final phase plays k more only when its top-up drew new sets, so
//! an unchanged sample is never selected twice. Read off
//! `core_selection_rounds`, which is process-global: this binary holds this
//! one test, so nothing else adds to it while it runs.

use efficient_imm::metrics::SELECTION_ROUNDS;
use efficient_imm::{math, run_imm, Algorithm, ExecutionConfig, ImmParams};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The rounds one Efficient run adds, its θ steps, and whether its final
/// top-up drew sets (θ beyond the last step's).
fn rounds_of(
    n: usize,
    model: DiffusionModel,
    graph_seed: u64,
    params: ImmParams,
) -> (u64, u64, bool) {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 6, 0.3, &mut rng));
    let weights = match model {
        DiffusionModel::IndependentCascade => EdgeWeights::ic_weighted_cascade(&graph),
        DiffusionModel::LinearThreshold => EdgeWeights::lt_normalized(&graph, &mut rng),
    };
    let before = SELECTION_ROUNDS.value();
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
    let run = run_imm(&graph, &weights, &params, &exec).unwrap();
    let steps = run.breakdown.sampling_iterations;
    let ell = math::adjusted_ell(params.ell, n);
    let last_step = math::theta_for_iteration(n, params.k, params.epsilon, ell, steps);
    (SELECTION_ROUNDS.value() - before, steps as u64, run.theta > last_step)
}

#[test]
fn an_unchanged_sample_is_never_selected_twice() {
    if !imm_obs::recording_enabled() {
        return;
    }
    // The final θ is the last step's: k rounds per step and no more.
    let k = 8;
    let params = ImmParams::new(k, 0.5, DiffusionModel::IndependentCascade).with_seed(3);
    let (rounds, steps, drew) = rounds_of(400, DiffusionModel::IndependentCascade, 2, params);
    assert!(!drew, "this input's final top-up draws nothing");
    assert!(steps >= 2);
    assert_eq!(rounds, k as u64 * steps);

    // The final θ exceeds the last step's: one more selection.
    let k = 5;
    let params = ImmParams::new(k, 0.5, DiffusionModel::LinearThreshold).with_seed(9);
    let (rounds, steps, drew) = rounds_of(300, DiffusionModel::LinearThreshold, 6, params);
    assert!(drew, "this input's final top-up draws sets");
    assert_eq!(rounds, k as u64 * (steps + 1));
}
