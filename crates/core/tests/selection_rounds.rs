//! `run_imm` plays k greedy rounds per selection, and an EfficientIMM run
//! selects only where a selection can matter: at a θ step whose convergence
//! check the coverage bound (the k largest set counts) lets pass, and in the
//! final phase only when its top-up drew new sets, so an unchanged sample is
//! never selected twice (the Ripples baseline in `imm-bench` selects at every
//! step and checks its equalities against this run). Read off
//! `core_selection_rounds`, which is
//! process-global: this binary's one test runs its cases in turn, so nothing
//! else adds to it while a case runs.

use efficient_imm::metrics::SELECTION_ROUNDS;
use efficient_imm::{math, run_imm, Algorithm, ExecutionConfig, ImmParams, ImmResult};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One run on a social graph of `n` vertices.
struct Run {
    result: ImmResult,
    /// Rounds added to `core_selection_rounds`.
    rounds: u64,
    /// Whether the final top-up drew sets (θ beyond the last step's).
    drew: bool,
}

fn run(n: usize, model: DiffusionModel, graph_seed: u64, params: &ImmParams) -> Run {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 6, 0.3, &mut rng));
    let weights = match model {
        DiffusionModel::IndependentCascade => EdgeWeights::ic_weighted_cascade(&graph),
        DiffusionModel::LinearThreshold => EdgeWeights::lt_normalized(&graph, &mut rng),
    };
    let before = SELECTION_ROUNDS.value();
    let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
    let result = run_imm(&graph, &weights, params, &exec).unwrap();
    let steps = result.breakdown.sampling_iterations;
    let ell = math::adjusted_ell(math::ELL, n);
    let last_step = math::theta_for_iteration(n, params.k, params.epsilon, ell, steps);
    let drew = result.theta > last_step;
    Run { result, rounds: SELECTION_ROUNDS.value() - before, drew }
}

#[test]
fn every_selection_plays_k_rounds_and_skipped_steps_play_none() {
    if !imm_obs::recording_enabled() {
        return;
    }
    // The final θ is the last step's, so the last step's selection is
    // reused; the bound skips one of the three steps.
    let k = 8;
    let params = ImmParams::new(k, 0.5, DiffusionModel::IndependentCascade).with_seed(3);
    let ic = run(400, DiffusionModel::IndependentCascade, 2, &params);
    let b = &ic.result.breakdown;
    assert!(!ic.drew, "this input's final top-up draws nothing");
    assert_eq!((b.sampling_iterations, b.selections), (3, 2));
    assert_eq!(ic.rounds, k as u64 * b.selections as u64);

    // The final θ exceeds the last step's: one more selection, after the
    // one step of four the bound does not skip.
    let k = 5;
    let params = ImmParams::new(k, 0.5, DiffusionModel::LinearThreshold).with_seed(9);
    let lt = run(300, DiffusionModel::LinearThreshold, 6, &params);
    let b = &lt.result.breakdown;
    assert!(lt.drew, "this input's final top-up draws sets");
    assert_eq!((b.sampling_iterations, b.selections), (4, 2));
    assert_eq!(lt.rounds, k as u64 * b.selections as u64);

    // Sparse LT sets need several steps, and the bound skips some of them:
    // fewer selections than selecting at every step (and after a top-up
    // that draws) would make.
    let k = 10;
    let params = ImmParams::new(k, 0.5, DiffusionModel::LinearThreshold).with_seed(17);
    let lt = run(3000, DiffusionModel::LinearThreshold, 8, &params);
    let b = &lt.result.breakdown;
    assert!(b.sampling_iterations >= 3);
    assert!(b.selections < b.sampling_iterations + usize::from(lt.drew), "the bound skips a step");
    assert_eq!(lt.rounds, k as u64 * b.selections as u64);
}
