//! `run_imm` on a fixed dense IC input, pinned to the θ, seeds and sets the
//! top-down-only reverse BFS produced.
//!
//! Uniform [0, 1] weights on a social graph put the average RRR set over
//! four fifths of the graph, and the sampler finishes the largest of them
//! with bottom-up sweeps. Keyed coins make the direction a set is walked in
//! invisible: the same sets, hence the same θ and the same greedy seeds,
//! whatever the kernel's switch decides. A change to the coins, to the set
//! a key reaches or to the θ schedule moves these numbers.

use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn dense_ic_run_keeps_its_theta_seeds_and_sets() {
    let mut rng = SmallRng::seed_from_u64(2026);
    let graph = CsrGraph::from_edge_list(&generators::social_network(600, 5, 0.3, &mut rng));
    let weights = EdgeWeights::ic_uniform(&graph, &mut rng);
    let mut params = ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade);
    params.rng_seed = 91;
    for threads in [1, 2] {
        let mut exec = ExecutionConfig::new(Algorithm::Efficient, threads);
        exec.retain_rrr_sets = true;
        let result = run_imm(&graph, &weights, &params, &exec).unwrap();
        let sets = result.rrr_sets.as_ref().expect("retained");
        let members: usize = sets.iter().map(|set| set.len()).sum();
        // Every set's sorted members, folded in set order.
        let mut fingerprint = 0u64;
        for set in sets.iter() {
            for v in set.iter() {
                fingerprint = fingerprint.wrapping_mul(1_000_003).wrapping_add(v as u64 + 1);
            }
            fingerprint = fingerprint.wrapping_mul(31).wrapping_add(7);
        }
        assert_eq!(result.theta, 783, "threads {threads}");
        assert_eq!(result.seeds, vec![120, 382, 575, 390, 597, 190, 227, 245], "threads {threads}");
        assert_eq!((sets.len(), members), (783, 374_619), "threads {threads}");
        assert_eq!(fingerprint, 0xca2d_ea44_1b29_a920, "threads {threads}");
    }
}
