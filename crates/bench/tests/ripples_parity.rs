//! The Ripples baseline and `run_imm` draw the same sets and break greedy
//! ties the same way, so on the same input they end on the same seeds, θ
//! and coverage bits — while the baseline selects at every θ step and
//! `run_imm` skips the steps its coverage bound rules out.

use efficient_imm::{math, run_imm, Algorithm, ExecutionConfig, ImmParams, ImmResult};
use imm_bench::ripples::{self, select_seeds_ripples};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeList, EdgeWeights};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn assert_same_answer(ripples: &ImmResult, efficient: &ImmResult, what: &str) {
    assert_eq!(ripples.seeds, efficient.seeds, "{what}");
    assert_eq!(ripples.theta, efficient.theta, "{what}");
    assert_eq!(
        ripples.coverage_fraction.to_bits(),
        efficient.coverage_fraction.to_bits(),
        "{what}"
    );
}

#[test]
fn both_engines_find_the_same_seeds_under_ic() {
    let mut rng = SmallRng::seed_from_u64(4);
    let g = CsrGraph::from_edge_list(&generators::social_network(300, 6, 0.3, &mut rng));
    let w = EdgeWeights::ic_weighted_cascade(&g);
    let params = ImmParams::new(5, 0.5, DiffusionModel::IndependentCascade).with_seed(11);
    let efficient =
        run_imm(&g, &w, &params, &ExecutionConfig::new(Algorithm::Efficient, 2)).unwrap();
    assert_same_answer(&ripples::run(&g, &w, &params, 2), &efficient, "ic");
}

#[test]
fn both_engines_agree_on_lt_across_several_martingale_iterations() {
    // Sparse LT sets on a graph this size need several doublings of θ. The
    // baseline selects at each one (and after the final top-up if it draws);
    // `run_imm` skips some, yet both end on the same answer, which is also
    // the baseline kernel's on `run_imm`'s final sets.
    let (n, k) = (3000, 10);
    let mut rng = SmallRng::seed_from_u64(8);
    let g = CsrGraph::from_edge_list(&generators::social_network(n, 6, 0.3, &mut rng));
    let w = EdgeWeights::lt_normalized(&g, &mut rng);
    let params = ImmParams::new(k, 0.5, DiffusionModel::LinearThreshold).with_seed(17);
    for threads in [1, 2, 3] {
        let exec = ExecutionConfig::new(Algorithm::Efficient, threads).with_retained_sets(true);
        let efficient = run_imm(&g, &w, &params, &exec).unwrap();
        let sets = efficient.rrr_sets.as_ref().expect("retained");
        let eager = select_seeds_ripples(sets, k, threads);
        assert_eq!(efficient.seeds, eager.seeds, "threads {threads}");
        assert_eq!(efficient.coverage_fraction.to_bits(), eager.coverage_fraction.to_bits());

        let ripples = ripples::run(&g, &w, &params, threads);
        assert_same_answer(&ripples, &efficient, &format!("threads {threads}"));
        let (r, e) = (&ripples.breakdown, &efficient.breakdown);
        let steps = r.sampling_iterations;
        assert!(steps >= 3);
        assert_eq!(steps, e.sampling_iterations);
        let ell = math::adjusted_ell(math::ELL, n);
        let drew = ripples.theta > math::theta_for_iteration(n, k, 0.5, ell, steps);
        assert_eq!(r.selections, steps + usize::from(drew), "one per step and top-up");
        assert!(e.selections < r.selections, "the bound skips a step");
    }
}

#[test]
fn star_graph_selects_the_hub_first() {
    // Directed star (hub -> leaves) with certain activation: the hub's RRR
    // presence dominates, so it must be the first seed.
    let n = 60usize;
    let g = CsrGraph::from_edge_list(&EdgeList::from_pairs(n, (1..n as u32).map(|i| (0u32, i))));
    let w = EdgeWeights::constant(&g, 1.0);
    let params = ImmParams::new(1, 0.5, DiffusionModel::IndependentCascade).with_seed(13);
    let result = ripples::run(&g, &w, &params, 2);
    assert_eq!(result.seeds, vec![0], "the baseline must select the hub");
    assert!((result.coverage_fraction - 1.0).abs() < 1e-9);
}
