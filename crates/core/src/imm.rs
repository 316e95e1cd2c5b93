//! The full IMM workflow (Algorithm 1 of the paper): the martingale sampling
//! phase that determines θ, followed by the final seed selection.
//!
//! Each θ step selects at most once on the whole sample so far, with the
//! lazy-greedy (CELF) session over the sample's postings
//! ([`select_seeds_celf_over`]), and only at a step whose convergence check
//! the selection could pass.
//!
//! That check is Algorithm 2's `n · F(S_i) ≥ (1 + ε′) · x_i` on the greedy
//! coverage `F(S_i) = covered / θ_i`. The run keeps, batch by batch, how
//! many sets of the sample contain each vertex ([`count_memberships`]), and
//! before it selects applies the check to `bound / θ_i`, where `bound` is
//! the sum of the k largest counts ([`coverage_bound`]). A seed covers at
//! most the sets containing it, so the k greedy seeds cover at most
//! `bound` sets; dividing by θ_i and multiplying by n are monotone in
//! floating point, so if the bound fails the check, the greedy coverage
//! fails it too. Such a step builds no postings and plays no CELF, and the
//! run's seeds, θ and coverage are the ones selecting at every step gives
//! (the Ripples baseline in `imm-bench` selects at every step).
//! The counts are also the degrees of the postings a selection builds
//! ([`Postings::build_with_degrees`]), which skips its own count pass.
//!
//! When the final top-up draws no set, the last step's selection is already
//! the one on the final sample and is returned as is.

use crate::math;
use crate::params::{ExecutionConfig, ImmParams};
use crate::sampling::{generate_rrr_sets_into, set_provenance, SamplingConfig};
use crate::selection::{coverage_bound, select_seeds_celf_over};
use crate::stats::RuntimeBreakdown;
use crate::NodeId;
use imm_graph::{CsrGraph, EdgeWeights};
use imm_rrr::{count_memberships, CoverageStats, Postings, RrrCollection, SetProvenance};
use std::time::Instant;

/// Errors returned by [`run_imm`].
#[derive(Debug, Clone, PartialEq)]
pub enum ImmError {
    /// The parameters do not fit the graph (k too large, ε out of range, …).
    InvalidParameters(String),
}

impl std::fmt::Display for ImmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImmError::InvalidParameters(msg) => write!(f, "invalid IMM parameters: {msg}"),
        }
    }
}

impl std::error::Error for ImmError {}

/// The outcome of one IMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmResult {
    /// The `k` selected seeds, most influential first.
    pub seeds: Vec<NodeId>,
    /// Estimated influence spread `n · F(S)` of the seed set.
    pub estimated_influence: f64,
    /// Fraction of RRR sets covered by the seed set.
    pub coverage_fraction: f64,
    /// Final number of RRR sets (θ) the guarantee was established with.
    pub theta: usize,
    /// Per-kernel timings, work profiles and memory accounting.
    pub breakdown: RuntimeBreakdown,
    /// RRR-set statistics (the paper's Table I columns).
    pub rrr_stats: CoverageStats,
    /// Number of worker threads used.
    pub threads: usize,
    /// The sampled RRR collection, kept only when
    /// [`ExecutionConfig::retain_rrr_sets`] is set — the input for building a
    /// reusable `imm-service` sketch index without resampling.
    pub rrr_sets: Option<RrrCollection>,
    /// Per-set sampling provenance aligned with `rrr_sets`, returned only
    /// when [`ExecutionConfig::trace_provenance`] is set — the input for
    /// building an *incrementally refreshable* `imm-service` index.
    pub provenance: Option<Vec<SetProvenance>>,
}

/// Run the complete IMM workflow on `graph` with the given parameters and
/// execution configuration.
///
/// The Ripples baseline (`imm_bench::ripples::run`) executes the same
/// statistical procedure (Tang et al.'s sampling/selection phases with
/// identical θ schedules and RNG streams) with its own kernels, and both
/// greedy selections break ties toward the smaller vertex id, so their
/// seeds, θ and coverage for the same input are identical.
pub fn run_imm(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    params: &ImmParams,
    exec: &ExecutionConfig,
) -> Result<ImmResult, ImmError> {
    params.validate(graph.num_nodes()).map_err(ImmError::InvalidParameters)?;

    let n = graph.num_nodes();
    let k = params.k;
    let ell = math::adjusted_ell(math::ELL, n);
    let epsilon = params.epsilon;

    let mut breakdown = RuntimeBreakdown::default();
    let schedule = exec.features.schedule();
    let config = SamplingConfig {
        model: params.model,
        rng_seed: params.rng_seed,
        policy: exec.features.representation_policy(),
        schedule,
        threads: exec.threads,
    };
    // The one draw step: top `sets` up to `target`, the new sets keyed from
    // index `sets.len()` on. Returns whether it drew any.
    let draw = |sets: &mut RrrCollection, target: usize, breakdown: &mut RuntimeBreakdown| {
        if target <= sets.len() {
            return false;
        }
        let start = sets.len();
        let t0 = Instant::now();
        let work = generate_rrr_sets_into(
            graph,
            weights,
            target - start,
            |job| start + job,
            &config,
            sets,
        );
        breakdown.timings.generate_rrrsets += t0.elapsed();
        breakdown.sampling_work.merge(&work);
        true
    };
    // How many of the first `counted` sets contain each vertex.
    let mut counts = vec![0u32; n];
    let mut counted = 0;
    // The one selection step, on the whole sample so far. At θ step `i`
    // (`check`), it is skipped (`None`) when the coverage bound already
    // fails the step's convergence check.
    let mut select =
        |sets: &RrrCollection, check: Option<usize>, breakdown: &mut RuntimeBreakdown| {
            let t0 = Instant::now();
            count_memberships(sets, counted, &mut counts)
                .expect("RRR set members lie inside the vertex space");
            counted = sets.len();
            let bound = coverage_bound(&counts, k) as f64 / sets.len().max(1) as f64;
            let selection = match check {
                Some(i) if !math::sampling_converged(n, bound, epsilon, i) => None,
                _ => {
                    let postings = Postings::build_with_degrees(sets, &counts)
                        .expect("RRR set members lie inside the vertex space");
                    Some(select_seeds_celf_over(&postings, k, exec.threads))
                }
            };
            breakdown.timings.find_most_influential += t0.elapsed();
            if let Some(selection) = &selection {
                breakdown.selection_work.merge(&selection.work);
                breakdown.selections += 1;
            }
            selection
        };

    let mut sets = RrrCollection::new(n);
    let mut lower_bound = 1.0f64;
    let mut converged = false;
    // The selection on the sample as it stands, if one was made.
    let mut selection = None;

    // Sampling phase: geometrically growing θ until the greedy solution on
    // the current sample certifies a lower bound on OPT.
    let iterations = math::sampling_iterations(n);
    for i in 1..=iterations {
        draw(&mut sets, math::theta_for_iteration(n, k, epsilon, ell, i), &mut breakdown);
        breakdown.sampling_iterations = i;

        selection = select(&sets, Some(i), &mut breakdown);
        if let Some(step) = selection.as_ref() {
            if math::sampling_converged(n, step.coverage_fraction, epsilon, i) {
                lower_bound = math::opt_lower_bound(n, step.coverage_fraction, epsilon);
                converged = true;
                break;
            }
        }
    }
    if !converged {
        // Fall back to the weakest admissible bound (OPT >= k for any graph
        // with at least k vertices reached by their own RRR sets).
        lower_bound = k as f64;
    }

    // Final phase: top up to θ = λ* / LB sets and select the final seeds.
    let t_other = Instant::now();
    let theta = math::final_theta(n, k, epsilon, ell, lower_bound);
    breakdown.timings.other += t_other.elapsed();

    let drew = draw(&mut sets, theta, &mut breakdown);
    let selection = match selection {
        Some(selection) if !drew => selection,
        _ => select(&sets, None, &mut breakdown).expect("an unchecked selection is always made"),
    };

    breakdown.rrr_sets_generated = sets.len();
    breakdown.rrr_memory_bytes = sets.memory_bytes();
    let rrr_stats = sets.coverage_stats();
    let provenance: Option<Vec<SetProvenance>> =
        exec.trace_provenance.then(|| set_provenance(params.rng_seed, 0..sets.len(), n));

    Ok(ImmResult {
        estimated_influence: n as f64 * selection.coverage_fraction,
        coverage_fraction: selection.coverage_fraction,
        seeds: selection.seeds,
        theta: sets.len(),
        breakdown,
        rrr_stats,
        threads: exec.threads,
        rrr_sets: exec.retain_rrr_sets.then_some(sets),
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use imm_diffusion::DiffusionModel;
    use imm_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_social_graph(n: usize, seed: u64) -> (CsrGraph, EdgeWeights) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = CsrGraph::from_edge_list(&generators::social_network(n, 6, 0.3, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        (g, w)
    }

    #[test]
    fn rejects_invalid_parameters() {
        let (g, w) = small_social_graph(100, 1);
        let params = ImmParams::new(1_000, 0.5, DiffusionModel::IndependentCascade);
        let exec = ExecutionConfig::new(Algorithm::Efficient, 1);
        assert!(matches!(run_imm(&g, &w, &params, &exec), Err(ImmError::InvalidParameters(_))));
    }

    #[test]
    fn returns_k_distinct_high_value_seeds() {
        let (g, w) = small_social_graph(400, 2);
        let params = ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade).with_seed(3);
        let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
        let result = run_imm(&g, &w, &params, &exec).unwrap();
        assert_eq!(result.seeds.len(), 8);
        let unique: std::collections::HashSet<_> = result.seeds.iter().collect();
        assert_eq!(unique.len(), 8, "seeds must be distinct on a graph this large");
        assert!(result.estimated_influence > 8.0, "seeds must reach beyond themselves");
        assert!(result.theta > 0);
        assert!(result.breakdown.rrr_sets_generated >= result.theta);
        assert!(result.coverage_fraction > 0.0 && result.coverage_fraction <= 1.0);
    }

    #[test]
    fn results_are_reproducible_across_thread_counts() {
        let (g, w) = small_social_graph(250, 5);
        let params = ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade).with_seed(21);
        let a = run_imm(&g, &w, &params, &ExecutionConfig::new(Algorithm::Efficient, 1)).unwrap();
        let b = run_imm(&g, &w, &params, &ExecutionConfig::new(Algorithm::Efficient, 4)).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.theta, b.theta);
    }

    #[test]
    fn linear_threshold_model_works_end_to_end() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = CsrGraph::from_edge_list(&generators::social_network(300, 6, 0.3, &mut rng));
        let w = EdgeWeights::lt_normalized(&g, &mut rng);
        let params = ImmParams::new(5, 0.5, DiffusionModel::LinearThreshold).with_seed(9);
        let exec = ExecutionConfig::new(Algorithm::Efficient, 2);
        let result = run_imm(&g, &w, &params, &exec).unwrap();
        assert_eq!(result.seeds.len(), 5);
        assert!(result.estimated_influence >= 5.0);
    }

    #[test]
    fn star_graph_selects_the_hub_first() {
        // Directed star (hub -> leaves) with certain activation: the hub's
        // RRR presence dominates, so it must be the first seed.
        let n = 60usize;
        let el = imm_graph::EdgeList::from_pairs(n, (1..n as u32).map(|i| (0u32, i)));
        let g = CsrGraph::from_edge_list(&el);
        let w = EdgeWeights::constant(&g, 1.0);
        let params = ImmParams::new(1, 0.5, DiffusionModel::IndependentCascade).with_seed(13);
        let result =
            run_imm(&g, &w, &params, &ExecutionConfig::new(Algorithm::Efficient, 2)).unwrap();
        assert_eq!(result.seeds, vec![0], "the hub must be the first seed");
        assert!((result.coverage_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn retained_collection_matches_the_run_and_is_off_by_default() {
        let (g, w) = small_social_graph(200, 9);
        let params = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade).with_seed(5);
        let retain = ExecutionConfig::new(Algorithm::Efficient, 2).with_retained_sets(true);
        let result = run_imm(&g, &w, &params, &retain).unwrap();
        let sets = result.rrr_sets.as_ref().expect("collection must be retained on opt-in");
        assert_eq!(sets.len(), result.theta);
        assert_eq!(sets.coverage_stats(), result.rrr_stats);
        assert!((sets.estimate_influence(&result.seeds) - result.estimated_influence).abs() < 1e-9);

        let drop_cfg = ExecutionConfig::new(Algorithm::Efficient, 2);
        assert!(run_imm(&g, &w, &params, &drop_cfg).unwrap().rrr_sets.is_none());
    }

    #[test]
    fn provenance_is_returned_on_opt_in_and_aligned_with_the_sets() {
        let (g, w) = small_social_graph(200, 10);
        let params = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade).with_seed(23);
        let exec = ExecutionConfig::new(Algorithm::Efficient, 2)
            .with_retained_sets(true)
            .with_provenance(true);
        let result = run_imm(&g, &w, &params, &exec).unwrap();
        let sets = result.rrr_sets.as_ref().expect("retained");
        let provenance = result.provenance.as_ref().expect("requested");
        assert_eq!(provenance.len(), sets.len());
        for (set, record) in sets.iter().zip(provenance) {
            assert!(set.contains(record.root), "each set contains its recorded root");
        }
        // Asking for provenance must not perturb the sample or the selection.
        let plain =
            run_imm(&g, &w, &params, &ExecutionConfig::new(Algorithm::Efficient, 2)).unwrap();
        assert_eq!(plain.seeds, result.seeds);
        assert_eq!(plain.theta, result.theta);
        assert!(plain.provenance.is_none(), "provenance is off by default");
    }

    #[test]
    fn breakdown_records_nonzero_activity() {
        let (g, w) = small_social_graph(200, 8);
        let params = ImmParams::new(3, 0.5, DiffusionModel::IndependentCascade).with_seed(17);
        let result =
            run_imm(&g, &w, &params, &ExecutionConfig::new(Algorithm::Efficient, 2)).unwrap();
        let b = &result.breakdown;
        assert!(b.sampling_iterations >= 1);
        assert!(b.sampling_work.total_ops() > 0);
        assert!(b.selection_work.total_ops() > 0);
        assert!(b.rrr_memory_bytes > 0);
        assert!(b.total_time().as_nanos() > 0);
        assert!(result.rrr_stats.count == result.theta);
        assert!(result.rrr_stats.avg_coverage > 0.0);
    }
}
