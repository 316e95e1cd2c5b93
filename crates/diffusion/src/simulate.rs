//! Forward cascade simulation and Monte-Carlo spread estimation.

use crate::model::DiffusionModel;
use imm_graph::{CsrGraph, EdgeWeights, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Result of a Monte-Carlo spread estimation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SpreadEstimate {
    /// Mean number of activated vertices (including the seeds).
    pub mean: f64,
    /// Sample standard deviation of the activation count.
    pub std_dev: f64,
    /// Number of simulated cascades.
    pub trials: usize,
}

impl SpreadEstimate {
    /// Half-width of an approximate 95 % confidence interval on the mean.
    pub fn confidence_95(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        1.96 * self.std_dev / (self.trials as f64).sqrt()
    }
}

/// The out-edges a forward cascade walks: the transpose of the graph, whose
/// in-list of `u` is `u`'s out-list, and the weights in its slot order.
struct Forward {
    graph: CsrGraph,
    weights: Vec<f32>,
}

impl Forward {
    fn new(graph: &CsrGraph, weights: &EdgeWeights) -> Self {
        let (transposed, slots) = graph.transpose_with_slots();
        let weights = slots.iter().map(|&slot| weights.as_slice()[slot]).collect();
        Forward { graph: transposed, weights }
    }

    /// `u`'s out-edges as `(target, weight)`: targets ascending, parallel
    /// copies in scan order.
    #[inline]
    fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        let targets = self.graph.in_neighbors(u).iter().copied();
        targets.zip(self.weights[self.graph.in_slots(u)].iter().copied())
    }
}

/// Simulate one Independent Cascade from `seeds`; returns the number of
/// activated vertices.
///
/// Each newly activated vertex gets exactly one chance to activate each
/// currently inactive out-neighbor, succeeding with the edge's probability.
pub fn simulate_ic<R: Rng + ?Sized>(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    seeds: &[NodeId],
    rng: &mut R,
) -> usize {
    ic_cascade(&Forward::new(graph, weights), seeds, rng)
}

fn ic_cascade<R: Rng + ?Sized>(forward: &Forward, seeds: &[NodeId], rng: &mut R) -> usize {
    let n = forward.graph.num_nodes();
    let mut active = vec![false; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut count = 0usize;

    for &s in seeds {
        let si = s as usize;
        if si < n && !active[si] {
            active[si] = true;
            count += 1;
            queue.push_back(s);
        }
    }

    while let Some(u) = queue.pop_front() {
        for (v, w) in forward.out_edges(u) {
            let vi = v as usize;
            if !active[vi] && rng.gen::<f32>() < w {
                active[vi] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count
}

/// Simulate one Linear Threshold cascade from `seeds`; returns the number of
/// activated vertices.
///
/// Every vertex draws a threshold uniformly from `[0, 1]`; a vertex activates
/// once the summed weight of its activated in-neighbors reaches the
/// threshold. The per-vertex accumulated weight is updated incrementally as
/// activations propagate.
pub fn simulate_lt<R: Rng + ?Sized>(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    seeds: &[NodeId],
    rng: &mut R,
) -> usize {
    lt_cascade(&Forward::new(graph, weights), seeds, rng)
}

fn lt_cascade<R: Rng + ?Sized>(forward: &Forward, seeds: &[NodeId], rng: &mut R) -> usize {
    let n = forward.graph.num_nodes();
    let mut active = vec![false; n];
    let mut accumulated = vec![0.0f32; n];
    let mut threshold = vec![0.0f32; n];
    for t in threshold.iter_mut() {
        *t = rng.gen::<f32>();
    }

    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut count = 0usize;
    for &s in seeds {
        let si = s as usize;
        if si < n && !active[si] {
            active[si] = true;
            count += 1;
            queue.push_back(s);
        }
    }

    while let Some(u) = queue.pop_front() {
        for (v, w) in forward.out_edges(u) {
            let vi = v as usize;
            if active[vi] {
                continue;
            }
            accumulated[vi] += w;
            if accumulated[vi] >= threshold[vi] {
                active[vi] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count
}

/// Simulate one cascade under `model`.
pub fn simulate_spread<R: Rng + ?Sized>(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    seeds: &[NodeId],
    rng: &mut R,
) -> usize {
    cascade(&Forward::new(graph, weights), model, seeds, rng)
}

fn cascade<R: Rng + ?Sized>(
    forward: &Forward,
    model: DiffusionModel,
    seeds: &[NodeId],
    rng: &mut R,
) -> usize {
    match model {
        DiffusionModel::IndependentCascade => ic_cascade(forward, seeds, rng),
        DiffusionModel::LinearThreshold => lt_cascade(forward, seeds, rng),
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijection on `u64` with full avalanche.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of trial `t` under `seed`: output `t + 1` of the SplitMix64
/// stream rooted at the mixed `seed`. Nearby seeds root unrelated streams,
/// so no two seeds share a run of trials.
fn trial_seed(seed: u64, t: usize) -> u64 {
    mix(mix(seed).wrapping_add(GOLDEN.wrapping_mul(t as u64 + 1)))
}

/// Monte-Carlo estimate of `σ(seeds)`: the mean activation count over
/// `trials` independent cascades, simulated one after another on the calling
/// thread over one transpose of the graph. Deterministic for a fixed `seed`:
/// each trial derives its own RNG from a full mix of `seed` and the trial
/// index.
pub fn monte_carlo_spread(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    seeds: &[NodeId],
    trials: usize,
    seed: u64,
) -> SpreadEstimate {
    if trials == 0 {
        return SpreadEstimate { mean: 0.0, std_dev: 0.0, trials: 0 };
    }
    let forward = Forward::new(graph, weights);
    let counts: Vec<usize> = (0..trials)
        .map(|t| cascade(&forward, model, seeds, &mut SmallRng::seed_from_u64(trial_seed(seed, t))))
        .collect();

    let mean = counts.iter().sum::<usize>() as f64 / trials as f64;
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / (trials.max(2) - 1) as f64;
    SpreadEstimate { mean, std_dev: var.sqrt(), trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_graph::generators;
    use imm_graph::WeightModel;

    fn star_graph(n: usize) -> (CsrGraph, EdgeWeights) {
        let g = CsrGraph::from_edge_list(&generators::star(n));
        let w = EdgeWeights::constant(&g, 1.0);
        (g, w)
    }

    #[test]
    fn ic_with_probability_one_activates_reachable_set() {
        let (g, w) = star_graph(10);
        let mut rng = SmallRng::seed_from_u64(1);
        // Seeding the hub reaches everything.
        assert_eq!(simulate_ic(&g, &w, &[0], &mut rng), 10);
        // Seeding a leaf reaches the leaf, the hub, and then everything.
        assert_eq!(simulate_ic(&g, &w, &[3], &mut rng), 10);
    }

    #[test]
    fn ic_with_probability_zero_activates_only_seeds() {
        let g = CsrGraph::from_edge_list(&generators::star(10));
        let w = EdgeWeights::constant(&g, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(simulate_ic(&g, &w, &[0, 5], &mut rng), 2);
    }

    #[test]
    fn duplicate_and_out_of_range_seeds_are_handled() {
        let (g, w) = star_graph(5);
        let mut rng = SmallRng::seed_from_u64(3);
        let spread = simulate_ic(&g, &w, &[1, 1, 1], &mut rng);
        assert_eq!(spread, 5);
        // An out-of-range seed is ignored rather than panicking.
        let spread = simulate_ic(&g, &w, &[100], &mut rng);
        assert_eq!(spread, 0);
    }

    #[test]
    fn lt_with_full_weight_activates_chain() {
        // Path 0 -> 1 -> 2 -> 3 with weight 1.0: every threshold <= 1 is met.
        let g = CsrGraph::from_edge_list(&generators::path(4));
        let w = EdgeWeights::constant(&g, 1.0);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(simulate_lt(&g, &w, &[0], &mut rng), 4);
    }

    #[test]
    fn lt_with_zero_weight_activates_only_seeds() {
        let g = CsrGraph::from_edge_list(&generators::path(4));
        let w = EdgeWeights::constant(&g, 0.0);
        let mut rng = SmallRng::seed_from_u64(5);
        // Thresholds are drawn from (0,1) so zero accumulated weight can
        // never reach them (probability of an exactly-zero threshold is 0).
        let spread = simulate_lt(&g, &w, &[0], &mut rng);
        assert!(spread <= 2, "got {spread}");
        assert!(spread >= 1);
    }

    #[test]
    fn empty_seed_set_spreads_nothing() {
        let (g, w) = star_graph(6);
        let mut rng = SmallRng::seed_from_u64(6);
        assert_eq!(simulate_ic(&g, &w, &[], &mut rng), 0);
        assert_eq!(simulate_lt(&g, &w, &[], &mut rng), 0);
    }

    #[test]
    fn monte_carlo_mean_matches_analytic_two_node_case() {
        // Single edge 0 -> 1 with p = 0.3: E[spread from {0}] = 1 + 0.3.
        let g = CsrGraph::from_edges(2, vec![(0, 1)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![0.3], WeightModel::Constant).unwrap();
        let est = monte_carlo_spread(&g, &w, DiffusionModel::IndependentCascade, &[0], 20_000, 42);
        assert!((est.mean - 1.3).abs() < 0.02, "mean {}", est.mean);
        assert!(est.confidence_95() < 0.01);
    }

    #[test]
    fn monte_carlo_is_deterministic_for_a_seed() {
        let g = CsrGraph::from_edge_list(&generators::cycle(20));
        let w = EdgeWeights::constant(&g, 0.5);
        let a = monte_carlo_spread(&g, &w, DiffusionModel::IndependentCascade, &[0], 500, 7);
        let b = monte_carlo_spread(&g, &w, DiffusionModel::IndependentCascade, &[0], 500, 7);
        assert_eq!(a, b);
    }

    /// Nearby seeds draw unrelated trials: seed `s + 1`'s cascades are not
    /// seed `s`'s shifted by one, which would tie their estimates together.
    #[test]
    fn nearby_seeds_do_not_share_trials() {
        let g = CsrGraph::from_edge_list(&generators::star(40));
        let w = EdgeWeights::constant(&g, 0.5);
        // Trial `t`'s activation count, out of the means over 0..=trials.
        let counts = |seed: u64, trials: usize| -> Vec<i64> {
            let model = DiffusionModel::IndependentCascade;
            let sums: Vec<f64> = (0..=trials)
                .map(|t| monte_carlo_spread(&g, &w, model, &[0], t, seed).mean * t as f64)
                .collect();
            sums.windows(2).map(|pair| (pair[1] - pair[0]).round() as i64).collect()
        };
        for seed in [0, 7, 1 << 32] {
            let (next, this) = (counts(seed + 1, 12), counts(seed, 13));
            assert!(this.iter().any(|&c| c != this[0]), "seed {seed}: the cascades vary");
            assert_ne!(next[..], this[1..], "seed {seed}");
        }
    }

    #[test]
    fn monte_carlo_zero_trials() {
        let (g, w) = star_graph(4);
        let est = monte_carlo_spread(&g, &w, DiffusionModel::LinearThreshold, &[0], 0, 1);
        assert_eq!(est.trials, 0);
        assert_eq!(est.mean, 0.0);
    }

    #[test]
    fn seeding_the_hub_beats_seeding_a_leaf_on_average() {
        // Hub-and-spoke with moderate probability: the hub must have higher
        // spread than any single leaf under IC with directed hub->leaf edges
        // only.
        let n = 50usize;
        let el = imm_graph::EdgeList::from_pairs(n, (1..n as u32).map(|i| (0u32, i)));
        let g = CsrGraph::from_edge_list(&el);
        let w = EdgeWeights::constant(&g, 0.5);
        let hub = monte_carlo_spread(&g, &w, DiffusionModel::IndependentCascade, &[0], 2_000, 11);
        let leaf = monte_carlo_spread(&g, &w, DiffusionModel::IndependentCascade, &[1], 2_000, 11);
        assert!(hub.mean > 10.0 * leaf.mean, "hub {} leaf {}", hub.mean, leaf.mean);
    }

    #[test]
    fn lt_respects_in_weight_normalization() {
        // A vertex with two in-edges of weight 0.5 each: once both neighbors
        // are active it must activate (accumulated = 1.0 >= any threshold).
        let g = CsrGraph::from_edges(3, vec![(0, 2), (1, 2)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![0.5, 0.5], WeightModel::LtNormalized).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..20 {
            assert_eq!(simulate_lt(&g, &w, &[0, 1], &mut rng), 3);
        }
    }
}
