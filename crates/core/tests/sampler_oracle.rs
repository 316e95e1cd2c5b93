//! The keyed-coin sampler against two things it cannot see.
//!
//! * **Order independence.** A set is a function of its key and of the graph
//!   as a weighted edge *set*: storing every vertex's in-neighbours in a
//!   different order must leave every sampled set unchanged. (A sampler
//!   that consumed one RNG stream in scan order fails this at the first
//!   reordered vertex.)
//! * **Statistical validity** against the independent oracle: reverse
//!   sampling is correct iff `n · P(v ∈ RRR)` equals the forward spread
//!   `σ({v})` for every vertex `v`. The forward side is
//!   `imm_diffusion::monte_carlo_spread`, which shares no code and no
//!   randomness with the sampler. A coin function whose outputs are
//!   correlated across the edges of one set biases the reverse side and
//!   fails here.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use imm_diffusion::{monte_carlo_spread, DiffusionModel};
use imm_graph::{generators, CsrGraph, EdgeList, EdgeWeights, NodeId, WeightModel};
use imm_rrr::{AdaptivePolicy, RrrCollection};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn sample(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    count: usize,
) -> RrrCollection {
    let config = SamplingConfig {
        model,
        rng_seed: 2024,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 64 },
        threads: 2,
        fused_counter: None,
    };
    generate_rrr_sets(graph, weights, count, 0, &config).sets
}

fn fixture(model: DiffusionModel, nodes: usize, seed: u64) -> (CsrGraph, EdgeWeights) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = CsrGraph::from_edge_list(&generators::social_network(nodes, 5, 0.3, &mut rng));
    let weights = match model {
        DiffusionModel::IndependentCascade => EdgeWeights::ic_weighted_cascade(&graph),
        DiffusionModel::LinearThreshold => EdgeWeights::lt_normalized(&graph, &mut rng),
    };
    (graph, weights)
}

/// The same weighted graph with every in-neighbour list stored in a shuffled
/// order: the edge list is regrouped by destination (which is the order
/// `from_edge_list` fills the in-lists in), each group shuffled, and every
/// weight carried along with its edge.
fn with_permuted_in_lists(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    seed: u64,
) -> (CsrGraph, EdgeWeights) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId, f32)> = Vec::with_capacity(graph.num_edges());
    for v in 0..graph.num_nodes() as NodeId {
        let mut group: Vec<(NodeId, NodeId, f32)> = graph
            .in_neighbors(v)
            .iter()
            .zip(weights.in_weights(graph, v))
            .map(|(&u, &w)| (u, v, w))
            .collect();
        group.shuffle(&mut rng);
        edges.extend(group);
    }
    let edge_list = EdgeList::from_pairs(graph.num_nodes(), edges.iter().map(|&(u, v, _)| (u, v)));
    let emitted: Vec<f32> = edges.iter().map(|&(_, _, w)| w).collect();
    let (permuted, in_slot_weights) = CsrGraph::from_edge_list_with(&edge_list, &emitted);
    let in_slot_edges: Vec<(NodeId, NodeId)> = permuted.edges().collect();
    let emitted_edges: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    assert_eq!(in_slot_edges, emitted_edges, "in-lists are filled in edge-list order");
    let weights = EdgeWeights::from_vec(&permuted, in_slot_weights, weights.model()).unwrap();
    (permuted, weights)
}

#[test]
fn permuting_in_neighbour_lists_leaves_every_set_unchanged() {
    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let (graph, weights) = fixture(model, 250, 31);
        let (permuted, permuted_weights) = with_permuted_in_lists(&graph, &weights, 7);
        let moved = (0..graph.num_nodes() as NodeId)
            .filter(|&v| graph.in_neighbors(v) != permuted.in_neighbors(v))
            .count();
        assert!(moved > 100, "the permutation must actually reorder in-lists ({moved} moved)");
        let before = sample(&graph, &weights, model, 2_000);
        let after = sample(&permuted, &permuted_weights, model, 2_000);
        assert_eq!(before, after, "{model:?}: a set depends on in-neighbour storage order");
    }
}

/// Parallel copies of one edge share a coin, so under IC they sample exactly
/// like the single edge of their largest weight.
#[test]
fn parallel_copies_sample_like_their_heaviest_copy_under_ic() {
    let doubled = CsrGraph::from_edges(3, vec![(0, 2), (0, 2), (1, 2)]).unwrap();
    let single = CsrGraph::from_edges(3, vec![(0, 2), (1, 2)]).unwrap();
    // Every edge enters vertex 2, so in-slot order is edge-list order.
    let doubled_w = vec![0.2, 0.6, 0.3];
    let single_w = vec![0.6, 0.3];
    let doubled_w = EdgeWeights::from_vec(&doubled, doubled_w, WeightModel::Constant).unwrap();
    let single_w = EdgeWeights::from_vec(&single, single_w, WeightModel::Constant).unwrap();
    let model = DiffusionModel::IndependentCascade;
    assert_eq!(sample(&doubled, &doubled_w, model, 500), sample(&single, &single_w, model, 500));
}

/// `n · P(v ∈ RRR)` against `σ({v})`, vertex by vertex, as z-scores over the
/// two estimates' combined standard error.
///
/// 600 comparisons cannot all be asked to sit inside 3σ: under a perfect
/// sampler one or two fall outside by chance (the largest of 300 z-scores
/// read 2.3–4.1 over six seed choices while this test was written). What a
/// correct sampler does guarantee, and a biased one breaks: at most 1 % of
/// the vertices outside 3σ, none outside 4.5σ, no common sign (|mean z|
/// small) and unit spread (mean z² near 1).
#[test]
fn inclusion_frequencies_agree_with_forward_simulation_for_every_vertex() {
    const NODES: usize = 300;
    const SETS: usize = 20_000;
    const TRIALS: usize = 4_000;
    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let (graph, weights) = fixture(model, NODES, 77);
        let sets = sample(&graph, &weights, model, SETS);
        let mut hits = vec![0usize; NODES];
        for set in sets.iter() {
            set.for_each(|v| hits[v as usize] += 1);
        }
        let mut z_scores = Vec::with_capacity(NODES);
        for v in 0..NODES as NodeId {
            let p = hits[v as usize] as f64 / SETS as f64;
            let reverse = NODES as f64 * p;
            let reverse_var = (NODES * NODES) as f64 * p * (1.0 - p) / SETS as f64;
            // Seeds 2^32 apart: `monte_carlo_spread` seeds trial `t` with
            // `seed + t`, so nearby seeds would share almost every cascade
            // and tie all 300 forward errors together.
            let forward =
                monte_carlo_spread(&graph, &weights, model, &[v], TRIALS, (v as u64) << 32);
            let forward_var = forward.std_dev * forward.std_dev / TRIALS as f64;
            let z = (reverse - forward.mean) / (reverse_var + forward_var).sqrt();
            assert!(
                z.abs() < 4.5,
                "{model:?}, vertex {v}: n·P(v ∈ RRR) = {reverse:.3} but σ({{v}}) = {:.3} ({z:.2}σ)",
                forward.mean
            );
            z_scores.push(z);
        }
        let outside = z_scores.iter().filter(|z| z.abs() > 3.0).count();
        let mean = z_scores.iter().sum::<f64>() / NODES as f64;
        let mean_square = z_scores.iter().map(|z| z * z).sum::<f64>() / NODES as f64;
        eprintln!("{model:?}: {outside} outside 3σ, mean z {mean:.3}, mean z² {mean_square:.3}");
        assert!(outside <= NODES / 100, "{model:?}: {outside} of {NODES} vertices outside 3σ");
        assert!(mean.abs() < 0.5, "{model:?}: the estimates lean one way (mean z {mean:.3})");
        assert!(mean_square < 1.3, "{model:?}: mean z² {mean_square:.3} is not unit spread");
    }
}
