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
use efficient_imm::metrics::BOTTOM_UP_SWEEPS;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig, SetKey};
use imm_diffusion::{monte_carlo_spread, DiffusionModel};
use imm_graph::{generators, CsrGraph, EdgeList, EdgeWeights, NodeId, WeightModel};
use imm_rrr::{AdaptivePolicy, RrrCollection};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Mutex;

/// The sample seed every test here draws its sets under.
const SEED: u64 = 2024;

fn sample(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    count: usize,
) -> RrrCollection {
    let config = SamplingConfig {
        model,
        rng_seed: SEED,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 64 },
        threads: 2,
    };
    generate_rrr_sets(graph, weights, count, |i| i, &config).sets
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
/// two estimates' combined standard error. `inclusion` holds, per vertex
/// checked, how many of how many sets held it.
///
/// 600 comparisons cannot all be asked to sit inside 3σ: under a perfect
/// sampler one or two fall outside by chance (the largest of 300 z-scores
/// read 2.3–4.1 over six seed choices while this test was written). What a
/// correct sampler does guarantee, and a biased one breaks: at most 1 % of
/// the vertices outside 3σ, none outside 4.5σ, no common sign (|mean z|
/// small) and unit spread (mean z² near 1).
fn assert_inclusion_agrees_with_forward_simulation(
    label: &str,
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    trials: usize,
    inclusion: &[(NodeId, usize, usize)],
) {
    let nodes = graph.num_nodes();
    let mut z_scores = Vec::with_capacity(inclusion.len());
    for &(v, hits, sets) in inclusion {
        let p = hits as f64 / sets as f64;
        let reverse = nodes as f64 * p;
        let reverse_var = (nodes * nodes) as f64 * p * (1.0 - p) / sets as f64;
        // One seed per vertex. `monte_carlo_spread` keys trial `t` with a
        // full mix of `(seed, t)`, so even nearby seeds share no cascade and
        // the forward errors stay independent; these are kept 2^32 apart.
        let forward = monte_carlo_spread(graph, weights, model, &[v], trials, (v as u64) << 32);
        let forward_var = forward.std_dev * forward.std_dev / trials as f64;
        let z = (reverse - forward.mean) / (reverse_var + forward_var).sqrt();
        assert!(
            z.abs() < 4.5,
            "{label}, vertex {v}: n·P(v ∈ RRR) = {reverse:.3} but σ({{v}}) = {:.3} ({z:.2}σ)",
            forward.mean
        );
        z_scores.push(z);
    }
    let checked = z_scores.len();
    let outside = z_scores.iter().filter(|z| z.abs() > 3.0).count();
    let mean = z_scores.iter().sum::<f64>() / checked as f64;
    let mean_square = z_scores.iter().map(|z| z * z).sum::<f64>() / checked as f64;
    eprintln!("{label}: {outside} outside 3σ, mean z {mean:.3}, mean z² {mean_square:.3}");
    assert!(outside <= checked / 100, "{label}: {outside} of {checked} vertices outside 3σ");
    assert!(mean.abs() < 0.5, "{label}: the estimates lean one way (mean z {mean:.3})");
    assert!(mean_square < 1.3, "{label}: mean z² {mean_square:.3} is not unit spread");
}

#[test]
fn inclusion_frequencies_agree_with_forward_simulation_for_every_vertex() {
    const NODES: usize = 300;
    const SETS: usize = 20_000;
    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let (graph, weights) = fixture(model, NODES, 77);
        let sets = sample(&graph, &weights, model, SETS);
        let mut hits = vec![0usize; NODES];
        for set in sets.iter() {
            set.for_each(|v| hits[v as usize] += 1);
        }
        let inclusion: Vec<_> = (0..NODES as NodeId).map(|v| (v, hits[v as usize], SETS)).collect();
        let label = format!("{model:?}");
        assert_inclusion_agrees_with_forward_simulation(
            &label, &graph, &weights, model, 4_000, &inclusion,
        );
    }
}

/// Dense IC inputs, whose sets cross the sampler's switch to bottom-up
/// sweeps: uniform [0, 1] weights (sets over most of the graph) and a
/// constant 0.1 on a denser graph (sets from a few vertices to most of it).
fn dense_fixtures() -> Vec<(&'static str, CsrGraph, EdgeWeights)> {
    let mut rng = SmallRng::seed_from_u64(41);
    let mut social = |avg_degree| {
        CsrGraph::from_edge_list(&generators::social_network(300, avg_degree, 0.3, &mut rng))
    };
    let (social, denser) = (social(5), social(20));
    let uniform = EdgeWeights::ic_uniform(&social, &mut rng);
    let constant = EdgeWeights::constant(&denser, 0.1);
    vec![("uniform", social, uniform), ("constant 0.1", denser, constant)]
}

/// The set of `key` by the textbook algorithm: a top-down reverse BFS from
/// the root over the keyed coins, members sorted.
fn top_down_ic_set(graph: &CsrGraph, weights: &EdgeWeights, key: SetKey) -> Vec<NodeId> {
    let root = key.root(graph.num_nodes());
    let mut member = vec![false; graph.num_nodes()];
    member[root as usize] = true;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for (&u, &w) in graph.in_neighbors(v).iter().zip(weights.in_weights(graph, v)) {
            if !member[u as usize] && key.ic_edge_is_live(u, v, w) {
                member[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    (0..graph.num_nodes() as NodeId).filter(|&v| member[v as usize]).collect()
}

/// Tests that read `core_rrr_bottom_up_sweeps` hold this, so the sweeps they
/// count are their own (no other test in this file reaches the switch).
static SWEEP_COUNTER: Mutex<()> = Mutex::new(());

#[test]
fn dense_sets_equal_a_plain_top_down_bfs_and_take_the_bottom_up_path() {
    let _counting = SWEEP_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (label, graph, weights) in dense_fixtures() {
        let swept_before = BOTTOM_UP_SWEEPS.value();
        let sets = sample(&graph, &weights, DiffusionModel::IndependentCascade, 400);
        let sweeps = BOTTOM_UP_SWEEPS.value() - swept_before;
        let mut members = 0;
        for (i, set) in sets.iter().enumerate() {
            let expected = top_down_ic_set(&graph, &weights, SetKey::new(SEED, i));
            assert_eq!(set.to_vec(), expected, "{label}: set {i}");
            members += expected.len();
        }
        eprintln!("{label}: mean set {:.1}, {sweeps} bottom-up sweeps", members as f64 / 400.0);
        assert!(sweeps > 0, "{label}: no set took the bottom-up path");
    }
}

#[test]
fn permuting_in_neighbour_lists_leaves_every_dense_set_unchanged() {
    let _counting = SWEEP_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (label, graph, weights) in dense_fixtures() {
        let (permuted, permuted_weights) = with_permuted_in_lists(&graph, &weights, 9);
        let model = DiffusionModel::IndependentCascade;
        let before = sample(&graph, &weights, model, 400);
        let after = sample(&permuted, &permuted_weights, model, 400);
        assert_eq!(before, after, "{label}: a set depends on in-neighbour storage order");
    }
}

/// On dense sets one sample cannot serve every vertex: whether a set is
/// giant is shared by all its members, so their estimates err together and
/// the mean z-score drifts with the sample. Each vertex checked here counts
/// its own disjoint batch of sets instead, so the z-scores are independent
/// again.
#[test]
fn dense_inclusion_frequencies_agree_with_forward_simulation() {
    const BATCH: usize = 2_000;
    let _counting = SWEEP_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (label, graph, weights) = dense_fixtures().swap_remove(0);
    // Every third vertex: a dense cascade walks most of the graph, so the
    // forward side is the expensive one.
    let vertices: Vec<NodeId> = (0..graph.num_nodes() as NodeId).step_by(3).collect();
    let model = DiffusionModel::IndependentCascade;
    let sets = sample(&graph, &weights, model, vertices.len() * BATCH);
    let inclusion: Vec<_> = vertices
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            let batch = (j * BATCH..(j + 1) * BATCH).filter(|&i| sets.get(i).contains(v));
            (v, batch.count(), BATCH)
        })
        .collect();
    assert_inclusion_agrees_with_forward_simulation(
        label, &graph, &weights, model, 1_000, &inclusion,
    );
}

/// Draws `count` IC sets at 1 and at 3 workers and holds every one to the
/// plain BFS's set of its key. Returns the bottom-up sweeps of the draws;
/// callers hold [`SWEEP_COUNTER`].
fn assert_sets_are_the_plain_bfs(
    label: &str,
    graph: &CsrGraph,
    weights: &EdgeWeights,
    count: usize,
) -> u64 {
    let swept_before = BOTTOM_UP_SWEEPS.value();
    for threads in [1, 3] {
        let config = SamplingConfig {
            model: DiffusionModel::IndependentCascade,
            rng_seed: SEED,
            policy: AdaptivePolicy::default(),
            schedule: Schedule::Dynamic { chunk: 16 },
            threads,
        };
        let sets = generate_rrr_sets(graph, weights, count, |i| i, &config).sets;
        for (i, set) in sets.iter().enumerate() {
            let expected = top_down_ic_set(graph, weights, SetKey::new(SEED, i));
            assert_eq!(set.to_vec(), expected, "{label}, {threads} threads: set {i}");
        }
    }
    BOTTOM_UP_SWEEPS.value() - swept_before
}

/// A weighted graph from `(source, target, weight)` triples.
fn weighted(nodes: usize, edges: &[(NodeId, NodeId, f32)]) -> (CsrGraph, EdgeWeights) {
    let edge_list = EdgeList::from_pairs(nodes, edges.iter().map(|&(u, v, _)| (u, v)));
    let emitted: Vec<f32> = edges.iter().map(|&(_, _, w)| w).collect();
    let (graph, in_slot_weights) = CsrGraph::from_edge_list_with(&edge_list, &emitted);
    let weights = EdgeWeights::from_vec(&graph, in_slot_weights, WeightModel::Constant).unwrap();
    (graph, weights)
}

/// The edges of a 300-node degree-8 social graph, each weighed by `weigh`.
fn social_edges(
    seed: u64,
    mut weigh: impl FnMut(&mut SmallRng) -> f32,
) -> Vec<(NodeId, NodeId, f32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edge_list = generators::social_network(300, 8, 0.3, &mut rng);
    edge_list.iter().map(|(u, v)| (u, v, weigh(&mut rng))).collect()
}

/// Parallel copies of an edge share one coin and a self-loop never joins
/// anything, in either direction of the kernel.
#[test]
fn parallel_copies_and_self_loops_match_the_plain_bfs() {
    let _counting = SWEEP_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut edges = social_edges(43, |rng| rng.gen::<f32>());
    let mut rng = SmallRng::seed_from_u64(44);
    let copies: Vec<_> =
        edges.iter().step_by(3).map(|&(u, v, _)| (u, v, rng.gen::<f32>())).collect();
    edges.extend(copies);
    edges.extend((0..300).step_by(5).map(|v| (v, v, rng.gen::<f32>())));
    let (graph, weights) = weighted(300, &edges);
    let sweeps = assert_sets_are_the_plain_bfs("copies and loops", &graph, &weights, 300);
    assert!(sweeps > 0, "no set took the bottom-up path");
}

/// A weight of exactly 0 is never live and one of exactly 1 always is.
#[test]
fn weights_of_exactly_zero_and_one_match_the_plain_bfs() {
    let _counting = SWEEP_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let edges = social_edges(45, |rng| match rng.gen_range(0..4) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen::<f32>(),
    });
    let (graph, weights) = weighted(300, &edges);
    let sweeps = assert_sets_are_the_plain_bfs("weights 0 and 1", &graph, &weights, 300);
    assert!(sweeps > 0, "no set took the bottom-up path");
}

/// A bottom-up sweep tests out-edges four at a time. Here every vertex
/// outside a 40-vertex core of certain edges has 7 or 8 out-edges into the
/// core, ascending (the order the out-side lists them in), and at most one
/// is live: at position 0, 3, 4 or 7 (6 for the 7-edge lists, the last one
/// past the last full quad), or none.
#[test]
fn first_live_out_edge_at_every_quad_position_matches_the_plain_bfs() {
    const CORE: NodeId = 40;
    let _counting = SWEEP_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut edges: Vec<(NodeId, NodeId, f32)> = (0..CORE)
        .flat_map(|u| (0..CORE).filter(move |&v| v != u).map(move |v| (u, v, 1.0)))
        .collect();
    for (j, u) in (CORE..CORE + 30).enumerate() {
        let degree = 8 - j % 2;
        let live = [Some(0), Some(3), Some(4), Some(degree - 1), None][j / 2 % 5];
        let mut targets: Vec<NodeId> = (0..degree).map(|i| (j + 5 * i) as NodeId % CORE).collect();
        targets.sort_unstable();
        for (at, v) in targets.into_iter().enumerate() {
            edges.push((u, v, if live == Some(at) { 1.0 } else { 0.0 }));
        }
    }
    let (graph, weights) = weighted(CORE as usize + 30, &edges);
    let sweeps = assert_sets_are_the_plain_bfs("quad positions", &graph, &weights, 200);
    assert!(sweeps > 0, "no set took the bottom-up path");
}

/// Mid densities: a live coin is common enough that some top-down levels
/// join an eighth of what they probe, and rare enough that others do not.
#[test]
fn mid_density_constants_match_the_plain_bfs() {
    let _counting = SWEEP_COUNTER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut rng = SmallRng::seed_from_u64(46);
    let graph = CsrGraph::from_edge_list(&generators::social_network(300, 10, 0.3, &mut rng));
    for p in [0.1, 0.3] {
        let weights = EdgeWeights::constant(&graph, p);
        assert_sets_are_the_plain_bfs(&format!("constant {p}"), &graph, &weights, 300);
    }
}
