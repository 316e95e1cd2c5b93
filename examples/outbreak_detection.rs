//! Outbreak detection / contagion monitoring: place a limited number of
//! sensors in a contact network so that a random outbreak is caught early.
//! Kempe et al.'s classic reduction: the best sensor locations are the most
//! influential vertices of the *reverse* contact graph under the LT model.
//!
//! ```bash
//! cargo run --release --example outbreak_detection
//! ```

use efficient_imm_repro::diffusion::{simulate_ic, DiffusionModel};
use efficient_imm_repro::graph::{generators, CsrGraph, EdgeWeights};
use efficient_imm_repro::imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SENSORS: usize = 12;

fn main() {
    // A contact network with super-spreaders: a scale-free backbone (a few
    // highly connected individuals) plus random long-range contacts. Contacts
    // are symmetric, so the graph and its transpose coincide and "who I can
    // reach" equals "who can reach me" — the setting of Kempe et al.'s
    // outbreak-detection reduction.
    let mut rng = SmallRng::seed_from_u64(7);
    let edge_list = generators::social_network(2_500, 6, 0.05, &mut rng);
    let graph = CsrGraph::from_edge_list(&edge_list);
    let weights = EdgeWeights::lt_normalized(&graph, &mut rng);
    println!("contact network: {} people, {} contacts", graph.num_nodes(), graph.num_edges());

    // Sensor placement = influence maximization under LT.
    let params = ImmParams::new(SENSORS, 0.5, DiffusionModel::LinearThreshold).with_seed(11);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 4);
    let placement = run_imm(&graph, &weights, &params, &exec).expect("valid parameters");
    println!("sensor locations: {:?}", placement.seeds);

    // Evaluate: simulate random outbreaks (IC forward cascades from a random
    // patient zero) and measure how often at least one sensor is infected —
    // i.e. the outbreak is detected. The per-contact transmission probability
    // is low, so most outbreaks stay small and placement genuinely matters.
    let detection_weights = EdgeWeights::constant(&graph, 0.08);
    // The cascade walks out-lists: the transpose's in-lists, with the
    // weights carried to its slots.
    let (forward, slots) = graph.transpose_with_slots();
    let forward_weights: Vec<f32> =
        slots.iter().map(|&slot| detection_weights.as_slice()[slot]).collect();
    let trials = 1_000;
    let mut detected_by_imm = 0usize;
    let mut detected_by_random = 0usize;

    // Random sensor baseline.
    let random_sensors: Vec<u32> =
        (0..SENSORS).map(|_| rng.gen_range(0..graph.num_nodes() as u32)).collect();

    for trial in 0..trials {
        let mut cascade_rng = SmallRng::seed_from_u64(1_000 + trial as u64);
        let patient_zero = cascade_rng.gen_range(0..graph.num_nodes() as u32);
        // Re-simulate the same outbreak against each sensor set by reusing
        // the same RNG stream.
        let infected = infected_set(
            &graph,
            &detection_weights,
            &forward,
            &forward_weights,
            patient_zero,
            1_000 + trial as u64,
        );
        if placement.seeds.iter().any(|s| infected.contains(&(*s as usize))) {
            detected_by_imm += 1;
        }
        if random_sensors.iter().any(|s| infected.contains(&(*s as usize))) {
            detected_by_random += 1;
        }
    }

    println!("\noutbreak detection rate over {trials} simulated outbreaks:");
    println!("  IMM sensor placement:    {:.1}%", 100.0 * detected_by_imm as f64 / trials as f64);
    println!(
        "  random sensor placement: {:.1}%",
        100.0 * detected_by_random as f64 / trials as f64
    );
}

/// The set of vertices infected by one simulated outbreak (as a boolean set
/// over vertex indices). `forward` is the transpose of `graph` with the
/// weights in its slot order.
fn infected_set(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    forward: &CsrGraph,
    forward_weights: &[f32],
    patient_zero: u32,
    seed: u64,
) -> std::collections::HashSet<usize> {
    // Run the cascade and track activation by re-running the simulation with
    // the same seed for each vertex of interest would be wasteful; instead we
    // reproduce the simulate_ic traversal here, collecting the activated set.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut active = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    active.insert(patient_zero as usize);
    queue.push_back(patient_zero);
    while let Some(u) = queue.pop_front() {
        let out_weights = &forward_weights[forward.in_slots(u)];
        for (&v, &w) in forward.in_neighbors(u).iter().zip(out_weights) {
            if !active.contains(&(v as usize)) && rng.gen::<f32>() < w {
                active.insert(v as usize);
                queue.push_back(v);
            }
        }
    }
    // Sanity: the dedicated simulator reports the same cascade size for the
    // same seed, which keeps this example honest about reusing its substrate.
    let check = simulate_ic(graph, weights, &[patient_zero], &mut SmallRng::seed_from_u64(seed));
    debug_assert_eq!(check, active.len());
    active
}
