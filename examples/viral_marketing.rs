//! Viral-marketing scenario: pick which customers to give promotional
//! samples to, on a community-structured purchase network, and compare the
//! EfficientIMM pick against two natural heuristics (highest degree, random).
//!
//! ```bash
//! cargo run --release --example viral_marketing
//! ```

use efficient_imm_repro::diffusion::{monte_carlo_spread, DiffusionModel};
use efficient_imm_repro::graph::{generators, properties, CsrGraph, EdgeWeights};
use efficient_imm_repro::imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const BUDGET: usize = 15; // free samples we can give away

fn main() {
    // A marketplace with clustered communities (think interest groups) plus a
    // preferential-attachment backbone of influencer accounts.
    let mut rng = SmallRng::seed_from_u64(2024);
    let mut edge_list = generators::stochastic_block_model(&[150; 12], 0.12, 0.002, &mut rng);
    let backbone = generators::social_network(150 * 12, 4, 0.2, &mut rng);
    for (s, d) in backbone.iter() {
        edge_list.push(s, d);
    }
    edge_list.dedup();
    let graph = CsrGraph::from_edge_list(&edge_list);
    let weights = EdgeWeights::ic_weighted_cascade(&graph);

    let scc = properties::strongly_connected_components(&graph);
    println!(
        "marketplace graph: {} customers, {} follow/purchase edges, largest SCC covers {:.0}%",
        graph.num_nodes(),
        graph.num_edges(),
        100.0 * scc.largest_fraction()
    );

    // Strategy 1: EfficientIMM.
    let params = ImmParams::new(BUDGET, 0.2, DiffusionModel::IndependentCascade).with_seed(1);
    let exec = ExecutionConfig::new(Algorithm::Efficient, 4);
    let imm = run_imm(&graph, &weights, &params, &exec).expect("valid parameters");

    // Strategy 2: highest out-degree customers.
    let out_degrees = graph.out_degrees();
    let mut by_degree: Vec<u32> = (0..graph.num_nodes() as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(out_degrees[v as usize]));
    let degree_seeds: Vec<u32> = by_degree.into_iter().take(BUDGET).collect();

    // Strategy 3: random customers.
    let mut all: Vec<u32> = (0..graph.num_nodes() as u32).collect();
    all.shuffle(&mut rng);
    let random_seeds: Vec<u32> = all.into_iter().take(BUDGET).collect();

    println!("\ncampaign reach with {BUDGET} free samples (Monte-Carlo, 2000 cascades):");
    for (label, seeds) in [
        ("EfficientIMM", imm.seeds.as_slice()),
        ("top-degree heuristic", degree_seeds.as_slice()),
        ("random picks", random_seeds.as_slice()),
    ] {
        let spread = monte_carlo_spread(
            &graph,
            &weights,
            DiffusionModel::IndependentCascade,
            seeds,
            2_000,
            99,
        );
        println!(
            "  {label:22} -> {:.0} customers reached (± {:.0})",
            spread.mean,
            spread.confidence_95()
        );
    }
    println!("\nIMM seeds: {:?}", imm.seeds);
}
