//! Scaling study: run both engines on one of the built-in SNAP analogues over
//! a sweep of thread counts and print wall-clock plus modelled speedups —
//! a miniature version of the paper's Figures 6 and 7.
//!
//! ```bash
//! cargo run --release --example scaling_study [dataset-name]
//! ```

use imm_bench::datasets::{find, Scale};
use imm_bench::scaling::scaling_curve;
use imm_bench::Engine;
use imm_diffusion::DiffusionModel;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "web-Google".to_string());
    let spec = match find(Scale::Small, &name) {
        Some(s) => s,
        None => {
            eprintln!("unknown dataset '{name}'; available:");
            for d in imm_bench::datasets::registry(Scale::Small) {
                eprintln!("  {}", d.name);
            }
            std::process::exit(1);
        }
    };
    let dataset = spec.build();
    println!(
        "dataset {} (analogue of {}): {} nodes, {} edges",
        spec.name,
        spec.paper_name,
        dataset.graph.num_nodes(),
        dataset.graph.num_edges()
    );

    let threads = [1usize, 2, 4, 8];
    let k = 10;
    let eps = 0.5;

    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        println!("\n== {model} ==");
        println!(
            "{:<14} {:>8} {:>14} {:>18} {:>16}",
            "engine", "threads", "wall (s)", "modeled speedup", "wall speedup"
        );
        for engine in [Engine::Ripples, Engine::Efficient] {
            let curve = scaling_curve(&dataset, model, engine, &threads, k, eps);
            for p in &curve {
                println!(
                    "{:<14} {:>8} {:>14.3} {:>17.2}x {:>15.2}x",
                    engine.short_name(),
                    p.threads,
                    p.measurement.wall_seconds,
                    p.modeled_self_speedup,
                    p.wall_self_speedup
                );
            }
        }
    }
    println!(
        "\n(Modelled speedups come from the measured per-thread work profiles; see DESIGN.md §4.)"
    );
}
