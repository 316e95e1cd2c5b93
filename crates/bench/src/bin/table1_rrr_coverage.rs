//! Table I — input graphs and RRR-set characteristics.
//!
//! For every dataset analogue this prints node/edge counts and the average
//! and maximum RRR-set coverage under the IC model with ε = 0.5, next to the
//! coverage the paper reports for the original SNAP graph.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use imm_bench::output::{fmt_percent, results_dir, TextTable};
use imm_bench::{config, datasets};
use imm_diffusion::DiffusionModel;
use imm_rrr::AdaptivePolicy;

fn main() {
    let scale = config::bench_scale();
    let num_sets = 512;

    let mut table = TextTable::new(&[
        "Graph",
        "Nodes",
        "Edges",
        "Avg RRR coverage",
        "Max RRR coverage",
        "Paper avg",
        "Paper max",
    ]);

    for spec in datasets::registry(scale) {
        let dataset = spec.build();
        let cfg = SamplingConfig {
            model: DiffusionModel::IndependentCascade,
            rng_seed: 0xC0FFEE ^ spec.seed,
            policy: AdaptivePolicy::default(),
            schedule: Schedule::Dynamic { chunk: 16 },
            threads: 4,
            fused_counter: None,
        };
        let out = generate_rrr_sets(&dataset.graph, &dataset.ic_weights, num_sets, 0, &cfg);
        let stats = out.sets.coverage_stats();
        table.add_row(vec![
            spec.name.to_string(),
            dataset.graph.num_nodes().to_string(),
            dataset.graph.num_edges().to_string(),
            fmt_percent(stats.avg_coverage),
            fmt_percent(stats.max_coverage),
            fmt_percent(spec.reference.avg_rrr_coverage),
            fmt_percent(spec.reference.max_rrr_coverage),
        ]);
        eprintln!("[table1] {} done ({} sets)", spec.name, stats.count);
    }

    println!("Table I: Input Graph and RRRset Characteristics (IC, eps = 0.5)");
    println!("{}", table.render());
    let csv = results_dir().join("table1_rrr_coverage.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
