//! Table II — percentage of core time spent checking the visited bitmap,
//! original data structures vs. NUMA-aware placement (8 NUMA nodes).
//!
//! Uses the NUMA-placement cost model of `imm_bench::instrumented` (the
//! reproduction host has no NUMA hardware; see DESIGN.md §4).

use imm_bench::instrumented::bitmap_check_cost;
use imm_bench::output::{fmt_percent, results_dir, TextTable};
use imm_bench::{config, datasets};
use imm_diffusion::DiffusionModel;
use imm_numa::Topology;

fn main() {
    let scale = config::bench_scale();
    // The five datasets the paper's Table II reports.
    let subset = ["com-Amazon", "com-YouTube", "soc-Pokec", "com-LJ", "web-Google"];
    let topology = Topology::perlmutter_node();
    let threads = 128.min(topology.num_cores());
    let num_sets = 96;

    let mut table = TextTable::new(&[
        "Graph",
        "Original bitmap time",
        "NUMA-aware bitmap time",
        "Improvement",
        "Paper original",
        "Paper NUMA-aware",
        "Paper improvement",
    ]);

    // Paper Table II values (original %, NUMA-aware %, improvement %).
    let paper: &[(&str, f64, f64, f64)] = &[
        ("com-Amazon", 0.382, 0.238, 0.38),
        ("com-YouTube", 0.386, 0.239, 0.38),
        ("soc-Pokec", 0.449, 0.166, 0.63),
        ("com-LJ", 0.463, 0.185, 0.60),
        ("web-Google", 0.290, 0.136, 0.53),
    ];

    for (name, paper_orig, paper_aware, paper_improvement) in paper {
        let Some(spec) = subset
            .iter()
            .find(|n| n.eq_ignore_ascii_case(name))
            .and_then(|n| datasets::find(scale, n))
        else {
            continue;
        };
        let dataset = spec.build();
        let original = bitmap_check_cost(
            &dataset.graph,
            &dataset.ic_weights,
            DiffusionModel::IndependentCascade,
            num_sets,
            0xBEEF ^ spec.seed,
            topology,
            threads,
            false,
        );
        let aware = bitmap_check_cost(
            &dataset.graph,
            &dataset.ic_weights,
            DiffusionModel::IndependentCascade,
            num_sets,
            0xBEEF ^ spec.seed,
            topology,
            threads,
            true,
        );
        let improvement = if original.bitmap_fraction > 0.0 {
            1.0 - aware.bitmap_fraction / original.bitmap_fraction
        } else {
            0.0
        };
        table.add_row(vec![
            spec.name.to_string(),
            fmt_percent(original.bitmap_fraction),
            fmt_percent(aware.bitmap_fraction),
            fmt_percent(improvement),
            fmt_percent(*paper_orig),
            fmt_percent(*paper_aware),
            fmt_percent(*paper_improvement),
        ]);
        eprintln!("[table2] {} done", spec.name);
    }

    println!("Table II: core-time share of the visited-bitmap check, original vs NUMA-aware placement (8 NUMA nodes)");
    println!("{}", table.render());
    let csv = results_dir().join("table2_numa_bitmap.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
