//! Figure 2 — Ripples runtime breakdown by kernel as the core count grows
//! (web-Google analogue), showing `Find_Most_Influential_Set` taking over.
//!
//! Reported per thread count: wall-clock share of each kernel and the
//! modelled per-kernel span (which is what diverges on a many-core machine).

use efficient_imm::ImmParams;
use imm_bench::output::{fmt_percent, fmt_seconds, results_dir, TextTable};
use imm_bench::runner::weights_for;
use imm_bench::{config, datasets, ripples};
use imm_diffusion::DiffusionModel;

fn main() {
    let scale = config::bench_scale();
    let k = config::bench_k();
    let eps = config::bench_epsilon();
    let thread_counts = config::bench_threads();
    let name = std::env::var("IMM_BENCH_DATASET").unwrap_or_else(|_| "web-Google".to_string());
    let spec = datasets::find(scale, &name).expect("dataset exists in the registry");
    let dataset = spec.build();

    let mut table = TextTable::new(&[
        "Model",
        "Threads",
        "Generate_RRRsets (s)",
        "Find_Most_Influential (s)",
        "Selection share",
        "Selection span (ops)",
        "Sampling span (ops)",
    ]);

    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        for &threads in &thread_counts {
            let params = ImmParams::new(k, eps, model).with_seed(0xF16 ^ spec.seed);
            let result =
                ripples::run(&dataset.graph, weights_for(&dataset, model), &params, threads);
            let timings = &result.breakdown.timings;
            table.add_row(vec![
                model.short_name().to_uppercase(),
                threads.to_string(),
                fmt_seconds(timings.generate_rrrsets.as_secs_f64()),
                fmt_seconds(timings.find_most_influential.as_secs_f64()),
                fmt_percent(timings.selection_fraction()),
                result.breakdown.selection_work.max_thread_ops().to_string(),
                result.breakdown.sampling_work.max_thread_ops().to_string(),
            ]);
            eprintln!("[fig2] {} threads={} done", model.short_name(), threads);
        }
    }

    println!("Figure 2: Ripples runtime breakdown on {} (k = {k}, eps = {eps})", spec.name);
    println!("{}", table.render());
    let csv = results_dir().join("fig2_breakdown.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
