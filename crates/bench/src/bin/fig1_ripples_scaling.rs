//! Figure 1 — Ripples strong-scaling performance (LT and IC) as the thread
//! count grows, showing the baseline's scalability ceiling.
//!
//! The modelled speedups come from the measured per-thread work profiles (the
//! reproduction host has one physical core; DESIGN.md §4 explains the model).
//! Wall-clock self-speedups are printed alongside for many-core hosts.

use imm_bench::output::{fmt_ratio, fmt_seconds, results_dir, TextTable};
use imm_bench::scaling::scaling_curve;
use imm_bench::{config, datasets, Engine};
use imm_diffusion::DiffusionModel;

fn main() {
    let scale = config::bench_scale();
    let k = config::bench_k();
    let eps = config::bench_epsilon();
    let thread_counts = config::bench_threads();
    // The paper's Figure 1/2 use web-Google; its analogue is the default.
    let name = std::env::var("IMM_BENCH_DATASET").unwrap_or_else(|_| "web-Google".to_string());
    let spec = datasets::find(scale, &name).expect("dataset exists in the registry");
    let dataset = spec.build();

    let mut table =
        TextTable::new(&["Model", "Threads", "Wall time (s)", "Modeled speedup", "Wall speedup"]);

    for model in [DiffusionModel::LinearThreshold, DiffusionModel::IndependentCascade] {
        let curve = scaling_curve(&dataset, model, Engine::Ripples, &thread_counts, k, eps);
        for point in &curve {
            table.add_row(vec![
                model.short_name().to_uppercase(),
                point.threads.to_string(),
                fmt_seconds(point.measurement.wall_seconds),
                fmt_ratio(point.modeled_self_speedup),
                fmt_ratio(point.wall_self_speedup),
            ]);
        }
        eprintln!("[fig1] {} model done", model.short_name());
    }

    println!("Figure 1: Ripples strong scaling on {} (k = {k}, eps = {eps})", spec.name);
    println!("{}", table.render());
    let csv = results_dir().join("fig1_ripples_scaling.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
