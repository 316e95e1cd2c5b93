//! Table III — best runtime of EfficientIMM vs. Ripples for the IC and LT
//! diffusion models on every dataset analogue.
//!
//! Each engine is run over the configured thread counts and its best
//! wall-clock time is reported together with the speedup, mirroring the
//! paper's `speedup_ic.csv` / `speedup_lt.csv` artifact outputs.

use imm_bench::output::{fmt_ratio, fmt_seconds, results_dir, write_json_log, TextTable};
use imm_bench::runner::run_configuration;
use imm_bench::{config, datasets, Engine};
use imm_diffusion::DiffusionModel;

fn main() {
    let scale = config::bench_scale();
    let k = config::bench_k();
    let eps = config::bench_epsilon();
    let thread_counts = config::bench_threads();

    for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
        let mut table = TextTable::new(&[
            "Dataset",
            "Speedup (wall)",
            "Speedup (modeled)",
            "EfficientIMM Time (s)",
            "Ripples Time (s)",
            "Ripples Best #Threads",
            "EfficientIMM Best #Threads",
            "Paper speedup",
        ]);
        let mut all_measurements = Vec::new();

        for spec in datasets::registry(scale) {
            let dataset = spec.build();
            // (wall-clock best, its thread count, modeled-time best) per engine.
            let mut best: Vec<(Engine, f64, usize, f64)> = Vec::new();
            for engine in [Engine::Ripples, Engine::Efficient] {
                let mut best_time = f64::INFINITY;
                let mut best_threads = 0usize;
                let mut best_modeled = f64::INFINITY;
                for &threads in &thread_counts {
                    let m = run_configuration(&dataset, model, engine, threads, k, eps);
                    if m.wall_seconds < best_time {
                        best_time = m.wall_seconds;
                        best_threads = threads;
                    }
                    best_modeled = best_modeled.min(m.modeled_time);
                    all_measurements.push(m);
                }
                best.push((engine, best_time, best_threads, best_modeled));
            }
            let (_, ripples_time, ripples_threads, ripples_modeled) = best[0];
            let (_, eff_time, eff_threads, eff_modeled) = best[1];
            let speedup = ripples_time / eff_time;
            let modeled_speedup = ripples_modeled / eff_modeled;
            let paper_speedup = match model {
                DiffusionModel::IndependentCascade => spec
                    .reference
                    .ripples_ic_seconds
                    .map(|r| r / spec.reference.efficientimm_ic_seconds),
                DiffusionModel::LinearThreshold => spec
                    .reference
                    .ripples_lt_seconds
                    .map(|r| r / spec.reference.efficientimm_lt_seconds),
            };
            table.add_row(vec![
                spec.name.to_string(),
                fmt_ratio(speedup),
                fmt_ratio(modeled_speedup),
                fmt_seconds(eff_time),
                fmt_seconds(ripples_time),
                ripples_threads.to_string(),
                eff_threads.to_string(),
                paper_speedup.map(fmt_ratio).unwrap_or_else(|| "OOM (Ripples)".to_string()),
            ]);
            eprintln!(
                "[table3:{}] {} wall speedup {:.2}x, modeled {:.2}x",
                model.short_name(),
                spec.name,
                speedup,
                modeled_speedup
            );
        }

        println!("Table III ({} model): best runtime, k = {k}, eps = {eps}", model);
        println!("{}", table.render());
        let csv = results_dir().join(format!("speedup_{}.csv", model.short_name()));
        table.write_csv(&csv).expect("write csv");
        let log = results_dir().join(format!("strong-scaling-logs-{}.json", model.short_name()));
        write_json_log(&log, &all_measurements).expect("write json");
        println!("CSV written to {}\nJSON log written to {}\n", csv.display(), log.display());
    }
}
