//! Figure 5 — runtime of the seed-selection step with and without the
//! adaptive vertex-occurrence counter update, at the maximum thread count.
//!
//! The paper reports 11.6x–60.9x selection-time speedups on four skewed
//! datasets when the counter is rebuilt from surviving sets instead of
//! decremented through the (huge) covered sets.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::selection::efficient::select_seeds_efficient;
use efficient_imm::{Algorithm, ExecutionConfig};
use imm_bench::output::{fmt_ratio, fmt_seconds, results_dir, TextTable};
use imm_bench::{config, datasets};
use imm_diffusion::DiffusionModel;
use imm_rrr::AdaptivePolicy;
use std::time::Instant;

fn main() {
    let scale = config::bench_scale();
    let k = config::bench_k();
    let threads = *config::bench_threads().iter().max().unwrap_or(&8);
    let num_sets = 384;

    // The four skewed datasets of Figure 5.
    let subset = ["com-YouTube", "soc-Pokec", "com-LJ", "twitter7"];

    let mut table = TextTable::new(&[
        "Graph",
        "w/o adaptive update (s)",
        "w/ adaptive update (s)",
        "Speedup",
        "Rebuilds chosen",
    ]);

    for name in subset {
        let Some(spec) = datasets::find(scale, name) else { continue };
        let dataset = spec.build();
        let cfg = SamplingConfig {
            model: DiffusionModel::IndependentCascade,
            rng_seed: 0xF15 ^ spec.seed,
            policy: AdaptivePolicy::default(),
            schedule: Schedule::Dynamic { chunk: 16 },
            threads,
        };
        let sets =
            generate_rrr_sets(&dataset.graph, &dataset.ic_weights, num_sets, |i| i, &cfg).sets;

        let mut with_cfg = ExecutionConfig::new(Algorithm::Efficient, threads);
        with_cfg.features.adaptive_counter_update = true;
        let mut without_cfg = with_cfg;
        without_cfg.features.adaptive_counter_update = false;

        // Selection is fast at this scale; repeat to get a stable figure.
        let reps = 5;
        let t0 = Instant::now();
        let mut rebuilds = 0usize;
        for _ in 0..reps {
            rebuilds = select_seeds_efficient(&sets, k, &with_cfg, None).counter_rebuilds;
        }
        let with_time = t0.elapsed().as_secs_f64() / reps as f64;

        let t0 = Instant::now();
        for _ in 0..reps {
            select_seeds_efficient(&sets, k, &without_cfg, None);
        }
        let without_time = t0.elapsed().as_secs_f64() / reps as f64;

        table.add_row(vec![
            spec.name.to_string(),
            fmt_seconds(without_time),
            fmt_seconds(with_time),
            fmt_ratio(without_time / with_time.max(1e-9)),
            rebuilds.to_string(),
        ]);
        eprintln!("[fig5] {} done", spec.name);
    }

    println!("Figure 5: seed-selection runtime w/ and w/o the adaptive counter update ({threads} threads, k = {k})");
    println!("{}", table.render());
    let csv = results_dir().join("fig5_adaptive_update.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
