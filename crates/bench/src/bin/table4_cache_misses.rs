//! Table IV — L1+L2 cache misses of the `Find_Most_Influential_Set` kernel,
//! Ripples vs. EfficientIMM.
//!
//! The misses come from the trace-driven cache simulator in `imm-memsim`
//! (hardware counters are unavailable here; see DESIGN.md §4). The number the
//! paper emphasizes — the reduction factor between the two kernels — is
//! reported next to the paper's measurement.

use efficient_imm::balance::Schedule;
use efficient_imm::instrumented::{cache_misses_efficient, cache_misses_ripples};
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use imm_bench::output::{fmt_ratio, results_dir, TextTable};
use imm_bench::{config, datasets};
use imm_diffusion::DiffusionModel;
use imm_memsim::HierarchyConfig;
use imm_rrr::AdaptivePolicy;

fn main() {
    let scale = config::bench_scale();
    let k = config::bench_k();
    let threads = 8;
    let num_sets = 256;

    let mut table = TextTable::new(&[
        "Graph",
        "Ripples (L1+L2 misses)",
        "EfficientIMM (L1+L2 misses)",
        "Reduction",
        "Paper reduction",
    ]);

    for spec in datasets::cache_miss_subset(scale) {
        let dataset = spec.build();
        let cfg = SamplingConfig {
            model: DiffusionModel::IndependentCascade,
            rng_seed: 0xCACE ^ spec.seed,
            policy: AdaptivePolicy::default(),
            schedule: Schedule::Dynamic { chunk: 16 },
            threads: 4,
        };
        let sets =
            generate_rrr_sets(&dataset.graph, &dataset.ic_weights, num_sets, |i| i, &cfg).sets;

        let hierarchy = HierarchyConfig::default();
        let ripples = cache_misses_ripples(&sets, k, threads, hierarchy);
        let efficient = cache_misses_efficient(&sets, k, threads, hierarchy, 0.5);
        let reduction =
            ripples.l1_plus_l2_misses as f64 / efficient.l1_plus_l2_misses.max(1) as f64;
        let paper_reduction =
            match (spec.reference.ripples_cache_misses, spec.reference.efficientimm_cache_misses) {
                (Some(r), Some(e)) => Some(r as f64 / e as f64),
                _ => None,
            };
        table.add_row(vec![
            spec.name.to_string(),
            ripples.l1_plus_l2_misses.to_string(),
            efficient.l1_plus_l2_misses.to_string(),
            fmt_ratio(reduction),
            paper_reduction.map(fmt_ratio).unwrap_or_else(|| "-".to_string()),
        ]);
        eprintln!("[table4] {} reduction {:.1}x", spec.name, reduction);
    }

    println!("Table IV: L1+L2 cache misses in Find_Most_Influential_Set, Ripples vs EfficientIMM ({} threads)", threads);
    println!("{}", table.render());
    let csv = results_dir().join("table4_cache_misses.csv");
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
