//! Ablation study: each EfficientIMM optimization toggled off individually,
//! on the web-Google and com-LJ analogues.
//!
//! Not a table in the paper, but DESIGN.md calls out each optimization as a
//! separately justified design choice; this binary quantifies what each one
//! contributes on the reproduction's workloads. Two tables:
//!
//! * **Runs** — `run_imm` with a sampling-side feature off (`run_imm` reads
//!   the representation and the balancing; it selects with CELF).
//! * **Selections** — the selection kernels alone, timed on the final sets
//!   of the all-optimizations run: the paper's eager kernel from the counts
//!   a run's kernel fusion leaves (`imm_rrr::count_memberships`, counted
//!   outside the timed selection), with its own counting pass, and without
//!   the adaptive counter update — each over the one adaptive `Postings` as
//!   its cover index — then the lazy-greedy (CELF) session over the
//!   postings, which is what `run_imm` runs. Every row must select the same
//!   seeds.

use efficient_imm::selection::select_seeds_celf;
use efficient_imm::{
    run_imm, Algorithm, EfficientFeatures, ExecutionConfig, ImmParams, SeedSelection,
};
use imm_bench::efficient::select_seeds_efficient;
use imm_bench::output::{fmt_seconds, results_dir, TextTable};
use imm_bench::runner::weights_for;
use imm_bench::{config, datasets};
use imm_diffusion::DiffusionModel;
use imm_rrr::{count_memberships, RrrCollection};
use std::time::Instant;

/// The selection rows over the final `sets`: label, seconds, selection.
fn selections(
    sets: &RrrCollection,
    k: usize,
    threads: usize,
) -> Vec<(&'static str, f64, SeedSelection)> {
    let exec = ExecutionConfig::new(Algorithm::Efficient, threads);
    // What a run's kernel fusion counts, outside the timed selection.
    let mut fused = vec![0; sets.num_nodes()];
    count_memberships(sets, 0, &mut fused).expect("RRR set members lie inside the vertex space");
    let timed = |label, select: &dyn Fn() -> SeedSelection| {
        let start = Instant::now();
        let selection = select();
        (label, start.elapsed().as_secs_f64(), selection)
    };
    vec![
        timed("eager fused", &|| select_seeds_efficient(sets, k, &exec, true, Some(&fused)).0),
        timed("eager unfused", &|| select_seeds_efficient(sets, k, &exec, true, None).0),
        timed("eager, no adaptive update", &|| {
            select_seeds_efficient(sets, k, &exec, false, None).0
        }),
        timed("CELF over postings (run)", &|| select_seeds_celf(sets, k, threads)),
    ]
}

fn main() {
    let scale = config::bench_scale();
    let k = config::bench_k();
    let eps = config::bench_epsilon();
    let threads = *config::bench_threads().iter().max().unwrap_or(&8);

    type FeatureTweak = Box<dyn Fn(&mut EfficientFeatures)>;
    let variants: Vec<(&str, FeatureTweak)> = vec![
        ("all optimizations", Box::new(|_f: &mut EfficientFeatures| {})),
        (
            "no adaptive representation",
            Box::new(|f: &mut EfficientFeatures| f.adaptive_representation = false),
        ),
        ("no dynamic balancing", Box::new(|f: &mut EfficientFeatures| f.dynamic_balancing = false)),
        (
            "none (naive set partitioning)",
            Box::new(|f: &mut EfficientFeatures| *f = EfficientFeatures::none()),
        ),
    ];

    let mut table = TextTable::new(&[
        "Dataset",
        "Model",
        "Variant",
        "Wall time (s)",
        "Selection span (ops)",
        "RRR memory (MiB)",
    ]);
    let mut selection_table =
        TextTable::new(&["Dataset", "Model", "Selection", "Time (ms)", "Span (ops)"]);

    for name in ["web-Google", "com-LJ"] {
        let Some(spec) = datasets::find(scale, name) else { continue };
        let dataset = spec.build();
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            let mut final_sets = None;
            for (label, tweak) in &variants {
                let mut exec = ExecutionConfig::new(Algorithm::Efficient, threads);
                tweak(&mut exec.features);
                let exec = exec.with_retained_sets(final_sets.is_none());
                let params = ImmParams::new(k, eps, model).with_seed(0xAB1A ^ spec.seed);
                let start = Instant::now();
                let result = run_imm(&dataset.graph, weights_for(&dataset, model), &params, &exec)
                    .expect("valid parameters");
                let wall = start.elapsed().as_secs_f64();
                table.add_row(vec![
                    spec.name.to_string(),
                    model.short_name().to_uppercase(),
                    label.to_string(),
                    fmt_seconds(wall),
                    result.breakdown.selection_work.max_thread_ops().to_string(),
                    format!("{:.2}", result.breakdown.rrr_memory_bytes as f64 / (1024.0 * 1024.0)),
                ]);
                if let Some(sets) = result.rrr_sets {
                    final_sets = Some((sets, result.seeds, result.coverage_fraction));
                }
            }
            let (sets, run_seeds, run_coverage) =
                final_sets.expect("the first variant retains its sets");
            for (label, seconds, selection) in selections(&sets, k, threads) {
                let case = format!("{label}, {} {}", spec.name, model.short_name());
                assert_eq!(selection.seeds, run_seeds, "{case}: the run's seeds");
                assert_eq!(selection.coverage_fraction.to_bits(), run_coverage.to_bits(), "{case}");
                selection_table.add_row(vec![
                    spec.name.to_string(),
                    model.short_name().to_uppercase(),
                    label.to_string(),
                    format!("{:.3}", seconds * 1e3),
                    selection.work.max_thread_ops().to_string(),
                ]);
            }
            eprintln!("[ablation] {} {} done", spec.name, model.short_name());
        }
    }

    println!(
        "Ablation: EfficientIMM feature contributions ({threads} threads, k = {k}, eps = {eps})"
    );
    println!("{}", table.render());
    println!("Selection kernels on the final sets of the all-optimizations run");
    println!("{}", selection_table.render());
    for (table, file) in
        [(&table, "ablation_features.csv"), (&selection_table, "ablation_selection.csv")]
    {
        let csv = results_dir().join(file);
        table.write_csv(&csv).expect("write csv");
        println!("CSV written to {}", csv.display());
    }
}
