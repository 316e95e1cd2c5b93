//! Strong-scaling measurements and the work/contention model.
//!
//! The paper's scaling figures (1, 6, 7) and runtime-breakdown figure (2) are
//! measured on a 128-core, 8-NUMA-node machine. This reproduction host has a
//! single physical core, so wall-clock time cannot show parallel speedup.
//! Instead, every kernel records how much work each worker thread performed
//! (`WorkProfile`), and the scaling curves are derived from a simple
//! parallel-cost model:
//!
//! ```text
//! T(p) = max_thread_ops(p) · (1 + atomic_contention(p)) + reduction_overhead(p)
//! ```
//!
//! * `max_thread_ops` is the measured span — the busiest thread's operation
//!   count. For the Ripples selection kernel this stays flat as `p` grows
//!   (every thread scans every RRR set), which is exactly the scalability
//!   collapse the paper diagnoses; for EfficientIMM it shrinks like `1/p`.
//! * `atomic_contention` charges a small, linearly growing penalty for the
//!   shared-counter atomics (EfficientIMM's trade-off the paper discusses).
//! * `reduction_overhead` charges the per-seed two-level reduction and
//!   fork-join costs that eventually bound speedup on small inputs.
//!
//! Wall-clock is still reported next to the modelled numbers so the two can
//! be compared on hosts that do have many cores.

use crate::datasets::Dataset;
use crate::runner::Engine;
use crate::runner::{run_configuration, BenchMeasurement};
use efficient_imm::WorkProfile;
use imm_diffusion::DiffusionModel;

/// Relative cost of an atomic read-modify-write vs. a plain access when `p`
/// threads share the counter (calibrated to the few-percent overhead the
/// paper's fine-grained `lock incq` updates exhibit).
fn atomic_penalty(threads: usize) -> f64 {
    0.02 * (threads.saturating_sub(1)) as f64
}

/// Fixed per-thread fork-join/reduction overhead in modelled operations.
const PER_THREAD_OVERHEAD: f64 = 5_000.0;

/// Modelled parallel execution time (arbitrary "operation" units) of one run,
/// combining the sampling and selection work profiles.
pub fn modeled_time(sampling: &WorkProfile, selection: &WorkProfile, threads: usize) -> f64 {
    let threads = threads.max(1);
    let span = |w: &WorkProfile| -> f64 {
        let max_ops = w.max_thread_ops() as f64;
        let total = w.total_ops() as f64;
        let atomic_fraction = if total == 0.0 { 0.0 } else { w.atomic_ops as f64 / total };
        max_ops * (1.0 + atomic_fraction * atomic_penalty(threads))
    };
    span(sampling) + span(selection) + PER_THREAD_OVERHEAD * threads as f64
}

/// One point of a strong-scaling curve.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScalingPoint {
    /// Worker threads.
    pub threads: usize,
    /// Full measurement at this thread count.
    pub measurement: BenchMeasurement,
    /// Modelled speedup relative to the 1-thread run of the same engine.
    pub modeled_self_speedup: f64,
    /// Measured wall-clock speedup relative to the 1-thread run (expected to
    /// hover around 1.0 on a single-core host; reported for completeness).
    pub wall_self_speedup: f64,
}

/// Run a strong-scaling sweep of one engine over `thread_counts`.
pub fn scaling_curve(
    dataset: &Dataset,
    model: DiffusionModel,
    engine: Engine,
    thread_counts: &[usize],
    k: usize,
    epsilon: f64,
) -> Vec<ScalingPoint> {
    let mut points = Vec::with_capacity(thread_counts.len());
    let mut base_modeled = None;
    let mut base_wall = None;
    for &threads in thread_counts {
        let m = run_configuration(dataset, model, engine, threads, k, epsilon);
        let base_m = *base_modeled.get_or_insert(m.modeled_time);
        let base_w = *base_wall.get_or_insert(m.wall_seconds);
        points.push(ScalingPoint {
            threads,
            modeled_self_speedup: if m.modeled_time > 0.0 { base_m / m.modeled_time } else { 0.0 },
            wall_self_speedup: if m.wall_seconds > 0.0 { base_w / m.wall_seconds } else { 0.0 },
            measurement: m,
        });
    }
    points
}

/// Normalize a curve against a reference modelled time (the paper's Figures 6
/// and 7 normalize EfficientIMM against 1-thread and 8-thread Ripples).
pub fn normalized_speedups(
    curve: &[ScalingPoint],
    reference_modeled_time: f64,
) -> Vec<(usize, f64)> {
    curve
        .iter()
        .map(|p| {
            let s = if p.measurement.modeled_time > 0.0 {
                reference_modeled_time / p.measurement.modeled_time
            } else {
                0.0
            };
            (p.threads, s)
        })
        .collect()
}

/// Shared driver for the paper's Figures 6 (LT) and 7 (IC): strong scaling of
/// EfficientIMM normalized to the 1-thread and 8-thread Ripples runs, over
/// every dataset in the registry. Prints the table and writes
/// `results/<stem>.csv`.
pub fn scaling_figure(model: DiffusionModel, stem: &str) {
    use crate::output::{fmt_ratio, results_dir, TextTable};

    let scale = crate::config::bench_scale();
    let k = crate::config::bench_k();
    let eps = crate::config::bench_epsilon();
    let thread_counts = crate::config::bench_threads();

    let mut table = TextTable::new(&[
        "Dataset",
        "Threads",
        "EfficientIMM vs 1-thread Ripples",
        "EfficientIMM vs 8-thread Ripples",
        "Ripples self-speedup",
        "EfficientIMM self-speedup",
    ]);

    for spec in crate::datasets::registry(scale) {
        let dataset = spec.build();
        let ripples_curve = scaling_curve(&dataset, model, Engine::Ripples, &thread_counts, k, eps);
        let efficient_curve =
            scaling_curve(&dataset, model, Engine::Efficient, &thread_counts, k, eps);

        let ripples_1t = ripples_curve.first().map(|p| p.measurement.modeled_time).unwrap_or(1.0);
        // "8-thread Ripples" reference: the measured point closest to 8
        // threads (the sweep may not contain exactly 8).
        let ripples_8t = ripples_curve
            .iter()
            .min_by_key(|p| p.threads.abs_diff(8))
            .map(|p| p.measurement.modeled_time)
            .unwrap_or(ripples_1t);

        let vs_1t = normalized_speedups(&efficient_curve, ripples_1t);
        let vs_8t = normalized_speedups(&efficient_curve, ripples_8t);

        for (i, point) in efficient_curve.iter().enumerate() {
            table.add_row(vec![
                spec.name.to_string(),
                point.threads.to_string(),
                fmt_ratio(vs_1t[i].1),
                fmt_ratio(vs_8t[i].1),
                fmt_ratio(ripples_curve[i].modeled_self_speedup),
                fmt_ratio(point.modeled_self_speedup),
            ]);
        }
        eprintln!("[{stem}] {} done", spec.name);
    }

    println!(
        "Figure ({stem}): strong scaling normalized to 1- and 8-thread Ripples; {model} model; k = {k}, eps = {eps}"
    );
    println!("{}", table.render());
    let csv = results_dir().join(format!("{stem}.csv"));
    table.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{find, Scale};

    fn profile(per_thread: Vec<u64>, atomic: u64) -> WorkProfile {
        WorkProfile { per_thread_ops: per_thread, atomic_ops: atomic, search_probes: 0 }
    }

    #[test]
    fn modeled_time_rewards_balanced_shrinking_work() {
        // Perfect 1/p scaling: span halves when threads double.
        let t1 = modeled_time(&profile(vec![1_000_000], 0), &profile(vec![1_000_000], 0), 1);
        let t4 = modeled_time(&profile(vec![250_000; 4], 0), &profile(vec![250_000; 4], 0), 4);
        assert!(t1 / t4 > 3.0, "expected near-4x modelled speedup, got {}", t1 / t4);
    }

    #[test]
    fn modeled_time_shows_no_speedup_for_replicated_work() {
        // The Ripples pathology: every thread does the full scan, so the span
        // does not shrink.
        let t1 = modeled_time(&profile(vec![0], 0), &profile(vec![1_000_000], 0), 1);
        let t8 = modeled_time(&profile(vec![0; 8], 0), &profile(vec![1_000_000; 8], 0), 8);
        assert!(t8 >= t1, "replicated work must not speed up");
    }

    #[test]
    fn atomic_contention_adds_a_mild_penalty() {
        let no_atomics = modeled_time(&profile(vec![0; 8], 0), &profile(vec![100_000; 8], 0), 8);
        let all_atomics =
            modeled_time(&profile(vec![0; 8], 0), &profile(vec![100_000; 8], 800_000), 8);
        assert!(all_atomics > no_atomics);
        assert!(all_atomics < no_atomics * 1.5, "penalty must stay mild");
    }

    #[test]
    fn scaling_curve_efficient_beats_ripples_in_modeled_time() {
        let dataset = find(Scale::Small, "as-Skitter").unwrap().build();
        let threads = [1usize, 4];
        let eff = scaling_curve(
            &dataset,
            DiffusionModel::IndependentCascade,
            Engine::Efficient,
            &threads,
            5,
            0.5,
        );
        let rip = scaling_curve(
            &dataset,
            DiffusionModel::IndependentCascade,
            Engine::Ripples,
            &threads,
            5,
            0.5,
        );
        assert_eq!(eff.len(), 2);
        // At 4 threads the EfficientIMM modelled speedup must exceed the
        // Ripples modelled speedup (the baseline replicates selection work).
        assert!(
            eff[1].modeled_self_speedup > rip[1].modeled_self_speedup,
            "efficient {} vs ripples {}",
            eff[1].modeled_self_speedup,
            rip[1].modeled_self_speedup
        );
    }

    #[test]
    fn normalized_speedups_use_the_reference() {
        let dataset = find(Scale::Small, "as-Skitter").unwrap().build();
        let curve = scaling_curve(
            &dataset,
            DiffusionModel::IndependentCascade,
            Engine::Efficient,
            &[1, 2],
            4,
            0.5,
        );
        let norm = normalized_speedups(&curve, curve[0].measurement.modeled_time * 2.0);
        assert_eq!(norm.len(), 2);
        assert!((norm[0].1 - 2.0).abs() < 1e-9);
    }
}
