//! Sampling- and selection-kernel metrics (`core_` prefix) on the workspace
//! `imm-obs` registry.
//!
//! The selection counters are paid once per `select_seeds_efficient` call.
//! The sampling loop is the hottest path in the system (millions of RRR
//! sets per second), so instrumentation is held to the imm-obs budget:
//! two relaxed atomic adds per generated *set* (never per vertex), paid
//! once at the single choke point every sampling path funnels through.
//! The perf suite's `obs-off` overhead guard measures exactly these
//! events.

use std::sync::Once;

use imm_obs::{Counter, Metric};

/// RRR sets generated by the sampling loop (bulk, refresh, and one-shot
/// paths all count here).
pub static SETS_SAMPLED: Counter = Counter::new(
    "core_rrr_sets_sampled",
    "RRR sets generated by the sampling loop across bulk and refresh paths",
);

/// Vertices appended into RRR sets (the loop's unit of traversal work),
/// accumulated with one add per set.
pub static SET_VERTICES: Counter = Counter::new(
    "core_rrr_set_vertices",
    "Vertices appended into generated RRR sets (reverse-reachability traversal work)",
);

/// Greedy rounds run by the EfficientIMM selection kernel (one argmax each).
pub static SELECTION_ROUNDS: Counter = Counter::new(
    "core_selection_rounds",
    "Greedy rounds run by the EfficientIMM batch selection kernel (one argmax each)",
);

/// Inverted-index entries the selection kernel inspected to find the sets a
/// new seed covers.
pub static SELECTION_POSTINGS_WALKED: Counter = Counter::new(
    "core_selection_postings_walked",
    "Postings entries the batch selection kernel inspected to find the sets each seed covers",
);

/// Register the core metrics with the process-global registry.
/// Idempotent; called once per bulk sampling or selection call, never per
/// set.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        imm_obs::register(&[
            &SETS_SAMPLED as &'static dyn Metric,
            &SET_VERTICES as &'static dyn Metric,
            &SELECTION_ROUNDS as &'static dyn Metric,
            &SELECTION_POSTINGS_WALKED as &'static dyn Metric,
        ]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_metrics_join_the_global_registry() {
        register();
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        assert!(names.contains(&"core_rrr_sets_sampled"));
        assert!(names.contains(&"core_rrr_set_vertices"));
        assert!(names.contains(&"core_selection_rounds"));
        assert!(names.contains(&"core_selection_postings_walked"));
    }
}
