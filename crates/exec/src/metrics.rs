//! Runtime observability: static lazy counters in the `metriken` idiom.
//!
//! Every counter is a `static` with a stable name and a human
//! description, incremented with one relaxed atomic add on the hot path.
//! Since PR 7 the counters are [`imm_obs::Counter`]s and join the
//! workspace-wide `imm-obs` registry via [`register`]; the local
//! [`registry`] / [`snapshot`] views are kept for exec-only consumers
//! (the perf suite's executor phase, the CLI's pool panel). Names are
//! byte-stable across the migration — `exec_*` exactly as in PR 6 — and
//! a test pins them.

use std::sync::Once;

pub use imm_obs::Counter;
use imm_obs::{Gauge, Metric, Unit};

/// Scopes entered on the shared pool (fork-join rounds).
pub static SCOPES: Counter =
    Counter::new("exec_scopes", "Fork-join scopes entered on the shared worker pool");

/// Tasks spawned onto shared-pool scopes. Queue depth at any instant is
/// `exec_tasks_spawned` minus the three `exec_tasks_*` execution counters.
pub static TASKS_SPAWNED: Counter =
    Counter::new("exec_tasks_spawned", "Tasks spawned onto shared-pool scopes");

/// Tasks executed by pool workers (dequeued from their SPSC inbox).
pub static TASKS_WORKER: Counter =
    Counter::new("exec_tasks_worker", "Scope tasks executed by shared-pool workers");

/// Tasks the scope owner claimed and ran inline while waiting.
pub static TASKS_HELPED: Counter = Counter::new(
    "exec_tasks_helped",
    "Scope tasks claimed and run inline by the waiting scope owner",
);

/// Tasks run by the submitter because a worker inbox was full.
pub static TASKS_OVERFLOW: Counter = Counter::new(
    "exec_tasks_overflow",
    "Scope tasks run by the submitter because a worker inbox was full",
);

/// Shared-pool worker park events (idle, went to sleep).
pub static WORKER_PARKS: Counter =
    Counter::new("exec_worker_parks", "Shared-pool workers parked on an empty inbox");

/// Shared-pool worker unpark signals sent by submitters.
pub static WORKER_UNPARKS: Counter =
    Counter::new("exec_worker_unparks", "Wakeups sent to parked shared-pool workers");

/// Max-over-window depth of the shared pool's deepest worker inbox,
/// maintained on a housekeeping cadence (the serving daemon's tick rolls
/// the peeks through an [`imm_obs::MaxWindow`]).
///
/// [`crate::Executor::queue_depths`] is a racy point-in-time peek — fine
/// for a live debug panel, wrong as a *metric* (it describes one instant
/// and misses every burst between reads). This gauge is the sampled
/// replacement: the high-water mark over the sampler's window.
pub static SHARED_QUEUE_DEPTH_MAX: Gauge = Gauge::new(
    "exec_shared_queue_depth_max",
    "Deepest shared-pool worker inbox over the sampler's recent window",
    Unit::Count,
);

/// Every counter the runtime exports, in registration order.
///
/// Growable on purpose (PR 7 satellite): PR 6 returned a fixed
/// `[&Counter; 14]`, which forced every call site to change whenever a
/// counter was added. Consumers iterate; none may assume a length.
pub fn registry() -> Vec<&'static Counter> {
    vec![
        &SCOPES,
        &TASKS_SPAWNED,
        &TASKS_WORKER,
        &TASKS_HELPED,
        &TASKS_OVERFLOW,
        &WORKER_PARKS,
        &WORKER_UNPARKS,
        &crate::executor::GLOBAL_CONFIGS,
    ]
}

/// Register every exec counter with the process-global `imm-obs`
/// registry. Idempotent; called from pool constructors, never on a hot
/// path.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let mut metrics: Vec<&'static dyn Metric> =
            registry().into_iter().map(|c| c as &'static dyn Metric).collect();
        // The sampled queue-depth gauge joins the obs registry but NOT
        // `registry()` — that list's names/order are pinned byte-stable to
        // PR 6 for counter-delta consumers.
        metrics.push(&SHARED_QUEUE_DEPTH_MAX as &'static dyn Metric);
        imm_obs::register(&metrics);
    });
}

/// One sampled metric: `(name, description, value)` at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Stable metric name (snake_case, `exec_` prefix).
    pub name: &'static str,
    /// Human description.
    pub description: &'static str,
    /// Counter value when sampled.
    pub value: u64,
}

/// Sample every registered counter.
pub fn snapshot() -> Vec<MetricSample> {
    registry()
        .iter()
        .map(|c| MetricSample { name: c.name(), description: c.description(), value: c.value() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        static LOCAL: Counter = Counter::new("test_counter", "a test counter");
        assert_eq!(LOCAL.value(), 0);
        LOCAL.increment();
        LOCAL.add(4);
        if imm_obs::recording_enabled() {
            assert_eq!(LOCAL.value(), 5);
        }
        assert_eq!(LOCAL.name(), "test_counter");
        assert_eq!(LOCAL.description(), "a test counter");
    }

    #[test]
    fn snapshot_covers_the_registry_with_unique_names() {
        let samples = snapshot();
        assert_eq!(samples.len(), registry().len());
        let mut names: Vec<&str> = samples.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), samples.len(), "metric names must be unique");
    }

    #[test]
    fn exec_metric_names_are_byte_stable_since_pr6() {
        // The names PR 6 shipped, less the six `exec_pinned_*` that went
        // with the pinned pool. External consumers (BENCH_*.json diffs,
        // dashboards) key on these strings; renaming any of them is a
        // breaking change that must be made deliberately, not by accident.
        let expected = [
            "exec_scopes",
            "exec_tasks_spawned",
            "exec_tasks_worker",
            "exec_tasks_helped",
            "exec_tasks_overflow",
            "exec_worker_parks",
            "exec_worker_unparks",
            "exec_global_configs",
        ];
        let names: Vec<&str> = registry().iter().map(|c| c.name()).collect();
        assert_eq!(names, expected, "exec metric names/order changed vs PR 6");
    }

    #[test]
    fn register_feeds_the_global_obs_registry() {
        register();
        register(); // idempotent
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        for c in registry() {
            assert!(names.contains(&c.name()), "{} missing from imm-obs registry", c.name());
        }
    }
}
