//! Runtime observability: static lazy counters in the `metriken` idiom.
//!
//! Every counter is an [`imm_obs::Counter`] `static` with a stable name and
//! a human description, incremented with one relaxed atomic add on the hot
//! path, and joins the workspace-wide `imm-obs` registry via [`register`].
//! Names are byte-stable — `exec_*` exactly as in PR 6, less the retired
//! ones — and a test pins them.

use std::sync::Once;

pub use imm_obs::Counter;
use imm_obs::Metric;

/// Scopes entered on the shared pool (fork-join rounds).
pub static SCOPES: Counter =
    Counter::new("exec_scopes", "Fork-join scopes entered on the shared worker pool");

/// Tasks spawned onto shared-pool scopes. Tasks queued at any instant are
/// `exec_tasks_spawned` minus the two `exec_tasks_*` execution counters.
pub static TASKS_SPAWNED: Counter =
    Counter::new("exec_tasks_spawned", "Tasks spawned onto shared-pool scopes");

/// Tasks executed by pool workers (taken through the injector).
pub static TASKS_WORKER: Counter =
    Counter::new("exec_tasks_worker", "Scope tasks executed by shared-pool workers");

/// Tasks run on the scope owner's thread: queued tasks it drained, or
/// every task of a pool without workers.
pub static TASKS_HELPED: Counter =
    Counter::new("exec_tasks_helped", "Scope tasks run on the scope owner's thread");

/// Shared-pool worker park events (idle, went to sleep).
pub static WORKER_PARKS: Counter =
    Counter::new("exec_worker_parks", "Shared-pool workers parked on an empty injector");

/// Shared-pool worker wakeups sent by submitters.
pub static WORKER_UNPARKS: Counter =
    Counter::new("exec_worker_unparks", "Wakeups sent to parked shared-pool workers");

/// Times the process-global executor was explicitly configured.
pub static GLOBAL_CONFIGS: Counter = Counter::new(
    "exec_global_configs",
    "Explicit configure_global calls that installed the process-global pool",
);

/// Every counter the runtime exports, in registration order.
static COUNTERS: [&Counter; 7] = [
    &SCOPES,
    &TASKS_SPAWNED,
    &TASKS_WORKER,
    &TASKS_HELPED,
    &WORKER_PARKS,
    &WORKER_UNPARKS,
    &GLOBAL_CONFIGS,
];

/// Register every exec counter with the process-global `imm-obs`
/// registry. Idempotent; called from pool constructors, never on a hot
/// path.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let metrics: Vec<&'static dyn Metric> =
            COUNTERS.iter().map(|&c| c as &'static dyn Metric).collect();
        imm_obs::register(&metrics);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
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
    fn exec_metric_names_are_byte_stable_since_pr6() {
        // The names PR 6 shipped, less the six `exec_pinned_*` that went
        // with the pinned pool and the inbox-overflow counter that went
        // with the bounded per-worker inboxes. External consumers
        // (BENCH_*.json diffs, dashboards) key on these strings; renaming
        // any of them is a breaking change that must be made deliberately,
        // not by accident.
        let expected = [
            "exec_scopes",
            "exec_tasks_spawned",
            "exec_tasks_worker",
            "exec_tasks_helped",
            "exec_worker_parks",
            "exec_worker_unparks",
            "exec_global_configs",
        ];
        let names: Vec<&str> = COUNTERS.iter().map(|c| c.name()).collect();
        assert_eq!(names, expected, "exec metric names/order changed vs PR 6");
    }

    #[test]
    fn register_feeds_the_global_obs_registry() {
        register();
        register(); // idempotent
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        for c in COUNTERS {
            assert!(names.contains(&c.name()), "{} missing from imm-obs registry", c.name());
        }
    }
}
