//! Runtime observability: static lazy counters in the `metriken` idiom.
//!
//! Every counter is an [`imm_obs::Counter`] `static` with a stable name and
//! a human description, incremented with one relaxed atomic add on the hot
//! path, and joins the workspace-wide `imm-obs` registry via [`register`].
//! Names are byte-stable — `exec_*` exactly as in PR 6, less the retired
//! ones — and a test pins them. Pool constructors call [`register`], never a
//! hot path.

imm_obs::metrics! {
    pub SCOPES: Counter = "exec_scopes", "Fork-join scopes entered on the shared worker pool";
    /// Tasks queued at any instant are `exec_tasks_spawned` minus the two
    /// `exec_tasks_*` execution counters.
    pub TASKS_SPAWNED: Counter = "exec_tasks_spawned", "Tasks spawned onto shared-pool scopes";
    /// Taken through the injector.
    pub TASKS_WORKER: Counter =
        "exec_tasks_worker", "Scope tasks executed by shared-pool workers";
    /// Queued tasks the owner drained, or every task of a pool without
    /// workers.
    pub TASKS_HELPED: Counter =
        "exec_tasks_helped", "Scope tasks run on the scope owner's thread";
    pub WORKER_PARKS: Counter =
        "exec_worker_parks", "Shared-pool workers parked on an empty injector";
    pub WORKER_UNPARKS: Counter =
        "exec_worker_unparks", "Wakeups sent to parked shared-pool workers";
    pub GLOBAL_CONFIGS: Counter = "exec_global_configs",
        "Explicit configure_global calls that installed the process-global pool";
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Read back through the registry, which is what consumers see (it
        // samples in name order, so compare as sorted lists).
        register();
        let names: Vec<&str> =
            imm_obs::snapshot().iter().map(|s| s.name).filter(|n| n.starts_with("exec_")).collect();
        let mut expected = expected.to_vec();
        expected.sort_unstable();
        assert_eq!(names, expected, "exec metric names changed");
    }
}
