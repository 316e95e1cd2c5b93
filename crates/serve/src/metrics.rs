//! Daemon observability: `serve_`-prefixed metrics in the workspace
//! `imm-obs` registry.
//!
//! Counters follow the exec/shard idiom (static, relaxed adds, zero
//! cost under `obs-off`). [`INFLIGHT_PEAK`] is a sampled gauge in the
//! `exec_shared_queue_depth_max` style: the housekeeping tick peeks the
//! racy in-flight count and publishes the max over its recent window
//! (`imm_obs::MaxWindow`) — never the raw instantaneous read.

use std::sync::Once;

use imm_obs::{Counter, Gauge, Metric, Unit};

/// Connections accepted by the listener.
pub static CONNECTIONS: Counter =
    Counter::new("serve_connections", "Client connections accepted by the serving daemon");

/// Requests decoded and dispatched (all verbs).
pub static REQUESTS: Counter =
    Counter::new("serve_requests", "Framed requests decoded and dispatched by the daemon");

/// Individual queries answered inside batch requests.
pub static QUERIES: Counter =
    Counter::new("serve_queries", "Queries answered by the daemon inside batch requests");

/// Queries refused by the cost-budget admission gate.
pub static REJECTED_OVER_BUDGET: Counter = Counter::new(
    "serve_rejected_over_budget",
    "Queries refused because their postings-size cost estimate exceeded the budget",
);

/// Requests shed because the bounded in-flight queue was full.
pub static REJECTED_QUEUE_FULL: Counter = Counter::new(
    "serve_rejected_queue_full",
    "Requests shed because the daemon's bounded in-flight queue was full",
);

/// Queries refused for naming a vertex outside the served vertex space.
pub static REJECTED_INVALID_VERTEX: Counter = Counter::new(
    "serve_rejected_invalid_vertex",
    "Queries refused for naming a vertex outside the served index's vertex space",
);

/// Connections dropped on a protocol error (bad magic, oversized or
/// truncated frame, garbage payload).
pub static PROTOCOL_ERRORS: Counter = Counter::new(
    "serve_protocol_errors",
    "Connections dropped by the daemon on a framing or decoding error",
);

/// Completed graceful `apply_delta` rollouts.
pub static ROLLOUTS: Counter = Counter::new(
    "serve_rollouts",
    "Graceful apply_delta rollouts completed by the daemon since startup",
);

/// Queries cut by the per-batch execution deadline (each answered with a
/// structured `DeadlineExceeded` rejection, not dropped).
pub static DEADLINE_EXCEEDED: Counter = Counter::new(
    "serve_deadline_exceeded",
    "Queries cut by the per-batch execution deadline with a structured rejection",
);

/// Connections closed by the idle timeout (slow-loris shedding); each
/// gets a structured `IdleTimeout` goodbye frame first.
pub static CONN_TIMEOUTS: Counter = Counter::new(
    "serve_conn_timeouts",
    "Idle client connections closed by the daemon's idle timeout",
);

/// Retries issued by the retrying client (reconnects and re-sends of
/// idempotent requests after timeouts, lost connections, or queue-full
/// answers). Client-side, but registered here so one process's registry
/// tells the whole fault-handling story.
pub static RETRIES: Counter = Counter::new(
    "serve_retries",
    "Idempotent requests re-sent by the retrying client after a retryable failure",
);

/// Max-over-window in-flight request count, published by the daemon's
/// housekeeping tick (the raw counter is a racy instantaneous read).
pub static INFLIGHT_PEAK: Gauge = Gauge::new(
    "serve_inflight_peak",
    "Peak concurrently in-flight requests over the housekeeping sampler's recent window",
    Unit::Count,
);

/// Register every serve metric with the process-global `imm-obs`
/// registry. Idempotent; called from the server constructor.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        imm_obs::register(&[
            &CONNECTIONS as &'static dyn Metric,
            &REQUESTS,
            &QUERIES,
            &REJECTED_OVER_BUDGET,
            &REJECTED_QUEUE_FULL,
            &REJECTED_INVALID_VERTEX,
            &PROTOCOL_ERRORS,
            &ROLLOUTS,
            &DEADLINE_EXCEEDED,
            &CONN_TIMEOUTS,
            &RETRIES,
            &INFLIGHT_PEAK,
        ]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_metrics_join_the_obs_registry_once() {
        register();
        register(); // idempotent
        let names: Vec<&str> = imm_obs::snapshot().iter().map(|s| s.name).collect();
        for name in [
            "serve_connections",
            "serve_requests",
            "serve_queries",
            "serve_rejected_over_budget",
            "serve_rejected_queue_full",
            "serve_rejected_invalid_vertex",
            "serve_protocol_errors",
            "serve_rollouts",
            "serve_deadline_exceeded",
            "serve_conn_timeouts",
            "serve_retries",
            "serve_inflight_peak",
        ] {
            assert_eq!(
                names.iter().filter(|n| **n == name).count(),
                1,
                "{name} must be registered exactly once"
            );
        }
    }
}
