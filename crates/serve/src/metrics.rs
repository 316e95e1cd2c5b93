//! Daemon observability: `serve_`-prefixed metrics in the workspace
//! `imm-obs` registry, registered by the server constructor.
//!
//! Counters follow the exec/shard idiom (static, relaxed adds, zero
//! cost under `obs-off`). [`INFLIGHT_PEAK`] is recorded where the event
//! happens: admission sets it when a claimed slot raises the in-flight
//! high-water mark, so no burst is too short to reach it.

imm_obs::metrics! {
    pub CONNECTIONS: Counter =
        "serve_connections", "Client connections accepted by the serving daemon";
    /// All verbs.
    pub REQUESTS: Counter =
        "serve_requests", "Framed requests decoded and dispatched by the daemon";
    pub QUERIES: Counter =
        "serve_queries", "Queries answered by the daemon inside batch requests";
    pub REJECTED_OVER_BUDGET: Counter = "serve_rejected_over_budget",
        "Queries refused because their postings-size cost estimate exceeded the budget";
    pub REJECTED_QUEUE_FULL: Counter = "serve_rejected_queue_full",
        "Requests shed because the daemon's bounded in-flight queue was full";
    pub REJECTED_INVALID_VERTEX: Counter = "serve_rejected_invalid_vertex",
        "Queries refused for naming a vertex outside the served index's vertex space";
    /// Bad magic, an oversized or truncated frame, or a garbage payload.
    pub PROTOCOL_ERRORS: Counter = "serve_protocol_errors",
        "Connections dropped by the daemon on a framing or decoding error";
    pub ROLLOUTS: Counter = "serve_rollouts",
        "Graceful apply_delta rollouts completed by the daemon since startup";
    /// Failed or refused rollouts are not recorded.
    pub ROLLOUT_LATENCY: Histogram = "serve_rollout_latency",
        "Wall-clock time of a graceful rollout, from the index rebuild to the generation swap",
        Nanoseconds;
    /// Each cut query is answered with a `DeadlineExceeded` rejection, not
    /// dropped.
    pub DEADLINE_EXCEEDED: Counter = "serve_deadline_exceeded",
        "Queries cut by the per-batch execution deadline with a structured rejection";
    /// Slow-loris shedding; each connection gets a structured
    /// `IdleTimeout` goodbye frame first.
    pub CONN_TIMEOUTS: Counter =
        "serve_conn_timeouts", "Idle client connections closed by the daemon's idle timeout";
    /// Reconnects and re-sends after timeouts, lost connections, or
    /// queue-full answers. Client-side, but registered here so one
    /// process's registry tells the whole fault-handling story.
    pub RETRIES: Counter = "serve_retries",
        "Idempotent requests re-sent by the retrying client after a retryable failure";
    /// Set by `Admission::try_acquire` when a claimed slot raises the
    /// high-water mark.
    pub INFLIGHT_PEAK: Gauge = "serve_inflight_peak",
        "Peak number of requests in flight at once since the daemon started",
        Count;
}
