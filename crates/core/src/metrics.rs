//! Sampling- and selection-kernel metrics (`core_` prefix) on the workspace
//! `imm-obs` registry.
//!
//! The selection counters are paid once per selection call: the rounds by
//! `select_seeds_celf` (`run_imm`'s) and `select_seeds_efficient`, the
//! postings walked by the eager kernel alone.
//! The sampling loop is the hottest path in the system (millions of RRR
//! sets per second), so instrumentation is held to the imm-obs budget:
//! two relaxed atomic adds per generated *set* (never per vertex), paid
//! once at the single choke point every sampling path funnels through.
//! The perf suite's `obs-off` overhead guard measures exactly these
//! events. The IC kernel's probe and sweep tallies ride in each worker's
//! `VisitMarker` and are added when it is dropped — once per worker per
//! sampling call. [`register`] is called once per bulk sampling or
//! selection call, never per set.

imm_obs::metrics! {
    /// The one-shot path counts here too.
    pub SETS_SAMPLED: Counter = "core_rrr_sets_sampled",
        "RRR sets generated by the sampling loop across bulk and refresh paths";
    /// Accumulated with one add per set.
    pub SET_VERTICES: Counter = "core_rrr_set_vertices",
        "Vertices appended into generated RRR sets (reverse-reachability traversal work)";
    /// Added once per worker per call, off the worker's `VisitMarker`.
    pub EDGES_PROBED: Counter = "core_rrr_edges_probed",
        "Edges the IC reverse BFS examined: in-edges probed top-down plus out-edges scanned bottom-up";
    /// Added once per worker per call, off the worker's `VisitMarker`.
    pub BOTTOM_UP_SWEEPS: Counter = "core_rrr_bottom_up_sweeps",
        "Bottom-up sweeps the IC reverse BFS ran over the vertices outside a dense set";
    pub SELECTION_ROUNDS: Counter = "core_selection_rounds",
        "Greedy rounds run by the EfficientIMM batch selections, CELF and eager (one argmax each)";
    pub SELECTION_POSTINGS_WALKED: Counter = "core_selection_postings_walked",
        "Postings entries the batch selection kernel inspected to find the sets each seed covers";
}
