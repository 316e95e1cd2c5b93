//! Sampling- and selection-kernel metrics (`core_` prefix) on the workspace
//! `imm-obs` registry.
//!
//! The selection counters are paid once per selection call: the rounds by
//! `select_seeds_celf_over` (`run_imm`'s) and by the eager EfficientIMM
//! kernel in `imm-bench`, the postings walked by the eager kernel alone.
//! The sampling loop is the hottest path in the system (millions of RRR
//! sets per second), so its instrumentation costs nothing per set: each
//! worker tallies its sets, their members, its edge probes and its sweeps
//! in plain fields of its `VisitMarker`, and the marker adds the four into
//! the registry when it is dropped — once per worker per sampling call
//! (the one-shot path: when the caller drops its marker). Two workers
//! never share a counter's cache line per set. [`register`] is called once
//! per bulk sampling or selection call, never per set.

imm_obs::metrics! {
    /// Added once per worker per call, off the worker's `VisitMarker`; the
    /// one-shot path counts here too.
    pub SETS_SAMPLED: Counter = "core_rrr_sets_sampled",
        "RRR sets generated by the sampling loop across bulk and refresh paths";
    /// Added once per worker per call, off the worker's `VisitMarker`.
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
