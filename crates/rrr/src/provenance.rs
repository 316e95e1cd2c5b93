//! Per-set sampling provenance: the root a stored RRR set was grown from.
//!
//! Sampling is counter-based (`efficient_imm::sampling`): every random
//! decision of set `i` is a pure function of `(rng_seed, i)` and the vertex
//! or edge it concerns, so a stored set needs no record of *what its
//! traversal touched* to be refreshable under graph mutation — the refresh
//! re-evaluates the coins themselves. The root is such a coin too, which is
//! why no index or snapshot stores it: a record here is what a batch run
//! reports about its own sample, and a dynamic index only checks that there
//! is one per set.

use crate::NodeId;

/// Provenance of one sampled RRR set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetProvenance {
    /// The uniformly drawn root vertex of the reverse traversal.
    pub root: NodeId,
}
