//! The query vocabulary of the serving subsystem: the requests and their
//! answers.

use imm_rrr::{BitSet, NodeId};

/// One request against a [`SketchIndex`](crate::SketchIndex).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// The `k` most influential seeds (greedy max coverage over the index).
    ///
    /// With an `audience`, coverage is restricted to the **audience-relevant
    /// sets**: the RRR sets containing at least one audience vertex (found
    /// through the inverted postings — no set scan). Since a set's root is
    /// always a member, every set rooted in the audience is relevant, so the
    /// masked greedy maximizes influence routed through the audience slice;
    /// an audience spanning every vertex selects exactly the unrestricted
    /// seeds.
    TopK {
        /// Seed budget.
        k: usize,
        /// Optional audience mask over the vertex space (`None` = everyone).
        audience: Option<BitSet>,
    },
    /// Coverage-based influence estimate of an explicit seed set.
    Spread {
        /// The seed set to evaluate.
        seeds: Vec<NodeId>,
    },
    /// Marginal influence gain of adding `candidate` to `seeds`.
    Marginal {
        /// The already-selected seeds.
        seeds: Vec<NodeId>,
        /// The vertex whose additional contribution is asked for.
        candidate: NodeId,
    },
}

impl Query {
    /// Unrestricted Top-K request (the common case).
    pub fn top_k(k: usize) -> Self {
        Query::TopK { k, audience: None }
    }

    /// Top-K restricted to an audience slice of the vertex space.
    pub fn audience_top_k(k: usize, audience: BitSet) -> Self {
        Query::TopK { k, audience: Some(audience) }
    }
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`Query::TopK`].
    TopK {
        /// The selected seeds, most influential first. Byte-identical to what
        /// a fresh greedy selection over the same collection would return.
        seeds: Vec<NodeId>,
        /// Fraction of indexed sets covered by the seeds.
        coverage_fraction: f64,
        /// Estimated spread `n · coverage_fraction`.
        estimated_influence: f64,
    },
    /// Answer to [`Query::Spread`].
    Spread {
        /// Fraction of indexed sets hit by at least one seed.
        coverage_fraction: f64,
        /// Estimated spread `n · coverage_fraction`.
        estimate: f64,
    },
    /// Answer to [`Query::Marginal`].
    Marginal {
        /// Fraction of indexed sets newly covered by the candidate.
        gain_fraction: f64,
        /// Estimated additional spread `n · gain_fraction`.
        gain: f64,
    },
}

impl QueryResponse {
    /// Assemble a Top-K response from integer tallies. This is **the**
    /// definition of the float derivation: every engine (single-index,
    /// sharded) must build its responses through these constructors so the
    /// byte-identity contract between them lives in exactly one place.
    pub fn top_k_from_tallies(
        seeds: Vec<NodeId>,
        covered: usize,
        theta: usize,
        num_nodes: usize,
    ) -> Self {
        let coverage_fraction = if theta == 0 { 0.0 } else { covered as f64 / theta as f64 };
        QueryResponse::TopK {
            seeds,
            coverage_fraction,
            estimated_influence: num_nodes as f64 * coverage_fraction,
        }
    }

    /// Assemble a Spread response from integer tallies (see
    /// [`QueryResponse::top_k_from_tallies`]).
    pub fn spread_from_tallies(covered: usize, theta: usize, num_nodes: usize) -> Self {
        let coverage_fraction = if theta == 0 { 0.0 } else { covered as f64 / theta as f64 };
        QueryResponse::Spread { coverage_fraction, estimate: num_nodes as f64 * coverage_fraction }
    }

    /// Assemble a Marginal response from integer tallies (see
    /// [`QueryResponse::top_k_from_tallies`]).
    pub fn marginal_from_tallies(gained: usize, theta: usize, num_nodes: usize) -> Self {
        let gain_fraction = if theta == 0 { 0.0 } else { gained as f64 / theta as f64 };
        QueryResponse::Marginal { gain_fraction, gain: num_nodes as f64 * gain_fraction }
    }
}
