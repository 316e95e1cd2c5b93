//! # imm-graph
//!
//! Directed-graph substrate for the EfficientIMM reproduction.
//!
//! The crate provides everything the influence-maximization layers need from
//! a graph library:
//!
//! * [`EdgeList`] — a mutable edge container used while building graphs
//!   (deduplication, self-loop removal, renumbering).
//! * [`CsrGraph`] — an immutable compressed-sparse-row representation of the
//!   reverse (in-edge) adjacency, the layout the reverse-influence-sampling
//!   kernels traverse; per-edge data is stored per in-slot, parallel to it.
//! * [`generators`] — synthetic graph generators (Erdős–Rényi,
//!   Barabási–Albert, R-MAT, Watts–Strogatz, stochastic block model and a few
//!   deterministic toys) used as stand-ins for the SNAP datasets evaluated in
//!   the paper.
//! * [`weights`] — edge-probability/weight models for the Independent Cascade
//!   and Linear Threshold diffusion models, mirroring the paper's dataset
//!   preparation (§V-A).
//! * [`properties`] — the structural analytics the paper's motivation section
//!   relies on: degree distributions, strongly/weakly connected components and
//!   the giant-SCC fraction that drives dense RRR sets.
//! * [`delta`] — batched edge insertion/deletion/reweighting against a frozen
//!   CSR + weights pair, with the destination-locality guarantee the
//!   incremental sketch refresh in `imm-service` is built on.
//! * [`io`] — SNAP-style whitespace edge-list text I/O.
//! * [`partition`] — vertex/range partitioning helpers (block, NUMA
//!   interleave) shared by the parallel kernels.
//!
//! All vertex identifiers are `u32` (`NodeId`); graphs of up to ~4 billion
//! vertices are outside the scope of this reproduction and `u32` halves the
//! memory traffic of the hot kernels, which is exactly the kind of
//! consideration the paper cares about.

pub mod csr;
pub mod delta;
pub mod edge_list;
pub mod generators;
pub mod io;
pub mod partition;
pub mod properties;
pub mod weights;

pub use csr::CsrGraph;
pub use delta::{DeltaError, GraphDelta};
pub use edge_list::{Edge, EdgeList};
pub use partition::{block_ranges, Range};
pub use properties::{DegreeStats, SccResult};
pub use weights::{EdgeWeights, WeightModel};

/// Vertex identifier used throughout the workspace.
pub type NodeId = u32;

/// Errors produced while constructing or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id ≥ the declared number of vertices.
    NodeOutOfRange { node: u64, num_nodes: u64 },
    /// The input file or stream could not be parsed.
    Parse { line: usize, message: String },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A weight vector did not match the number of edges.
    WeightLengthMismatch { expected: usize, actual: usize },
    /// An edge probability/weight was outside `[0, 1]`.
    InvalidWeight { edge_index: usize, value: f32 },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range (graph has {num_nodes} nodes)")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::WeightLengthMismatch { expected, actual } => {
                write!(f, "weight vector length {actual} does not match edge count {expected}")
            }
            GraphError::InvalidWeight { edge_index, value } => {
                write!(f, "edge {edge_index} has invalid weight {value} (must be in [0,1])")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::NodeOutOfRange { node: 10, num_nodes: 5 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('5'));

        let e = GraphError::Parse { line: 3, message: "bad token".into() };
        assert!(e.to_string().contains("line 3"));

        let e = GraphError::WeightLengthMismatch { expected: 4, actual: 2 };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));

        let e = GraphError::InvalidWeight { edge_index: 7, value: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
