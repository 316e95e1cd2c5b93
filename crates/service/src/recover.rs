//! Recovery: rebuild the live revision of a dynamic snapshot — the one
//! place the daemon's startup and `update-index` turn a snapshot (its
//! sample and delta log, no graph) and the daemon's [`DeltaJournal`] back
//! into a live revision:
//!
//! 1. the snapshot's delta log replays through [`GraphDelta::apply`] on the
//!    original source, which rebuilds the graph the sample describes;
//! 2. every journal entry below the snapshot's revision (its log length)
//!    must equal the delta logged at that index, or the journal records
//!    another history and is refused;
//! 3. the entries from that revision on must be contiguous;
//! 4. those entries replay through [`SketchIndex::apply_delta`], exactly
//!    as the daemon rolled them.
//!
//! Steps 2 and 3 check the whole journal before step 4 touches the index.

use crate::dynamic::{DeltaLogEntry, DynamicError};
use crate::index::SketchIndex;
use crate::snapshot::{DeltaJournal, JournalEntry};
use imm_graph::{CsrGraph, DeltaError, EdgeWeights, GraphDelta};
use std::path::Path;

/// The live revision [`SketchIndex::recover`] rebuilt.
#[derive(Debug)]
pub struct Recovered {
    /// The graph the recovered index describes.
    pub graph: CsrGraph,
    /// Its edge weights.
    pub weights: EdgeWeights,
    /// Journal entries replayed past the snapshot's revision.
    pub journal_replayed: usize,
}

/// Why [`SketchIndex::recover`] could not rebuild the live revision.
#[derive(Debug)]
pub enum RecoverError {
    /// The index carries no provenance, so it has no revision to rebuild.
    NotDynamic,
    /// Logged delta `entry` (of `logged`) does not apply to the graph the
    /// log has rebuilt so far: the source is not the one sampled.
    Log {
        /// 0-based index of the failing delta in the snapshot's log.
        entry: usize,
        /// Deltas in the snapshot's log.
        logged: usize,
        /// Why the delta did not apply.
        error: DeltaError,
    },
    /// The journal file could not be read.
    Journal(std::io::Error),
    /// The journal entry at this index lies below the snapshot's revision
    /// but differs from the delta logged there: another history.
    Foreign(u64),
    /// The journal skips a revision: `expected` is missing, `found` follows.
    Gap {
        /// The revision the next entry had to carry.
        expected: u64,
        /// The revision it carried.
        found: u64,
    },
    /// Journal entry `entry` is not a delta, or the refresh refused it.
    Replay {
        /// The entry's `applied_index`.
        entry: u64,
        /// The refresh failure.
        error: DynamicError,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NotDynamic => write!(f, "{}", DynamicError::NotDynamic),
            RecoverError::Log { entry, logged, error } => {
                write!(f, "replaying logged delta {entry} of {logged} failed: {error}")
            }
            RecoverError::Journal(e) => write!(f, "cannot read the delta journal: {e}"),
            RecoverError::Foreign(entry) => write!(
                f,
                "journal entry {entry} differs from the snapshot's logged delta {entry}: the \
                 journal records another history"
            ),
            RecoverError::Gap { expected, found } => {
                write!(f, "journal entry {expected} is missing (the next entry is {found})")
            }
            RecoverError::Replay { entry, error } => {
                write!(f, "replaying journal entry {entry} failed: {error}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// The journal entries past `log`, parsed, after checking the whole journal
/// against it (steps 2 and 3 of the module docs).
fn pending(
    log: &[DeltaLogEntry],
    entries: Vec<JournalEntry>,
) -> Result<Vec<(u64, GraphDelta)>, RecoverError> {
    let mut next = log.len() as u64;
    let mut pending = Vec::new();
    for JournalEntry { applied_index: entry, text } in entries {
        let delta = GraphDelta::parse_text(&text)
            .map_err(|error| RecoverError::Replay { entry, error: error.into() })?;
        match usize::try_from(entry).ok().and_then(|at| log.get(at)) {
            Some(logged) if logged.delta != delta => return Err(RecoverError::Foreign(entry)),
            Some(_) => {}
            None if entry == next => {
                pending.push((entry, delta));
                next += 1;
            }
            None => return Err(RecoverError::Gap { expected: next, found: entry }),
        }
    }
    Ok(pending)
}

impl SketchIndex {
    /// Rebuild the live revision of this dynamic index from its original
    /// source `graph` + `weights` (the revision it was sampled on) and,
    /// when given, the daemon's delta `journal` (see the module docs).
    /// Journal entries past the snapshot's revision are folded into the
    /// index, and the returned graph is the revision it then describes. A
    /// refused journal leaves the index untouched; a delta the refresh
    /// refuses leaves it at the last entry that applied.
    pub fn recover(
        &mut self,
        mut graph: CsrGraph,
        mut weights: EdgeWeights,
        journal: Option<&Path>,
    ) -> Result<Recovered, RecoverError> {
        let log = &self.provenance().ok_or(RecoverError::NotDynamic)?.delta_log;
        for (entry, logged) in log.iter().enumerate() {
            (graph, weights) = logged
                .delta
                .apply(&graph, &weights)
                .map_err(|error| RecoverError::Log { entry, logged: log.len(), error })?;
        }
        let pending = match journal {
            Some(path) => {
                pending(log, DeltaJournal::read_entries(path).map_err(RecoverError::Journal)?)?
            }
            None => Vec::new(),
        };
        for (entry, delta) in &pending {
            (graph, weights, _) = self
                .apply_delta(&graph, &weights, delta)
                .map_err(|error| RecoverError::Replay { entry: *entry, error })?;
        }
        Ok(Recovered { graph, weights, journal_replayed: pending.len() })
    }
}
