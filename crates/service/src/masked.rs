//! The engine's pool of audience Top-K sessions, and where the lazy-greedy
//! sessions' work becomes `service_` metrics.
//!
//! Every Top-K an engine answers runs `imm_rrr`'s lazy-greedy (CELF)
//! session, [`LazyGreedy`], over the generation's postings: the fresh
//! session is the engine's persistent greedy prefix, and an audience
//! session is the fresh one started over with every ineligible set covered
//! ([`LazyGreedy::restrict_to`]). Sessions are pooled per engine and
//! generation: a query checks one out and starts it over, so it allocates
//! nothing in the steady state, and concurrent queries each check out their
//! own (no lock is held while one runs).
//!
//! A session tallies its rounds, pops and revalidations in plain fields;
//! `record_celf` adds what one query played to `service_celf_*`, and an
//! audience session's eligible-set count goes to
//! `service_masked_session_sets`.

use imm_rrr::{BitSet, CelfWork, LazyGreedy, NodeId, Postings};
use parking_lot::Mutex;

/// Add the CELF work one query played to the `service_celf_*` counters.
pub(crate) fn record_celf(session: &mut LazyGreedy) {
    let CelfWork { rounds, pops, revalidations } = session.take_work();
    crate::metrics::CELF_ROUNDS.add(rounds);
    crate::metrics::CELF_HEAP_POPS.add(pops);
    crate::metrics::CELF_REVALIDATIONS.add(revalidations);
}

/// An engine's pool of audience sessions over one index generation. A query
/// checks one out (cloning the generation's fresh session only when the
/// pool is empty), starts it over on its audience, and returns it.
#[derive(Debug)]
pub struct MaskedPool {
    /// What a new audience session starts as.
    fresh: LazyGreedy,
    pool: Mutex<Vec<LazyGreedy>>,
}

impl MaskedPool {
    /// The pool of the generation whose fresh session is `fresh`.
    pub fn new(fresh: LazyGreedy) -> Self {
        MaskedPool { fresh, pool: Mutex::new(Vec::new()) }
    }

    /// Audience-restricted greedy Top-K: the first `min(k, num_nodes)` seeds
    /// and how many sets they cover. `postings` must be the global postings
    /// of the generation this pool was made for.
    pub fn top_k(&self, postings: &Postings, k: usize, audience: &BitSet) -> (Vec<NodeId>, usize) {
        let pooled = self.pool.lock().pop();
        let mut session = pooled.unwrap_or_else(|| self.fresh.clone());
        let view = postings.view();
        let eligible = session.restrict_to(view, postings.range_len(), audience);
        crate::metrics::MASKED_SESSION_SETS.record(eligible as u64);
        let answer = session.top_k(view, k);
        record_celf(&mut session);
        self.pool.lock().push(session);
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SketchIndex;

    /// Seven of the paper's Figure 3 sets over six vertices.
    fn figure3() -> SketchIndex {
        SketchIndex::over_sets(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3]])
    }

    #[test]
    fn a_pooled_session_starts_the_next_audience_over() {
        let index = figure3();
        let sessions = MaskedPool::new(LazyGreedy::fresh(index.postings()));
        let audience = BitSet::from_iter_with_capacity(6, [1, 3]);
        // k = 1 leaves evaluated entries and eligible sets uncovered behind.
        assert_eq!(sessions.top_k(index.postings(), 1, &audience), (vec![1], 4));
        assert_eq!(sessions.pool.lock().len(), 1);
        // The pooled session answers the next audience as a new one would,
        // and goes back to the pool.
        let next = BitSet::from_iter_with_capacity(6, [5]);
        let fresh = MaskedPool::new(LazyGreedy::fresh(index.postings()));
        assert_eq!(
            sessions.top_k(index.postings(), 3, &next),
            fresh.top_k(index.postings(), 3, &next)
        );
        assert_eq!(sessions.top_k(index.postings(), 3, &next), (vec![1, 0, 0], 1));
        assert_eq!(sessions.pool.lock().len(), 1);
    }

    #[test]
    fn a_session_records_its_eligible_sets_and_celf_rounds() {
        if !imm_obs::recording_enabled() {
            return;
        }
        let index = figure3();
        // Other tests of this process record too: lower bounds.
        let sessions_before = crate::metrics::MASKED_SESSION_SETS.snapshot().count;
        let rounds_before = crate::metrics::CELF_ROUNDS.value();
        let audience = BitSet::from_iter_with_capacity(6, [5]);
        MaskedPool::new(LazyGreedy::fresh(index.postings())).top_k(index.postings(), 3, &audience);
        assert!(crate::metrics::MASKED_SESSION_SETS.snapshot().count > sessions_before);
        assert!(crate::metrics::CELF_ROUNDS.value() >= rounds_before + 3);
        // The fresh session's work reaches the same counters.
        let rounds_before = crate::metrics::CELF_ROUNDS.value();
        let mut session = LazyGreedy::fresh(index.postings());
        session.top_k(index.postings().view(), 2);
        record_celf(&mut session);
        assert!(crate::metrics::CELF_ROUNDS.value() >= rounds_before + 2);
    }
}
