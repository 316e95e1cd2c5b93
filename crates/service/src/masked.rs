//! The lazy-greedy (CELF) session behind every Top-K: one frontier pop and
//! one retire loop, shared by the fresh and the audience selection of
//! every engine.
//!
//! A session is a θ-bit `alive` bitset, a live count per vertex (the alive
//! sets containing it) and a max-heap of lazy `(count bound, vertex)`
//! entries. Counts only fall as sets retire, so a popped entry whose stored
//! bound still matches the live count *is* the round's argmax — a round
//! costs O(revalidations · log n) instead of an O(n) rescan. The heap holds
//! **positive bounds only**: a vertex whose count reached zero has gain
//! zero forever, and the all-zero argmax is the smallest vertex id — so the
//! heap running dry *is* the all-zero round and every remaining round emits
//! vertex 0, exactly what the batch kernels' reduction selects. Ties break
//! toward the smaller vertex id, so the seeds are byte-identical to a fresh
//! `select_seeds` pass over the same collection.
//!
//! Retiring a chosen seed's sets walks the global [`imm_rrr::Postings`]
//! over the shared [`RrrCollection`] — the single-index engine's, which a
//! sharded index keeps as its base's — so both engines run the same code
//! over the same structure, and a vertex stored as a row walks like one
//! stored as a list.
//!
//! * The **fresh** session ([`LazyGreedy`]) is persistent: all sets alive,
//!   counts seeded from the index's degree vector. Greedy max coverage is
//!   prefix-stable (the first `k` seeds of a budget-`k+Δ` selection are the
//!   budget-`k` selection), so it keeps its prefix and only ever *extends*
//!   it: asking for `k` and later `k+5` plays five new rounds.
//! * An **audience** session ([`MaskedPool`]) is transient: greedy max
//!   coverage over the *eligible* sets — those containing an audience
//!   vertex — whose work follows those sets, not the index. The eligible
//!   ids come from walking the audience's postings, the counts from walking
//!   the eligible sets only (recording the vertices they touch), the
//!   frontier holds the touched vertices only. The scratch is **all-zero
//!   between queries**: a finished session restores it by walking its own
//!   eligible and touched lists and returns to a per-engine pool, so a
//!   query allocates nothing in the steady state and concurrent queries
//!   each check out their own session (no lock is held while one runs).

use crate::index::SetId;
use imm_rrr::{BitSet, NodeId, PostingsView, RrrCollection};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One lazy-greedy session over an index generation (n, θ); see the
/// [module docs](self).
#[derive(Debug)]
pub struct LazyGreedy {
    /// Which sets are still uncovered (and, in an audience session,
    /// eligible).
    alive: BitSet,
    /// Live count per vertex over the alive sets.
    counts: Vec<u32>,
    /// The CELF frontier: positive lazy bounds, ordered by bound then
    /// toward the smaller vertex id.
    frontier: BinaryHeap<(u32, Reverse<NodeId>)>,
    /// The greedy prefix selected so far.
    seeds: Vec<NodeId>,
    /// Cumulative covered-set count after each selected seed, so a smaller
    /// budget's coverage is answered from the prefix.
    covered_after: Vec<usize>,
}

impl LazyGreedy {
    /// The fresh session of an index of `theta` sets: every set alive, no
    /// seed selected, `degrees[v]` sets containing vertex `v`.
    pub fn fresh(degrees: impl IntoIterator<Item = u64>, theta: usize) -> Self {
        let counts: Vec<u32> = degrees.into_iter().map(|d| d as u32).collect();
        let mut words = vec![u64::MAX; theta.div_ceil(64)];
        if !theta.is_multiple_of(64) {
            *words.last_mut().expect("theta > 0") >>= 64 - theta % 64;
        }
        let frontier =
            (0..).zip(&counts).filter(|(_, &c)| c > 0).map(|(v, &c)| (c, Reverse(v))).collect();
        LazyGreedy {
            alive: BitSet::from_words(theta, words),
            counts,
            frontier,
            seeds: Vec::new(),
            covered_after: Vec::new(),
        }
    }

    /// The between-queries state of an audience session.
    fn all_zero(num_nodes: usize, theta: usize) -> Self {
        LazyGreedy {
            alive: BitSet::new(theta),
            counts: vec![0; num_nodes],
            frontier: BinaryHeap::new(),
            seeds: Vec::new(),
            covered_after: Vec::new(),
        }
    }

    /// The first `min(k, num_nodes)` greedy seeds over `sets` and how many
    /// sets they cover, playing only the rounds the prefix does not hold
    /// yet. `postings` must be the global postings over `sets`, the
    /// collection this session was made for.
    pub fn top_k(
        &mut self,
        sets: &RrrCollection,
        postings: PostingsView<'_>,
        k: usize,
    ) -> (Vec<NodeId>, usize) {
        let take = k.min(self.counts.len());
        self.extend_to(sets, postings, take);
        let covered = take.checked_sub(1).map_or(0, |last| self.covered_after[last]);
        (self.seeds[..take].to_vec(), covered)
    }

    /// Play greedy rounds until `rounds` seeds are selected: the only loop
    /// in the workspace's serving path that retires sets and decrements
    /// live counts.
    fn extend_to(&mut self, sets: &RrrCollection, postings: PostingsView<'_>, rounds: usize) {
        let LazyGreedy { alive, counts, frontier, seeds, covered_after } = self;
        while seeds.len() < rounds {
            let (best, gain) = pop_argmax(frontier, counts);
            seeds.push(best);
            let mut covered = covered_after.last().copied().unwrap_or(0);
            if gain > 0 {
                // The postings give the covered sets directly (the kernels
                // rescan all sets; same result, less work), and the flat
                // arena slices stream the counter decrements.
                postings.for_each(best, |sid| {
                    if alive.remove(sid as usize) {
                        covered += 1;
                        sets.get(sid as usize).for_each(|v| counts[v as usize] -= 1);
                    }
                });
                debug_assert_eq!(counts[best as usize], 0, "every alive set containing it retired");
            }
            covered_after.push(covered);
        }
    }
}

/// Pop the round's argmax off the frontier: `(vertex, gain)`. A stale entry
/// is reinserted with its live count unless that is zero; an empty frontier
/// is the all-zero round, whose argmax is the smallest vertex id. The one
/// place CELF activity is recorded, once per round rather than per pop.
fn pop_argmax(frontier: &mut BinaryHeap<(u32, Reverse<NodeId>)>, counts: &[u32]) -> (NodeId, u32) {
    let mut stale = 0u64;
    let (argmax, accepted) = loop {
        let Some((stored, Reverse(v))) = frontier.pop() else { break ((0, 0), 0) };
        let live = counts[v as usize];
        if stored == live {
            break ((v, live), 1);
        }
        debug_assert!(live < stored, "counts only fall as sets retire");
        stale += 1;
        if live > 0 {
            frontier.push((live, Reverse(v)));
        }
    };
    crate::metrics::CELF_ROUNDS.increment();
    crate::metrics::CELF_HEAP_POPS.add(stale + accepted);
    crate::metrics::CELF_REVALIDATIONS.add(stale);
    argmax
}

/// One audience session's pooled scratch: an all-zero session plus the
/// lists that restore it.
#[derive(Debug)]
struct MaskedSession {
    greedy: LazyGreedy,
    /// The eligible set ids, ascending (the restore list of `alive`).
    eligible: Vec<SetId>,
    /// Vertices some eligible set contains (the restore list of `counts`).
    touched: Vec<NodeId>,
}

impl MaskedSession {
    fn new(num_nodes: usize, theta: usize) -> Self {
        MaskedSession {
            greedy: LazyGreedy::all_zero(num_nodes, theta),
            eligible: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn fits(&self, num_nodes: usize, theta: usize) -> bool {
        self.greedy.counts.len() == num_nodes && self.greedy.alive.capacity() == theta
    }

    /// Run the masked greedy and leave the scratch all-zero again.
    fn top_k(
        &mut self,
        sets: &RrrCollection,
        postings: PostingsView<'_>,
        k: usize,
        audience: &BitSet,
    ) -> (Vec<NodeId>, usize) {
        let MaskedSession { greedy, eligible, touched } = self;
        let n = greedy.counts.len();

        // Eligible sets: the union of the audience's postings (bits iterate
        // ascending, so the first out-of-range vertex ends the audience).
        // Once every set is eligible the rest of the audience adds nothing —
        // with dense sets that is after a handful of vertices.
        for v in audience.iter().take_while(|&v| v < n) {
            if greedy.alive.len() == sets.len() {
                break;
            }
            postings.for_each(v as NodeId, |sid| {
                greedy.alive.insert(sid as usize);
            });
        }
        // Ascending id order walks the arena front to back.
        eligible.extend(greedy.alive.iter().map(|sid| sid as SetId));
        crate::metrics::MASKED_SESSION_SETS.record(eligible.len() as u64);
        for &sid in eligible.iter() {
            sets.get(sid as usize).for_each(|v| {
                let count = &mut greedy.counts[v as usize];
                if *count == 0 {
                    touched.push(v);
                }
                *count += 1;
            });
        }
        // Heapify in place, on the storage the last query left behind.
        let mut entries = std::mem::take(&mut greedy.frontier).into_vec();
        entries.extend(touched.iter().map(|&v| (greedy.counts[v as usize], Reverse(v))));
        greedy.frontier = BinaryHeap::from(entries);

        let answer = greedy.top_k(sets, postings, k);

        for v in touched.drain(..) {
            greedy.counts[v as usize] = 0;
        }
        for sid in eligible.drain(..) {
            greedy.alive.remove(sid as usize);
        }
        greedy.frontier.clear();
        greedy.seeds.clear();
        greedy.covered_after.clear();
        answer
    }
}

/// An engine's pool of audience sessions. A query checks one out (allocating
/// only when the pool is empty or the index generation changed size), runs
/// the sparse greedy on it, and returns it all-zero.
#[derive(Debug, Default)]
pub struct MaskedPool {
    pool: Mutex<Vec<MaskedSession>>,
}

impl MaskedPool {
    /// Audience-restricted greedy Top-K over `sets`: the first
    /// `min(k, num_nodes)` seeds and how many sets they cover. `postings`
    /// must be the global postings over `sets`.
    pub fn top_k(
        &self,
        sets: &RrrCollection,
        postings: PostingsView<'_>,
        k: usize,
        audience: &BitSet,
    ) -> (Vec<NodeId>, usize) {
        let (num_nodes, theta) = (sets.num_nodes(), sets.len());
        let pooled = {
            let mut pool = self.pool.lock();
            // A session sized for a previous generation is dropped here.
            pool.retain(|session| session.fits(num_nodes, theta));
            pool.pop()
        };
        let mut session = pooled.unwrap_or_else(|| MaskedSession::new(num_nodes, theta));
        let answer = session.top_k(sets, postings, k, audience);
        self.pool.lock().push(session);
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexMeta, SketchIndex};
    use imm_rrr::RrrSet;

    fn index_over(num_nodes: usize, sets: &[&[NodeId]]) -> SketchIndex {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
        }
        SketchIndex::from_collection(c, IndexMeta::default()).unwrap()
    }

    /// Seven of the paper's Figure 3 sets over six vertices.
    fn figure3() -> SketchIndex {
        index_over(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3]])
    }

    impl LazyGreedy {
        /// The state a session holds between audience queries.
        fn is_all_zero(&self) -> bool {
            self.alive.is_empty()
                && self.alive.words().iter().all(|&w| w == 0)
                && self.counts.iter().all(|&c| c == 0)
                && self.frontier.is_empty()
                && self.seeds.is_empty()
                && self.covered_after.is_empty()
        }

        /// The state [`LazyGreedy::fresh`] builds over `index`.
        pub(crate) fn is_fresh_over(&self, index: &SketchIndex) -> bool {
            let degrees: Vec<u32> = index.degree_vector().iter().map(|&d| d as u32).collect();
            let mut bounds: Vec<_> = (0..)
                .zip(&degrees)
                .filter(|(_, &d)| d > 0)
                .map(|(v, &d)| (d, Reverse(v)))
                .collect();
            bounds.sort_unstable();
            self.alive.len() == index.num_sets()
                && self.alive.capacity() == index.num_sets()
                && self.counts == degrees
                && self.frontier.clone().into_sorted_vec() == bounds
                && self.seeds.is_empty()
                && self.covered_after.is_empty()
        }
    }

    #[test]
    fn a_fresh_session_extends_its_prefix_and_never_replays_it() {
        let index = figure3();
        let mut session = LazyGreedy::fresh(index.degree_vector(), index.num_sets());
        assert!(session.is_fresh_over(&index));
        // Degrees [2,4,1,2,3,1]: vertex 1 (4 sets), then 3 (its 2 sets are
        // untouched), then 2 (ties 4 at one set; the smaller id wins).
        assert_eq!(session.top_k(index.sets(), index.postings().view(), 1), (vec![1], 4));
        assert_eq!(session.top_k(index.sets(), index.postings().view(), 3), (vec![1, 3, 2], 7));
        assert_eq!(session.seeds.len(), 3);
        // A smaller budget reads the prefix; nothing is retired twice.
        assert_eq!(session.top_k(index.sets(), index.postings().view(), 2), (vec![1, 3], 6));
        assert_eq!(session.seeds.len(), 3);
        assert!(session.alive.is_empty() && session.counts.iter().all(|&c| c == 0));
        // Everything is covered: the dry frontier emits vertex 0, up to n.
        assert_eq!(
            session.top_k(index.sets(), index.postings().view(), 9),
            (vec![1, 3, 2, 0, 0, 0], 7)
        );
    }

    #[test]
    fn a_fresh_session_keeps_the_padding_bits_of_its_last_word_clear() {
        for theta in [0usize, 1, 63, 64, 65, 128] {
            let session = LazyGreedy::fresh(vec![0; 3], theta);
            assert_eq!((session.alive.len(), session.alive.capacity()), (theta, theta));
            assert_eq!(session.alive.iter().count(), theta);
        }
    }

    #[test]
    fn a_finished_session_returns_to_the_pool_all_zero() {
        let index = figure3();
        let sessions = MaskedPool::default();
        let audience = BitSet::from_iter_with_capacity(6, [1, 3]);
        // k = 1 leaves eligible sets alive and counts positive at the end
        // of the rounds: the restore walk has real work to do.
        let (seeds, covered) = sessions.top_k(index.sets(), index.postings().view(), 1, &audience);
        assert_eq!((seeds, covered), (vec![1], 4));
        let pool = sessions.pool.lock();
        assert_eq!(pool.len(), 1);
        let session = &pool[0];
        assert!(session.greedy.is_all_zero());
        assert!(session.eligible.is_empty() && session.touched.is_empty());
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
        MaskedPool::default().top_k(index.sets(), index.postings().view(), 3, &audience);
        assert!(crate::metrics::MASKED_SESSION_SETS.snapshot().count > sessions_before);
        assert!(crate::metrics::CELF_ROUNDS.value() >= rounds_before + 3);
        // The fresh session plays on the same core: same counters.
        let rounds_before = crate::metrics::CELF_ROUNDS.value();
        LazyGreedy::fresh(index.degree_vector(), index.num_sets()).top_k(
            index.sets(),
            index.postings().view(),
            2,
        );
        assert!(crate::metrics::CELF_ROUNDS.value() >= rounds_before + 2);
    }

    #[test]
    fn a_session_of_another_generation_is_resized_not_reused() {
        let small = index_over(4, &[&[0, 1], &[2]]);
        let large = index_over(9, &[&[0, 8], &[8], &[3, 8], &[7]]);
        let sessions = MaskedPool::default();
        sessions.top_k(
            small.sets(),
            small.postings().view(),
            2,
            &BitSet::from_iter_with_capacity(4, [0]),
        );
        assert!(sessions.pool.lock()[0].fits(4, 2));
        // Vertex 8 and set 3 are out of the small session's bounds.
        let audience = BitSet::from_iter_with_capacity(9, [7, 8]);
        let (seeds, covered) = sessions.top_k(large.sets(), large.postings().view(), 2, &audience);
        assert_eq!((seeds, covered), (vec![8, 7], 4));
        let pool = sessions.pool.lock();
        assert_eq!(pool.len(), 1, "the stale session was dropped, not kept alongside");
        assert!(pool[0].fits(9, 4));
    }
}
