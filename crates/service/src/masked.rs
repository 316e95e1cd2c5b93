//! The lazy-greedy (CELF) session behind every Top-K: one frontier pop and
//! one coverage kernel, shared by the fresh and the audience selection of
//! every engine.
//!
//! A session is a θ-bit `covered` bitmap and a max-heap of lazy
//! `(gain bound, vertex)` entries. A vertex's gain is the number of sets
//! containing it that are not covered yet; gains only fall as sets are
//! covered, so a popped entry whose stored bound equals its exact gain *is*
//! the round's argmax — a round costs O(revalidations · log n) instead of an
//! O(n) rescan. The exact gain is recounted at the pop against the bitmap
//! ([`PostingsView::count_outside`]: one popcount per word for a vertex
//! stored as a bit row, one probe per set for a list), and the chosen seed
//! is retired by one [`PostingsView::or_into`], whose return value is the
//! round's coverage increment. No per-vertex count is kept live: in the
//! dense regime the first seed covers nearly every set, and decrementing
//! the count of every member of every covered set was Θ(θ·n) work that CELF
//! mostly never read.
//!
//! The heap holds **positive bounds only**: a vertex whose gain reached
//! zero has gain zero forever, and the all-zero argmax is the smallest
//! vertex id — so the heap running dry *is* the all-zero round and every
//! remaining round emits vertex 0, exactly what the batch kernels'
//! reduction selects. Ties break toward the smaller vertex id, so the seeds
//! are byte-identical to a fresh `select_seeds` pass over the same
//! collection.
//!
//! * The **fresh** session ([`LazyGreedy`]) is persistent: nothing covered,
//!   bounds seeded from the index's degree vector. Greedy max coverage is
//!   prefix-stable (the first `k` seeds of a budget-`k+Δ` selection are the
//!   budget-`k` selection), so it keeps its prefix and only ever *extends*
//!   it: asking for `k` and later `k+5` plays five new rounds.
//! * An **audience** session ([`MaskedPool`]) is transient: greedy max
//!   coverage over the *eligible* sets — those containing an audience
//!   vertex — which is the same kernel started with every ineligible set
//!   marked covered. The eligible ids come from walking the audience's
//!   postings; exact initial bounds come from walking the eligible sets
//!   only (recording the vertices they touch, whose counts are set-up
//!   scratch, zeroed again as they move into the heap), so the frontier holds
//!   the touched vertices only. Between queries the scratch **covers every
//!   set and counts nothing**: a finished session restores it by walking
//!   its own eligible list and returns to a per-engine pool, so a query
//!   allocates nothing in the steady state and concurrent queries each
//!   check out their own session (no lock is held while one runs).

use crate::index::SetId;
use imm_rrr::{BitSet, NodeId, PostingsView, RrrCollection};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One lazy-greedy session over an index generation (n, θ); see the
/// [module docs](self).
#[derive(Debug)]
pub struct LazyGreedy {
    /// One bit per set: covered by a selected seed (or, in an audience
    /// session, not eligible).
    covered: Vec<u64>,
    /// The CELF frontier: positive gain bounds, ordered by bound then
    /// toward the smaller vertex id.
    frontier: BinaryHeap<(u32, Reverse<NodeId>)>,
    /// The greedy prefix selected so far.
    seeds: Vec<NodeId>,
    /// Cumulative covered-set count after each selected seed, so a smaller
    /// budget's coverage is answered from the prefix.
    covered_after: Vec<usize>,
    /// Vertices of the index: the cap on a budget.
    num_nodes: usize,
}

impl LazyGreedy {
    /// The fresh session of an index of `theta` sets: nothing covered, no
    /// seed selected, `degrees[v]` sets containing vertex `v`.
    pub fn fresh(degrees: &[u64], theta: usize) -> Self {
        let frontier = (0..)
            .zip(degrees)
            .filter(|(_, &d)| d > 0)
            .map(|(v, &d)| (d as u32, Reverse(v)))
            .collect();
        LazyGreedy {
            covered: vec![0; theta.div_ceil(64)],
            frontier,
            seeds: Vec::new(),
            covered_after: Vec::new(),
            num_nodes: degrees.len(),
        }
    }

    /// The first `min(k, num_nodes)` greedy seeds and how many sets they
    /// cover, playing only the rounds the prefix does not hold yet.
    /// `postings` must be the global postings of the index this session
    /// was made for.
    pub fn top_k(&mut self, postings: PostingsView<'_>, k: usize) -> (Vec<NodeId>, usize) {
        let take = k.min(self.num_nodes);
        self.extend_to(postings, take);
        let covered = take.checked_sub(1).map_or(0, |last| self.covered_after[last]);
        (self.seeds[..take].to_vec(), covered)
    }

    /// Play greedy rounds until `rounds` seeds are selected: the only loop
    /// in the workspace's serving path that covers sets.
    fn extend_to(&mut self, postings: PostingsView<'_>, rounds: usize) {
        let LazyGreedy { covered, frontier, seeds, covered_after, .. } = self;
        while seeds.len() < rounds {
            let (best, gain) = pop_argmax(frontier, |v| postings.count_outside(v, covered) as u32);
            seeds.push(best);
            let mut total = covered_after.last().copied().unwrap_or(0);
            if gain > 0 {
                let newly = postings.or_into(best, covered);
                debug_assert_eq!(newly, gain as usize, "the gain is what the seed covers");
                total += newly;
            }
            covered_after.push(total);
        }
    }
}

/// Pop the round's argmax off the frontier: `(vertex, gain)`, `gain(v)`
/// being the exact gain of `v` now. A stale entry is reinserted with its
/// exact gain unless that is zero; an empty frontier is the all-zero round,
/// whose argmax is the smallest vertex id. The one place CELF activity is
/// recorded, once per round rather than per pop.
fn pop_argmax(
    frontier: &mut BinaryHeap<(u32, Reverse<NodeId>)>,
    gain: impl Fn(NodeId) -> u32,
) -> (NodeId, u32) {
    let mut stale = 0u64;
    let (argmax, accepted) = loop {
        let Some((stored, Reverse(v))) = frontier.pop() else { break ((0, 0), 0) };
        let live = gain(v);
        if stored == live {
            break ((v, live), 1);
        }
        debug_assert!(live < stored, "gains only fall as sets are covered");
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

/// One audience session's pooled scratch: a session that covers every set,
/// all-zero counts, and the lists that restore them.
#[derive(Debug)]
struct MaskedSession {
    greedy: LazyGreedy,
    /// Exact initial gains of the touched vertices while a session is set
    /// up; all zero otherwise.
    counts: Vec<u32>,
    /// The eligible set ids, ascending (the restore list of `covered`).
    eligible: Vec<SetId>,
    /// Vertices some eligible set contains (the restore list of `counts`).
    touched: Vec<NodeId>,
}

impl MaskedSession {
    fn new(num_nodes: usize, theta: usize) -> Self {
        MaskedSession {
            greedy: LazyGreedy {
                // Padding bits too: they are never eligible.
                covered: vec![u64::MAX; theta.div_ceil(64)],
                frontier: BinaryHeap::new(),
                seeds: Vec::new(),
                covered_after: Vec::new(),
                num_nodes,
            },
            counts: vec![0; num_nodes],
            eligible: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Whether this scratch serves a generation of (n, θ): θ matters only
    /// through the bitmap's word count, since every bit rests covered.
    fn fits(&self, num_nodes: usize, theta: usize) -> bool {
        self.counts.len() == num_nodes && self.greedy.covered.len() == theta.div_ceil(64)
    }

    /// Run the masked greedy and leave the scratch covering every set
    /// again.
    fn top_k(
        &mut self,
        sets: &RrrCollection,
        postings: PostingsView<'_>,
        k: usize,
        audience: &BitSet,
    ) -> (Vec<NodeId>, usize) {
        let MaskedSession { greedy, counts, eligible, touched } = self;
        let n = counts.len();

        // Eligible sets: the union of the audience's postings, uncovered
        // (bits iterate ascending, so the first out-of-range vertex ends
        // the audience). Once every set is eligible the rest of the
        // audience adds nothing — with dense sets that is after a handful
        // of vertices.
        let covered = &mut greedy.covered;
        let mut uncovered = 0;
        for v in audience.iter().take_while(|&v| v < n) {
            if uncovered == sets.len() {
                break;
            }
            postings.for_each(v as NodeId, |sid| {
                let (word, bit) = (&mut covered[(sid / 64) as usize], 1u64 << (sid % 64));
                uncovered += usize::from(*word & bit != 0);
                *word &= !bit;
            });
        }
        // Ascending id order walks the arena front to back.
        for (w, &word) in (0..).zip(covered.iter()) {
            let mut free = !word;
            while free != 0 {
                eligible.push(w * 64 + free.trailing_zeros());
                free &= free - 1;
            }
        }
        crate::metrics::MASKED_SESSION_SETS.record(eligible.len() as u64);
        for &sid in eligible.iter() {
            sets.get(sid as usize).for_each(|v| {
                let count = &mut counts[v as usize];
                if *count == 0 {
                    touched.push(v);
                }
                *count += 1;
            });
        }
        // Heapify in place, on the storage the last query left behind; the
        // counts have done their job once the bounds are in the heap.
        let mut entries = std::mem::take(&mut greedy.frontier).into_vec();
        entries.extend(
            touched.drain(..).map(|v| (std::mem::take(&mut counts[v as usize]), Reverse(v))),
        );
        greedy.frontier = BinaryHeap::from(entries);

        let answer = greedy.top_k(postings, k);

        for sid in eligible.drain(..) {
            greedy.covered[(sid / 64) as usize] |= 1u64 << (sid % 64);
        }
        greedy.frontier.clear();
        greedy.seeds.clear();
        greedy.covered_after.clear();
        answer
    }
}

/// An engine's pool of audience sessions. A query checks one out (allocating
/// only when the pool is empty or the index generation changed size), runs
/// the sparse greedy on it, and returns it covering every set.
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
        /// The state [`LazyGreedy::fresh`] builds over `index`.
        pub(crate) fn is_fresh_over(&self, index: &SketchIndex) -> bool {
            let mut bounds: Vec<_> = (0..)
                .zip(index.degree_vector())
                .filter(|&(_, d)| d > 0)
                .map(|(v, d)| (d as u32, Reverse(v)))
                .collect();
            bounds.sort_unstable();
            self.covered == vec![0; index.num_sets().div_ceil(64)]
                && self.num_nodes == index.num_nodes()
                && self.frontier.clone().into_sorted_vec() == bounds
                && self.seeds.is_empty()
                && self.covered_after.is_empty()
        }
    }

    impl MaskedSession {
        /// The state a session holds between audience queries.
        fn is_at_rest(&self) -> bool {
            self.greedy.covered.iter().all(|&w| w == u64::MAX)
                && self.counts.iter().all(|&c| c == 0)
                && self.greedy.frontier.is_empty()
                && self.greedy.seeds.is_empty()
                && self.greedy.covered_after.is_empty()
                && self.eligible.is_empty()
                && self.touched.is_empty()
        }
    }

    #[test]
    fn a_fresh_session_extends_its_prefix_and_never_replays_it() {
        let index = figure3();
        let mut session = LazyGreedy::fresh(&index.degree_vector(), index.num_sets());
        assert!(session.is_fresh_over(&index));
        // Degrees [2,4,1,2,3,1]: vertex 1 (4 sets), then 3 (its 2 sets are
        // untouched), then 2 (ties 4 at one set; the smaller id wins).
        assert_eq!(session.top_k(index.postings().view(), 1), (vec![1], 4));
        assert_eq!(session.top_k(index.postings().view(), 3), (vec![1, 3, 2], 7));
        assert_eq!(session.seeds.len(), 3);
        // A smaller budget reads the prefix; nothing is covered twice.
        assert_eq!(session.top_k(index.postings().view(), 2), (vec![1, 3], 6));
        assert_eq!(session.seeds.len(), 3);
        assert_eq!(session.covered, vec![(1 << 7) - 1], "all seven sets covered");
        // Everything is covered: the dry frontier emits vertex 0, up to n.
        assert_eq!(session.top_k(index.postings().view(), 9), (vec![1, 3, 2, 0, 0, 0], 7));
    }

    #[test]
    fn a_finished_session_returns_to_the_pool_all_covered_with_zero_counts() {
        let index = figure3();
        let sessions = MaskedPool::default();
        let audience = BitSet::from_iter_with_capacity(6, [1, 3]);
        // k = 1 leaves eligible sets uncovered at the end of the rounds:
        // the restore walk has real work to do.
        let (seeds, covered) = sessions.top_k(index.sets(), index.postings().view(), 1, &audience);
        assert_eq!((seeds, covered), (vec![1], 4));
        let pool = sessions.pool.lock();
        assert_eq!(pool.len(), 1);
        assert!(pool[0].is_at_rest());
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
        LazyGreedy::fresh(&index.degree_vector(), index.num_sets())
            .top_k(index.postings().view(), 2);
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
        // Vertex 8 is out of the small session's bounds.
        let audience = BitSet::from_iter_with_capacity(9, [7, 8]);
        let (seeds, covered) = sessions.top_k(large.sets(), large.postings().view(), 2, &audience);
        assert_eq!((seeds, covered), (vec![8, 7], 4));
        let pool = sessions.pool.lock();
        assert_eq!(pool.len(), 1, "the stale session was dropped, not kept alongside");
        assert!(pool[0].fits(9, 4));
    }
}
