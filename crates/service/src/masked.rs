//! The lazy-greedy (CELF) session behind every Top-K: one frontier pop and
//! one coverage kernel, shared by the fresh and the audience selection of
//! every engine.
//!
//! A session is a θ-bit `covered` bitmap and a lazy frontier of
//! `(gain bound, vertex)` entries. A vertex's gain is the number of sets
//! containing it that are not covered yet; gains only fall as sets are
//! covered, so a popped entry whose stored bound equals its exact gain *is*
//! the round's argmax — a round costs O(revalidations · log n) instead of an
//! O(n) rescan. The exact gain is recounted at the pop against the bitmap
//! ([`PostingsView::count_outside`]: one popcount per word for a vertex
//! stored as a bit row, one probe per set for a list), and the chosen seed
//! is retired by one [`PostingsView::or_into`], whose return value is the
//! round's coverage increment. No per-vertex count is kept live.
//!
//! The frontier is a max-heap of the vertices evaluated so far plus the
//! rest of the generation's **degree order** (`degree_order`): every
//! vertex of degree > 0, by degree descending and then id ascending. A
//! vertex's degree bounds its gain under any covered bitmap, so a vertex
//! nobody has evaluated needs no heap entry: each pop compares the heap top
//! with the next vertex of the order, as `(degree, smaller id)`, and takes
//! the larger. A vertex is thus evaluated only once its degree could beat
//! every live bound (CELF's lazy-forward rule, Leskovec et al., KDD 2007),
//! and the pops follow the same total order as a heap seeded with every
//! degree would.
//!
//! The heap holds **positive bounds only**: a vertex whose gain reached
//! zero has gain zero forever, and the all-zero argmax is the smallest
//! vertex id — so the frontier running dry (heap empty, order exhausted)
//! *is* the all-zero round and every remaining round emits vertex 0,
//! exactly what the batch kernels' reduction selects. Ties break toward
//! the smaller vertex id, so the seeds are byte-identical to a fresh
//! `select_seeds` pass over the same collection.
//!
//! * The **fresh** session ([`LazyGreedy`]) is persistent: nothing covered.
//!   Greedy max coverage is prefix-stable (the first `k` seeds of a
//!   budget-`k+Δ` selection are the budget-`k` selection), so it keeps its
//!   prefix and only ever *extends* it: asking for `k` and later `k+5`
//!   plays five new rounds.
//! * An **audience** session ([`MaskedPool`]) is the fresh session started
//!   with every *ineligible* set covered: greedy max coverage over the sets
//!   containing an audience vertex. It zeroes its bitmap, ORs in the
//!   audience's postings (stopping once every set is eligible) and inverts
//!   the bitmap. A vertex that sits only in ineligible sets is evaluated to
//!   gain zero when the order reaches it, and dropped. The session's work
//!   is that postings walk plus the prefix of the degree order it
//!   evaluates; it reads no set-major storage. Sessions are pooled per
//!   engine and generation: a query checks one out and starts it over, so
//!   it allocates nothing in the steady state, and concurrent queries each
//!   check out their own (no lock is held while one runs).

use imm_rrr::{BitSet, NodeId, Postings, PostingsView};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Every vertex of degree > 0 in `postings`, by degree descending and then
/// id ascending: one counting sort over [`PostingsView::degree`].
fn degree_order(postings: &Postings) -> Arc<[NodeId]> {
    let view = postings.view();
    let degrees: Vec<u32> =
        (0..postings.num_nodes() as NodeId).map(|v| view.degree(v) as u32).collect();
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let positive = || (0..).zip(&degrees).filter(|(_, &d)| d > 0);
    // Bucket `max - d` holds degree `d`; after the prefix sum, each bucket
    // holds its next free slot of the order.
    let mut next = vec![0usize; max + 1];
    for (_, &d) in positive() {
        next[max - d as usize] += 1;
    }
    let mut total = 0;
    for slot in &mut next {
        let count = std::mem::replace(slot, total);
        total += count;
    }
    let mut order = vec![0; total];
    for (v, &d) in positive() {
        let slot = &mut next[max - d as usize];
        order[*slot] = v;
        *slot += 1;
    }
    order.into()
}

/// The CELF frontier: the positive gain bounds of the vertices evaluated so
/// far, and the rest of the degree order, whose degrees bound the others.
#[derive(Debug, Clone)]
struct Frontier {
    /// Ordered by bound, then toward the smaller vertex id.
    heap: BinaryHeap<(u32, Reverse<NodeId>)>,
    /// The generation's [`degree_order`], shared by all its sessions.
    order: Arc<[NodeId]>,
    /// `order[..entered]` have been evaluated.
    entered: usize,
}

impl Frontier {
    /// The frontier of the whole degree order, nothing evaluated.
    fn over(order: Arc<[NodeId]>) -> Self {
        Frontier { heap: BinaryHeap::new(), order, entered: 0 }
    }

    /// Pop the round's argmax: `(vertex, gain)`, `degree(v)` being the
    /// degree of `v` and `gain(v)` its exact gain now. The larger of the heap
    /// top and the next unevaluated vertex is evaluated; a stale one is
    /// reinserted with its exact gain unless that is zero. A dry frontier is
    /// the all-zero round, whose argmax is the smallest vertex id. The one
    /// place CELF activity is recorded, once per round rather than per pop.
    fn pop_argmax(
        &mut self,
        degree: impl Fn(NodeId) -> u32,
        mut gain: impl FnMut(NodeId) -> u32,
    ) -> (NodeId, u32) {
        let mut stale = 0u64;
        let (argmax, accepted) = loop {
            let unevaluated = self.order.get(self.entered).map(|&v| (degree(v), Reverse(v)));
            let entry = if unevaluated > self.heap.peek().copied() {
                self.entered += 1;
                unevaluated
            } else {
                self.heap.pop()
            };
            let Some((bound, Reverse(v))) = entry else { break ((0, 0), 0) };
            let live = gain(v);
            if bound == live {
                break ((v, live), 1);
            }
            debug_assert!(live < bound, "a degree or a stored gain bounds the gain");
            stale += 1;
            if live > 0 {
                self.heap.push((live, Reverse(v)));
            }
        };
        crate::metrics::CELF_ROUNDS.increment();
        crate::metrics::CELF_HEAP_POPS.add(stale + accepted);
        crate::metrics::CELF_REVALIDATIONS.add(stale);
        argmax
    }
}

/// One lazy-greedy session over an index generation (n, θ); see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct LazyGreedy {
    /// One bit per set: covered by a selected seed (or, in an audience
    /// session, not eligible).
    covered: Vec<u64>,
    frontier: Frontier,
    /// The greedy prefix selected so far.
    seeds: Vec<NodeId>,
    /// Cumulative covered-set count after each selected seed, so a smaller
    /// budget's coverage is answered from the prefix.
    covered_after: Vec<usize>,
    /// Vertices of the index: the cap on a budget.
    num_nodes: usize,
}

impl LazyGreedy {
    /// The fresh session of the index whose global postings are `postings`:
    /// nothing covered, no seed selected, and the generation's
    /// `degree_order`, built here, as the frontier. Clones share the order.
    pub fn fresh(postings: &Postings) -> Self {
        LazyGreedy {
            covered: vec![0; postings.words_per_row()],
            frontier: Frontier::over(degree_order(postings)),
            seeds: Vec::new(),
            covered_after: Vec::new(),
            num_nodes: postings.num_nodes(),
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
            let (best, gain) = frontier.pop_argmax(
                |v| postings.degree(v) as u32,
                |v| postings.count_outside(v, covered) as u32,
            );
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

    /// Start this session over as the audience session of `audience` over
    /// `num_sets` sets: no seed selected, nothing evaluated, and every set
    /// that holds no audience vertex covered.
    fn restrict_to(&mut self, postings: PostingsView<'_>, num_sets: usize, audience: &BitSet) {
        let LazyGreedy { covered, frontier, seeds, covered_after, num_nodes } = self;
        frontier.heap.clear();
        frontier.entered = 0;
        seeds.clear();
        covered_after.clear();
        // The eligible sets: the union of the audience's postings (bits
        // iterate ascending, so the first out-of-range vertex ends the
        // audience). Once every set is eligible the rest of the audience
        // adds nothing — with dense sets that is after a handful of vertices.
        covered.fill(0);
        let mut eligible = 0;
        for v in audience.iter().take_while(|&v| v < *num_nodes) {
            if eligible == num_sets {
                break;
            }
            eligible += postings.or_into(v as NodeId, covered);
        }
        // Inverted, the union covers every ineligible set, and the padding
        // bits past θ, which no postings name, come out covered.
        for word in covered.iter_mut() {
            *word = !*word;
        }
        crate::metrics::MASKED_SESSION_SETS.record(eligible as u64);
    }
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
        session.restrict_to(view, postings.range_len(), audience);
        let answer = session.top_k(view, k);
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

    /// The degree order by a comparison sort.
    fn sorted_by_degree(index: &SketchIndex) -> Vec<NodeId> {
        let mut order: Vec<NodeId> =
            (0..index.num_nodes() as NodeId).filter(|&v| index.degree(v) > 0).collect();
        order.sort_by_key(|&v| (Reverse(index.degree(v)), v));
        order
    }

    impl LazyGreedy {
        /// The state [`LazyGreedy::fresh`] builds over `index`.
        pub(crate) fn is_fresh_over(&self, index: &SketchIndex) -> bool {
            self.covered == vec![0; index.num_sets().div_ceil(64)]
                && self.num_nodes == index.num_nodes()
                && self.frontier.heap.is_empty()
                && self.frontier.entered == 0
                && *self.frontier.order == *sorted_by_degree(index)
                && self.seeds.is_empty()
                && self.covered_after.is_empty()
        }

        /// The state [`LazyGreedy::restrict_to`] leaves for `audience`: only
        /// the sets holding an audience vertex uncovered, nothing evaluated.
        fn is_restricted_to(&self, index: &SketchIndex, audience: &BitSet) -> bool {
            let mut ineligible = vec![u64::MAX; index.num_sets().div_ceil(64)];
            for v in audience.iter().filter(|&v| v < index.num_nodes()) {
                for sid in index.ids(v as NodeId) {
                    ineligible[(sid / 64) as usize] &= !(1u64 << (sid % 64));
                }
            }
            self.covered == ineligible
                && self.frontier.heap.is_empty()
                && self.frontier.entered == 0
                && self.seeds.is_empty()
                && self.covered_after.is_empty()
        }
    }

    impl MaskedPool {
        /// Whether this is a new pool (no session checked in yet) sharing
        /// its degree order with `fresh`.
        pub(crate) fn starts_from(&self, fresh: &LazyGreedy) -> bool {
            self.pool.lock().is_empty()
                && Arc::ptr_eq(&self.fresh.frontier.order, &fresh.frontier.order)
        }
    }

    #[test]
    fn a_fresh_session_extends_its_prefix_and_never_replays_it() {
        let index = figure3();
        let mut session = LazyGreedy::fresh(index.postings());
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
    fn a_pooled_session_starts_the_next_audience_over() {
        let index = figure3();
        let sessions = MaskedPool::new(LazyGreedy::fresh(index.postings()));
        let audience = BitSet::from_iter_with_capacity(6, [1, 3]);
        // k = 1 leaves evaluated entries and eligible sets uncovered behind.
        let (seeds, covered) = sessions.top_k(index.postings(), 1, &audience);
        assert_eq!((seeds, covered), (vec![1], 4));
        let mut session = {
            let mut pool = sessions.pool.lock();
            assert_eq!(pool.len(), 1);
            pool.pop().unwrap()
        };
        assert!(!session.frontier.heap.is_empty() || session.frontier.entered > 0);
        let next = BitSet::from_iter_with_capacity(6, [5]);
        session.restrict_to(index.postings().view(), index.num_sets(), &next);
        assert!(session.is_restricted_to(&index, &next));
        assert!(Arc::ptr_eq(&session.frontier.order, &sessions.fresh.frontier.order));
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
        // The fresh session plays on the same core: same counters.
        let rounds_before = crate::metrics::CELF_ROUNDS.value();
        LazyGreedy::fresh(index.postings()).top_k(index.postings().view(), 2);
        assert!(crate::metrics::CELF_ROUNDS.value() >= rounds_before + 2);
    }

    #[test]
    fn a_tie_between_the_heap_and_the_order_goes_to_the_smaller_id() {
        let gain = |v: NodeId| [0, 0, 3, 0, 0, 3][v as usize];
        // The unevaluated vertex has the smaller id: it is taken first.
        let mut frontier = Frontier::over(Arc::from([2]));
        frontier.heap.push((3, Reverse(5)));
        assert_eq!(frontier.pop_argmax(gain, gain), (2, 3));
        assert_eq!(frontier.entered, 1);
        assert_eq!(frontier.pop_argmax(gain, gain), (5, 3));
        // The heap entry has the smaller id: the order waits.
        let mut frontier = Frontier::over(Arc::from([5]));
        frontier.heap.push((3, Reverse(2)));
        assert_eq!(frontier.pop_argmax(gain, gain), (2, 3));
        assert_eq!(frontier.entered, 0);
        assert_eq!(frontier.pop_argmax(gain, gain), (5, 3));
        assert_eq!(frontier.pop_argmax(gain, gain), (0, 0), "a dry frontier emits vertex 0");
    }

    #[test]
    fn a_hub_in_ineligible_sets_only_is_evaluated_once_and_never_selected() {
        // Vertex 3 is in five sets, none of them holding audience vertex 0
        // or 1; the eligible sets are {0, 1}, {1, 2} and {0, 4}.
        let index = SketchIndex::over_sets(
            5,
            &[&[0, 1], &[1, 2], &[0, 4], &[3], &[2, 3], &[3, 4], &[2, 3], &[3]],
        );
        assert_eq!(sorted_by_degree(&index)[0], 3);
        let postings = index.postings().view();
        let mut session = LazyGreedy::fresh(index.postings());
        session.restrict_to(
            postings,
            index.num_sets(),
            &BitSet::from_iter_with_capacity(5, [0, 1]),
        );
        let LazyGreedy { covered, frontier, .. } = &mut session;
        let (mut evaluations, mut seeds) = (vec![0; 5], Vec::new());
        for _ in 0..5 {
            let (best, gain) = frontier.pop_argmax(
                |v| postings.degree(v) as u32,
                |v| {
                    evaluations[v as usize] += 1;
                    postings.count_outside(v, covered) as u32
                },
            );
            if gain > 0 {
                postings.or_into(best, covered);
            }
            seeds.push(best);
        }
        assert_eq!(evaluations[3], 1, "evaluated once, at the head of the order");
        assert_eq!(seeds, vec![0, 1, 0, 0, 0]);
        assert!(frontier.heap.iter().all(|&(_, Reverse(v))| v != 3), "dropped");
    }

    proptest::proptest! {
        /// The counting sort equals a comparison sort over postings that mix
        /// rows (vertices 0..4, in about half the sets) and lists (4..200, in
        /// a handful); vertices 200..240 are in no set and stay out.
        #[test]
        fn the_degree_order_is_the_degree_sorted_vertex_list(
            raw_sets in proptest::collection::vec(
                (
                    proptest::collection::hash_set(0u32..4, 0..4),
                    proptest::collection::hash_set(4u32..200, 0..6),
                ),
                0..120,
            ),
        ) {
            let sets: Vec<Vec<NodeId>> = raw_sets
                .iter()
                .map(|(common, rare)| common.iter().chain(rare).copied().collect())
                .collect();
            let sets: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
            let index = SketchIndex::over_sets(240, &sets);
            proptest::prop_assert_eq!(
                degree_order(index.postings()).to_vec(),
                sorted_by_degree(&index)
            );
        }
    }
}
