//! The query engine: incremental greedy Top-K, coverage-based spread and
//! marginal-gain estimates, and a batch executor.
//!
//! The Top-K path is the point of the subsystem: the engine keeps one
//! persistent lazy-greedy session ([`imm_rrr::LazyGreedy`]) — the
//! covered sets, the gain bounds, the selected seeds — and only ever
//! *extends* it. Asking for `k` and later `k+5` computes five new rounds,
//! not `k+5`, and asking for `k` again reads the prefix; nothing is
//! resampled, ever. The served seeds stay byte-identical to a fresh
//! `run_imm` or eager-kernel pass over the same collection.
//!
//! Spread and Marginal are one marking walk, `mark_and_count`, over the
//! index's postings on a pooled scratch.
//!
//! The engine is also the whole of `imm-shard`'s `ShardedEngine`, which is
//! this engine over the base index of a shard map.

use crate::index::SketchIndex;
use crate::masked::{record_celf, MaskedPool};
use crate::metrics::{MARGINAL_LATENCY, QUERY_RATE, SPREAD_LATENCY, TOPK_LATENCY};
use crate::query::{Query, QueryResponse};
use imm_rrr::{BitSet, LazyGreedy, NodeId, Postings};
use parking_lot::Mutex;
use std::sync::Arc;

/// Fan a batch of queries across `threads` workers, preserving input order
/// in the returned responses.
fn serve_batch(
    queries: &[Query],
    threads: usize,
    serve: impl Fn(&Query) -> QueryResponse + Sync,
) -> Vec<QueryResponse> {
    if queries.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(queries.len());
    let chunk = queries.len().div_ceil(threads);
    let mut responses: Vec<Option<QueryResponse>> = vec![None; queries.len()];
    rayon::scope(|s| {
        for (q_chunk, r_chunk) in queries.chunks(chunk).zip(responses.chunks_mut(chunk)) {
            let serve = &serve;
            s.spawn(move |_| {
                for (query, slot) in q_chunk.iter().zip(r_chunk.iter_mut()) {
                    *slot = Some(serve(query));
                }
            });
        }
    });
    responses.into_iter().map(|r| r.expect("every slot is filled by its worker")).collect()
}

/// The marking walk behind every Spread and Marginal: OR the postings of
/// `seeds` into `marks` — one bit per set of `postings`' range, **all zero
/// on entry and again on return** — and count. With no `candidate` the count
/// is the sets the seeds cover (Spread); with one, the sets containing it
/// that the seeds leave uncovered (Marginal). Vertices outside the vertex
/// space cover nothing.
///
/// The scratch is restored by whichever touches less: zeroing the words the
/// seeds' lists reach (sparse sets: a few entries against a range-sized word
/// array) or one fill. A row seed alone has more sets than the scratch has
/// words, so any row means the fill.
fn mark_and_count(
    postings: &Postings,
    seeds: &[NodeId],
    candidate: Option<NodeId>,
    marks: &mut [u64],
) -> usize {
    let n = postings.num_nodes();
    let postings = postings.view();
    let in_range = || seeds.iter().filter(|&&seed| (seed as usize) < n);
    let (mut covered, mut walked) = (0usize, 0u64);
    for &seed in in_range() {
        walked += postings.degree(seed);
        covered += postings.or_into(seed, marks);
    }
    let count = match candidate {
        None => covered,
        Some(candidate) if (candidate as usize) < n => postings.count_outside(candidate, marks),
        Some(_) => 0,
    };
    if walked < marks.len() as u64 {
        for &seed in in_range() {
            postings.for_each(seed, |sid| marks[(sid / 64) as usize] = 0);
        }
    } else {
        marks.fill(0);
    }
    count
}

/// A query-serving engine over one frozen [`SketchIndex`].
///
/// The engine is `Sync`: spread/marginal queries run lock-free against the
/// immutable index, and Top-K extensions serialize on the shared greedy
/// prefix. Every query is computed from the index. It serves one generation
/// for its whole life: a new revision of the index gets a new engine, so no
/// session outlives its index.
#[derive(Debug)]
pub struct QueryEngine {
    index: Arc<SketchIndex>,
    /// The persistent fresh Top-K session (the shared greedy prefix).
    greedy: Mutex<LazyGreedy>,
    /// Pool of all-zero coverage bitmaps (one bit per set). Spread and
    /// marginal queries check one out instead of allocating a fresh
    /// θ-sized buffer per call; concurrent batch workers each pop their own.
    scratch: Mutex<Vec<Vec<u64>>>,
    /// Pool of audience Top-K sessions over the served generation (see
    /// [`crate::masked`]).
    masked: MaskedPool,
}

impl QueryEngine {
    /// Engine serving `index`.
    pub fn new(index: Arc<SketchIndex>) -> Self {
        crate::metrics::register();
        crate::metrics::record_postings(index.postings().stats());
        // The audience sessions start from the fresh one: one degree order.
        let fresh = LazyGreedy::fresh(index.postings());
        QueryEngine {
            index,
            greedy: Mutex::new(fresh.clone()),
            scratch: Mutex::new(Vec::new()),
            masked: MaskedPool::new(fresh),
        }
    }

    /// [`new`](Self::new); kept for the frozen spine only (`spine/src/sut.rs`
    /// calls it): an engine keeps no response cache, so `_capacity` is inert.
    pub fn with_cache_capacity(index: Arc<SketchIndex>, _capacity: usize) -> Self {
        Self::new(index)
    }

    /// Check an all-zero coverage bitmap out of the scratch pool (allocating
    /// only when the pool is empty).
    fn acquire_scratch(&self) -> Vec<u64> {
        let pooled = self.scratch.lock().pop();
        pooled.unwrap_or_else(|| vec![0; self.index.postings().words_per_row()])
    }

    /// The Spread/Marginal tally: one marking walk ([`mark_and_count`]) over
    /// the index's postings on a pooled scratch, which the walk hands back
    /// all-zero.
    fn count_marked(&self, seeds: &[NodeId], candidate: Option<NodeId>) -> usize {
        let mut marks = self.acquire_scratch();
        let count = mark_and_count(self.index.postings(), seeds, candidate, &mut marks);
        self.scratch.lock().push(marks);
        count
    }

    /// The index this engine serves.
    pub fn index(&self) -> &Arc<SketchIndex> {
        &self.index
    }

    /// Answer one query from the index. The one place query metrics are
    /// recorded: the queries/sec meter and the per-kind latency histogram.
    pub fn execute(&self, query: &Query) -> QueryResponse {
        QUERY_RATE.mark();
        let (theta, n) = (self.index.num_sets(), self.index.num_nodes());
        match query {
            Query::TopK { k, audience: None } => TOPK_LATENCY.time(|| self.top_k(*k)),
            Query::TopK { k, audience: Some(audience) } => {
                TOPK_LATENCY.time(|| self.masked_top_k(*k, audience))
            }
            Query::Spread { seeds } => SPREAD_LATENCY.time(|| {
                QueryResponse::spread_from_tallies(self.count_marked(seeds, None), theta, n)
            }),
            Query::Marginal { seeds, candidate } => MARGINAL_LATENCY.time(|| {
                let gained = self.count_marked(seeds, Some(*candidate));
                QueryResponse::marginal_from_tallies(gained, theta, n)
            }),
        }
    }

    /// [`execute`](Self::execute); kept for the frozen spine only
    /// (`spine/src/sut.rs` calls it): there is no cache to bypass.
    pub fn execute_uncached(&self, query: &Query) -> QueryResponse {
        self.execute(query)
    }

    /// Fan a batch of queries across `threads` workers, preserving input
    /// order in the returned responses.
    pub fn execute_batch(&self, queries: &[Query], threads: usize) -> Vec<QueryResponse> {
        serve_batch(queries, threads, |query| self.execute(query))
    }

    fn top_k(&self, k: usize) -> QueryResponse {
        let postings = self.index.postings().view();
        let (seeds, covered) = {
            let mut greedy = self.greedy.lock();
            let answer = greedy.top_k(postings, k);
            record_celf(&mut greedy);
            answer
        };
        self.topk_response(seeds, covered)
    }

    /// Targeted-audience Top-K: greedy max coverage over the sets containing
    /// at least one audience vertex (see [`Query::TopK`] for the estimator's
    /// semantics). Each query runs its own session out of the pool (the
    /// shared prefix belongs to the unrestricted selection), holding no
    /// engine lock.
    fn masked_top_k(&self, k: usize, audience: &BitSet) -> QueryResponse {
        let (seeds, covered) = self.masked.top_k(self.index.postings(), k, audience);
        self.topk_response(seeds, covered)
    }

    fn topk_response(&self, seeds: Vec<NodeId>, covered: usize) -> QueryResponse {
        QueryResponse::top_k_from_tallies(
            seeds,
            covered,
            self.index.num_sets(),
            self.index.num_nodes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexMeta;
    use imm_rrr::{AdaptivePolicy, RrrCollection};

    fn engine_over(num_nodes: usize, sets: &[&[NodeId]]) -> QueryEngine {
        QueryEngine::new(Arc::new(SketchIndex::over_sets(num_nodes, sets)))
    }

    /// The paper's Figure 3 sets; hand-checkable greedy trajectory.
    fn figure3() -> QueryEngine {
        engine_over(6, &[&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]])
    }

    #[test]
    fn top_k_follows_the_hand_computed_greedy_trajectory() {
        let engine = figure3();
        // Counts [2,4,2,2,3,1]: seed 1 (4 sets), then 2 (ties 3, smaller id
        // wins; 2 more sets), then 3 (the last two sets).
        match engine.execute(&Query::top_k(3)) {
            QueryResponse::TopK { seeds, coverage_fraction, estimated_influence } => {
                assert_eq!(seeds, vec![1, 2, 3]);
                assert!((coverage_fraction - 1.0).abs() < 1e-12);
                assert!((estimated_influence - 6.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn growing_the_budget_reuses_the_prefix() {
        let engine = figure3();
        let one = engine.execute(&Query::top_k(1));
        let three = engine.execute(&Query::top_k(3));
        let fresh = figure3().execute(&Query::top_k(3));
        assert_eq!(three, fresh, "incremental extension must equal a fresh selection");
        match (one, three) {
            (
                QueryResponse::TopK { seeds: s1, coverage_fraction: f1, .. },
                QueryResponse::TopK { seeds: s3, .. },
            ) => {
                assert_eq!(s1, s3[..1].to_vec(), "smaller budget is a prefix");
                assert!((f1 - 0.5).abs() < 1e-12, "vertex 1 covers 4 of 8 sets");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shrinking_the_budget_reads_the_prefix_without_new_rounds() {
        let engine = figure3();
        let three = engine.execute(&Query::top_k(3));
        let two = engine.execute(&Query::top_k(2));
        match (three, two) {
            (
                QueryResponse::TopK { seeds: s3, .. },
                QueryResponse::TopK { seeds: s2, coverage_fraction, .. },
            ) => {
                assert_eq!(s2, s3[..2].to_vec());
                assert!((coverage_fraction - 0.75).abs() < 1e-12, "seeds {{1,2}} cover 6 of 8");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spread_matches_the_collection_estimator() {
        let engine = figure3();
        // Seeds {1,3}: sets 0,1,3,4 (via 1) + 5,6 (via 3) = 6 of 8.
        match engine.execute(&Query::Spread { seeds: vec![1, 3] }) {
            QueryResponse::Spread { coverage_fraction, estimate } => {
                assert!((coverage_fraction - 0.75).abs() < 1e-12);
                assert!((estimate - 4.5).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Duplicates and order don't change the answer.
        assert_eq!(
            engine.execute(&Query::Spread { seeds: vec![3, 1, 1, 3] }),
            engine.execute(&Query::Spread { seeds: vec![1, 3] }),
        );
    }

    #[test]
    fn marginal_is_the_spread_difference() {
        let engine = figure3();
        let base = vec![1u32];
        for candidate in 0..6u32 {
            let with: Vec<u32> = base.iter().copied().chain([candidate]).collect();
            let (s_with, s_base) = match (
                engine.execute(&Query::Spread { seeds: with }),
                engine.execute(&Query::Spread { seeds: base.clone() }),
            ) {
                (
                    QueryResponse::Spread { estimate: a, .. },
                    QueryResponse::Spread { estimate: b, .. },
                ) => (a, b),
                other => panic!("unexpected {other:?}"),
            };
            match engine.execute(&Query::Marginal { seeds: base.clone(), candidate }) {
                QueryResponse::Marginal { gain, .. } => {
                    assert!((gain - (s_with - s_base)).abs() < 1e-9, "candidate {candidate}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_vertices_cover_nothing() {
        let engine = figure3();
        match engine.execute(&Query::Spread { seeds: vec![100] }) {
            QueryResponse::Spread { coverage_fraction, .. } => assert_eq!(coverage_fraction, 0.0),
            other => panic!("unexpected {other:?}"),
        }
        match engine.execute(&Query::Marginal { seeds: vec![1], candidate: 100 }) {
            QueryResponse::Marginal { gain, .. } => assert_eq!(gain, 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn budget_beyond_coverage_emits_deterministic_zero_gain_seeds() {
        // Two sets over 4 vertices; after vertices 0 and 2 everything is
        // covered and further rounds emit vertex 0 (kernel behaviour).
        let engine = engine_over(4, &[&[0], &[2]]);
        match engine.execute(&Query::top_k(4)) {
            QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                assert_eq!(seeds, vec![0, 2, 0, 0]);
                assert!((coverage_fraction - 1.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn budget_is_clamped_to_the_vertex_count() {
        let engine = engine_over(3, &[&[0, 1], &[2]]);
        match engine.execute(&Query::top_k(10)) {
            QueryResponse::TopK { seeds, .. } => assert_eq!(seeds.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_index_answers_zeroes() {
        let engine = engine_over(5, &[]);
        assert_eq!(
            engine.execute(&Query::Spread { seeds: vec![1] }),
            QueryResponse::Spread { coverage_fraction: 0.0, estimate: 0.0 }
        );
        match engine.execute(&Query::top_k(2)) {
            QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                assert_eq!(seeds.len(), 2, "kernel also emits k zero-gain seeds");
                assert_eq!(coverage_fraction, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn audience_top_k_masks_coverage_to_the_slice() {
        let engine = figure3();
        // Audience {5}: only set 4 ({1,4,5}) touches it. Vertices 1, 4, 5
        // tie at count 1; the smallest id wins, retiring the only eligible
        // set, and the second round emits the deterministic zero-gain seed.
        match engine.execute(&Query::audience_top_k(2, BitSet::from_iter_with_capacity(6, [5]))) {
            QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                assert_eq!(seeds, vec![1, 0]);
                assert!((coverage_fraction - 0.125).abs() < 1e-12, "1 of 8 sets");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Audience {3}: sets 5 ({3}) and 6 ({0,3}) are eligible; vertex 3
        // covers both in one round.
        match engine.execute(&Query::audience_top_k(1, BitSet::from_iter_with_capacity(6, [3]))) {
            QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                assert_eq!(seeds, vec![3]);
                assert!((coverage_fraction - 0.25).abs() < 1e-12, "2 of 8 sets");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_audience_equals_the_unrestricted_selection() {
        let engine = figure3();
        let full = BitSet::from_iter_with_capacity(6, 0..6);
        for k in [1usize, 3, 6] {
            assert_eq!(
                engine.execute(&Query::audience_top_k(k, full.clone())),
                engine.execute(&Query::top_k(k)),
                "k = {k}"
            );
        }
        // Out-of-range audience vertices select nothing extra (and don't
        // panic): an audience entirely outside the graph masks every set out.
        match engine.execute(&Query::audience_top_k(1, BitSet::from_iter_with_capacity(99, [98]))) {
            QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                assert_eq!(seeds, vec![0], "zero-gain round emits the smallest vertex");
                assert_eq!(coverage_fraction, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_repeat_is_computed_counted_and_timed() {
        if !imm_obs::recording_enabled() {
            return;
        }
        use crate::metrics::{QUERY_RATE, SPREAD_LATENCY, TOPK_LATENCY};
        // Other tests of this process serve queries too, but far fewer than
        // N of either kind: lower bounds that a memoized repeat cannot meet.
        const N: u64 = 1000;
        let read = || (SPREAD_LATENCY.snapshot().count, TOPK_LATENCY.snapshot().count);
        let engine = figure3();
        let spread = Query::Spread { seeds: vec![1, 3] };
        let (queries, (spreads, top_ks)) = (QUERY_RATE.count(), read());
        let first = engine.execute(&spread);
        let top = engine.execute(&Query::top_k(2));
        for _ in 1..N {
            assert_eq!(engine.execute(&spread), first);
            assert_eq!(engine.execute(&Query::top_k(2)), top);
        }
        let (spreads_after, top_ks_after) = read();
        assert!(spreads_after >= spreads + N, "spread timings: {spreads} -> {spreads_after}");
        assert!(top_ks_after >= top_ks + N, "top-k timings: {top_ks} -> {top_ks_after}");
        assert!(QUERY_RATE.count() >= queries + 2 * N, "every repeat is a served query");
    }

    #[test]
    fn batch_preserves_order_and_matches_sequential_execution() {
        let engine = figure3();
        let queries: Vec<Query> = (1..=4)
            .map(Query::top_k)
            .chain((0..6).map(|v| Query::Spread { seeds: vec![v] }))
            .chain((0..6).map(|v| Query::Marginal { seeds: vec![1], candidate: v }))
            .collect();
        let sequential: Vec<QueryResponse> = queries.iter().map(|q| figure3().execute(q)).collect();
        for threads in [1usize, 2, 4] {
            let batch = engine.execute_batch(&queries, threads);
            assert_eq!(batch, sequential, "threads={threads}");
        }
        assert!(engine.execute_batch(&[], 4).is_empty());

        // Sixteen distinct-budget Top-Ks over 8 threads on fresh engines:
        // every chunk takes the one greedy mutex while the batch owner helps
        // run the rest.
        let sets: Vec<Vec<NodeId>> =
            (0..4000u32).map(|i| vec![i % 61, 61 + i % 127, 188 + (i * 7) % 211]).collect();
        let sets: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
        let index = Arc::clone(engine_over(400, &sets).index());
        let budgets: Vec<Query> = (1..=16).map(Query::top_k).collect();
        let sequential: Vec<QueryResponse> = {
            let engine = QueryEngine::new(Arc::clone(&index));
            budgets.iter().map(|q| engine.execute(q)).collect()
        };
        for round in 0..8 {
            let engine = QueryEngine::new(Arc::clone(&index));
            assert_eq!(engine.execute_batch(&budgets, 8), sequential, "round {round}");
        }
    }

    proptest::proptest! {
        /// The marking walk counts what a naive union counts and hands its
        /// scratch back all-zero, whichever restore it took: vertices 0..4
        /// sit in about half the sets (rows, so the fill), 4..400 in a
        /// handful (lists, so the re-walk), 400.. are outside the vertex
        /// space; seeds mix all three and may repeat.
        #[test]
        fn the_marking_walk_hands_its_scratch_back_all_zero(
            raw_sets in proptest::collection::vec(
                (
                    proptest::collection::hash_set(0u32..4, 0..4),
                    proptest::collection::hash_set(4u32..400, 0..4),
                ),
                40..120,
            ),
            picks in proptest::collection::vec((0u32..3, 0u32..400), 0..6),
            candidate in (0u32..3, 0u32..400),
            repeat_a_seed in proptest::prelude::any::<bool>(),
        ) {
            use proptest::prelude::*;
            let vertex = |(kind, value): (u32, u32)| match kind {
                0 => value % 4,
                1 => 4 + value % 396,
                _ => 400 + value % 20,
            };
            let mut c = RrrCollection::new(400);
            for (common, rare) in &raw_sets {
                let members = common.iter().chain(rare).copied().collect();
                c.push_vertices(members, &AdaptivePolicy::always_sorted());
            }
            let index = SketchIndex::from_collection(c, IndexMeta::default()).unwrap();
            let mut seeds: Vec<NodeId> = picks.into_iter().map(vertex).collect();
            if let (true, Some(&first)) = (repeat_a_seed, seeds.first()) {
                seeds.push(first);
            }
            let candidate = vertex(candidate);
            let ids = |v: NodeId| if v < 400 { index.ids(v) } else { Vec::new() };
            let covered: std::collections::HashSet<u32> =
                seeds.iter().flat_map(|&seed| ids(seed)).collect();
            let gained = ids(candidate).iter().filter(|sid| !covered.contains(sid)).count();

            let mut marks = vec![0u64; index.postings().words_per_row()];
            let spread = mark_and_count(index.postings(), &seeds, None, &mut marks);
            prop_assert_eq!(spread, covered.len(), "seeds {:?}", &seeds);
            prop_assert!(marks.iter().all(|&word| word == 0), "spread left marks: {:?}", &seeds);
            let marginal = mark_and_count(index.postings(), &seeds, Some(candidate), &mut marks);
            prop_assert_eq!(marginal, gained, "seeds {:?}, candidate {}", &seeds, candidate);
            prop_assert!(marks.iter().all(|&word| word == 0), "marginal left marks: {:?}", &seeds);
        }
    }
}
