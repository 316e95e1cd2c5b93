//! Test support shared by the masked-session suites of `imm-service` and
//! `imm-shard` (the latter includes this file by path): the **dense
//! oracle** — the whole-index masked greedy the engines used to run (full
//! counts, full alive vector, one frontier entry per vertex) — and the
//! fixtures and case generators both suites sweep. `celf_parity` includes
//! it too, for the mixed-form collection.

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::{AdaptivePolicy, BitSet, NodeId, RrrCollection};
use imm_service::{IndexMeta, Query, QueryResponse, SampleSpec, SketchIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;

/// Audience Top-K by the dense construction: counts over all `n` vertices
/// built from the eligible sets, an alive flag per set, an `n`-entry CELF
/// frontier ordered by count then toward the smaller vertex id, and
/// zero-gain rounds that re-admit the selected vertex.
pub fn dense_masked_top_k(index: &SketchIndex, k: usize, audience: &BitSet) -> QueryResponse {
    let n = index.num_nodes();
    let mut alive = vec![false; index.num_sets()];
    for v in audience.iter().filter(|&v| v < n) {
        for sid in index.ids(v as NodeId) {
            alive[sid as usize] = true;
        }
    }
    let mut counts = vec![0u64; n];
    for (sid, _) in alive.iter().enumerate().filter(|(_, &live)| live) {
        index.sets().get(sid).for_each(|v| counts[v as usize] += 1);
    }
    let mut frontier: BinaryHeap<(u64, Reverse<NodeId>)> =
        counts.iter().enumerate().map(|(v, &c)| (c, Reverse(v as NodeId))).collect();
    let mut seeds = Vec::new();
    let mut covered = 0usize;
    while seeds.len() < k.min(n) {
        let best = loop {
            let (stored, Reverse(v)) = frontier.pop().expect("one entry per vertex");
            let live = counts[v as usize];
            if stored == live {
                break v;
            }
            frontier.push((live, Reverse(v)));
        };
        seeds.push(best);
        for sid in index.ids(best) {
            if std::mem::take(&mut alive[sid as usize]) {
                covered += 1;
                index.sets().get(sid as usize).for_each(|v| counts[v as usize] -= 1);
            }
        }
        frontier.push((counts[best as usize], Reverse(best)));
    }
    QueryResponse::top_k_from_tallies(seeds, covered, index.num_sets(), n)
}

/// An index over `raw_sets`, set `i` stored as a bitmap when
/// `bitmap_choices[i]` says so and as a sorted list otherwise.
pub fn index_from(
    num_nodes: usize,
    raw_sets: &[HashSet<u32>],
    bitmap_choices: &[bool],
) -> SketchIndex {
    let mut collection = RrrCollection::new(num_nodes);
    for (i, set) in raw_sets.iter().enumerate() {
        let policy = if bitmap_choices.get(i).copied().unwrap_or(false) {
            AdaptivePolicy::always_bitmap()
        } else {
            AdaptivePolicy::always_sorted()
        };
        collection.push_vertices(set.iter().copied().collect(), &policy);
    }
    SketchIndex::from_collection(collection, IndexMeta::default()).expect("members are in range")
}

/// One collection whose vertices take both postings forms: hubs 0..4 each
/// sit in about half of the 320 sets (bit rows, past θ/32 = 10) and every
/// set adds three of the other 196 vertices (mostly lists), so one session
/// revalidates rows by popcount and lists by probes in the same rounds.
/// Returns the vertex count and the sets, members ascending.
pub fn mixed_form_sets() -> (usize, Vec<Vec<u32>>) {
    let n = 200;
    let mut rng = SmallRng::seed_from_u64(0x31C3);
    let sets: Vec<Vec<u32>> = (0..320)
        .map(|_| {
            let mut members: Vec<u32> = (0..4).filter(|_| rng.gen_bool(0.5)).collect();
            members.extend((0..3).map(|_| rng.gen_range(4..n as u32)));
            members.sort_unstable();
            members.dedup();
            members
        })
        .collect();
    let rows = index_from(n, &hash_sets(&sets), &[]).postings().stats().row_vertices;
    assert!(0 < rows && rows < n, "{rows} row vertices of {n}");
    (n, sets)
}

/// `sets` in the form [`index_from`] takes.
pub fn hash_sets(sets: &[Vec<u32>]) -> Vec<HashSet<u32>> {
    sets.iter().map(|set| set.iter().copied().collect()).collect()
}

/// The audience shapes a masked session must survive: empty, one vertex,
/// random, full, entirely out of range, and capacities on either side of
/// the vertex count (one of them reaching past it).
pub fn audiences(num_nodes: usize, seed: u64) -> Vec<(&'static str, BitSet)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = num_nodes;
    let mut random = |capacity: usize, members: usize| {
        BitSet::from_iter_with_capacity(
            capacity,
            (0..members).map(|_| rng.gen_range(0..capacity)).collect::<Vec<_>>(),
        )
    };
    vec![
        ("empty", BitSet::new(n)),
        ("single vertex", random(n, 1)),
        ("random", random(n, n / 4 + 1)),
        ("random, wide", random(n, n)),
        ("full", BitSet::from_iter_with_capacity(n, 0..n)),
        ("entirely out of range", BitSet::from_iter_with_capacity(n + 40, n..n + 40)),
        ("capacity below n", random(n / 2 + 1, n / 4 + 1)),
        ("capacity above n", random(2 * n, n)),
    ]
}

/// Budgets on every side of the interesting thresholds: none, one, a few,
/// every vertex (past the last positive gain whenever coverage exhausts
/// earlier) and more than there are vertices.
pub fn budgets(num_nodes: usize) -> [usize; 5] {
    [0, 1, 4, num_nodes, num_nodes + 7]
}

/// A sampled dynamic index (120 vertices, 150 IC sets) with its graph.
pub fn sampled_index() -> (CsrGraph, EdgeWeights, SketchIndex) {
    let mut rng = SmallRng::seed_from_u64(0xA5);
    let graph = CsrGraph::from_edge_list(&generators::social_network(120, 5, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0x5EED);
    let index = SketchIndex::sample(&graph, &weights, spec, 150, 2, "masked").expect("sample");
    (graph, weights, index)
}

/// Sixteen distinct random-audience queries with their oracle answers on
/// `index`.
pub fn audience_queries(index: &SketchIndex) -> (Vec<Query>, Vec<QueryResponse>) {
    (0..16u64)
        .map(|i| {
            let (_, audience) =
                audiences(index.num_nodes(), 0xA0D1 ^ i).swap_remove(2 + (i % 2) as usize);
            let k = 2 + i as usize % 7;
            let expected = dense_masked_top_k(index, k, &audience);
            (Query::audience_top_k(k, audience), expected)
        })
        .unzip()
}
