//! Test support shared by the masked-session suites of `imm-service` and
//! `imm-shard` (the latter includes this file by path): the **dense
//! oracle** — the whole-index masked greedy the engines used to run (full
//! counts, full alive vector, one frontier entry per vertex) over the
//! collection an index indexed — and the fixtures and case generators both
//! suites sweep. `celf_parity` includes it too, for the mixed-form sets.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, set_provenance, SamplingConfig};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::{AdaptivePolicy, BitSet, NodeId, RrrCollection};
use imm_service::{IndexMeta, Query, QueryResponse, SampleSpec, SketchIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;

/// Audience Top-K by the dense construction over `sets`: counts over all
/// `n` vertices built from the eligible sets, an alive flag per set, an
/// `n`-entry CELF frontier ordered by count then toward the smaller vertex
/// id, and zero-gain rounds that re-admit the selected vertex.
pub fn dense_masked_top_k(sets: &RrrCollection, k: usize, audience: &BitSet) -> QueryResponse {
    let n = sets.num_nodes();
    let mut alive: Vec<bool> =
        sets.iter().map(|set| set.iter().any(|v| audience.contains(v as usize))).collect();
    let mut holders = vec![Vec::new(); n];
    let mut counts = vec![0u64; n];
    for (sid, set) in sets.iter().enumerate() {
        set.for_each(|v| {
            holders[v as usize].push(sid);
            counts[v as usize] += u64::from(alive[sid]);
        });
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
        for &sid in &holders[best as usize] {
            if std::mem::take(&mut alive[sid]) {
                covered += 1;
                sets.get(sid).for_each(|v| counts[v as usize] -= 1);
            }
        }
        frontier.push((counts[best as usize], Reverse(best)));
    }
    QueryResponse::top_k_from_tallies(seeds, covered, sets.len(), n)
}

/// An index over `raw_sets`, set `i` stored as a bitmap when
/// `bitmap_choices[i]` says so and as a sorted list otherwise, and the
/// collection it indexed.
pub fn index_from(num_nodes: usize, raw_sets: &[HashSet<u32>], bitmap_choices: &[bool]) -> Indexed {
    let mut collection = RrrCollection::new(num_nodes);
    for (i, set) in raw_sets.iter().enumerate() {
        let policy = if bitmap_choices.get(i).copied().unwrap_or(false) {
            AdaptivePolicy::always_bitmap()
        } else {
            AdaptivePolicy::always_sorted()
        };
        collection.push_vertices(set.iter().copied().collect(), &policy);
    }
    let index = SketchIndex::from_collection(collection.clone(), IndexMeta::default());
    (index.expect("members are in range"), collection)
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
    let rows = index_from(n, &hash_sets(&sets), &[]).0.postings().stats().row_vertices;
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

/// A dynamic index over the `theta` sets `spec` draws from `graph`, and
/// those sets.
pub fn sampled(g: &CsrGraph, w: &EdgeWeights, spec: SampleSpec, theta: usize) -> Indexed {
    let (model, rng_seed, policy) = (spec.model, spec.rng_seed, spec.policy);
    let schedule = Schedule::Dynamic { chunk: 32 };
    let cfg = SamplingConfig { model, rng_seed, policy, schedule, threads: 2 };
    let sets = generate_rrr_sets(g, w, theta, |i| i, &cfg).sets;
    let records = set_provenance(rng_seed, 0..theta, g.num_nodes());
    let index = SketchIndex::build_with_provenance(g, sets.clone(), records, spec, "masked");
    (index.expect("sample"), sets)
}

/// An index and the collection it indexed.
pub type Indexed = (SketchIndex, RrrCollection);

/// A sampled dynamic index (120 vertices, 150 IC sets), its graph and its sets.
pub fn sampled_index() -> (CsrGraph, EdgeWeights, SketchIndex, RrrCollection) {
    let mut rng = SmallRng::seed_from_u64(0xA5);
    let graph = CsrGraph::from_edge_list(&generators::social_network(120, 5, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0x5EED);
    let (index, sets) = sampled(&graph, &weights, spec, 150);
    (graph, weights, index, sets)
}

/// Sixteen distinct random-audience queries and their oracle answers on `sets`.
pub fn audience_queries(sets: &RrrCollection) -> (Vec<Query>, Vec<QueryResponse>) {
    (0..16u64)
        .map(|i| {
            let (_, audience) =
                audiences(sets.num_nodes(), 0xA0D1 ^ i).swap_remove(2 + (i % 2) as usize);
            let k = 2 + i as usize % 7;
            let expected = dense_masked_top_k(sets, k, &audience);
            (Query::audience_top_k(k, audience), expected)
        })
        .unzip()
}
