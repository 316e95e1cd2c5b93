//! The conformance matrix: the paper's claim that EfficientIMM returns the
//! baseline's seeds, held against every serving path. One seeded generator
//! draws cases (a graph, a model, a weight regime, θ, a delta sequence and
//! a query stream with audience masks, or a hand-built collection), and
//! every backend row must answer each generation of each case `==` to
//! three reference answers, floating-point estimates included:
//!
//! - Top-K: the eager selection kernels (the Ripples baseline and the
//!   paper's EfficientIMM kernel, at 1, 2 and 4 threads), which rescan their
//!   counts every round, so CELF's lazy evaluation (Leskovec et al., KDD
//!   2007) must be invisible, tie and zero-gain rounds included;
//! - audience Top-K: [`dense_masked_top_k`], the whole-index construction
//!   the sparse session replaced;
//! - Spread and Marginal: the collection's coverage estimators.
//!
//! A refreshed index must also equal a from-scratch `SketchIndex::sample`
//! of the mutated graph. The rows: `QueryEngine::execute`, `execute_batch`
//! at 1, 2 and 4 threads, four threads sharing one engine, `ShardedEngine`
//! at 1, 2, 4 and 7 shards, the daemon over a unix socket and over TCP, and
//! the heap (`SketchIndex::load_from_path`) and mapped (`Store::open_mapped`)
//! loads of the saved snapshot. Each row is checked before and after every
//! rolled delta. The first drawn cases of a family run through every row;
//! the rest of the property budget (`PROPTEST_CASES` per weight regime)
//! runs through the engines only: a sampled draw through `engine` beside
//! the refresh check, a drawn collection also through `shards/*`. Each
//! family's test counts the cases every row ran and fails if a row ran
//! none, and it requires the shapes the family must reach, tallied from
//! what ran rather than from what was asked for.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::{Algorithm, ExecutionConfig};
use imm_bench::efficient::select_seeds_efficient;
use imm_bench::ripples::select_seeds_ripples;
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_rrr::{AdaptivePolicy, BitSet, NodeId, RrrCollection};
use imm_serve::{Client, Listen, Rejection, RetryPolicy, Server, ServerConfig, ServerHandle};
use imm_service::{
    parse_head, IndexMeta, Query, QueryEngine, QueryResponse, RefreshStats, SampleSpec, SketchIndex,
};
use imm_shard::{ShardedEngine, ShardedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const BATCHED: [(usize, &str); 3] = [(1, "batch/1"), (2, "batch/2"), (4, "batch/4")];
const SHARDED: [(usize, &str); 4] =
    [(1, "shards/1"), (2, "shards/2"), (4, "shards/4"), (7, "shards/7")];
/// Every row, in the order [`check`] runs them.
const ROWS: [&str; 13] = [
    "engine",
    "shards/1",
    "shards/2",
    "shards/4",
    "shards/7",
    "batch/1",
    "batch/2",
    "batch/4",
    "shared by 4 threads",
    "daemon/unix",
    "daemon/tcp",
    "heap load",
    "mapped load",
];
/// The mapped load exists where the mapping does.
const MAPPED: bool = cfg!(all(target_os = "linux", target_endian = "little"));
/// The daemon rows serve the first cases of every family.
const DAEMON_CASES: usize = 2;
/// The drawn cases of each family that run through every row. The rest of
/// its [`draws`] run through the engines: sampled ones through `engine`
/// (and the refresh check), drawn collections also through `shards/*`.
const EVERY_ROW_DRAWS: u64 = 8;

/// Drawn cases per weight regime, and drawn collections: the property
/// suites' budget, `PROPTEST_CASES` when set (as the vendored proptest
/// reads it), else 64.
fn draws() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .filter(|&cases| cases > 0)
        .unwrap_or(64)
}

#[test]
fn independent_cascade_cases_conform() {
    run_family(
        Family::Ic,
        &[
            "model IC",
            "weights constant",
            "weights weighted cascade",
            "multigraph insert",
            "empty delta",
            "a vertex joins the rows",
            "a vertex leaves the rows",
            "dynamic snapshot",
        ],
    );
}

#[test]
fn linear_threshold_cases_conform() {
    run_family(
        Family::Lt,
        &["model LT", "weights LT-normalized", "hub LT index", "multigraph insert"],
    );
}

#[test]
fn static_collections_conform() {
    run_family(
        Family::Sets,
        &[
            "static snapshot",
            "degenerate collection",
            "mixed-form collection",
            "postings all-row",
            "postings all-list",
            "postings mixed",
        ],
    );
}

/// Run every case of `family` through every row, then require that each
/// row ran at least one case and that the cases reached every shape in
/// `shapes`.
fn run_family(family: Family, shapes: &[&str]) {
    let mut tally = Tally::default();
    for (i, case) in cases(family).iter().enumerate() {
        run_case(case, i < DAEMON_CASES, &mut tally);
    }
    println!("{family:?}: cases per row {:?}; shapes {:?}", tally.rows, tally.shapes);
    for row in ROWS.into_iter().filter(|&row| MAPPED || row != "mapped load") {
        assert!(tally.rows.get(row).is_some_and(|&n| n > 0), "{family:?}: row {row} ran no case");
    }
    for shape in shapes {
        assert!(tally.shapes.contains(shape), "{family:?}: no case reached {shape}");
    }
}

/// What a family's cases ran: the cases per row, and the shapes reached.
#[derive(Default)]
struct Tally {
    rows: BTreeMap<&'static str, usize>,
    shapes: BTreeSet<&'static str>,
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    Ic,
    Lt,
    Sets,
}

/// Where a case's sets come from.
enum Source {
    /// The θ sets `spec` draws from a graph: a dynamic index that takes the
    /// case's deltas.
    Sampled { graph: CsrGraph, weights: EdgeWeights, spec: SampleSpec, theta: usize },
    /// A collection indexed as it is: a static index.
    Sets(RrrCollection, IndexMeta),
}

struct Case {
    name: String,
    /// The shapes the generator built the case to have.
    shapes: Vec<&'static str>,
    source: Source,
    deltas: Vec<GraphDelta>,
    queries: Vec<Query>,
    /// The rows that serve the case.
    rows: Rows,
    /// Vertices whose postings form the case pins: `(v, rows)` requires `v`
    /// to be a row in generation `g` exactly when `rows[g]`.
    forms: Vec<(NodeId, Vec<bool>)>,
    /// Whether every delta must resample more than half the sets.
    resamples_most: bool,
}

impl Case {
    fn new(name: String, shapes: Vec<&'static str>, source: Source, queries: Vec<Query>) -> Case {
        let (deltas, forms) = (Vec::new(), Vec::new());
        let rows = Rows::Every;
        Case { name, shapes, source, deltas, queries, rows, forms, resamples_most: false }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Rows {
    /// Every row of [`ROWS`].
    Every,
    /// `engine` and `shards/*`, the two engines.
    Engines,
    /// `engine` alone.
    Engine,
}

fn cases(family: Family) -> Vec<Case> {
    match family {
        // The weight regime alternates, so each takes `draws()` cases.
        Family::Ic => {
            (0..2 * draws()).map(|i| sampled_case(family, i)).chain([crossing_case()]).collect()
        }
        Family::Lt => (0..draws()).map(|i| sampled_case(family, i)).chain([hub_case()]).collect(),
        Family::Sets => static_cases(),
    }
}

/// A random social graph of 40–130 vertices under `family`'s model, its
/// weight regime alternating for IC, θ of 100–260, one to three chained
/// deltas and the standard stream; past the every-row draws the stream
/// skips the audience sweep and only `engine` serves it.
fn sampled_case(family: Family, i: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(0xC0F0 ^ (i << 8) ^ family as u64);
    let n = rng.gen_range(40..130);
    let graph = CsrGraph::from_edge_list(&generators::social_network(
        n,
        rng.gen_range(3..7),
        0.3,
        &mut rng,
    ));
    let (model, regime, weights) = match (family, i % 2) {
        (Family::Lt, _) => (
            DiffusionModel::LinearThreshold,
            "weights LT-normalized",
            EdgeWeights::lt_normalized(&graph, &mut rng),
        ),
        (_, 0) => (
            DiffusionModel::IndependentCascade,
            "weights constant",
            EdgeWeights::constant(&graph, rng.gen_range(0.1f32..0.3)),
        ),
        _ => (
            DiffusionModel::IndependentCascade,
            "weights weighted cascade",
            EdgeWeights::ic_weighted_cascade(&graph),
        ),
    };
    let theta = rng.gen_range(100..260);
    let deltas = delta_sequence(&graph, &weights, rng.gen_range(1..4), &mut rng);
    let spec = SampleSpec::new(model, rng.gen());
    let mut case = Case::new(
        format!("{family:?} draw {i} (n = {n}, θ = {theta})"),
        vec![regime],
        Source::Sampled { graph, weights, spec, theta },
        query_stream(n, rng.gen(), (i >= EVERY_ROW_DRAWS).then(Vec::new)),
    );
    case.deltas = deltas;
    case.rows = if i < EVERY_ROW_DRAWS { Rows::Every } else { Rows::Engine };
    case
}

/// A vertex that crosses the row threshold both ways: on a dense IC graph
/// (uniform weights, so a set holds most vertices) a vertex whose out-edges
/// are cut is in almost no set, a list; a certain edge into the vertex with
/// the most out-edges puts it in almost every set, a row; and deleting the
/// edge again sends it back. Each delta moves the loner in or out of most
/// sets. The stream skips the audience sweep, which the sets' size makes
/// slow and the dense static cases already run.
fn crossing_case() -> Case {
    let (n, theta) = (150, 320); // a row needs degree > 10
    let mut rng = SmallRng::seed_from_u64(43);
    let dense = CsrGraph::from_edge_list(&generators::social_network(n, 10, 0.3, &mut rng));
    let weights = EdgeWeights::ic_uniform(&dense, &mut rng);
    let loner = (n - 1) as NodeId;
    let cut = dense
        .transpose()
        .in_neighbors(loner)
        .iter()
        .fold(GraphDelta::new(), |d, &v| d.delete(loner, v));
    let (graph, weights) = cut.apply(&dense, &weights).expect("cut the loner off");
    let out = graph.transpose();
    let hub = (0..n as NodeId).max_by_key(|&v| out.in_neighbors(v).len()).expect("vertices");
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 29);
    let mut case = Case::new(
        "row-threshold crossing".into(),
        vec!["weights uniform"],
        Source::Sampled { graph, weights, spec, theta },
        query_stream(n, 0xC805, Some(Vec::new())),
    );
    case.deltas = vec![
        GraphDelta::new().insert(loner, hub, 1.0),
        GraphDelta::new().delete(loner, hub).insert(3, 7, 0.05),
    ];
    case.forms = vec![(hub, vec![true, true, true]), (loner, vec![false, true, false])];
    case.resamples_most = true;
    case
}

/// The shape the benchmark's sparse workload serves, scaled down: an LT
/// index over a 3 000-vertex social graph, whose hubs head a long degree
/// order, audiences of 1–30 % of the vertices (drawn with repeats) and
/// budgets 1, 5 and 20. It takes no delta: the sampled draws roll theirs.
fn hub_case() -> Case {
    let n = 3_000;
    let mut rng = SmallRng::seed_from_u64(0x17);
    let graph = CsrGraph::from_edge_list(&generators::social_network(n, 10, 0.3, &mut rng));
    let weights = EdgeWeights::lt_normalized(&graph, &mut rng);
    let mut sweep = Vec::new();
    for i in 0..24 {
        let percent = 1 + i * 29 / 23;
        let draws: Vec<usize> = (0..n * percent / 100).map(|_| rng.gen_range(0..n)).collect();
        let audience = BitSet::from_iter_with_capacity(n, draws);
        sweep.extend([1, 5, 20].map(|k| Query::audience_top_k(k, audience.clone())));
    }
    let spec = SampleSpec::new(DiffusionModel::LinearThreshold, 0x5EED);
    Case::new(
        "hub LT index".into(),
        vec!["hub LT index", "weights LT-normalized"],
        Source::Sampled { graph, weights, spec, theta: 6_000 },
        query_stream(n, 0x4B, Some(sweep)),
    )
}

/// Hand-built collections and drawn ones, each served as a static index.
fn static_cases() -> Vec<Case> {
    let mut rng = SmallRng::seed_from_u64(0x5E75);
    let mut case = |name: String, shape: &'static str, sets: RrrCollection, num_edges: usize| {
        let queries = query_stream(sets.num_nodes(), rng.gen(), None);
        let meta = IndexMeta { num_edges, label: name.clone() };
        Case::new(name, vec![shape], Source::Sets(sets, meta), queries)
    };
    let sorted = |_: usize| false;
    let mut cases = vec![case("mixed-form".into(), "mixed-form collection", mixed_form_sets(), 0)];
    // Drawn: up to 30 sets of up to 20 members, each a bitmap or a list.
    let mut draw_rng = SmallRng::seed_from_u64(0xD4A7);
    for i in 0..draws() {
        let n = [48, 80][i as usize % 2];
        let sets: Vec<Vec<NodeId>> = (0..draw_rng.gen_range(0..30))
            .map(|_| {
                let mut members: Vec<NodeId> = (0..draw_rng.gen_range(0..20))
                    .map(|_| draw_rng.gen_range(0..n as NodeId))
                    .collect();
                members.sort_unstable();
                members.dedup();
                members
            })
            .collect();
        let bitmaps: Vec<bool> = sets.iter().map(|_| draw_rng.gen_bool(0.5)).collect();
        let drawn = collection(n, sets, |s| bitmaps[s]);
        let mut drawn = case(format!("drawn collection {i}"), "drawn collection", drawn, 0);
        drawn.rows = if i < EVERY_ROW_DRAWS { Rows::Every } else { Rows::Engines };
        cases.push(drawn);
    }
    // Degenerate: coverage exhausted before the budget (zero-gain tail
    // rounds), everything tied, no sets, duplicate sets, more shards than
    // sets.
    let degenerate: [(usize, &[&[NodeId]]); 5] = [
        (4, &[&[0], &[2]]),
        (5, &[&[0, 1, 2, 3, 4]]),
        (3, &[]),
        (6, &[&[1, 3], &[1, 3], &[5], &[5]]),
        (10, &[&[0, 1], &[2], &[1, 3, 4]]),
    ];
    for (n, sets) in degenerate {
        let name = format!("degenerate, n = {n}, {sets:?}");
        let sets = collection(n, sets.iter().map(|s| s.to_vec()), sorted);
        cases.push(case(name, "degenerate collection", sets, 0));
    }
    // Dense: 70 copies of one 150-vertex set make every indexed vertex a
    // row; 60 singletons beside them stay lists.
    for (label, singletons) in [("all-row", 0), ("dense and sparse", 60)] {
        let dense = (0..70).map(|_| (0..150).collect());
        let sparse = (0..singletons).map(|i| vec![150 + i % 50]);
        let sets = collection(200, dense.chain(sparse), sorted);
        cases.push(case(label.into(), "dense collection", sets, 9));
    }
    // Sparse: 320 sets of one or two of 200 vertices leave every vertex a
    // list (a row needs degree > 10).
    let sparse: Vec<Vec<NodeId>> = (0..320)
        .map(|i| {
            let v = draw_rng.gen_range(0..200);
            if i % 2 == 0 {
                vec![v]
            } else {
                vec![v, (v + 101) % 200]
            }
        })
        .collect();
    cases.push(case("all-list".into(), "sparse collection", collection(200, sparse, sorted), 0));
    // Every third set forced to a bitmap, the rest lists.
    let forced = (0..40u32).map(|i| {
        let mut members: Vec<NodeId> = (0..i % 17).map(|j| (i * 7 + j * 11) % 200).collect();
        members.sort_unstable();
        members.dedup();
        members
    });
    cases.push(case(
        "forced forms".into(),
        "forced forms",
        collection(200, forced, |s| s % 3 == 0),
        777,
    ));
    cases
}

/// A collection over `n` vertices holding `sets` (members duplicate-free),
/// set `s` stored as a bitmap when `bitmap(s)` and as a sorted list
/// otherwise.
fn collection(
    n: usize,
    sets: impl IntoIterator<Item = Vec<NodeId>>,
    bitmap: impl Fn(usize) -> bool,
) -> RrrCollection {
    let mut collection = RrrCollection::new(n);
    for (s, members) in sets.into_iter().enumerate() {
        let policy = if bitmap(s) {
            AdaptivePolicy::always_bitmap()
        } else {
            AdaptivePolicy::always_sorted()
        };
        collection.push_vertices(members, &policy);
    }
    collection
}

/// One collection whose vertices take both postings forms: hubs 0..4 each
/// sit in about half of the 320 sets (bit rows, past θ/32 = 10) and every
/// set adds three of the other 196 vertices (mostly lists), so one session
/// revalidates rows by popcount and lists by probes in the same rounds.
fn mixed_form_sets() -> RrrCollection {
    let n = 200;
    let mut rng = SmallRng::seed_from_u64(0x31C3);
    let sets = (0..320).map(|_| {
        let mut members: Vec<NodeId> = (0..4).filter(|_| rng.gen_bool(0.5)).collect();
        members.extend((0..3).map(|_| rng.gen_range(4..n as NodeId)));
        members.sort_unstable();
        members.dedup();
        members
    });
    collection(n, sets.collect::<Vec<_>>(), |_| false)
}

/// `count` chained deltas, each valid against the revision the ones before
/// it leave; the third is empty.
fn delta_sequence(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    count: usize,
    rng: &mut SmallRng,
) -> Vec<GraphDelta> {
    let (mut graph, mut weights) = (graph.clone(), weights.clone());
    (0..count)
        .map(|step| {
            let delta = if step == 2 { GraphDelta::new() } else { random_delta(&graph, rng) };
            (graph, weights) = delta.apply(&graph, &weights).expect("a valid delta");
            delta
        })
        .collect()
}

/// A random delta against `graph`: an edge it already holds inserted again
/// (the CSR is a multigraph), then one to five insertions, deletions and
/// reweights. Deletions and reweights name surviving edges, each occurrence
/// at most once, since deletions apply first and would leave a reweight of
/// the same occurrence dangling.
fn random_delta(graph: &CsrGraph, rng: &mut SmallRng) -> GraphDelta {
    let n = graph.num_nodes() as NodeId;
    let mut survivors: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let (src, dst) = survivors[rng.gen_range(0..survivors.len())];
    let mut delta = GraphDelta::new().insert(src, dst, rng.gen_range(0.05f32..0.9));
    for _ in 0..rng.gen_range(1..6) {
        let op = rng.gen_range(0..4);
        if op < 2 || survivors.is_empty() {
            delta =
                delta.insert(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(0.05f32..0.9));
            continue;
        }
        let (src, dst) = survivors.swap_remove(rng.gen_range(0..survivors.len()));
        delta = match op {
            2 => delta.delete(src, dst),
            _ => delta.reweight(src, dst, rng.gen_range(0.05f32..0.9)),
        };
    }
    delta
}

/// A case's query stream over `n` vertices: Top-K budgets out of order (the
/// shared prefix), spreads and marginals over random vertices (one
/// candidate already among its seeds), an audience sweep (every shape of
/// [`audiences`] × every budget of [`budgets`] unless `sweep` replaces it),
/// small random audiences, then Top-K again, which a masked query's
/// scratch must have left intact.
fn query_stream(n: usize, seed: u64, sweep: Option<Vec<Query>>) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let vertices = |rng: &mut SmallRng, most: usize| -> Vec<NodeId> {
        (0..rng.gen_range(1..most)).map(|_| rng.gen_range(0..n as NodeId)).collect()
    };
    let mut queries: Vec<Query> = [1, 8, 3, 15, 8].map(Query::top_k).into();
    for _ in 0..4 {
        queries.push(Query::Spread { seeds: vertices(&mut rng, 4) });
    }
    for i in 0..4 {
        let seeds = vertices(&mut rng, 3);
        let candidate = if i == 0 { seeds[0] } else { rng.gen_range(0..n as NodeId) };
        queries.push(Query::Marginal { seeds, candidate });
    }
    queries.extend(sweep.unwrap_or_else(|| {
        let shapes = audiences(n, seed);
        let sweep = shapes.into_iter().flat_map(|(_, a)| budgets(n).map(move |k| (k, a.clone())));
        sweep.map(|(k, audience)| Query::audience_top_k(k, audience)).collect()
    }));
    for _ in 0..3 {
        let members: Vec<usize> = (0..rng.gen_range(1..20)).map(|_| rng.gen_range(0..n)).collect();
        let audience = BitSet::from_iter_with_capacity(n, members);
        queries.push(Query::audience_top_k(rng.gen_range(1..6), audience));
    }
    queries.extend([3, 9].map(Query::top_k));
    queries
}

/// The audience shapes a masked session must survive: empty, one vertex,
/// random, full, entirely out of range, and capacities on either side of
/// the vertex count (one of them reaching past it).
fn audiences(n: usize, seed: u64) -> Vec<(&'static str, BitSet)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut random = |capacity: usize, members: usize| {
        let members: Vec<usize> = (0..members).map(|_| rng.gen_range(0..capacity)).collect();
        BitSet::from_iter_with_capacity(capacity, members)
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
fn budgets(n: usize) -> [usize; 5] {
    [0, 1, 4, n, n + 7]
}

// ---------------------------------------------------------------------------
// The references.
// ---------------------------------------------------------------------------

/// The reference answer to every query of `case`'s stream over `sets`. The
/// eager kernels run at 1, 2 and 4 threads for a case every row serves, at
/// one thread otherwise, once per distinct budget.
fn references(sets: &RrrCollection, case: &Case) -> Vec<QueryResponse> {
    let (theta, n) = (sets.len(), sets.num_nodes());
    let threads: &[usize] = if case.rows == Rows::Every { &[1, 2, 4] } else { &[1] };
    let mut eager = BTreeMap::new();
    case.queries
        .iter()
        .map(|query| match query {
            Query::TopK { k, audience: None } => {
                eager.entry(*k).or_insert_with(|| eager_top_k(sets, *k, threads)).clone()
            }
            Query::TopK { k, audience: Some(audience) } => dense_masked_top_k(sets, *k, audience),
            Query::Spread { seeds } => QueryResponse::Spread {
                estimate: sets.estimate_influence(seeds),
                coverage_fraction: sets.coverage_fraction(seeds),
            },
            Query::Marginal { seeds, candidate } => {
                let with: Vec<NodeId> = seeds.iter().copied().chain([*candidate]).collect();
                let gained = covered(sets, &with) - covered(sets, seeds);
                QueryResponse::marginal_from_tallies(gained, theta, n)
            }
        })
        .collect()
}

/// Top-K by the eager kernels: the Ripples baseline and the EfficientIMM
/// kernel (adaptive counter update on), each at every count of `threads`,
/// must pick the same seeds; the answer covers what those seeds cover.
fn eager_top_k(sets: &RrrCollection, k: usize, threads: &[usize]) -> QueryResponse {
    let picks: Vec<Vec<NodeId>> = threads
        .iter()
        .flat_map(|&threads| {
            let exec = ExecutionConfig::new(Algorithm::Efficient, threads);
            [
                select_seeds_ripples(sets, k, threads).seeds,
                select_seeds_efficient(sets, k, &exec, true, None).0.seeds,
            ]
        })
        .collect();
    assert!(picks.windows(2).all(|w| w[0] == w[1]), "the eager kernels disagree at k = {k}");
    let seeds = picks.into_iter().next().expect("a pick per kernel");
    let covered = covered(sets, &seeds);
    QueryResponse::top_k_from_tallies(seeds, covered, sets.len(), sets.num_nodes())
}

/// The sets of `sets` holding a vertex of `seeds`: the count behind the
/// collection's coverage estimators.
fn covered(sets: &RrrCollection, seeds: &[NodeId]) -> usize {
    sets.iter().filter(|s| seeds.iter().any(|&v| s.contains(v))).count()
}

/// Audience Top-K by the dense construction over `sets`: counts over all
/// `n` vertices built from the eligible sets, an alive flag per set, an
/// `n`-entry CELF frontier ordered by count then toward the smaller vertex
/// id, and zero-gain rounds that re-admit the selected vertex.
fn dense_masked_top_k(sets: &RrrCollection, k: usize, audience: &BitSet) -> QueryResponse {
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

// ---------------------------------------------------------------------------
// The rows.
// ---------------------------------------------------------------------------

/// One generation of a case: the served index, the references' answers to
/// the case's stream over the collection it indexes, and for a sampled case
/// the graph revision and the spec it samples.
struct Generation {
    index: SketchIndex,
    expected: Vec<QueryResponse>,
    revision: Option<(CsrGraph, EdgeWeights, SampleSpec)>,
}

impl Generation {
    fn first(case: &Case, tally: &mut Tally) -> Generation {
        let (index, sets, revision) = match &case.source {
            Source::Sampled { graph, weights, spec, theta } => {
                tally.shapes.insert(match spec.model {
                    DiffusionModel::IndependentCascade => "model IC",
                    DiffusionModel::LinearThreshold => "model LT",
                });
                let index =
                    SketchIndex::sample(graph, weights, *spec, *theta, 2, case.name.as_str());
                let sets = draw(graph, weights, *spec, *theta);
                (index.expect("sample"), sets, Some((graph.clone(), weights.clone(), *spec)))
            }
            Source::Sets(sets, meta) => {
                let index = SketchIndex::from_collection(sets.clone(), meta.clone());
                (index.expect("members lie in the vertex space"), sets.clone(), None)
            }
        };
        Generation { expected: references(&sets, case), index, revision }
    }

    /// Roll `delta` the daemon's way (refresh a copy; this generation stays
    /// untouched) and hold the refresh to a from-scratch
    /// `SketchIndex::sample` of the mutated graph: the same postings, array
    /// for array, and the same saved bytes from the first data section on
    /// (the heads differ by the delta log only the refreshed index carries).
    fn rolled(
        &self,
        context: &str,
        delta: &GraphDelta,
        case: &Case,
        tally: &mut Tally,
    ) -> (Generation, RefreshStats) {
        let (graph, weights, spec) = self.revision.as_ref().expect("a sampled case");
        let mut index = self.index.clone();
        let (next_graph, next_weights, stats) =
            index.apply_delta(graph, weights, delta).unwrap_or_else(|e| panic!("{context}: {e}"));
        let theta = index.num_sets();
        let rebuilt = SketchIndex::sample(&next_graph, &next_weights, *spec, theta, 2, "rebuild");
        let rebuilt = rebuilt.expect("rebuild");
        let (patched, fresh) = (index.postings(), rebuilt.postings());
        assert_eq!(patched.sections(), fresh.sections(), "{context}: postings diverged");
        assert_eq!(patched, fresh, "{context}: sets diverged");
        let (patched, fresh) = (saved(&index), saved(&rebuilt));
        let data = |bytes: &[u8]| parse_head(bytes).expect("own head").sections.offsets_off;
        assert!(
            patched[data(&patched)..] == fresh[data(&fresh)..],
            "{context}: saved data diverged"
        );

        if delta.is_empty() {
            tally.shapes.insert("empty delta");
        }
        if delta.insertions().iter().any(|&(s, d, _)| graph.in_neighbors(d).contains(&s)) {
            tally.shapes.insert("multigraph insert");
        }
        let sets = draw(&next_graph, &next_weights, *spec, theta);
        let next = Generation {
            expected: references(&sets, case),
            index,
            revision: Some((next_graph, next_weights, *spec)),
        };
        (next, stats)
    }
}

/// The θ sets `spec` draws from a graph revision: what `SketchIndex::sample`
/// indexes, for the references to read.
fn draw(graph: &CsrGraph, weights: &EdgeWeights, spec: SampleSpec, theta: usize) -> RrrCollection {
    let (model, rng_seed, policy) = (spec.model, spec.rng_seed, spec.policy);
    let schedule = Schedule::Dynamic { chunk: 32 };
    let config = SamplingConfig { model, rng_seed, policy, schedule, threads: 2 };
    generate_rrr_sets(graph, weights, theta, |i| i, &config).sets
}

fn saved(index: &SketchIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.save(&mut bytes).expect("in-memory save");
    bytes
}

/// Serve every generation of `case` through its rows, rolling its deltas.
fn run_case(case: &Case, with_daemon: bool, tally: &mut Tally) {
    tally.shapes.extend(&case.shapes);
    let mut ran = BTreeSet::new();
    let mut gen = Generation::first(case, tally);
    let mut sharded: Vec<Arc<ShardedIndex>> = match case.rows {
        Rows::Engine => Vec::new(),
        _ => SHARDED.iter().map(|&(shards, _)| partition(&gen.index, shards)).collect(),
    };
    let mut daemons =
        if with_daemon && case.rows == Rows::Every { Daemon::pair(&gen) } else { Vec::new() };
    let mut context = format!("{}, generation 0", case.name);
    check_forms(&context, case, 0, &gen.index);
    let mut engine = check(&context, case, &gen, &sharded, &mut daemons, &mut ran, tally);
    for (step, delta) in case.deltas.iter().enumerate() {
        context = format!("{}, after delta {}", case.name, step + 1);
        let (next, stats) = gen.rolled(&context, delta, case, tally);
        check_forms(&context, case, step + 1, &next.index);
        assert!(
            !case.resamples_most || stats.resampled_sets > stats.total_sets / 2,
            "{context}: resampled {} of {} sets",
            stats.resampled_sets,
            stats.total_sets
        );
        let (graph, weights, _) = gen.revision.as_ref().expect("a sampled case");
        sharded = sharded
            .iter()
            .map(|live| roll_sharded(&context, live, (graph, weights), delta, &next.index, &stats))
            .collect();
        for daemon in &mut daemons {
            daemon.roll(&context, delta, &stats);
        }
        // The engine of the generation rolled away, its pool stocked, still
        // answers that generation.
        let old = case.queries.iter().map(|q| engine.execute(q)).collect::<Vec<_>>();
        assert_answers(&context, "the rolled-away engine", &case.queries, &old, &gen.expected);
        gen = next;
        engine = check(&context, case, &gen, &sharded, &mut daemons, &mut ran, tally);
    }
    for daemon in daemons {
        ran.insert(daemon.row);
        daemon.stop(&context, &gen, &case.queries);
    }
    for row in ran {
        *tally.rows.entry(row).or_default() += 1;
    }
    // The pinned forms held in every generation, so the crossings they
    // describe happened.
    for (_, rows) in &case.forms {
        for step in rows.windows(2) {
            match (step[0], step[1]) {
                (false, true) => tally.shapes.insert("a vertex joins the rows"),
                (true, false) => tally.shapes.insert("a vertex leaves the rows"),
                _ => false,
            };
        }
    }
}

/// Hold generation `g` of `case` to the postings forms the case pins.
fn check_forms(context: &str, case: &Case, g: usize, index: &SketchIndex) {
    for &(v, ref rows) in &case.forms {
        let is_row = index.postings().is_row(v);
        assert_eq!(is_row, rows[g], "{context}: vertex {v} is a row (degree {})", index.degree(v));
    }
}

/// Every row of `case` answers its stream on `gen` `==` to the references.
/// Returns the `engine` row's engine, its pooled sessions stocked.
fn check(
    context: &str,
    case: &Case,
    gen: &Generation,
    sharded: &[Arc<ShardedIndex>],
    daemons: &mut [Daemon],
    ran: &mut BTreeSet<&'static str>,
    tally: &mut Tally,
) -> QueryEngine {
    let (index, expected, queries) = (Arc::new(gen.index.clone()), &gen.expected, &case.queries);
    // One engine serves the whole stream, so every query after the first
    // runs on recycled scratch and beside the prefix earlier Top-Ks built.
    let engine = QueryEngine::new(Arc::clone(&index));
    let answers: Vec<QueryResponse> = queries.iter().map(|q| engine.execute(q)).collect();
    assert_answers(context, "engine", queries, &answers, expected);
    ran.insert("engine");
    for (live, (_, row)) in sharded.iter().zip(SHARDED) {
        let sharded = ShardedEngine::new(Arc::clone(live));
        assert_answers(context, row, queries, &sharded.execute_batch(queries, 2), expected);
        ran.insert(row);
    }
    if case.rows != Rows::Every {
        return engine;
    }
    for (threads, row) in BATCHED {
        assert_answers(context, row, queries, &engine.execute_batch(queries, threads), expected);
        ran.insert(row);
    }
    shared_by_threads(context, &index, queries, expected);
    ran.insert("shared by 4 threads");
    for daemon in daemons {
        daemon.check(context, gen, queries);
    }
    snapshots(context, &gen.index, queries, expected, ran, tally);
    engine
}

fn assert_answers(
    context: &str,
    row: &str,
    queries: &[Query],
    answers: &[QueryResponse],
    expected: &[QueryResponse],
) {
    assert_eq!(answers.len(), expected.len(), "{context}, {row}: answer count");
    for (i, (got, want)) in answers.iter().zip(expected).enumerate() {
        assert_eq!(got, want, "{context}, {row}: query {i} ({:?})", queries[i]);
    }
}

/// Four threads released by one barrier share one fresh engine, each
/// walking the stream from its own offset, so Top-Ks on the shared greedy,
/// audiences on pooled sessions and point walks on pooled scratch overlap
/// in time.
fn shared_by_threads(
    context: &str,
    index: &Arc<SketchIndex>,
    queries: &[Query],
    expected: &[QueryResponse],
) {
    let engine = QueryEngine::new(Arc::clone(index));
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (engine, start) = (&engine, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..queries.len() {
                    let i = (t * 5 + round) % queries.len();
                    let got = engine.execute(&queries[i]);
                    assert_eq!(
                        got, expected[i],
                        "{context}, shared by 4 threads: thread {t}, query {i}"
                    );
                }
            });
        }
    });
}

/// `index` under a `shards`-entry shard map. Partitioning copies nothing:
/// the global postings are the index's by pointer, the sharded index weighs
/// what its base weighs, and taking the index back out returns it whole.
fn partition(index: &SketchIndex, shards: usize) -> Arc<ShardedIndex> {
    let sharded = ShardedIndex::from_index(index.clone(), shards).expect("shardable");
    assert_eq!(sharded.num_shards(), shards);
    assert!(Arc::ptr_eq(sharded.global_postings(), index.postings()), "{shards} shards");
    assert_eq!(sharded.memory_bytes(), index.memory_bytes(), "{shards} shards");
    let back = sharded.clone().into_index();
    assert!(Arc::ptr_eq(back.postings(), index.postings()), "{shards} shards");
    assert_eq!(&back, index);
    Arc::new(sharded)
}

/// Roll `delta` on a live sharded generation the daemon's way
/// (`rebuilt_with_delta`): the live generation is untouched, the refresh
/// does what the single index's did, the global postings are shared by
/// pointer exactly when no set was resampled, and the next generation is
/// the partition of the refreshed single index.
fn roll_sharded(
    context: &str,
    live: &ShardedIndex,
    (graph, weights): (&CsrGraph, &EdgeWeights),
    delta: &GraphDelta,
    refreshed: &SketchIndex,
    stats: &RefreshStats,
) -> Arc<ShardedIndex> {
    let shards = live.num_shards();
    let before = live.clone();
    let (next, _, _, sharded_stats) =
        live.rebuilt_with_delta(graph, weights, delta).expect("sharded rollout");
    assert_eq!(*live, before, "{context}, {shards} shards: the live generation changed");
    assert_eq!(sharded_stats, *stats, "{context}, {shards} shards");
    assert_eq!(
        Arc::ptr_eq(live.global_postings(), next.global_postings()),
        stats.resampled_sets == 0,
        "{context}, {shards} shards: the global postings are copied exactly when patched"
    );
    let partitioned = ShardedIndex::from_index(refreshed.clone(), shards).expect("shardable");
    assert_eq!(next, partitioned, "{context}, {shards} shards");
    Arc::new(next)
}

/// Unique names for the snapshot files and sockets of concurrent tests.
static TEMP: AtomicUsize = AtomicUsize::new(0);

fn temp_path(extension: &str) -> std::path::PathBuf {
    let unique = TEMP.fetch_add(1, Ordering::Relaxed);
    let name = format!("imm_conformance_{}_{unique}.{extension}", std::process::id());
    std::env::temp_dir().join(name)
}

/// The heap and mapped loads of `index`'s saved snapshot: each equals the
/// index, re-saves to the bytes it was loaded from, and answers the stream
/// `==` to the references.
fn snapshots(
    context: &str,
    index: &SketchIndex,
    queries: &[Query],
    expected: &[QueryResponse],
    ran: &mut BTreeSet<&'static str>,
    tally: &mut Tally,
) {
    let stats = index.postings().stats();
    let indexed = (0..index.num_nodes() as NodeId).filter(|&v| index.degree(v) > 0).count();
    tally.shapes.insert(match stats.row_vertices {
        0 if indexed > 0 => "postings all-list",
        rows if rows == indexed && rows > 0 => "postings all-row",
        0 => "postings empty",
        _ => "postings mixed",
    });
    let path = temp_path("sketch");
    index.save_to_path(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read the snapshot back");
    let heap = SketchIndex::load_from_path(&path).expect("heap load");
    tally.shapes.insert(if heap.is_dynamic() { "dynamic snapshot" } else { "static snapshot" });
    let mut loads = vec![("heap load", heap)];
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    {
        let mapped = imm_store::Store::open_mapped(&path).expect("mapped open");
        assert_eq!(mapped.mode, imm_store::LoadMode::Mapped, "{context}");
        assert!(mapped.index.is_postings_shared(), "{context}: the postings are a mapped view");
        assert_eq!(mapped.mapped_len(), bytes.len(), "{context}");
        for v in 0..index.num_nodes() as NodeId {
            let (got, want) = (&mapped.index, index);
            assert_eq!(
                (got.ids(v), got.degree(v)),
                (want.ids(v), want.degree(v)),
                "{context}: {v}"
            );
        }
        loads.push(("mapped load", mapped.index));
    }
    std::fs::remove_file(&path).ok();
    for (row, loaded) in loads {
        assert_eq!(&loaded, index, "{context}, {row}");
        assert_eq!(loaded.is_postings_shared(), row == "mapped load", "{context}, {row}");
        assert_eq!(loaded.postings().stats(), stats, "{context}, {row}");
        assert!(saved(&loaded) == bytes, "{context}, {row}: re-saved bytes differ");
        let engine = QueryEngine::new(Arc::new(loaded));
        let answers: Vec<QueryResponse> = queries.iter().map(|q| engine.execute(q)).collect();
        assert_answers(context, row, queries, &answers, expected);
        ran.insert(row);
    }
}

/// Whether every vertex `query` names lies in `0..n`.
fn in_range(query: &Query, n: usize) -> bool {
    let inside = |v: &NodeId| (*v as usize) < n;
    match query {
        Query::TopK { audience, .. } => audience.iter().flat_map(BitSet::iter).all(|v| v < n),
        Query::Spread { seeds } => seeds.iter().all(inside),
        Query::Marginal { seeds, candidate } => seeds.iter().chain([candidate]).all(inside),
    }
}

/// A daemon serving a case over one transport under a two-shard map: the
/// stream over one long-lived connection, each delta rolled over RPC.
struct Daemon {
    row: &'static str,
    handle: ServerHandle,
    client: Client,
    rollouts: u64,
}

impl Daemon {
    /// One daemon on a unix socket and one on TCP, serving `gen`; dynamic
    /// when `gen` has a graph revision.
    fn pair(gen: &Generation) -> Vec<Daemon> {
        let unix = Listen::Unix(temp_path("sock"));
        [("daemon/unix", unix), ("daemon/tcp", Listen::Tcp("127.0.0.1:0".into()))]
            .into_iter()
            .map(|(row, listen)| {
                let config = ServerConfig::new(listen);
                let sharded = ShardedIndex::from_index(gen.index.clone(), 2).expect("shardable");
                let dynamic = gen.revision.as_ref().map(|(g, w, _)| (g.clone(), w.clone()));
                let handle = Server::start(Arc::new(sharded), dynamic, config, || "{}".into())
                    .expect("the daemon starts");
                let policy = RetryPolicy { attempts: 1, ..Default::default() };
                let client = Client::new(handle.address().clone(), policy);
                Daemon { row, handle, client, rollouts: 0 }
            })
            .collect()
    }

    /// The stream over the connection: a query inside the vertex space
    /// answers `==` its reference, and one naming a vertex outside it is an
    /// `InvalidVertex` rejection, admission's check, which the in-process
    /// engine does not make.
    fn check(&mut self, context: &str, gen: &Generation, queries: &[Query]) {
        let (row, n) = (self.row, gen.index.num_nodes());
        let info = self.client.info().expect("info");
        let served = (info.nodes, info.theta, info.shards, info.rollouts);
        let want = (n as u64, gen.index.num_sets() as u64, 2, self.rollouts);
        assert_eq!(served, want, "{context}, {row}: info");
        let outcomes = self.client.batch(queries).expect("batch call");
        assert_eq!(outcomes.len(), queries.len(), "{context}, {row}: answer count");
        for (i, (outcome, query)) in outcomes.iter().zip(queries).enumerate() {
            match outcome {
                Ok(got) if in_range(query, n) => {
                    assert_eq!(got, &gen.expected[i], "{context}, {row}: query {i} ({query:?})")
                }
                Err(Rejection::InvalidVertex { vertex, .. }) if !in_range(query, n) => {
                    assert!(*vertex as usize >= n, "{context}, {row}: query {i}")
                }
                other => panic!("{context}, {row}: query {i} ({query:?}) answered {other:?}"),
            }
        }
    }

    /// Roll `delta` over RPC; the daemon reports the refresh the in-process
    /// one did.
    fn roll(&mut self, context: &str, delta: &GraphDelta, stats: &RefreshStats) {
        let outcome = self.client.apply_delta(&delta.to_text()).expect("rollout over RPC");
        let reported = [
            outcome.total_sets,
            outcome.resampled_sets,
            outcome.inserted_edges,
            outcome.deleted_edges,
            outcome.reweighted_edges,
            outcome.edges_after,
        ];
        let local = [
            stats.total_sets,
            stats.resampled_sets,
            stats.inserted_edges,
            stats.deleted_edges,
            stats.reweighted_edges,
            stats.num_edges_after,
        ];
        assert_eq!(reported, local.map(|x| x as u64), "{context}, {}: rollout", self.row);
        self.rollouts += 1;
    }

    /// A connection opened after every rollout answers the last generation;
    /// shutdown ends the accept loop and removes a unix socket's file.
    fn stop(mut self, context: &str, gen: &Generation, queries: &[Query]) {
        let address = self.handle.address().clone();
        self.client =
            Client::new(address.clone(), RetryPolicy { attempts: 1, ..Default::default() });
        self.check(&format!("{context}, fresh connection"), gen, queries);
        self.client.shutdown().expect("shutdown");
        self.handle.join().expect("the accept loop exits");
        if let Listen::Unix(path) = address {
            assert!(!path.exists(), "{context}: the socket file is removed on shutdown");
        }
    }
}
