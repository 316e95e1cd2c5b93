//! `Generate_RRRsets`: reverse influence sampling for the IC and LT models.
//!
//! Every RRR set is rooted at a uniformly chosen vertex and collects the
//! vertices that would have *influenced* the root under one random
//! realization of the diffusion model. The realization is **counter-based**:
//! set `i` of a sample owns a [`SetKey`] derived from `(rng_seed, i)`, and
//! every random decision is a pure function of that key and the vertex or
//! edge it concerns —
//!
//! * **IC** — edge `u → v` is *live* in set `i` iff
//!   `key.edge_coin(u, v) < w(u, v)` ([`SetKey::ic_edge_is_live`]); the set
//!   is the reverse-reachable set of its root in the live-edge graph. This
//!   is IMM's own live-edge definition.
//! * **LT** — every vertex `c` keeps at most one in-edge ([`lt_pick`]): the
//!   one draw `key.vertex_coin(c)` lands in its in-edges' weights laid end
//!   to end in ascending source order, or in the leftover mass `1 − Σ w`
//!   (keep none). The set is the walk from the root along the kept edges
//!   until it stops or closes a cycle.
//!
//! No decision depends on the order vertices are reached in, on the order a
//! vertex's in-neighbours are stored in, or on any edge into another vertex
//! — there is no RNG stream to keep aligned. That is what makes a stored set
//! *refreshable*: `imm-service` re-evaluates the very same coins at the
//! destinations a graph delta touches and resamples only the sets whose
//! expansion changed. Parallel copies of one `(u, v)` pair share their IC
//! coin, so they act as one edge of weight `max(w)`; under LT each copy is
//! its own stretch of the draw's range.
//!
//! The parallel driver generates `count` sets and returns them in global
//! set-index order, so results are identical — order included — for any
//! thread count or schedule. When the EfficientIMM kernel fusion is enabled
//! the freshly generated set immediately increments the shared
//! [`GlobalCounter`] (Algorithm 3 of the paper) while it is still hot in
//! cache.

use crate::balance::{run_jobs, Schedule};
use crate::counter::GlobalCounter;
use crate::stats::WorkProfile;
use crate::NodeId;
use imm_diffusion::DiffusionModel;
use imm_graph::{CsrGraph, EdgeWeights};
use imm_rrr::{AdaptivePolicy, RrrCollection, SetProvenance};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Epoch-stamped visited marker reused across RRR-set generations by one
/// worker, so each set costs O(set size) rather than O(|V|) to reset.
#[derive(Debug, Clone)]
pub struct VisitMarker {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitMarker {
    /// Marker for a graph of `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        VisitMarker { stamps: vec![0; num_nodes], epoch: 0 }
    }

    /// Start a fresh visitation (cheap: bumps the epoch; only wraps rarely).
    pub fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap-around: clear and restart from epoch 1.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Whether `v` was visited in the current epoch.
    #[inline]
    pub fn visited(&self, v: NodeId) -> bool {
        self.stamps[v as usize] == self.epoch
    }

    /// Mark `v` visited; returns `true` if it was not yet visited.
    #[inline]
    pub fn visit(&mut self, v: NodeId) -> bool {
        let slot = &mut self.stamps[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijection on `u64` with full avalanche.
/// Every coin is one application of it to `key ^ subject`, so the coins of
/// one set are as independent as distinct SplitMix64 outputs.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 24 bits of `h` as a float in `[0, 1)`.
#[inline]
fn unit_f32(h: u64) -> f32 {
    (h >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// The coin family of one RRR set: **the** definition of "set `i` of the
/// sample seeded `rng_seed`". The bulk generator, the single-set resample
/// and the refresh predicate in `imm-service` all read their randomness
/// from here, so a set resampled in isolation is byte-identical to the one
/// a full rebuild produces at the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetKey {
    edges: u64,
    vertices: u64,
    root: u64,
}

impl SetKey {
    /// Key of set `set_index` under `base_seed`: three consecutive outputs
    /// of the SplitMix64 stream rooted at the mixed `(seed, index)` pair.
    pub fn new(base_seed: u64, set_index: usize) -> Self {
        let z = mix(base_seed.wrapping_add(GOLDEN.wrapping_mul(set_index as u64 + 1)));
        SetKey {
            edges: mix(z.wrapping_add(GOLDEN)),
            vertices: mix(z.wrapping_add(GOLDEN.wrapping_mul(2))),
            root: mix(z.wrapping_add(GOLDEN.wrapping_mul(3))),
        }
    }

    /// The set's root, uniform over `[0, num_nodes)` (multiply-shift; the
    /// bias is below `num_nodes / 2^64`).
    #[inline]
    pub fn root(self, num_nodes: usize) -> NodeId {
        ((self.root as u128 * num_nodes as u128) >> 64) as NodeId
    }

    /// The coin of edge `u → v`, in `[0, 1)`.
    #[inline]
    fn edge_coin(self, u: NodeId, v: NodeId) -> f32 {
        unit_f32(mix(self.edges ^ ((u as u64) << 32 | v as u64)))
    }

    /// The coin of vertex `c`, in `[0, 1)`.
    #[inline]
    fn vertex_coin(self, c: NodeId) -> f32 {
        unit_f32(mix(self.vertices ^ c as u64))
    }

    /// IC: whether an edge `u → v` of weight `weight` is live in this set.
    #[inline]
    pub fn ic_edge_is_live(self, u: NodeId, v: NodeId, weight: f32) -> bool {
        self.edge_coin(u, v) < weight
    }
}

/// LT: the in-neighbour vertex `c` keeps in the set of `key`, if any.
///
/// One draw `key.vertex_coin(c)` lands in the in-edges' weights laid end to
/// end **in ascending source order** — `u` is kept with probability
/// `w(u, c)`, none with the leftover mass `1 − Σ w`. The order is fixed by
/// the rule, not by storage: an in-list stored ascending (what every
/// generator and reader produces) is walked as it lies, any other — a
/// destination a delta appended to — is sorted first.
pub fn lt_pick(graph: &CsrGraph, weights: &EdgeWeights, key: SetKey, c: NodeId) -> Option<NodeId> {
    let draw = key.vertex_coin(c) as f64;
    let in_edges = graph.in_neighbors_with_edge_ids(c).map(|(u, eid)| (u, weights.weight(eid)));
    if graph.in_neighbors(c).windows(2).all(|pair| pair[0] <= pair[1]) {
        stretch_holding(draw, in_edges)
    } else {
        let mut sorted: Vec<(NodeId, f32)> = in_edges.collect();
        sorted.sort_unstable_by_key(|&(u, _)| u);
        stretch_holding(draw, sorted.into_iter())
    }
}

/// The source whose stretch of the laid-out weights holds `draw`. Weights
/// are summed in f64, where a short run of f32 addends is exact, so the
/// stretch bounds do not depend on how parallel copies are ordered.
#[inline]
fn stretch_holding(draw: f64, edges: impl Iterator<Item = (NodeId, f32)>) -> Option<NodeId> {
    let mut upper = 0.0f64;
    for (u, w) in edges {
        upper += w as f64;
        if draw < upper {
            return Some(u);
        }
    }
    None
}

/// Generate the RRR set of `key` rooted at `root`. Returns the reached
/// vertices in visitation order (the root first). `marker` must cover the
/// graph and is reset internally.
pub fn generate_rrr_set(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    root: NodeId,
    key: SetKey,
    marker: &mut VisitMarker,
) -> Vec<NodeId> {
    let mut set = Vec::with_capacity(16);
    generate_rrr_set_into(graph, weights, model, root, key, marker, &mut set);
    set
}

/// Allocation-free form of [`generate_rrr_set`]: the reached vertices are
/// **appended** to `out` (visitation order, root first) and the number of
/// appended members is returned. Bulk samplers point `out` at a growing
/// per-worker arena so generating a set costs no allocator round-trip.
pub fn generate_rrr_set_into(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    root: NodeId,
    key: SetKey,
    marker: &mut VisitMarker,
    out: &mut Vec<NodeId>,
) -> usize {
    marker.next_epoch();
    let appended = match model {
        DiffusionModel::IndependentCascade => {
            ic_reverse_bfs(graph, weights, root, key, marker, out)
        }
        DiffusionModel::LinearThreshold => lt_reverse_walk(graph, weights, root, key, marker, out),
    };
    // This is the one choke point every sampling path funnels through
    // (bulk, refresh resample, one-shot), so the instrumentation budget —
    // two relaxed atomics per generated set — is paid exactly once here.
    crate::metrics::SETS_SAMPLED.increment();
    crate::metrics::SET_VERTICES.add(appended as u64);
    appended
}

fn ic_reverse_bfs(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    root: NodeId,
    key: SetKey,
    marker: &mut VisitMarker,
    out: &mut Vec<NodeId>,
) -> usize {
    // The appended segment doubles as the BFS frontier: `cursor` walks it in
    // append order, so no queue is allocated.
    let start = out.len();
    marker.visit(root);
    out.push(root);
    let mut cursor = start;

    while cursor < out.len() {
        let v = out[cursor];
        cursor += 1;
        for (u, eid) in graph.in_neighbors_with_edge_ids(v) {
            // A member's coin cannot change membership: skip it unevaluated.
            if !marker.visited(u) && key.ic_edge_is_live(u, v, weights.weight(eid)) {
                marker.visit(u);
                out.push(u);
            }
        }
    }
    out.len() - start
}

fn lt_reverse_walk(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    root: NodeId,
    key: SetKey,
    marker: &mut VisitMarker,
    out: &mut Vec<NodeId>,
) -> usize {
    let start = out.len();
    marker.visit(root);
    out.push(root);
    let mut current = root;
    while let Some(u) = lt_pick(graph, weights, key, current) {
        if !marker.visit(u) {
            // Already in the set: the live-edge path closed a cycle.
            break;
        }
        out.push(u);
        current = u;
    }
    out.len() - start
}

/// Generate the RRR set with global index `set_index` of the sample seeded
/// `base_seed` (members in visitation order, the root first). The
/// incremental refresh in `imm-service` resamples through this.
pub fn generate_indexed_rrr_set(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    model: DiffusionModel,
    base_seed: u64,
    set_index: usize,
    marker: &mut VisitMarker,
) -> Vec<NodeId> {
    let key = SetKey::new(base_seed, set_index);
    generate_rrr_set(graph, weights, model, key.root(graph.num_nodes()), key, marker)
}

/// The provenance records of sets `indices` of the sample seeded
/// `base_seed` over `num_nodes` vertices — a root is a function of the key
/// alone, so the records are derived, not carried out of the sampling loop.
pub fn set_provenance(
    base_seed: u64,
    indices: std::ops::Range<usize>,
    num_nodes: usize,
) -> Vec<SetProvenance> {
    indices.map(|i| SetProvenance { root: SetKey::new(base_seed, i).root(num_nodes) }).collect()
}

/// Result of a bulk sampling call.
#[derive(Debug)]
pub struct SamplingOutput {
    /// The generated sets, in global set-index order: position `i` holds the
    /// set of key `(rng_seed, start_index + i)` regardless of thread count
    /// or schedule.
    pub sets: RrrCollection,
    /// Per-thread operation counts of the generation (edge probes + counter
    /// updates when fused).
    pub work: WorkProfile,
}

/// Options controlling a bulk sampling call.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig<'a> {
    /// Diffusion model to sample under.
    pub model: DiffusionModel,
    /// Base RNG seed (per-set keys are derived from it).
    pub rng_seed: u64,
    /// RRR-set representation policy.
    pub policy: AdaptivePolicy,
    /// Job schedule for distributing sets across workers.
    pub schedule: Schedule,
    /// Number of worker threads.
    pub threads: usize,
    /// When set, every generated set immediately increments this counter —
    /// the paper's kernel fusion.
    pub fused_counter: Option<&'a GlobalCounter>,
}

/// One worker slot's accumulated output: a flat vertex arena holding every
/// **list-bound** set the slot generated (each segment already sorted), the
/// directory locating each segment by its global job index, and the bitmaps
/// of the slot's heavy sets (built in the worker while the set was hot —
/// their members never enter an arena).
#[derive(Debug, Default)]
struct SlotOutput {
    arena: Vec<NodeId>,
    /// `(job, start, len)` into `arena` — list sets only.
    lists: Vec<(usize, u32, u32)>,
    /// `(job, bitmap)` — bitmap-bound (heavy) sets.
    bitmaps: Vec<(usize, imm_rrr::BitSet)>,
}

/// Generate `count` RRR sets (with global indices starting at `start_index`
/// for key-derivation purposes), `config.threads` tasks wide on the
/// process-global pool.
///
/// The returned collection is in global set-index order for every thread
/// count and schedule: set `i` always came from key
/// `(rng_seed, start_index + i)`. That canonical order is what lets the
/// `imm-service` sketch index resample individual sets later.
pub fn generate_rrr_sets(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    count: usize,
    start_index: usize,
    config: &SamplingConfig<'_>,
) -> SamplingOutput {
    crate::metrics::register();
    let threads = config.threads.max(1);
    let num_nodes = graph.num_nodes();
    let slots: Vec<Mutex<SlotOutput>> =
        (0..threads).map(|_| Mutex::new(SlotOutput::default())).collect();
    // Epoch-stamped visit markers are O(|V|) to build, so chunks check one
    // out of a shared pool instead of allocating their own.
    let markers: Mutex<Vec<VisitMarker>> = Mutex::new(Vec::new());
    let per_worker_ops: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let atomic_ops = AtomicU64::new(0);

    run_jobs(threads, count, config.schedule, |worker, range| {
        let mut marker = markers.lock().pop().unwrap_or_else(|| VisitMarker::new(num_nodes));
        // Chunk-local arena: every list-bound set of the chunk is appended
        // here, sorted in place, and spliced into the slot arena in one bulk
        // copy under the lock. A bitmap-bound (heavy) set is scattered into
        // its side-table bitmap right away — while it is hot — and its
        // segment rolled back, so the biggest sets are never copied through
        // the arenas at all. No per-set allocation for list sets.
        let mut buf: Vec<NodeId> = Vec::with_capacity(16 * range.len());
        let mut entries: Vec<(usize, u32, u32)> = Vec::with_capacity(range.len());
        let mut heavy: Vec<(usize, imm_rrr::BitSet)> = Vec::new();
        let mut local_ops = 0u64;
        for job in range.iter() {
            let key = SetKey::new(config.rng_seed, start_index + job);
            let start = buf.len();
            let len = generate_rrr_set_into(
                graph,
                weights,
                config.model,
                key.root(num_nodes),
                key,
                &mut marker,
                &mut buf,
            );
            local_ops += len as u64;
            if let Some(counter) = config.fused_counter {
                // Kernel fusion: the fresh segment increments the shared
                // counter while it is still hot in cache.
                for &v in &buf[start..] {
                    counter.increment(v);
                }
                atomic_ops.fetch_add(len as u64, Ordering::Relaxed);
            }
            match config.policy.choose(len, num_nodes) {
                imm_rrr::Representation::SortedList => {
                    buf[start..].sort_unstable();
                    entries.push((job, start as u32, len as u32));
                }
                imm_rrr::Representation::Bitmap => {
                    let bs = imm_rrr::BitSet::from_iter_with_capacity(
                        num_nodes,
                        buf[start..].iter().map(|&v| v as usize),
                    );
                    heavy.push((job, bs));
                    buf.truncate(start);
                }
            }
        }
        per_worker_ops[worker].fetch_add(local_ops, Ordering::Relaxed);
        let mut slot = slots[worker].lock();
        let base = slot.arena.len();
        assert!(
            base + buf.len() <= u32::MAX as usize,
            "per-worker sampling arena exceeds the u32 offset space"
        );
        slot.arena.extend_from_slice(&buf);
        slot.lists.extend(entries.iter().map(|&(job, s, l)| (job, base as u32 + s, l)));
        slot.bitmaps.append(&mut heavy);
        drop(slot);
        markers.lock().push(marker);
    });

    // Splice the per-worker arenas into the global collection in set-index
    // order, so the output is canonical for every thread count and schedule.
    let mut outputs: Vec<SlotOutput> = slots.into_iter().map(|m| m.into_inner()).collect();
    const UNFILLED: u32 = u32::MAX;
    let mut directory: Vec<(u32, u32, u32)> = vec![(UNFILLED, 0, 0); count];
    let mut bitmap_of: Vec<Option<imm_rrr::BitSet>> = Vec::new();
    bitmap_of.resize_with(count, || None);
    for (slot_idx, output) in outputs.iter_mut().enumerate() {
        for &(job, start, len) in &output.lists {
            directory[job] = (slot_idx as u32, start, len);
        }
        for (job, bs) in output.bitmaps.drain(..) {
            bitmap_of[job] = Some(bs);
        }
    }
    // The slot arenas hold exactly the list-bound members, so their total is
    // the arena reservation (bitmap sets live in the side table).
    let list_members: usize = outputs.iter().map(|o| o.arena.len()).sum();
    let mut sets = RrrCollection::with_arena_capacity(num_nodes, count, list_members);
    for (job, &(slot_idx, start, len)) in directory.iter().enumerate() {
        if let Some(bs) = bitmap_of[job].take() {
            sets.push(imm_rrr::RrrSet::Bitmap(bs));
        } else {
            assert!(slot_idx != UNFILLED, "every job index is produced exactly once");
            let members = &outputs[slot_idx as usize].arena[start as usize..(start + len) as usize];
            sets.push_sorted_slice(members, &config.policy);
        }
    }
    let work = WorkProfile {
        per_thread_ops: per_worker_ops.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        atomic_ops: atomic_ops.load(Ordering::Relaxed),
        search_probes: 0,
    };
    SamplingOutput { sets, work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_graph::generators;
    use imm_graph::WeightModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config(model: DiffusionModel, threads: usize) -> SamplingConfig<'static> {
        SamplingConfig {
            model,
            rng_seed: 42,
            policy: AdaptivePolicy::default(),
            schedule: Schedule::Dynamic { chunk: 8 },
            threads,
            fused_counter: None,
        }
    }

    #[test]
    fn visit_marker_epochs() {
        let mut m = VisitMarker::new(10);
        m.next_epoch();
        assert!(m.visit(3));
        assert!(!m.visit(3));
        assert!(m.visited(3));
        m.next_epoch();
        assert!(!m.visited(3));
        assert!(m.visit(3));
    }

    #[test]
    fn coins_are_pure_functions_of_key_and_subject() {
        let key = SetKey::new(9, 4);
        assert_eq!(key, SetKey::new(9, 4));
        assert_eq!(key.edge_coin(3, 7), key.edge_coin(3, 7));
        assert_ne!(key.edge_coin(3, 7), key.edge_coin(7, 3), "direction matters");
        assert_ne!(key.edge_coin(3, 7), SetKey::new(9, 5).edge_coin(3, 7));
        assert_ne!(key.edge_coin(3, 7), SetKey::new(10, 4).edge_coin(3, 7));
        for i in 0..1000 {
            let key = SetKey::new(1, i);
            assert!((0.0..1.0).contains(&key.edge_coin(i as u32, 5)));
            assert!((0.0..1.0).contains(&key.vertex_coin(i as u32)));
            assert!(key.root(17) < 17);
        }
    }

    /// What a weak `mix` breaks first: the coins of two edges that differ in
    /// one bit must be independent across sets — both below ½ in a quarter
    /// of the sets, whichever bit differs.
    #[test]
    fn coins_of_neighbouring_edges_are_pairwise_independent() {
        let sets = 40_000usize;
        let sigma = (0.25f64 * 0.75 / sets as f64).sqrt();
        for bit in 0..32 {
            let both_low = |pair: fn(SetKey, u32) -> (f32, f32)| {
                (0..sets)
                    .filter(|&i| {
                        let (a, b) = pair(SetKey::new(11, i), 1 << bit);
                        a < 0.5 && b < 0.5
                    })
                    .count() as f64
                    / sets as f64
            };
            let by_source =
                both_low(|key, flip| (key.edge_coin(40, 7), key.edge_coin(40 ^ flip, 7)));
            let by_target =
                both_low(|key, flip| (key.edge_coin(40, 7), key.edge_coin(40, 7 ^ flip)));
            let by_vertex = both_low(|key, flip| (key.vertex_coin(40), key.vertex_coin(40 ^ flip)));
            for (what, share) in
                [("source", by_source), ("target", by_target), ("vertex", by_vertex)]
            {
                assert!(
                    (share - 0.25).abs() < 4.5 * sigma,
                    "{what} bit {bit}: both coins low in {share:.4} of the sets"
                );
            }
        }
    }

    #[test]
    fn ic_rrr_set_contains_root_and_only_reverse_reachable_vertices() {
        // Path 0 -> 1 -> 2 -> 3 with probability 1: the RRR set of root v is
        // exactly {0, ..., v}.
        let g = CsrGraph::from_edge_list(&generators::path(4));
        let w = EdgeWeights::constant(&g, 1.0);
        let mut marker = VisitMarker::new(4);
        for root in 0..4u32 {
            let mut set = generate_rrr_set(
                &g,
                &w,
                DiffusionModel::IndependentCascade,
                root,
                SetKey::new(1, root as usize),
                &mut marker,
            );
            set.sort_unstable();
            let expected: Vec<u32> = (0..=root).collect();
            assert_eq!(set, expected, "root {root}");
        }
    }

    #[test]
    fn ic_zero_probability_gives_singleton_sets() {
        let g = CsrGraph::from_edge_list(&generators::complete(10));
        let w = EdgeWeights::constant(&g, 0.0);
        let mut marker = VisitMarker::new(10);
        let set = generate_rrr_set(
            &g,
            &w,
            DiffusionModel::IndependentCascade,
            4,
            SetKey::new(2, 0),
            &mut marker,
        );
        assert_eq!(set, vec![4]);
    }

    #[test]
    fn lt_walk_follows_weights() {
        // 0 -> 2 with weight 1.0 and 1 -> 2 with weight 0.0: from root 2 the
        // walk must always step to 0 and never to 1.
        let g = CsrGraph::from_edges(3, vec![(0, 2), (1, 2)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![1.0, 0.0], WeightModel::LtNormalized).unwrap();
        let mut marker = VisitMarker::new(3);
        for seed in 0..20 {
            let set = generate_rrr_set(
                &g,
                &w,
                DiffusionModel::LinearThreshold,
                2,
                SetKey::new(seed, 0),
                &mut marker,
            );
            assert!(set.contains(&0));
            assert!(!set.contains(&1));
        }
    }

    #[test]
    fn lt_pick_frequencies_follow_the_weights() {
        // Three in-edges of weight 0.5 / 0.3 / 0.1 and 0.1 of leftover mass.
        let g = CsrGraph::from_edges(4, vec![(0, 3), (1, 3), (2, 3)]).unwrap();
        let mut w = vec![0.0f32; 3];
        for (u, eid) in g.in_neighbors_with_edge_ids(3) {
            w[eid] = [0.5, 0.3, 0.1][u as usize];
        }
        let w = EdgeWeights::from_vec(&g, w, WeightModel::LtNormalized).unwrap();
        let trials = 40_000usize;
        let mut hits = [0usize; 4];
        for i in 0..trials {
            match lt_pick(&g, &w, SetKey::new(77, i), 3) {
                Some(u) => hits[u as usize] += 1,
                None => hits[3] += 1,
            }
        }
        for (slot, expected) in [0.5f64, 0.3, 0.1, 0.1].into_iter().enumerate() {
            let sigma = (expected * (1.0 - expected) / trials as f64).sqrt();
            let got = hits[slot] as f64 / trials as f64;
            assert!((got - expected).abs() < 4.0 * sigma, "slot {slot}: {got} vs {expected}");
        }
    }

    #[test]
    fn lt_walk_terminates_on_cycles() {
        // A directed cycle with full weights would loop forever without the
        // visited check.
        let g = CsrGraph::from_edge_list(&generators::cycle(5));
        let w = EdgeWeights::constant(&g, 1.0);
        let mut marker = VisitMarker::new(5);
        let set = generate_rrr_set(
            &g,
            &w,
            DiffusionModel::LinearThreshold,
            0,
            SetKey::new(3, 0),
            &mut marker,
        );
        assert_eq!(set.len(), 5, "walk must visit each cycle vertex exactly once");
    }

    #[test]
    fn bulk_generation_produces_requested_count() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = CsrGraph::from_edge_list(&generators::social_network(300, 6, 0.2, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let out = generate_rrr_sets(&g, &w, 200, 0, &config(DiffusionModel::IndependentCascade, 2));
        assert_eq!(out.sets.len(), 200);
        assert!(out.work.total_ops() >= 200, "at least the roots are touched");
        assert_eq!(out.work.per_thread_ops.len(), 2);
    }

    #[test]
    fn bulk_generation_is_deterministic_and_ordered_across_threads_and_schedules() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = CsrGraph::from_edge_list(&generators::social_network(200, 6, 0.2, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);

        let collect = |threads: usize, schedule: Schedule| -> Vec<Vec<NodeId>> {
            let mut cfg = config(DiffusionModel::IndependentCascade, threads);
            cfg.schedule = schedule;
            let out = generate_rrr_sets(&g, &w, 100, 0, &cfg);
            out.sets.iter().map(|s| s.to_vec()).collect()
        };

        // The output is in global set-index order, so equality holds without
        // sorting — the canonical order the sketch index relies on.
        let a = collect(1, Schedule::Static);
        let b = collect(4, Schedule::Dynamic { chunk: 3 });
        let c = collect(2, Schedule::Static);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn output_order_matches_the_indexed_keys() {
        let mut rng = SmallRng::seed_from_u64(12);
        let g = CsrGraph::from_edge_list(&generators::social_network(150, 5, 0.2, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let cfg = config(DiffusionModel::IndependentCascade, 3);
        let out = generate_rrr_sets(&g, &w, 40, 7, &cfg);
        let records = set_provenance(cfg.rng_seed, 7..47, g.num_nodes());
        let mut marker = VisitMarker::new(g.num_nodes());
        for (i, set) in out.sets.iter().enumerate() {
            let mut sorted = generate_indexed_rrr_set(
                &g,
                &w,
                DiffusionModel::IndependentCascade,
                cfg.rng_seed,
                7 + i,
                &mut marker,
            );
            assert_eq!(sorted[0], records[i].root, "visitation starts at the recorded root");
            sorted.sort_unstable();
            assert_eq!(set.to_vec(), sorted, "set {i} must come from key {}", 7 + i);
        }
    }

    #[test]
    fn fused_counter_matches_set_contents() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = CsrGraph::from_edge_list(&generators::social_network(150, 6, 0.2, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let counter = GlobalCounter::new(g.num_nodes());
        let mut cfg = config(DiffusionModel::IndependentCascade, 2);
        cfg.fused_counter = Some(&counter);
        let out = generate_rrr_sets(&g, &w, 80, 0, &cfg);

        // Recompute occurrence counts from the materialized sets.
        let mut expected = vec![0u64; g.num_nodes()];
        for set in out.sets.iter() {
            for v in set.iter() {
                expected[v as usize] += 1;
            }
        }
        assert_eq!(counter.snapshot(), expected);
        assert!(out.work.atomic_ops > 0);
    }

    #[test]
    fn start_index_changes_the_sampled_sets() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = CsrGraph::from_edge_list(&generators::social_network(150, 6, 0.2, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let cfg = config(DiffusionModel::IndependentCascade, 1);
        let a = generate_rrr_sets(&g, &w, 50, 0, &cfg);
        let b = generate_rrr_sets(&g, &w, 50, 50, &cfg);
        let a_sets: Vec<Vec<NodeId>> = a.sets.iter().map(|s| s.to_vec()).collect();
        let b_sets: Vec<Vec<NodeId>> = b.sets.iter().map(|s| s.to_vec()).collect();
        assert_ne!(a_sets, b_sets, "different global indices must give different keys");
    }

    #[test]
    fn zero_count_is_a_no_op() {
        let g = CsrGraph::from_edge_list(&generators::star(10));
        let w = EdgeWeights::constant(&g, 0.5);
        let out = generate_rrr_sets(&g, &w, 0, 0, &config(DiffusionModel::IndependentCascade, 2));
        assert_eq!(out.sets.len(), 0);
        assert_eq!(out.work.total_ops(), 0);
    }

    #[test]
    fn dense_graph_under_ic_produces_giant_rrr_sets() {
        // The paper's SCC argument: on a strongly connected social graph with
        // reasonably high probabilities, RRR sets cover a large fraction.
        let mut rng = SmallRng::seed_from_u64(8);
        let g = CsrGraph::from_edge_list(&generators::social_network(400, 10, 0.3, &mut rng));
        let w = EdgeWeights::constant(&g, 0.3);
        let out = generate_rrr_sets(&g, &w, 50, 0, &config(DiffusionModel::IndependentCascade, 2));
        let stats = out.sets.coverage_stats();
        assert!(stats.max_coverage > 0.5, "max coverage {}", stats.max_coverage);
    }
}
