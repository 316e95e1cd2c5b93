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
//! Because no coin depends on the traversal, the IC kernel is free to pick
//! its direction: a direction-optimizing reverse BFS that expands a sparse
//! frontier top-down (along in-edges) and finishes a dense set bottom-up
//! (every outside vertex along its out-edges, from a [`SamplingGraph`]'s
//! lazily built out-side). Both directions reach the same set; only the
//! order members are appended in differs, so an IC set lists its root
//! first and the rest in an order that depends on the directions taken —
//! every consumer sorts the members or turns them into a bitmap.
//!
//! The kernel's inner loops avoid branching on a coin that is live about
//! half the time. A top-down level that follows one which probed at least
//! 32 in-edges and joined an eighth of them appends branch-free; the other
//! levels keep the branch, which predicts well when coins are rarely live.
//! A bottom-up sweep tests out-edges four at a time.
//!
//! [`generate_rrr_sets_into`] is the workspace's one parallel driver: a
//! batch run's sample, a serving index's build and a refresh's resample all
//! draw through it ([`generate_rrr_sets`] is it over a new collection). Job
//! `j` draws the set of key `(rng_seed, set_index(j))` for the caller's
//! `set_index`, the jobs are balanced over the workers, and the sets are
//! appended to the caller's collection in job order, so results are
//! identical — order included — for any thread count or schedule. Each pool
//! task keeps its visit marker, scratch and output for the whole call, and
//! its tallies reach the registry once, when the call ends. The driver
//! counts nothing per vertex: the paper's kernel fusion (Algorithm 3) is the
//! run's per-batch `imm_rrr::count_memberships` over the sets a call
//! appended (see `crate::imm`).

use crate::balance::{run_tasks, Schedule};
use crate::stats::WorkProfile;
use crate::NodeId;
use imm_diffusion::DiffusionModel;
use imm_graph::{CsrGraph, EdgeWeights};
use imm_rrr::{AdaptivePolicy, Representation, RrrCollection, SetProvenance};
use std::sync::OnceLock;

/// Epoch-stamped visited marker reused across RRR-set generations by one
/// worker, so each set costs O(set size) rather than O(|V|) to reset.
///
/// It also holds the worker's bottom-up state — the list of vertices not
/// yet in the current set — and its tallies: sets drawn, members appended,
/// edges probed and bottom-up sweeps. The tallies reach the registry
/// (`core_rrr_sets_sampled`, `core_rrr_set_vertices`,
/// `core_rrr_edges_probed`, `core_rrr_bottom_up_sweeps`) when the marker is
/// dropped — once per worker per sampling call, never per set.
#[derive(Debug)]
pub struct VisitMarker {
    stamps: Vec<u32>,
    epoch: u32,
    /// The vertices a set's bottom-up sweeps left outside it.
    unvisited: Vec<NodeId>,
    sets_sampled: u64,
    set_vertices: u64,
    edges_probed: u64,
    bottom_up_sweeps: u64,
}

impl VisitMarker {
    /// Marker for a graph of `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        VisitMarker {
            stamps: vec![0; num_nodes],
            epoch: 0,
            unvisited: Vec::new(),
            sets_sampled: 0,
            set_vertices: 0,
            edges_probed: 0,
            bottom_up_sweeps: 0,
        }
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

/// The per-worker flush: the only place the sampler touches the registry.
impl Drop for VisitMarker {
    fn drop(&mut self) {
        crate::metrics::SETS_SAMPLED.add(self.sets_sampled);
        crate::metrics::SET_VERTICES.add(self.set_vertices);
        crate::metrics::EDGES_PROBED.add(self.edges_probed);
        crate::metrics::BOTTOM_UP_SWEEPS.add(self.bottom_up_sweeps);
    }
}

/// What a coin costs in edges examined: the hash, and a branch on its
/// outcome that cannot be predicted. Measured on a 2 000-node social graph
/// on one core of an x86-64 Xeon, a probe that evaluates one takes about
/// three times one that does not.
const COIN_COST: f64 = 2.0;

/// The fewest in-edges a top-down level must probe for its share of joins
/// to choose how the next level appends. A share of fewer coins misreads
/// how often a coin is live: under weighted cascade, whose coins are live
/// about a tenth of the time, a small level joins an eighth of its probes
/// by chance, and branch-free appends there measured ~2–4 % slower.
const MIN_DENSITY_PROBES: usize = 32;

/// The out-edges of every vertex and their weights: the transpose of the
/// in-lists, which a bottom-up sweep scans.
#[derive(Debug)]
struct OutSide {
    /// `transposed.in_neighbors(u)` are the destinations of `u`'s out-edges.
    transposed: CsrGraph,
    /// Weights in the transpose's in-slot order.
    weights: Vec<f32>,
}

/// A weighted graph as the samplers walk it: its in-lists, and their
/// out-side, built the first time an IC set's frontier makes a bottom-up
/// sweep pay.
///
/// One is shared by every set of a sampling call (and by every worker of
/// it), so a call builds the out-side at most once, and an LT or sparse IC
/// call never builds it.
#[derive(Debug)]
pub struct SamplingGraph<'g> {
    graph: &'g CsrGraph,
    weights: &'g EdgeWeights,
    out_side: OnceLock<OutSide>,
    mean_weight: OnceLock<f64>,
}

impl<'g> SamplingGraph<'g> {
    /// `graph` with `weights`, its out-side not yet built.
    pub fn new(graph: &'g CsrGraph, weights: &'g EdgeWeights) -> Self {
        SamplingGraph { graph, weights, out_side: OnceLock::new(), mean_weight: OnceLock::new() }
    }

    /// Whether a bottom-up sweep is expected to cost less than expanding a
    /// level of in-edge volume `level_volume` top-down, while the set's
    /// members have in-edge volume `member_volume`, `outside` vertices are
    /// left out, and the set's last sweep, if any, left out vertices with
    /// `last_sweep` out-edges.
    ///
    /// Cost counts edges examined, and a coin as [`COIN_COST`] edges more.
    /// A top-down step evaluates one on each in-edge from outside the set,
    /// a share `1 − f` of them for the members' edge share
    /// `f = member_volume / m`; a sweep on each out-edge into a member, a
    /// share `f`. After a sweep, the next one examines at least the edges of
    /// the vertices the last one left out. Before any, it examines per
    /// vertex outside the mean degree `m / n` or, if sooner, the expected
    /// wait for a live edge into a member, `1 / (f · p)` for the mean weight
    /// `p`. The weights are summed (once per call) only for a level that
    /// would pay even if every edge were live.
    ///
    /// The model describes the branchy steps. A branch-free top-down level
    /// pays a coin on member sources too, and a sweep pays one on every edge
    /// of each quad it tests, into a member or not. The model deliberately
    /// ignores both, so the kernel sweeps at the same levels whichever form
    /// a top-down level takes, and `core_rrr_edges_probed` counts the same
    /// probes.
    ///
    /// Out of line, like [`bottom_up_sweep`]: inlined into the kernel, the
    /// two cost its top-down loop the registers that keep the marker and
    /// the key out of memory.
    #[inline(never)]
    fn sweep_pays(
        &self,
        level_volume: usize,
        member_volume: usize,
        outside: usize,
        last_sweep: Option<usize>,
    ) -> bool {
        let (n, m) = (self.graph.num_nodes() as f64, self.graph.num_edges() as f64);
        let f = (member_volume as f64 / m).min(1.0);
        let top_down = level_volume as f64 * (1.0 + COIN_COST * (1.0 - f));
        let sweep = |edges: f64| edges * (1.0 + COIN_COST * f);
        match last_sweep {
            Some(left_out) => top_down > sweep(left_out as f64),
            None => {
                let expected =
                    |live: f64| outside as f64 * (m / n).min(m / (member_volume as f64 * live));
                top_down > sweep(expected(1.0)) && top_down > sweep(expected(self.mean_weight()))
            }
        }
    }

    fn mean_weight(&self) -> f64 {
        *self.mean_weight.get_or_init(|| {
            let weights = self.weights.as_slice();
            weights.iter().map(|&w| w as f64).sum::<f64>() / weights.len().max(1) as f64
        })
    }

    fn out_side(&self) -> &OutSide {
        self.out_side.get_or_init(|| {
            let (transposed, slots) = self.graph.transpose_with_slots();
            let in_slot_weights = self.weights.as_slice();
            OutSide { transposed, weights: slots.iter().map(|&s| in_slot_weights[s]).collect() }
        })
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
/// sample seeded `rng_seed`". The bulk generator and the refresh predicate
/// in `imm-service` both read their randomness from here, so a set
/// resampled in isolation is byte-identical to the one a full rebuild
/// produces at the same index.
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
    let sources = graph.in_neighbors(c);
    let in_edges = sources.iter().copied().zip(weights.in_weights(graph, c).iter().copied());
    if sources.windows(2).all(|pair| pair[0] <= pair[1]) {
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
/// vertices, the root first: an LT set in walk order, an IC set in an order
/// that depends on the directions its traversal took, so every consumer
/// sorts the members or turns them into a bitmap. `source` is shared by the
/// sets of a call; `marker` must cover the graph and is reset internally.
pub fn generate_rrr_set(
    source: &SamplingGraph<'_>,
    model: DiffusionModel,
    root: NodeId,
    key: SetKey,
    marker: &mut VisitMarker,
) -> Vec<NodeId> {
    let mut set = Vec::with_capacity(16);
    generate_rrr_set_into(source, model, root, key, marker, &mut set);
    set
}

/// Allocation-free form of [`generate_rrr_set`]: the reached vertices are
/// **appended** to `out` (the root first, in the order described there) and
/// the number of appended members is returned. Bulk samplers point `out` at
/// a growing per-worker arena so generating a set costs no allocator
/// round-trip.
pub fn generate_rrr_set_into(
    source: &SamplingGraph<'_>,
    model: DiffusionModel,
    root: NodeId,
    key: SetKey,
    marker: &mut VisitMarker,
    out: &mut Vec<NodeId>,
) -> usize {
    marker.next_epoch();
    let appended = match model {
        DiffusionModel::IndependentCascade => ic_reverse_bfs(source, root, key, marker, out),
        DiffusionModel::LinearThreshold => {
            lt_reverse_walk(source.graph, source.weights, root, key, marker, out)
        }
    };
    // Every sampling path (the bulk driver, one-shot) funnels through here:
    // the set is tallied in the marker, whose drop flushes the tallies.
    marker.sets_sampled += 1;
    marker.set_vertices += appended as u64;
    appended
}

/// The IC set of `key`: a direction-optimizing reverse BFS (Beamer,
/// Asanović and Patterson, SC 2012) over the live edges.
///
/// The set grows level by level. A **top-down** step expands a level: every
/// in-edge `u → v` of a level member `v` whose source is not yet a member is
/// probed, and `u` joins if the edge is live. A **bottom-up** sweep instead
/// walks every vertex `u` outside the set along its out-edges, and `u` joins
/// at the first live edge into a member. A sweep leaves every earlier member
/// expanded, so the vertices it added are the next level: none means the set
/// is closed, and a few go back to top-down. Coins are keyed per edge, so
/// either side reaches the same set: the reverse-reachable set of the root
/// in the live-edge graph.
///
/// Before each level the kernel takes the cheaper side
/// ([`SamplingGraph::sweep_pays`]): top-down examines the level's in-edge
/// volume, a sweep the out-edges of the vertices outside until each finds a
/// live edge into the set — an estimate until the set's first sweep has
/// run, and from then on what the last sweep spent on the vertices it left
/// out.
fn ic_reverse_bfs(
    source: &SamplingGraph<'_>,
    root: NodeId,
    key: SetKey,
    marker: &mut VisitMarker,
    out: &mut Vec<NodeId>,
) -> usize {
    let (graph, weights) = (source.graph, source.weights);
    let n = graph.num_nodes();
    // The appended segment doubles as the BFS queue: `out[start..cursor]`
    // is expanded and `out[cursor..]` is the level being expanded, then the
    // one it grows; no queue is allocated.
    let start = out.len();
    marker.visit(root);
    out.push(root);
    let mut cursor = start;
    let mut level_volume = graph.in_degree(root);
    let mut member_volume = level_volume;
    let mut probes = 0;
    let mut last_sweep = None;
    // Whether the last top-down level probed enough in-edges and joined at
    // least 1/8 of them: a coin that live is a branch the predictor misses,
    // so the next top-down level appends branch-free.
    let mut dense = false;
    while cursor < out.len() {
        let level_end = out.len();
        let outside = n - (level_end - start);
        // Every vertex outside costs a sweep at least one probe.
        let sweep = level_volume > outside
            && source.sweep_pays(level_volume, member_volume, outside, last_sweep);
        let mut next_volume = 0;
        if sweep {
            let first = last_sweep.is_none();
            let (added, stayed) = bottom_up_sweep(source, key, marker, out, &mut probes, first);
            (next_volume, last_sweep) = (added, Some(stayed));
        } else {
            probes += level_volume;
            if dense {
                top_down_level_branchless(
                    graph,
                    weights,
                    key,
                    marker,
                    out,
                    cursor..level_end,
                    level_volume,
                );
                next_volume = out[level_end..].iter().map(|&u| graph.in_degree(u)).sum();
            } else {
                for at in cursor..level_end {
                    let v = out[at];
                    for (&u, &w) in graph.in_neighbors(v).iter().zip(weights.in_weights(graph, v)) {
                        // A member's coin cannot change membership: skip it unevaluated.
                        if !marker.visited(u) && key.ic_edge_is_live(u, v, w) {
                            marker.visit(u);
                            out.push(u);
                            next_volume += graph.in_degree(u);
                        }
                    }
                }
            }
            dense =
                level_volume >= MIN_DENSITY_PROBES && 8 * (out.len() - level_end) >= level_volume;
        }
        cursor = level_end;
        level_volume = next_volume;
        member_volume += next_volume;
    }
    marker.edges_probed += probes as u64;
    out.len() - start
}

/// A top-down step of [`ic_reverse_bfs`] over the level `out[level]`, of
/// in-edge volume `level_volume`, that does not branch on the coin.
///
/// Every in-edge's coin is evaluated, member sources included. The source
/// is written to the next free slot past the level and its stamp rewritten
/// with a select; only an edge that joins its source keeps the slot and
/// the new stamp. So members are appended in the order the branchy step
/// appends them. The volume bounds the appends, and the unclaimed slots
/// are cut off at the end.
#[inline(never)]
fn top_down_level_branchless(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    key: SetKey,
    marker: &mut VisitMarker,
    out: &mut Vec<NodeId>,
    level: std::ops::Range<usize>,
    level_volume: usize,
) {
    let VisitMarker { stamps, epoch, .. } = marker;
    let epoch = *epoch;
    let len = out.len();
    out.resize(len + level_volume, 0);
    let (members, next) = out.split_at_mut(len);
    let mut joined = 0;
    for &v in &members[level] {
        for (&u, &w) in graph.in_neighbors(v).iter().zip(weights.in_weights(graph, v)) {
            let stamp = &mut stamps[u as usize];
            let joins = (*stamp != epoch) & key.ic_edge_is_live(u, v, w);
            *stamp = std::hint::select_unpredictable(joins, epoch, *stamp);
            next[joined] = u;
            joined += joins as usize;
        }
    }
    out.truncate(len + joined);
}

/// One bottom-up sweep of [`ic_reverse_bfs`]: every vertex outside the set
/// joins at its first live out-edge into a member. The set's `first` sweep
/// walks all vertices and leaves the ones that stayed out in `marker`'s
/// unvisited list; a later one walks that list and drops from it the
/// vertices that joined since, by either side. Returns the in-edge volume
/// of the vertices that joined and the out-edges of those that stayed out,
/// which the next sweep examines again.
#[inline(never)]
fn bottom_up_sweep(
    source: &SamplingGraph<'_>,
    key: SetKey,
    marker: &mut VisitMarker,
    out: &mut Vec<NodeId>,
    probes: &mut usize,
    first: bool,
) -> (usize, usize) {
    let out_side = source.out_side();
    let VisitMarker { stamps, epoch, unvisited, bottom_up_sweeps, .. } = marker;
    let epoch = *epoch;
    *bottom_up_sweeps += 1;
    let (mut added, mut stayed) = (0, 0);
    let mut joins = |u: NodeId, stamps: &mut [u32]| {
        let targets = out_side.transposed.in_neighbors(u);
        let weights = &out_side.weights[out_side.transposed.in_slots(u)];
        let live = first_live_edge(u, targets, weights, stamps, epoch, key);
        match live {
            Some(at) => {
                *probes += at + 1;
                stamps[u as usize] = epoch;
                out.push(u);
                added += source.graph.in_degree(u);
            }
            None => {
                *probes += targets.len();
                stayed += targets.len();
            }
        }
        live.is_some()
    };
    if first {
        unvisited.clear();
        for u in 0..stamps.len() as NodeId {
            if stamps[u as usize] != epoch && !joins(u, stamps) {
                unvisited.push(u);
            }
        }
    } else {
        unvisited.retain(|&u| stamps[u as usize] != epoch && !joins(u, stamps));
    }
    (added, stayed)
}

/// Where `u` joins a bottom-up sweep: the position of its first out-edge
/// (`targets`, `weights`) that is live and enters a member, if any.
///
/// The edges are tested four at a time, each setting its bit of a mask, so
/// the loop branches once per four coins instead of on every coin; the
/// first live edge is the mask's lowest set bit.
#[inline(always)]
fn first_live_edge(
    u: NodeId,
    targets: &[NodeId],
    weights: &[f32],
    stamps: &[u32],
    epoch: u32,
    key: SetKey,
) -> Option<usize> {
    let hit =
        |v: NodeId, w: f32| ((stamps[v as usize] == epoch) & key.ic_edge_is_live(u, v, w)) as u32;
    let quads = targets.chunks_exact(4).zip(weights.chunks_exact(4));
    for (at, (v, w)) in quads.enumerate() {
        let mask =
            hit(v[0], w[0]) | hit(v[1], w[1]) << 1 | hit(v[2], w[2]) << 2 | hit(v[3], w[3]) << 3;
        if mask != 0 {
            return Some(4 * at + mask.trailing_zeros() as usize);
        }
    }
    let tail = targets.len() - targets.len() % 4;
    let mut rest = targets[tail..].iter().zip(&weights[tail..]);
    rest.position(|(&v, &w)| hit(v, w) != 0).map(|at| tail + at)
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
    /// The generated sets in job order: position `j` holds the set of key
    /// `(rng_seed, set_index(j))` regardless of thread count or schedule.
    pub sets: RrrCollection,
    /// Per-thread operation counts of the generation: members appended.
    pub work: WorkProfile,
}

/// Options controlling a bulk sampling call.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
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
}

/// Generate `count` RRR sets into a new collection: [`generate_rrr_sets_into`]
/// over an empty one.
pub fn generate_rrr_sets(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    count: usize,
    set_index: impl Fn(usize) -> usize + Sync,
    config: &SamplingConfig,
) -> SamplingOutput {
    let mut sets = RrrCollection::new(graph.num_nodes());
    let work = generate_rrr_sets_into(graph, weights, count, set_index, config, &mut sets);
    SamplingOutput { sets, work }
}

/// One pool task's state for a whole [`generate_rrr_sets_into`] call.
struct SamplingTask {
    marker: VisitMarker,
    /// The members of the set being drawn.
    members: Vec<NodeId>,
    /// Members appended, per slot.
    ops: Vec<u64>,
    /// The task's sets, in the order it drew them.
    sets: RrrCollection,
    /// Every job range the task took: its first job and its sets' positions
    /// in `sets`.
    ranges: Vec<(usize, std::ops::Range<usize>)>,
}

/// Generate `count` RRR sets and append them to `sets`, `config.threads`
/// tasks wide on the process-global pool: job `j` draws the set keyed
/// `(config.rng_seed, set_index(j))`. Returns the work profile.
///
/// The sets are appended in job order for every thread count and schedule:
/// position `sets.len() + j` (as it was on entry) holds job `j`'s set. That
/// canonical order is what lets a batch run top its sample up
/// (`|job| start + job`) and the `imm-service` refresh redraw exactly the
/// sets a delta invalidated (`|job| ids[job]`).
///
/// Each task keeps one visit marker, one member scratch and one output
/// collection for every job range it takes off the queue. After the join,
/// the ranges are appended to `sets` in job order — one copy of each list
/// set's members into a reservation of the exact size, each bitmap moved —
/// and every task's marker flushes its tallies into the registry once.
pub fn generate_rrr_sets_into(
    graph: &CsrGraph,
    weights: &EdgeWeights,
    count: usize,
    set_index: impl Fn(usize) -> usize + Sync,
    config: &SamplingConfig,
    sets: &mut RrrCollection,
) -> WorkProfile {
    crate::metrics::register();
    let threads = config.threads.max(1);
    let num_nodes = graph.num_nodes();
    let source = SamplingGraph::new(graph, weights);
    let new_task = || SamplingTask {
        marker: VisitMarker::new(num_nodes),
        members: Vec::new(),
        ops: vec![0; threads],
        sets: RrrCollection::new(num_nodes),
        ranges: Vec::new(),
    };

    let mut tasks = run_tasks(threads, count, config.schedule, new_task, |task, slot, range| {
        let first = task.sets.len();
        for job in range.iter() {
            let key = SetKey::new(config.rng_seed, set_index(job));
            let members = &mut task.members;
            members.clear();
            let root = key.root(num_nodes);
            let len =
                generate_rrr_set_into(&source, config.model, root, key, &mut task.marker, members);
            task.ops[slot] += len as u64;
            // Only a list is sorted: a bitmap takes its members in any order.
            let representation = config.policy.choose(len, num_nodes);
            if representation == Representation::SortedList {
                members.sort_unstable();
            }
            task.sets.push_known_representation(members, representation);
        }
        task.ranges.push((range.start, first..task.sets.len()));
    });

    let mut pieces: Vec<(usize, usize, std::ops::Range<usize>)> = tasks
        .iter()
        .enumerate()
        .flat_map(|(t, task)| task.ranges.iter().map(move |(job, at)| (*job, t, at.clone())))
        .collect();
    pieces.sort_unstable_by_key(|(job, ..)| *job);
    sets.reserve_exact(count, tasks.iter().map(|task| task.sets.arena_len()).sum());
    for (_, t, at) in pieces {
        sets.append_from(&mut tasks[t].sets, at);
    }

    let mut per_thread_ops = vec![0u64; threads];
    for task in &tasks {
        for (total, ops) in per_thread_ops.iter_mut().zip(&task.ops) {
            *total += ops;
        }
    }
    WorkProfile { per_thread_ops, atomic_ops: 0, search_probes: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_graph::generators;
    use imm_graph::{EdgeList, WeightModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config(model: DiffusionModel, threads: usize) -> SamplingConfig {
        SamplingConfig {
            model,
            rng_seed: 42,
            policy: AdaptivePolicy::default(),
            schedule: Schedule::Dynamic { chunk: 8 },
            threads,
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
                &SamplingGraph::new(&g, &w),
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
            &SamplingGraph::new(&g, &w),
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
        let el = EdgeList::from_pairs(3, vec![(0, 2), (1, 2)]);
        let (g, w) = CsrGraph::from_edge_list_with(&el, &[1.0, 0.0]);
        let w = EdgeWeights::from_vec(&g, w, WeightModel::LtNormalized).unwrap();
        let mut marker = VisitMarker::new(3);
        for seed in 0..20 {
            let set = generate_rrr_set(
                &SamplingGraph::new(&g, &w),
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
        let w = g.in_neighbors(3).iter().map(|&u| [0.5, 0.3, 0.1][u as usize]).collect();
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
            &SamplingGraph::new(&g, &w),
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
        let out =
            generate_rrr_sets(&g, &w, 200, |i| i, &config(DiffusionModel::IndependentCascade, 2));
        assert_eq!(out.sets.len(), 200);
        assert!(out.work.total_ops() >= 200, "at least the roots are touched");
        assert_eq!(out.work.per_thread_ops.len(), 2);
    }

    #[test]
    fn bulk_generation_is_deterministic_and_ordered_across_threads_and_schedules() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = CsrGraph::from_edge_list(&generators::social_network(400, 6, 0.2, &mut rng));
        let w = EdgeWeights::constant(&g, 0.2);

        let collect = |threads: usize, schedule: Schedule| {
            let mut cfg = config(DiffusionModel::IndependentCascade, threads);
            cfg.schedule = schedule;
            generate_rrr_sets(&g, &w, 300, |i| i, &cfg)
        };

        // The output is in global set-index order, so equality holds without
        // sorting — the canonical order the sketch index relies on — and a
        // set keeps its representation.
        let reference = collect(1, Schedule::Static).sets;
        let bitmaps = reference.coverage_stats().bitmap_sets;
        assert!(bitmaps > 0 && bitmaps < reference.len(), "both forms: {bitmaps} bitmaps");
        for threads in [1, 2, 3, 8] {
            let schedules = [1, 3, 64].map(|chunk| Schedule::Dynamic { chunk });
            for schedule in [Schedule::Static].into_iter().chain(schedules) {
                let out = collect(threads, schedule);
                assert_eq!(out.sets, reference, "{threads} threads, {schedule:?}");
                assert_eq!(out.work.per_thread_ops.len(), threads);
                let members: usize = reference.iter().map(|set| set.len()).sum();
                assert_eq!(out.work.total_ops(), members as u64, "{threads} threads, {schedule:?}");
            }
        }

        // Appending keeps what the collection held.
        let mut sets =
            generate_rrr_sets(&g, &w, 100, |i| i, &config(DiffusionModel::IndependentCascade, 2))
                .sets;
        let cfg = config(DiffusionModel::IndependentCascade, 3);
        generate_rrr_sets_into(&g, &w, 200, |job| 100 + job, &cfg, &mut sets);
        assert_eq!(sets, reference);
    }

    #[test]
    fn job_j_draws_the_set_of_its_index() {
        let mut rng = SmallRng::seed_from_u64(12);
        let g = CsrGraph::from_edge_list(&generators::social_network(150, 5, 0.2, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let ids = [3usize, 17, 4, 40];
        let source = SamplingGraph::new(&g, &w);
        let mut marker = VisitMarker::new(g.num_nodes());
        for threads in [1, 4] {
            for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 3 }] {
                let mut cfg = config(DiffusionModel::IndependentCascade, threads);
                cfg.schedule = schedule;
                let out = generate_rrr_sets(&g, &w, ids.len(), |job| ids[job], &cfg);
                assert_eq!(out.sets.len(), ids.len());
                for (set, &i) in out.sets.iter().zip(&ids) {
                    let key = SetKey::new(cfg.rng_seed, i);
                    let root = key.root(g.num_nodes());
                    let mut expected = generate_rrr_set(
                        &source,
                        DiffusionModel::IndependentCascade,
                        root,
                        key,
                        &mut marker,
                    );
                    assert_eq!(expected[0], root, "visitation starts at the key's root");
                    expected.sort_unstable();
                    assert_eq!(set.to_vec(), expected, "{threads} threads, {schedule:?}, set {i}");
                }
            }
        }
    }

    #[test]
    fn the_set_index_changes_the_sampled_sets() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = CsrGraph::from_edge_list(&generators::social_network(150, 6, 0.2, &mut rng));
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let cfg = config(DiffusionModel::IndependentCascade, 1);
        let a = generate_rrr_sets(&g, &w, 50, |i| i, &cfg);
        let b = generate_rrr_sets(&g, &w, 50, |i| 50 + i, &cfg);
        let a_sets: Vec<Vec<NodeId>> = a.sets.iter().map(|s| s.to_vec()).collect();
        let b_sets: Vec<Vec<NodeId>> = b.sets.iter().map(|s| s.to_vec()).collect();
        assert_ne!(a_sets, b_sets, "different global indices must give different keys");
    }

    #[test]
    fn zero_count_is_a_no_op() {
        let g = CsrGraph::from_edge_list(&generators::star(10));
        let w = EdgeWeights::constant(&g, 0.5);
        let out =
            generate_rrr_sets(&g, &w, 0, |i| i, &config(DiffusionModel::IndependentCascade, 2));
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
        let out =
            generate_rrr_sets(&g, &w, 50, |i| i, &config(DiffusionModel::IndependentCascade, 2));
        let stats = out.sets.coverage_stats();
        assert!(stats.max_coverage > 0.5, "max coverage {}", stats.max_coverage);
    }
}
