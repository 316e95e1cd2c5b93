//! Incremental sketch refresh under graph mutation.
//!
//! A [`SketchIndex`] built by the dynamic constructors ([`SketchIndex::sample`]
//! or [`SketchIndex::build_with_provenance`]) carries a [`SketchProvenance`]:
//! the sampling spec (diffusion model, base RNG seed, representation policy)
//! and the log of every delta applied so far — no per-set record: set `i`'s
//! root, like every other coin of it, is a function of its [`SetKey`].
//! [`SketchIndex::apply_delta`] then refreshes the index against a
//! [`GraphDelta`] without a full rebuild:
//!
//! 1. **Invalidate by evaluating the coins.** Sampling is counter-based
//!    (`efficient_imm::sampling`): set `i` is a deterministic function of
//!    its [`SetKey`] and of the *expansion* of each member vertex — for IC
//!    the live in-edges of the vertex, for LT the one in-neighbour it
//!    keeps — and the expansion of `v` reads nothing but `v`'s own in-edges
//!    and weights. A delta changes in-edges only at the destinations it
//!    names, so for each touched destination `v` and each set in
//!    `postings(v)` the predicate re-evaluates `v`'s expansion under the old
//!    and the new graph with the very functions the sampler calls
//!    ([`SetKey::ic_edge_is_live`], [`lt_pick`]) and keeps the set unless
//!    the difference can change membership:
//!    * IC — kept iff no live in-edge of `v` was lost and every gained live
//!      source is already a member;
//!    * LT — kept iff the in-neighbour `v` keeps is unchanged.
//!
//!    One rule for every weight model: degree-normalized repairs are just
//!    more changed weights at the same destination.
//! 2. **Resample.** Only the invalidated set indices are regenerated, in one
//!    call of the bulk driver (`efficient_imm::sampling::generate_rrr_sets`,
//!    job `j` drawing invalidated id `j`), each from its own key
//!    `(rng_seed, set_index)` on the mutated graph — exactly what a
//!    from-scratch rebuild produces at the same index. A kept
//!    set has the same expansions at all of its members on both graphs, so
//!    it too equals its from-scratch counterpart. This pair of facts is the
//!    correctness anchor the differential test suite pins down; it depends
//!    on no storage order of the graph.
//! 3. **Patch.** The postings are the only copy of the old sets, so the
//!    membership edits come from them (`imm_rrr::membership_edits`: a join
//!    is a new member the postings do not list, the leaves come out of one
//!    pass over the postings arrays that keeps only the changed ids), and
//!    the postings are patched
//!    (`imm_rrr::Postings::patched`: bit flips in rows, splices in lists, a
//!    new form for a vertex whose degree crosses the threshold). The delta
//!    is appended to the log.
//!
//! The three steps exist once, in [`SketchIndex::apply_delta`]; a sharded
//! index (`imm-shard`) is this index plus a shard map and refreshes by
//! refreshing it.
//!
//! The query layer never refreshes in place: a [`crate::QueryEngine`]
//! serves one generation for its whole life, so a rollout refreshes a copy
//! of the index and stands a new engine up over it, and no session of the
//! old revision can reach the new one.

use crate::index::{IndexError, SketchIndex};
use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, lt_pick, SamplingConfig, SetKey};
use imm_diffusion::DiffusionModel;
use imm_graph::{CsrGraph, DeltaError, EdgeWeights, GraphDelta};
use imm_rrr::{AdaptivePolicy, NodeId, Postings, RrrCollection, SetProvenance};
use std::cell::OnceCell;

/// How a dynamic index was sampled — everything needed to regenerate any of
/// its sets deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSpec {
    /// Diffusion model the sets were sampled under.
    pub model: DiffusionModel,
    /// Base RNG seed; set `i` derives its coins from `(rng_seed, i)`.
    pub rng_seed: u64,
    /// Representation policy applied to each regenerated set.
    pub policy: AdaptivePolicy,
}

impl SampleSpec {
    /// Spec with the default adaptive representation policy.
    pub fn new(model: DiffusionModel, rng_seed: u64) -> Self {
        SampleSpec { model, rng_seed, policy: AdaptivePolicy::default() }
    }

    /// Replace the representation policy.
    pub fn with_policy(mut self, policy: AdaptivePolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One applied delta, kept in the provenance log for audit and replay
/// ([`SketchIndex::recover`] rebuilds the current graph by replaying the
/// log against the original source).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaLogEntry {
    /// The applied mutation batch.
    pub delta: GraphDelta,
    /// How many sets the batch invalidated and resampled.
    pub resampled_sets: u64,
}

/// Full sampling provenance of a dynamic index.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchProvenance {
    /// The sampling spec.
    pub spec: SampleSpec,
    /// Every delta applied since the initial sample, in order.
    pub delta_log: Vec<DeltaLogEntry>,
}

/// What one [`SketchIndex::apply_delta`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshStats {
    /// Sets in the index (θ; unchanged by a refresh).
    pub total_sets: usize,
    /// Sets invalidated and resampled by this delta.
    pub resampled_sets: usize,
    /// Edge insertions applied.
    pub inserted_edges: usize,
    /// Edge deletions applied.
    pub deleted_edges: usize,
    /// Edge weight updates applied.
    pub reweighted_edges: usize,
    /// Directed edges of the mutated graph.
    pub num_edges_after: usize,
}

impl RefreshStats {
    /// Fraction of the index that was resampled (0 for an empty index).
    pub fn resampled_fraction(&self) -> f64 {
        if self.total_sets == 0 {
            0.0
        } else {
            self.resampled_sets as f64 / self.total_sets as f64
        }
    }
}

/// Errors produced by [`SketchIndex::apply_delta`].
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// The index carries no provenance (built by a static constructor, or
    /// loaded from a snapshot that stores none) and cannot be refreshed
    /// incrementally.
    NotDynamic,
    /// The provided graph is not the revision the index was built on.
    GraphMismatch {
        /// Vertices/edges the index expects.
        expected: (usize, usize),
        /// Vertices/edges of the provided graph.
        found: (usize, usize),
    },
    /// The delta failed to validate or apply.
    Delta(DeltaError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::NotDynamic => {
                write!(
                    f,
                    "index carries no sampling provenance (a static snapshot); rebuild it \
                     with build-index"
                )
            }
            DynamicError::GraphMismatch { expected, found } => write!(
                f,
                "index was built over {} vertices / {} edges but the provided graph has {} / {}",
                expected.0, expected.1, found.0, found.1
            ),
            DynamicError::Delta(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynamicError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeltaError> for DynamicError {
    fn from(e: DeltaError) -> Self {
        DynamicError::Delta(e)
    }
}

/// The in-edges of `v` as `(source, weight)`, sorted by source, parallel
/// copies folded to their largest weight (copies share a coin, so only the
/// largest can decide liveness).
fn folded_in_edges(graph: &CsrGraph, weights: &EdgeWeights, v: NodeId) -> Vec<(NodeId, f32)> {
    let in_weights = weights.in_weights(graph, v).iter().copied();
    let mut edges: Vec<(NodeId, f32)> =
        graph.in_neighbors(v).iter().copied().zip(in_weights).collect();
    edges.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
    edges.dedup_by_key(|edge| edge.0);
    edges
}

/// The sources whose edge into `v` changed weight between the two
/// revisions, as `(source, old weight, new weight)`; an absent edge has
/// weight 0 (its coin is never below it).
fn changed_in_edges(
    old: (&CsrGraph, &EdgeWeights),
    new: (&CsrGraph, &EdgeWeights),
    v: NodeId,
) -> Vec<(NodeId, f32, f32)> {
    let before = folded_in_edges(old.0, old.1, v);
    let after = folded_in_edges(new.0, new.1, v);
    let weight_in = |edges: &[(NodeId, f32)], u: NodeId| {
        edges.binary_search_by_key(&u, |edge| edge.0).map_or(0.0, |at| edges[at].1)
    };
    let mut sources: Vec<NodeId> = before.iter().chain(&after).map(|edge| edge.0).collect();
    sources.sort_unstable();
    sources.dedup();
    sources
        .into_iter()
        .map(|u| (u, weight_in(&before, u), weight_in(&after, u)))
        .filter(|&(_, was, is)| was != is)
        .collect()
}

/// Which sets does `delta` invalidate? `old` is the revision the sets were
/// sampled on, `new` the result of `delta.apply`, `postings` the global
/// postings over the sets (walked once per touched destination, and asked
/// which sets hold a changed edge's source); see the module docs for the
/// rule and why it is exact enough for rebuild equivalence. The ids come
/// back ascending.
fn invalidated_sets(
    delta: &GraphDelta,
    old: (&CsrGraph, &EdgeWeights),
    new: (&CsrGraph, &EdgeWeights),
    spec: SampleSpec,
    postings: &Postings,
) -> Vec<usize> {
    crate::metrics::register();
    let mut invalid = vec![false; postings.range_len()];
    let postings = postings.view();
    let mut coin_skips = 0u64;
    for v in delta.touched_destinations() {
        let changed = match spec.model {
            DiffusionModel::IndependentCascade => changed_in_edges(old, new, v),
            DiffusionModel::LinearThreshold => Vec::new(),
        };
        postings.for_each(v, |sid| {
            if invalid[sid as usize] {
                return;
            }
            // Most sets are decided without a coin: derive the key on demand.
            let key = OnceCell::new();
            let key = || *key.get_or_init(|| SetKey::new(spec.rng_seed, sid as usize));
            let keep = match spec.model {
                DiffusionModel::IndependentCascade => {
                    // An absent edge (weight 0) is never live: no coin to flip.
                    let live = |u, weight: f32| weight > 0.0 && key().ic_edge_is_live(u, v, weight);
                    changed.iter().all(|&(u, was, is)| {
                        if postings.contains(u, sid) {
                            // A member already: only a lost live edge matters.
                            !live(u, was) || live(u, is)
                        } else {
                            live(u, was) == live(u, is)
                        }
                    })
                }
                DiffusionModel::LinearThreshold => {
                    lt_pick(old.0, old.1, key(), v) == lt_pick(new.0, new.1, key(), v)
                }
            };
            if keep {
                coin_skips += 1;
            } else {
                invalid[sid as usize] = true;
            }
        });
    }
    let ids: Vec<usize> =
        invalid.iter().enumerate().filter(|&(_, &flag)| flag).map(|(i, _)| i).collect();
    crate::metrics::DELTA_EDGES_APPLIED.add(delta.len() as u64);
    crate::metrics::DELTA_SETS_INVALIDATED.add(ids.len() as u64);
    crate::metrics::DELTA_COIN_SKIPS.add(coin_skips);
    ids
}

/// Resample the sets at `ids` (ascending) from their own keys
/// `(spec.rng_seed, id)` on the mutated graph — exactly what a from-scratch
/// rebuild would produce at those indices — through the bulk driver, as
/// wide as the pool. The sets come back in the order of `ids`.
fn resample_sets(
    spec: SampleSpec,
    ids: &[usize],
    new_graph: &CsrGraph,
    new_weights: &EdgeWeights,
) -> RrrCollection {
    crate::metrics::DELTA_SETS_RESAMPLED.add(ids.len() as u64);
    let config = SamplingConfig {
        model: spec.model,
        rng_seed: spec.rng_seed,
        policy: spec.policy,
        schedule: Schedule::Dynamic { chunk: 32 },
        threads: rayon::current_num_threads(),
    };
    generate_rrr_sets(new_graph, new_weights, ids.len(), |job| ids[job], &config).sets
}

impl SketchIndex {
    /// Sample `theta` RRR sets over `graph` + `weights` and freeze them into
    /// a dynamic (provenance-carrying) index.
    ///
    /// Set `i` always comes from key `(spec.rng_seed, i)`, so two calls with
    /// the same inputs build byte-identical indexes regardless of `threads`
    /// — and [`apply_delta`](SketchIndex::apply_delta) can later regenerate
    /// any individual set.
    pub fn sample(
        graph: &CsrGraph,
        weights: &EdgeWeights,
        spec: SampleSpec,
        theta: usize,
        threads: usize,
        label: impl Into<String>,
    ) -> Result<Self, IndexError> {
        let threads = threads.max(1);
        let out = generate_rrr_sets(
            graph,
            weights,
            theta,
            |i| i,
            &SamplingConfig {
                model: spec.model,
                rng_seed: spec.rng_seed,
                policy: spec.policy,
                schedule: Schedule::Dynamic { chunk: 32 },
                threads,
            },
        );
        Self::build_dynamic(graph, out.sets, spec, label)
    }

    /// Freeze an externally sampled collection + provenance (e.g. from
    /// `run_imm` with `retain_rrr_sets` and `trace_provenance`) into a
    /// dynamic index. The collection must be the sample of `spec` over
    /// `graph`: the refresh re-evaluates that sample's coins. `records` is
    /// checked for one record per set and then dropped — a root is a
    /// function of its set's key, so the index stores none.
    pub fn build_with_provenance(
        graph: &CsrGraph,
        collection: RrrCollection,
        records: Vec<SetProvenance>,
        spec: SampleSpec,
        label: impl Into<String>,
    ) -> Result<Self, IndexError> {
        if records.len() != collection.len() {
            return Err(IndexError::ProvenanceMismatch {
                sets: collection.len(),
                records: records.len(),
            });
        }
        Self::build_dynamic(graph, collection, spec, label)
    }

    /// The dynamic index over `collection`, the sample of `spec`.
    fn build_dynamic(
        graph: &CsrGraph,
        collection: RrrCollection,
        spec: SampleSpec,
        label: impl Into<String>,
    ) -> Result<Self, IndexError> {
        let mut index = Self::build(graph, collection, label)?;
        index.provenance = Some(SketchProvenance { spec, delta_log: Vec::new() });
        Ok(index)
    }

    /// Refresh the index against `delta` — the workspace's one refresh
    /// driver.
    ///
    /// `graph` + `weights` must be the revision the index currently
    /// describes. Returns the mutated graph/weights (the inputs are left
    /// untouched — keep the returned pair for the next delta) and the
    /// refresh statistics. On success the index is byte-identical to a
    /// from-scratch [`SketchIndex::sample`] over the mutated pair with the
    /// same spec and θ, at a fraction of the sampling cost; on an error the
    /// index is untouched.
    pub fn apply_delta(
        &mut self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        let provenance = self.provenance.as_ref().ok_or(DynamicError::NotDynamic)?;
        if graph.num_nodes() != self.num_nodes() || graph.num_edges() != self.meta.num_edges {
            return Err(DynamicError::GraphMismatch {
                expected: (self.num_nodes(), self.meta.num_edges),
                found: (graph.num_nodes(), graph.num_edges()),
            });
        }
        let (new_graph, new_weights) = delta.apply(graph, weights)?;

        let resampled = invalidated_sets(
            delta,
            (graph, weights),
            (&new_graph, &new_weights),
            provenance.spec,
            &self.postings,
        );
        let replacements = resample_sets(provenance.spec, &resampled, &new_graph, &new_weights);

        let stats = RefreshStats {
            total_sets: self.num_sets(),
            resampled_sets: resampled.len(),
            inserted_edges: delta.insertions().len(),
            deleted_edges: delta.deletions().len(),
            reweighted_edges: delta.reweights().len(),
            num_edges_after: new_graph.num_edges(),
        };

        self.patch(&resampled, &replacements);
        self.meta.num_edges = new_graph.num_edges();
        let provenance = self.provenance.as_mut().expect("checked above");
        provenance.delta_log.push(DeltaLogEntry {
            delta: delta.clone(),
            resampled_sets: stats.resampled_sets as u64,
        });

        Ok((new_graph, new_weights, stats))
    }

    /// Patch the inverted postings: set `ids[j]` (`ids` ascending) becomes
    /// `replacements.get(j)`.
    ///
    /// Only the memberships that differ between a changed set and the one it
    /// replaces — read from the postings themselves — are edited, so the
    /// patched structure is indistinguishable from a fresh
    /// [`SketchIndex::from_collection`] pass over the updated sets. A mapped
    /// (shared) postings backing is dropped here: the patched index owns its
    /// postings from now on.
    fn patch(&mut self, ids: &[usize], replacements: &RrrCollection) {
        if ids.is_empty() {
            return;
        }
        let edits = imm_rrr::membership_edits(&self.postings, ids, replacements);
        self.postings = std::sync::Arc::new(self.postings.patched(&edits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture(n: usize, seed: u64) -> (CsrGraph, EdgeWeights) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = CsrGraph::from_edge_list(&generators::social_network(n, 5, 0.3, &mut rng));
        let w = EdgeWeights::constant(&g, 0.2);
        (g, w)
    }

    #[test]
    fn sample_is_deterministic_across_thread_counts() {
        let (g, w) = fixture(120, 1);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 7);
        let a = SketchIndex::sample(&g, &w, spec, 200, 1, "a").unwrap();
        let b = SketchIndex::sample(&g, &w, spec, 200, 4, "a").unwrap();
        assert_eq!(a, b);
        assert!(a.is_dynamic());
        assert_eq!(a.num_sets(), 200);
    }

    #[test]
    fn apply_delta_matches_a_full_rebuild() {
        let (g, w) = fixture(150, 2);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 11);
        let mut index = SketchIndex::sample(&g, &w, spec, 300, 2, "delta").unwrap();

        let (del_src, del_dst) = g.edges().next().expect("graph has edges");
        let delta =
            GraphDelta::new().insert(3, 77, 0.8).insert(140, 9, 0.6).delete(del_src, del_dst);
        let (g2, w2, stats) = index.apply_delta(&g, &w, &delta).unwrap();
        assert_eq!(stats.total_sets, 300);
        assert!(stats.resampled_sets <= 300);
        assert_eq!(stats.num_edges_after, g2.num_edges());

        let rebuilt = SketchIndex::sample(&g2, &w2, spec, 300, 2, "delta").unwrap();
        assert_eq!(index.postings().sections(), rebuilt.postings().sections());
        assert_eq!(index.postings(), rebuilt.postings(), "kept + resampled sets match a rebuild");
        for v in 0..150u32 {
            assert_eq!(index.ids(v), rebuilt.ids(v), "postings of vertex {v}");
        }
        assert_eq!(index.meta().num_edges, g2.num_edges());
        assert_eq!(index.provenance().unwrap().delta_log.len(), 1);
    }

    #[test]
    fn deltas_chain_across_revisions() {
        let (g0, w0) = fixture(100, 3);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 5);
        let mut index = SketchIndex::sample(&g0, &w0, spec, 150, 2, "chain").unwrap();

        let d1 = GraphDelta::new().insert(1, 2, 0.9);
        let (g1, w1, _) = index.apply_delta(&g0, &w0, &d1).unwrap();
        let d2 = GraphDelta::new().delete(1, 2).insert(4, 5, 0.3);
        let (g2, w2, _) = index.apply_delta(&g1, &w1, &d2).unwrap();

        let rebuilt = SketchIndex::sample(&g2, &w2, spec, 150, 2, "chain").unwrap();
        assert_eq!(index.postings().sections(), rebuilt.postings().sections());
        assert_eq!(index.postings(), rebuilt.postings());
        assert_eq!(index.provenance().unwrap().delta_log.len(), 2);
    }

    #[test]
    fn stale_graph_revision_is_rejected() {
        let (g, w) = fixture(80, 4);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 5);
        let mut index = SketchIndex::sample(&g, &w, spec, 50, 1, "stale").unwrap();
        let delta = GraphDelta::new().insert(0, 1, 0.5);
        let (g1, w1, _) = index.apply_delta(&g, &w, &delta).unwrap();
        // Passing the pre-delta graph again must be rejected (edge count moved).
        assert!(matches!(
            index.apply_delta(&g, &w, &delta),
            Err(DynamicError::GraphMismatch { .. })
        ));
        // The current revision is accepted.
        assert!(index.apply_delta(&g1, &w1, &GraphDelta::new().delete(0, 1)).is_ok());
    }

    #[test]
    fn static_indexes_refuse_apply_delta() {
        let (g, w) = fixture(60, 5);
        let mut c = RrrCollection::new(60);
        c.push_vertices(vec![0, 1], &AdaptivePolicy::always_sorted());
        let mut index = SketchIndex::build(&g, c, "static").unwrap();
        assert!(!index.is_dynamic());
        let refused = index.apply_delta(&g, &w, &GraphDelta::new()).unwrap_err();
        assert_eq!(refused, DynamicError::NotDynamic);
        assert!(refused.to_string().contains("build-index"), "{refused}");
    }

    #[test]
    fn untouched_destinations_invalidate_nothing() {
        let (g, w) = fixture(100, 6);
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 9);
        let mut index = SketchIndex::sample(&g, &w, spec, 120, 2, "untouched").unwrap();
        // An isolated self-contained mutation: insert an edge into a vertex
        // covered by few sets; only those sets may resample.
        let dst = (0..100u32).min_by_key(|&v| index.degree(v)).unwrap();
        let upper_bound = index.degree(dst) as usize;
        let (_, _, stats) =
            index.apply_delta(&g, &w, &GraphDelta::new().insert(0, dst, 0.5)).unwrap();
        assert!(
            stats.resampled_sets <= upper_bound,
            "resampled {} sets but only {upper_bound} contain vertex {dst}",
            stats.resampled_sets
        );
    }

    #[test]
    fn build_with_provenance_validates_alignment() {
        let (g, _) = fixture(50, 7);
        let mut c = RrrCollection::new(50);
        c.push_vertices(vec![0], &AdaptivePolicy::always_sorted());
        let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 1);
        assert_eq!(
            SketchIndex::build_with_provenance(&g, c, Vec::new(), spec, "bad"),
            Err(IndexError::ProvenanceMismatch { sets: 1, records: 0 })
        );
    }
}
