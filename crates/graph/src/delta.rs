//! Batched graph mutation: edge insertions, deletions and weight updates
//! applied to a frozen [`CsrGraph`] + [`EdgeWeights`] pair.
//!
//! [`GraphDelta::apply`] produces a *new* CSR/weights pair (the inputs stay
//! immutable and shareable) by splicing the old one: the in-list runs
//! between the destinations the delta touches are copied whole, with the
//! in-slot weights alongside, so a delta costs O(n + m) sequential copying
//! plus work proportional to the touched destinations' lists, not a
//! rebuild. The one property downstream layers build on is **locality**:
//!
//! > A delta changes the in-edges and in-weights of exactly the destinations
//! > it names ([`GraphDelta::touched_destinations`]); every other vertex has
//! > the same in-edges with the same weights before and after.
//!
//! Reverse influence sampling decides each RRR set from per-set keyed coins
//! — a function of the set, the edge and its weight, not of where an edge is
//! stored — so an incremental sketch refresh only has to look at the
//! destinations a delta names: it re-evaluates their coins under the old and
//! the new in-edges and resamples the sets whose expansion changed. Storage
//! order carries no meaning for it. For the record: every in-scan is
//! unchanged except a touched destination's, which is its surviving
//! in-edges in their old scan order followed by its insertions in delta
//! order. Nothing depends on that order.
//!
//! Weight semantics after `apply`:
//!
//! 1. surviving edges carry their old weight, inserted edges their given one;
//! 2. degree-normalized models are repaired destination-locally —
//!    [`WeightModel::IcWeightedCascade`] recomputes `1/in_degree(v)` for every
//!    destination whose in-degree changed;
//! 3. explicit [`reweight`](GraphDelta::reweight)s are applied (they win over
//!    the model repair);
//! 4. [`WeightModel::LtNormalized`] destinations touched by the delta are
//!    rescaled to keep their in-weight sum ≤ 1.
//!
//! Every adjustment is local to the destinations the delta names, which is
//! the locality property above.
//!
//! **Parallel edges.** Generators and the SNAP reader dedup, so a multigraph
//! arises only when a delta inserts an edge that already exists. The copies
//! of one `(src, dst)` pair share their IC coin, so under IC they behave as
//! one edge of weight `max(w)`; under LT each copy keeps its own stretch of
//! the destination's weight range, so they behave as one edge of weight
//! `Σ w`. The refresh compares a destination's *expansion* before and after,
//! not its edge list, so a refreshed sketch equals a from-scratch one for
//! multigraphs too.

use crate::csr::CsrGraph;
use crate::weights::{EdgeWeights, WeightModel};
use crate::NodeId;
use std::collections::HashMap;

/// Errors produced while validating or applying a [`GraphDelta`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// An operation references a vertex outside `[0, num_nodes)`. Deltas never
    /// grow the vertex space — a sketch index is built over a fixed one.
    NodeOutOfRange {
        /// The offending vertex id.
        node: NodeId,
        /// The graph's vertex count.
        num_nodes: usize,
    },
    /// A deletion names an edge the graph does not (still) contain.
    MissingEdge {
        /// Edge source.
        src: NodeId,
        /// Edge destination.
        dst: NodeId,
    },
    /// A reweight names an edge absent after the deletions are applied.
    ReweightMissingEdge {
        /// Edge source.
        src: NodeId,
        /// Edge destination.
        dst: NodeId,
    },
    /// An inserted or updated weight is outside `[0, 1]` or NaN.
    InvalidWeight {
        /// Edge source.
        src: NodeId,
        /// Edge destination.
        dst: NodeId,
        /// The rejected value.
        value: f32,
    },
    /// A delta text line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "delta vertex {node} is outside the vertex space [0, {num_nodes})")
            }
            DeltaError::MissingEdge { src, dst } => {
                write!(f, "delta deletes edge {src} -> {dst}, which the graph does not contain")
            }
            DeltaError::ReweightMissingEdge { src, dst } => {
                write!(f, "delta reweights edge {src} -> {dst}, which is absent after deletions")
            }
            DeltaError::InvalidWeight { src, dst, value } => {
                write!(f, "delta weight {value} on edge {src} -> {dst} is not a probability")
            }
            DeltaError::Parse { line, message } => {
                write!(f, "delta line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch of edge mutations against one graph revision.
///
/// Operations are applied as: deletions first (multiset semantics — each
/// deletion removes one surviving occurrence of the named edge), then
/// insertions (appended after the destination's surviving in-edges), then
/// weight repairs/updates as described in the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    insertions: Vec<(NodeId, NodeId, f32)>,
    deletions: Vec<(NodeId, NodeId)>,
    reweights: Vec<(NodeId, NodeId, f32)>,
}

impl GraphDelta {
    /// Empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Queue an edge insertion `src -> dst` with activation weight `weight`.
    pub fn insert(mut self, src: NodeId, dst: NodeId, weight: f32) -> Self {
        self.insertions.push((src, dst, weight));
        self
    }

    /// Queue the deletion of one occurrence of `src -> dst`.
    pub fn delete(mut self, src: NodeId, dst: NodeId) -> Self {
        self.deletions.push((src, dst));
        self
    }

    /// Queue a weight update for every surviving occurrence of `src -> dst`.
    pub fn reweight(mut self, src: NodeId, dst: NodeId, weight: f32) -> Self {
        self.reweights.push((src, dst, weight));
        self
    }

    /// Queued insertions as `(src, dst, weight)`.
    pub fn insertions(&self) -> &[(NodeId, NodeId, f32)] {
        &self.insertions
    }

    /// Queued deletions as `(src, dst)`.
    pub fn deletions(&self) -> &[(NodeId, NodeId)] {
        &self.deletions
    }

    /// Queued weight updates as `(src, dst, weight)`.
    pub fn reweights(&self) -> &[(NodeId, NodeId, f32)] {
        &self.reweights
    }

    /// Whether the delta holds no operations.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty() && self.reweights.is_empty()
    }

    /// Total number of queued operations.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len() + self.reweights.len()
    }

    /// Destination vertices named by any operation, deduplicated and sorted.
    ///
    /// This is the invalidation frontier of an incremental sketch refresh:
    /// only RRR sets containing one of these vertices can be affected by the
    /// delta (the module docs' locality property).
    pub fn touched_destinations(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .insertions
            .iter()
            .map(|&(_, d, _)| d)
            .chain(self.deletions.iter().map(|&(_, d)| d))
            .chain(self.reweights.iter().map(|&(_, d, _)| d))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn validate(&self, num_nodes: usize) -> Result<(), DeltaError> {
        let check_node = |node: NodeId| {
            if (node as usize) >= num_nodes {
                Err(DeltaError::NodeOutOfRange { node, num_nodes })
            } else {
                Ok(())
            }
        };
        for &(s, d, w) in &self.insertions {
            check_node(s)?;
            check_node(d)?;
            if !(0.0..=1.0).contains(&w) || w.is_nan() {
                return Err(DeltaError::InvalidWeight { src: s, dst: d, value: w });
            }
        }
        for &(s, d) in &self.deletions {
            check_node(s)?;
            check_node(d)?;
        }
        for &(s, d, w) in &self.reweights {
            check_node(s)?;
            check_node(d)?;
            if !(0.0..=1.0).contains(&w) || w.is_nan() {
                return Err(DeltaError::InvalidWeight { src: s, dst: d, value: w });
            }
        }
        Ok(())
    }

    /// In-slots of the edges the deletions remove, ascending. Each
    /// deletion takes the first surviving occurrence of its edge in the
    /// destination's in-scan; a deletion left without one is
    /// [`DeltaError::MissingEdge`], naming the first such deletion in delta
    /// order.
    fn matched_deletions(&self, graph: &CsrGraph) -> Result<Vec<usize>, DeltaError> {
        let mut pending: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for &edge in &self.deletions {
            *pending.entry(edge).or_insert(0) += 1;
        }
        let mut destinations: Vec<NodeId> = self.deletions.iter().map(|&(_, d)| d).collect();
        destinations.sort_unstable();
        destinations.dedup();
        let mut deleted = Vec::with_capacity(self.deletions.len());
        // Destinations ascend and so do their slots: `deleted` comes out sorted.
        for v in destinations {
            for (slot, &u) in graph.in_slots(v).zip(graph.in_neighbors(v)) {
                if let Some(count) = pending.get_mut(&(u, v)).filter(|count| **count > 0) {
                    *count -= 1;
                    deleted.push(slot);
                }
            }
        }
        // An edge's unmatched deletions are its last ones in delta order, so
        // a backwards walk that hands each its unmatched count ends on the
        // first unmatched deletion of the whole delta.
        let mut first_missing = None;
        for &edge in self.deletions.iter().rev() {
            if let Some(count) = pending.get_mut(&edge).filter(|count| **count > 0) {
                *count -= 1;
                first_missing = Some(edge);
            }
        }
        if let Some((src, dst)) = first_missing {
            return Err(DeltaError::MissingEdge { src, dst });
        }
        Ok(deleted)
    }

    /// Apply the delta to `graph` + `weights`, returning the mutated pair.
    ///
    /// The result is a splice of the input's in-lists and in-slot weights,
    /// costing O(n + m) sequential copying plus work proportional to the
    /// touched destinations' lists. In-scan order is unchanged (a touched
    /// destination's insertions follow its survivors), and the repairs index
    /// the touched destinations' in-slots directly. See the module docs for
    /// the locality and weight-repair guarantees.
    pub fn apply(
        &self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
    ) -> Result<(CsrGraph, EdgeWeights), DeltaError> {
        self.validate(graph.num_nodes())?;
        let deleted = self.matched_deletions(graph)?;
        let (new_graph, mut new_weights) =
            graph.spliced(&deleted, &self.insertions, weights.as_slice());

        // Destination-local repairs, in documented precedence order.
        let model = weights.model();
        let mut degree_changed: Vec<NodeId> = self
            .insertions
            .iter()
            .map(|&(_, d, _)| d)
            .chain(self.deletions.iter().map(|&(_, d)| d))
            .collect();
        degree_changed.sort_unstable();
        degree_changed.dedup();

        if model == WeightModel::IcWeightedCascade {
            for &v in &degree_changed {
                let indeg = new_graph.in_degree(v);
                if indeg == 0 {
                    continue;
                }
                new_weights[new_graph.in_slots(v)].fill(1.0 / indeg as f32);
            }
        }

        for &(s, d, w) in &self.reweights {
            let mut matched = false;
            let in_weights = &mut new_weights[new_graph.in_slots(d)];
            for (&u, weight) in new_graph.in_neighbors(d).iter().zip(in_weights) {
                if u == s {
                    *weight = w;
                    matched = true;
                }
            }
            if !matched {
                return Err(DeltaError::ReweightMissingEdge { src: s, dst: d });
            }
        }

        if model == WeightModel::LtNormalized {
            for v in self.touched_destinations() {
                let in_weights = &mut new_weights[new_graph.in_slots(v)];
                let sum: f32 = in_weights.iter().sum();
                if sum > 1.0 {
                    for w in in_weights {
                        *w /= sum;
                    }
                }
            }
        }

        let new_weights = EdgeWeights::from_vec(&new_graph, new_weights, model)
            .expect("repaired weights stay valid probabilities");
        Ok((new_graph, new_weights))
    }

    /// Parse the delta text format: one operation per line,
    ///
    /// ```text
    /// + src dst weight   # insert edge
    /// - src dst          # delete edge
    /// ~ src dst weight   # update weight
    /// ```
    ///
    /// with `#` comments and blank lines ignored.
    pub fn parse_text(text: &str) -> Result<Self, DeltaError> {
        let mut delta = GraphDelta::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let mut parts = line.split_whitespace();
            let op = parts.next().expect("non-empty line has a first token");
            let mut field = |what: &str| -> Result<&str, DeltaError> {
                parts.next().ok_or_else(|| DeltaError::Parse {
                    line: lineno,
                    message: format!("missing {what}"),
                })
            };
            let parse_node = |raw: &str| -> Result<NodeId, DeltaError> {
                raw.parse().map_err(|_| DeltaError::Parse {
                    line: lineno,
                    message: format!("invalid vertex '{raw}'"),
                })
            };
            let parse_weight = |raw: &str| -> Result<f32, DeltaError> {
                raw.parse().map_err(|_| DeltaError::Parse {
                    line: lineno,
                    message: format!("invalid weight '{raw}'"),
                })
            };
            match op {
                "+" => {
                    let src = parse_node(field("source")?)?;
                    let dst = parse_node(field("destination")?)?;
                    let w = parse_weight(field("weight")?)?;
                    delta = delta.insert(src, dst, w);
                }
                "-" => {
                    let src = parse_node(field("source")?)?;
                    let dst = parse_node(field("destination")?)?;
                    delta = delta.delete(src, dst);
                }
                "~" => {
                    let src = parse_node(field("source")?)?;
                    let dst = parse_node(field("destination")?)?;
                    let w = parse_weight(field("weight")?)?;
                    delta = delta.reweight(src, dst, w);
                }
                other => {
                    return Err(DeltaError::Parse {
                        line: lineno,
                        message: format!("unknown operation '{other}' (expected +, - or ~)"),
                    });
                }
            }
            if let Some(extra) = parts.next() {
                if !extra.starts_with('#') {
                    return Err(DeltaError::Parse {
                        line: lineno,
                        message: format!("trailing token '{extra}'"),
                    });
                }
            }
        }
        Ok(delta)
    }

    /// Render the delta in the [`parse_text`](GraphDelta::parse_text) format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for &(s, d, w) in &self.insertions {
            out.push_str(&format!("+ {s} {d} {w}\n"));
        }
        for &(s, d) in &self.deletions {
            out.push_str(&format!("- {s} {d}\n"));
        }
        for &(s, d, w) in &self.reweights {
            out.push_str(&format!("~ {s} {d} {w}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 vertices: 0 -> 2, 1 -> 2, 0 -> 3, 2 -> 3 with distinct weights.
    fn sample() -> (CsrGraph, EdgeWeights) {
        let g = CsrGraph::from_edges(4, vec![(0, 2), (1, 2), (0, 3), (2, 3)]).unwrap();
        // In-slot order: the in-scans of 2 and then 3.
        let w = (0..4).map(|i| 0.1 + 0.2 * i as f32).collect(); // 0.1, 0.3, 0.5, 0.7
        let w = EdgeWeights::from_vec(&g, w, WeightModel::Constant).unwrap();
        (g, w)
    }

    fn in_scan(g: &CsrGraph, w: &EdgeWeights, v: NodeId) -> Vec<(NodeId, f32)> {
        g.in_neighbors(v).iter().copied().zip(w.in_weights(g, v).iter().copied()).collect()
    }

    #[test]
    fn untouched_destinations_keep_scan_order_and_weights() {
        let (g, w) = sample();
        let before = in_scan(&g, &w, 2);
        let delta = GraphDelta::new().delete(2, 3).insert(3, 3, 0.9);
        let (g2, w2) = delta.apply(&g, &w).unwrap();
        assert_eq!(in_scan(&g2, &w2, 2), before, "vertex 2 was not touched");
        assert_eq!(g2.num_edges(), 4);
    }

    #[test]
    fn insertions_append_after_surviving_in_edges() {
        let (g, w) = sample();
        let delta = GraphDelta::new().insert(3, 2, 0.25);
        let (g2, w2) = delta.apply(&g, &w).unwrap();
        let scan = in_scan(&g2, &w2, 2);
        assert_eq!(scan.len(), 3);
        assert_eq!(scan[..2], in_scan(&g, &w, 2)[..]);
        assert_eq!(scan[2], (3, 0.25));
    }

    #[test]
    fn deletion_removes_first_surviving_occurrence() {
        let g = CsrGraph::from_edges(3, vec![(0, 2), (1, 2), (0, 2)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![0.1, 0.2, 0.3], WeightModel::Constant).unwrap();
        // in-scan of 2 before: (0, w_a), (1, w_b), (0, w_c) in edge-list order.
        let before = in_scan(&g, &w, 2);
        let (g2, w2) = GraphDelta::new().delete(0, 2).apply(&g, &w).unwrap();
        let after = in_scan(&g2, &w2, 2);
        assert_eq!(after.len(), 2);
        assert_eq!(after[0], before[1]);
        assert_eq!(after[1], before[2]);
    }

    #[test]
    fn deleting_a_missing_edge_fails() {
        let (g, w) = sample();
        assert_eq!(
            GraphDelta::new().delete(3, 0).apply(&g, &w),
            Err(DeltaError::MissingEdge { src: 3, dst: 0 })
        );
        // Deleting the same single edge twice exhausts the multiset.
        assert_eq!(
            GraphDelta::new().delete(1, 2).delete(1, 2).apply(&g, &w),
            Err(DeltaError::MissingEdge { src: 1, dst: 2 })
        );
    }

    #[test]
    fn reweight_updates_surviving_occurrences_only() {
        let (g, w) = sample();
        let (g2, w2) = GraphDelta::new().reweight(0, 3, 0.99).apply(&g, &w).unwrap();
        let scan = in_scan(&g2, &w2, 3);
        assert_eq!(scan.iter().find(|&&(u, _)| u == 0), Some(&(0, 0.99)));
        assert_eq!(
            GraphDelta::new().delete(0, 3).reweight(0, 3, 0.5).apply(&g, &w),
            Err(DeltaError::ReweightMissingEdge { src: 0, dst: 3 })
        );
    }

    #[test]
    fn out_of_range_and_invalid_weights_are_rejected() {
        let (g, w) = sample();
        assert!(matches!(
            GraphDelta::new().insert(0, 9, 0.5).apply(&g, &w),
            Err(DeltaError::NodeOutOfRange { node: 9, .. })
        ));
        assert!(matches!(
            GraphDelta::new().insert(0, 1, 1.5).apply(&g, &w),
            Err(DeltaError::InvalidWeight { .. })
        ));
        assert!(matches!(
            GraphDelta::new().reweight(0, 2, f32::NAN).apply(&g, &w),
            Err(DeltaError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn weighted_cascade_destinations_are_renormalized() {
        let g = CsrGraph::from_edges(3, vec![(0, 2), (1, 2)]).unwrap();
        let w = EdgeWeights::ic_weighted_cascade(&g);
        let (g2, w2) = GraphDelta::new().delete(1, 2).apply(&g, &w).unwrap();
        assert_eq!(in_scan(&g2, &w2, 2), vec![(0, 1.0)], "1/in_degree after the deletion");
        let (g3, w3) = GraphDelta::new().insert(2, 2, 0.0).apply(&g, &w).unwrap();
        let scan = in_scan(&g3, &w3, 2);
        assert_eq!(scan.len(), 3);
        assert!(scan.iter().all(|&(_, wgt)| (wgt - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn lt_destinations_are_clamped_to_unit_mass() {
        let g = CsrGraph::from_edges(3, vec![(0, 2), (1, 2)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![0.5, 0.4], WeightModel::LtNormalized).unwrap();
        let (g2, w2) = GraphDelta::new().insert(2, 2, 0.6).apply(&g, &w).unwrap();
        let sum = w2.in_weight_sum(&g2, 2);
        assert!(sum <= 1.0 + 1e-6, "in-weight sum {sum} must be clamped");
        // Proportions are preserved by the rescale.
        let scan = in_scan(&g2, &w2, 2);
        assert!((scan[0].1 / scan[1].1 - 0.5 / 0.4).abs() < 1e-4);
    }

    #[test]
    fn touched_destinations_are_sorted_and_deduplicated() {
        let delta = GraphDelta::new().insert(0, 5, 0.1).delete(1, 2).reweight(3, 5, 0.2);
        assert_eq!(delta.touched_destinations(), vec![2, 5]);
        assert_eq!(delta.len(), 3);
        assert!(!delta.is_empty());
        assert!(GraphDelta::new().is_empty());
    }

    #[test]
    fn text_format_round_trips() {
        let delta = GraphDelta::new()
            .insert(0, 1, 0.25)
            .insert(2, 3, 0.5)
            .delete(4, 5)
            .reweight(6, 7, 0.75);
        let parsed = GraphDelta::parse_text(&delta.to_text()).unwrap();
        assert_eq!(parsed, delta);
    }

    #[test]
    fn text_parser_accepts_comments_and_rejects_garbage() {
        let parsed = GraphDelta::parse_text("# churn batch\n\n+ 1 2 0.5\n- 3 4\n~ 5 6 0.1\n");
        assert_eq!(
            parsed.unwrap(),
            GraphDelta::new().insert(1, 2, 0.5).delete(3, 4).reweight(5, 6, 0.1)
        );
        assert!(matches!(
            GraphDelta::parse_text("* 1 2\n"),
            Err(DeltaError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            GraphDelta::parse_text("+ 1 2\n"),
            Err(DeltaError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            GraphDelta::parse_text("- 1 x\n"),
            Err(DeltaError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            GraphDelta::parse_text("- 1 2 3\n"),
            Err(DeltaError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn empty_delta_reproduces_the_graph_exactly() {
        let (g, w) = sample();
        let (g2, w2) = GraphDelta::new().apply(&g, &w).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for v in 0..4u32 {
            assert_eq!(in_scan(&g2, &w2, v), in_scan(&g, &w, v), "vertex {v}");
        }
        assert_eq!((g2, w2), (g, w), "an empty delta copies every array verbatim");
        // In-lists not sorted by source stay as they are.
        let g = CsrGraph::from_edges(4, vec![(0, 3), (0, 1), (3, 0), (0, 2), (1, 0)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![0.1, 0.2, 0.3, 0.4, 0.5], WeightModel::Constant)
            .unwrap();
        assert_eq!(GraphDelta::new().apply(&g, &w), Ok((g, w)));
    }

    #[test]
    fn the_first_unmatched_deletion_in_delta_order_is_named() {
        let (g, w) = sample();
        // 1 -> 2 exists once: its second deletion is the first unmatched
        // one, ahead of the later deletions of absent edges.
        let delta = GraphDelta::new()
            .delete(0, 2)
            .delete(1, 2)
            .delete(3, 1)
            .delete(1, 2)
            .delete(2, 1)
            .delete(3, 0);
        for _ in 0..8 {
            assert_eq!(delta.apply(&g, &w), Err(DeltaError::MissingEdge { src: 3, dst: 1 }));
        }
        let delta = GraphDelta::new().delete(1, 2).delete(2, 0).delete(1, 2).delete(3, 2);
        assert_eq!(delta.apply(&g, &w), Err(DeltaError::MissingEdge { src: 2, dst: 0 }));
        let delta = GraphDelta::new().delete(1, 2).delete(1, 2).delete(2, 0).delete(3, 2);
        assert_eq!(delta.apply(&g, &w), Err(DeltaError::MissingEdge { src: 1, dst: 2 }));
    }
}
