//! Edge-weight models for the IC and LT diffusion models.
//!
//! The paper prepares its datasets as follows (§V-A):
//!
//! * **IC**: every edge gets an independent activation probability drawn
//!   uniformly from `[0, 1]`.
//! * **LT**: in-edge weights of each vertex are normalized so that the
//!   probability of activating one in-neighbor or activating none sums to
//!   one, i.e. `Σ_u w_{uv} ≤ 1` for every `v`.
//!
//! We also provide the *weighted cascade* model (`p_{uv} = 1/in_degree(v)`)
//! commonly used in the IM literature (Kempe et al. 2003), since it is the
//! default in several IMM implementations and is useful for tests whose
//! expected behaviour must not depend on RNG draws.
//!
//! Weights are stored one per **in-slot** of the graph, parallel to its
//! in-sources, so the sampling kernels read an in-list and its weights as
//! two slices ([`CsrGraph::in_neighbors`], [`EdgeWeights::in_weights`]).

use crate::csr::CsrGraph;
use crate::{GraphError, NodeId};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// How edge weights/probabilities are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum WeightModel {
    /// Independent Cascade with uniform-random `[0,1]` probabilities
    /// (the paper's IC preparation).
    IcUniform,
    /// Independent Cascade, weighted cascade: `p_{uv} = 1 / in_degree(v)`.
    IcWeightedCascade,
    /// Linear Threshold: in-weights of every vertex normalized to sum to at
    /// most one; the remaining mass is the probability that nothing activates
    /// the vertex in a step (the paper's LT preparation).
    LtNormalized,
    /// Every edge gets the same constant probability.
    Constant,
}

/// Per-edge weights stored in in-slot order (the order [`CsrGraph::edges`]
/// yields): the weights of `v`'s in-edges are [`EdgeWeights::in_weights`],
/// parallel to [`CsrGraph::in_neighbors`].
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeWeights {
    weights: Vec<f32>,
    model: WeightModel,
}

impl EdgeWeights {
    /// Generate weights for `graph` under `model`.
    ///
    /// `constant` is only used by [`WeightModel::Constant`]; pass anything
    /// (e.g. `0.0`) otherwise.
    pub fn generate<R: Rng + ?Sized>(
        graph: &CsrGraph,
        model: WeightModel,
        constant: f32,
        rng: &mut R,
    ) -> Self {
        match model {
            WeightModel::IcUniform => Self::ic_uniform(graph, rng),
            WeightModel::IcWeightedCascade => Self::ic_weighted_cascade(graph),
            WeightModel::LtNormalized => Self::lt_normalized(graph, rng),
            WeightModel::Constant => Self::constant(graph, constant),
        }
    }

    /// Uniform `[0,1]` probability per edge (paper's IC preparation).
    ///
    /// The edges draw by source, then by destination (the slot order of
    /// [`CsrGraph::transpose_with_slots`]): for a graph built from an edge
    /// list sorted by `(src, dst)`, as every generator and `generate`'s files
    /// are, that is edge-list order.
    pub fn ic_uniform<R: Rng + ?Sized>(graph: &CsrGraph, rng: &mut R) -> Self {
        let dist = Uniform::new_inclusive(0.0f32, 1.0f32);
        let mut weights = vec![0.0f32; graph.num_edges()];
        for slot in graph.transpose_with_slots().1 {
            weights[slot] = dist.sample(rng);
        }
        EdgeWeights { weights, model: WeightModel::IcUniform }
    }

    /// Weighted cascade: `p_{uv} = 1 / in_degree(v)`.
    pub fn ic_weighted_cascade(graph: &CsrGraph) -> Self {
        let mut weights = vec![0.0f32; graph.num_edges()];
        for v in 0..graph.num_nodes() as NodeId {
            let indeg = graph.in_degree(v);
            if indeg == 0 {
                continue;
            }
            weights[graph.in_slots(v)].fill(1.0 / indeg as f32);
        }
        EdgeWeights { weights, model: WeightModel::IcWeightedCascade }
    }

    /// LT preparation: draw a raw positive weight per in-edge, then normalize
    /// each vertex's in-weights by a factor chosen so the total is a random
    /// fraction of one — the leftover mass is the per-step probability of no
    /// activation, matching the paper's "activating a neighbor or activating
    /// none sum to one".
    ///
    /// The raw weights are drawn straight into the vertex's in-slots and
    /// scaled in place.
    pub fn lt_normalized<R: Rng + ?Sized>(graph: &CsrGraph, rng: &mut R) -> Self {
        let mut weights = vec![0.0f32; graph.num_edges()];
        let raw_dist = Uniform::new(0.05f32, 1.0f32);
        for v in 0..graph.num_nodes() as NodeId {
            let in_weights = &mut weights[graph.in_slots(v)];
            if in_weights.is_empty() {
                continue;
            }
            in_weights.fill_with(|| raw_dist.sample(rng));
            let total: f32 = in_weights.iter().sum();
            // Total activation mass given to neighbors; the rest is "none".
            let mass: f32 = rng.gen_range(0.5f32..1.0f32);
            for w in in_weights {
                *w = *w / total * mass;
            }
        }
        EdgeWeights { weights, model: WeightModel::LtNormalized }
    }

    /// Same constant probability on every edge.
    ///
    /// # Panics
    /// Panics if `p` is NaN or outside `[0, 1]`, the weights
    /// [`EdgeWeights::from_vec`] rejects.
    pub fn constant(graph: &CsrGraph, p: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "constant edge weight {p} is not a probability in [0, 1]"
        );
        EdgeWeights { weights: vec![p; graph.num_edges()], model: WeightModel::Constant }
    }

    /// Wrap an existing weight vector (must be in in-slot order; a vector in
    /// edge-list order goes through [`CsrGraph::from_edge_list_with`]).
    pub fn from_vec(
        graph: &CsrGraph,
        weights: Vec<f32>,
        model: WeightModel,
    ) -> Result<Self, GraphError> {
        if weights.len() != graph.num_edges() {
            return Err(GraphError::WeightLengthMismatch {
                expected: graph.num_edges(),
                actual: weights.len(),
            });
        }
        if let Some((i, &w)) =
            weights.iter().enumerate().find(|(_, &w)| !(0.0..=1.0).contains(&w) || w.is_nan())
        {
            return Err(GraphError::InvalidWeight { edge_index: i, value: w });
        }
        Ok(EdgeWeights { weights, model })
    }

    /// Weights of `v`'s in-edges, parallel to `graph.in_neighbors(v)`.
    #[inline]
    pub fn in_weights(&self, graph: &CsrGraph, v: NodeId) -> &[f32] {
        &self.weights[graph.in_slots(v)]
    }

    /// All weights in in-slot order.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.weights
    }

    /// Number of weighted edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Which model generated these weights.
    #[inline]
    pub fn model(&self) -> WeightModel {
        self.model
    }

    /// Sum of in-edge weights of `v` (must be ≤ 1 for a valid LT instance).
    pub fn in_weight_sum(&self, graph: &CsrGraph, v: NodeId) -> f32 {
        self.in_weights(graph, v).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_graph() -> CsrGraph {
        let el = generators::social_network(200, 6, 0.3, &mut SmallRng::seed_from_u64(7));
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn ic_uniform_weights_are_probabilities() {
        let g = sample_graph();
        let w = EdgeWeights::ic_uniform(&g, &mut SmallRng::seed_from_u64(1));
        assert_eq!(w.len(), g.num_edges());
        assert!(w.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_eq!(w.model(), WeightModel::IcUniform);
    }

    #[test]
    fn weighted_cascade_in_weights_sum_to_one() {
        let g = sample_graph();
        let w = EdgeWeights::ic_weighted_cascade(&g);
        for v in 0..g.num_nodes() as NodeId {
            if g.in_degree(v) > 0 {
                let s = w.in_weight_sum(&g, v);
                assert!((s - 1.0).abs() < 1e-4, "vertex {v}: in-weight sum {s}");
            }
        }
    }

    #[test]
    fn lt_normalized_in_weights_bounded_by_one() {
        let g = sample_graph();
        let w = EdgeWeights::lt_normalized(&g, &mut SmallRng::seed_from_u64(3));
        for v in 0..g.num_nodes() as NodeId {
            let s = w.in_weight_sum(&g, v);
            assert!(s <= 1.0 + 1e-4, "vertex {v}: in-weight sum {s} exceeds 1");
            if g.in_degree(v) > 0 {
                assert!(s > 0.0);
            }
        }
    }

    #[test]
    fn lt_normalized_matches_drawing_each_vertex_into_its_own_buffer() {
        let g = sample_graph();
        let mut rng = SmallRng::seed_from_u64(3);
        let raw_dist = Uniform::new(0.05f32, 1.0f32);
        let mut want = Vec::new();
        for v in 0..g.num_nodes() as NodeId {
            if g.in_degree(v) == 0 {
                continue;
            }
            let raws: Vec<f32> = (0..g.in_degree(v)).map(|_| raw_dist.sample(&mut rng)).collect();
            let total: f32 = raws.iter().sum();
            let mass: f32 = rng.gen_range(0.5f32..1.0f32);
            want.extend(raws.iter().map(|raw| (raw / total * mass).to_bits()));
        }
        let w = EdgeWeights::lt_normalized(&g, &mut SmallRng::seed_from_u64(3));
        assert_eq!(w.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn constant_weights() {
        let g = sample_graph();
        let w = EdgeWeights::constant(&g, 0.25);
        assert!(w.as_slice().iter().all(|&p| (p - 0.25).abs() < f32::EPSILON));
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn constant_rejects_a_weight_above_one() {
        EdgeWeights::constant(&sample_graph(), 1.5);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn constant_rejects_nan() {
        EdgeWeights::constant(&sample_graph(), f32::NAN);
    }

    #[test]
    fn generate_dispatches_on_model() {
        let g = sample_graph();
        let mut rng = SmallRng::seed_from_u64(11);
        for model in [
            WeightModel::IcUniform,
            WeightModel::IcWeightedCascade,
            WeightModel::LtNormalized,
            WeightModel::Constant,
        ] {
            let w = EdgeWeights::generate(&g, model, 0.1, &mut rng);
            assert_eq!(w.model(), model);
            assert_eq!(w.len(), g.num_edges());
        }
    }

    #[test]
    fn from_vec_validates_length_and_range() {
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        assert!(EdgeWeights::from_vec(&g, vec![0.5], WeightModel::Constant).is_err());
        assert!(EdgeWeights::from_vec(&g, vec![0.5, 1.5], WeightModel::Constant).is_err());
        let ok = EdgeWeights::from_vec(&g, vec![0.5, 0.9], WeightModel::Constant).unwrap();
        assert_eq!(ok.in_weights(&g, 2), &[0.9]);
    }

    #[test]
    fn empty_graph_weights() {
        let g = CsrGraph::from_edges(5, std::iter::empty()).unwrap();
        let w = EdgeWeights::ic_weighted_cascade(&g);
        assert!(w.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = sample_graph();
        let a = EdgeWeights::ic_uniform(&g, &mut SmallRng::seed_from_u64(42));
        let b = EdgeWeights::ic_uniform(&g, &mut SmallRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn ic_uniform_draws_a_sorted_edge_list_in_list_order() {
        // A sorted edge list with parallel copies, self-loops and untouched
        // vertices; the reference draws straight off the list.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pairs: Vec<(NodeId, NodeId)> =
            (0..300).map(|_| (rng.gen_range(0..40), rng.gen_range(0..40))).collect();
        pairs.extend(pairs[..60].to_vec());
        pairs.sort_unstable();
        let el = crate::EdgeList::from_pairs(40, pairs);
        let dist = Uniform::new_inclusive(0.0f32, 1.0f32);
        let mut draws = SmallRng::seed_from_u64(9);
        let mut want: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); el.num_nodes()];
        for (s, d) in el.iter() {
            want[d as usize].push((s, dist.sample(&mut draws).to_bits()));
        }

        let g = CsrGraph::from_edge_list(&el);
        let w = EdgeWeights::ic_uniform(&g, &mut SmallRng::seed_from_u64(9));
        for v in 0..g.num_nodes() as NodeId {
            let got: Vec<(NodeId, u32)> = g
                .in_neighbors(v)
                .iter()
                .zip(w.in_weights(&g, v))
                .map(|(&u, &p)| (u, p.to_bits()))
                .collect();
            assert_eq!(got, want[v as usize], "in-edges of {v}");
        }
    }
}
