//! `GraphDelta::apply` splices the CSR; this suite holds it to the
//! rebuild it replaced.
//!
//! The reference below is the rebuild algorithm: emit every
//! destination's surviving in-edges and its insertions into an
//! [`EdgeList`] and build a fresh CSR with `from_edge_list_with`, which
//! carries the emitted weights to their in-slots. Random multigraphs under
//! all four weight models take chains of deltas that mix insertions (copies
//! of existing edges among them), deletions (one copy of a parallel pair
//! among them), reweights and deltas that must fail. Each side continues
//! from its own output, and through the public API only the two must agree
//! on every in-scan (sources and weight bits, in order), every out-list (read
//! off the transpose) as a multiset, and every error variant.

use imm_graph::{CsrGraph, DeltaError, EdgeList, EdgeWeights, GraphDelta, NodeId, WeightModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const MODELS: [WeightModel; 4] = [
    WeightModel::IcUniform,
    WeightModel::IcWeightedCascade,
    WeightModel::LtNormalized,
    WeightModel::Constant,
];

/// The rebuild `GraphDelta::apply` performed before it became a splice.
fn rebuilt(
    delta: &GraphDelta,
    graph: &CsrGraph,
    weights: &EdgeWeights,
) -> Result<(CsrGraph, EdgeWeights), DeltaError> {
    let n = graph.num_nodes();
    validate(delta, n)?;

    let mut pending_deletes: HashMap<(NodeId, NodeId), usize> = HashMap::new();
    for &(s, d) in delta.deletions() {
        *pending_deletes.entry((s, d)).or_insert(0) += 1;
    }
    let mut inserts_by_dst: HashMap<NodeId, Vec<(NodeId, f32)>> = HashMap::new();
    for &(s, d, w) in delta.insertions() {
        inserts_by_dst.entry(d).or_default().push((s, w));
    }

    let mut el = EdgeList::with_nodes(n);
    let mut emitted_weights: Vec<f32> = Vec::new();
    for v in 0..n as NodeId {
        for (&u, &w) in graph.in_neighbors(v).iter().zip(weights.in_weights(graph, v)) {
            if let Some(count) = pending_deletes.get_mut(&(u, v)) {
                if *count > 0 {
                    *count -= 1;
                    continue;
                }
            }
            el.push(u, v);
            emitted_weights.push(w);
        }
        for &(u, w) in inserts_by_dst.get(&v).into_iter().flatten() {
            el.push(u, v);
            emitted_weights.push(w);
        }
    }
    el.ensure_nodes(n);
    if let Some((&(src, dst), _)) = pending_deletes.iter().find(|(_, &count)| count > 0) {
        return Err(DeltaError::MissingEdge { src, dst });
    }

    let (new_graph, mut new_weights) = CsrGraph::from_edge_list_with(&el, &emitted_weights);

    let model = weights.model();
    let mut degree_changed: Vec<NodeId> = delta
        .insertions()
        .iter()
        .map(|&(_, d, _)| d)
        .chain(delta.deletions().iter().map(|&(_, d)| d))
        .collect();
    degree_changed.sort_unstable();
    degree_changed.dedup();
    if model == WeightModel::IcWeightedCascade {
        for &v in &degree_changed {
            let indeg = new_graph.in_degree(v);
            if indeg == 0 {
                continue;
            }
            for slot in new_graph.in_slots(v) {
                new_weights[slot] = 1.0 / indeg as f32;
            }
        }
    }
    for &(s, d, w) in delta.reweights() {
        let mut matched = false;
        for (slot, &u) in new_graph.in_slots(d).zip(new_graph.in_neighbors(d)) {
            if u == s {
                new_weights[slot] = w;
                matched = true;
            }
        }
        if !matched {
            return Err(DeltaError::ReweightMissingEdge { src: s, dst: d });
        }
    }
    if model == WeightModel::LtNormalized {
        for v in delta.touched_destinations() {
            let sum: f32 = new_graph.in_slots(v).map(|slot| new_weights[slot]).sum();
            if sum > 1.0 {
                for slot in new_graph.in_slots(v) {
                    new_weights[slot] /= sum;
                }
            }
        }
    }
    let new_weights = EdgeWeights::from_vec(&new_graph, new_weights, model)
        .expect("repaired weights stay valid probabilities");
    Ok((new_graph, new_weights))
}

fn validate(delta: &GraphDelta, num_nodes: usize) -> Result<(), DeltaError> {
    let check_node = |node: NodeId| {
        if (node as usize) < num_nodes {
            Ok(())
        } else {
            Err(DeltaError::NodeOutOfRange { node, num_nodes })
        }
    };
    let check_weight = |src: NodeId, dst: NodeId, value: f32| {
        if (0.0..=1.0).contains(&value) {
            Ok(())
        } else {
            Err(DeltaError::InvalidWeight { src, dst, value })
        }
    };
    for &(s, d, w) in delta.insertions() {
        check_node(s)?;
        check_node(d)?;
        check_weight(s, d, w)?;
    }
    for &(s, d) in delta.deletions() {
        check_node(s)?;
        check_node(d)?;
    }
    for &(s, d, w) in delta.reweights() {
        check_node(s)?;
        check_node(d)?;
        check_weight(s, d, w)?;
    }
    Ok(())
}

/// A multigraph with self-loops and parallel edges, its edges in random
/// order so that no in-list starts out sorted by source.
fn random_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(1..24u32);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..rng.gen_range(0..4 * n) {
        match edges.choose(rng) {
            Some(&edge) if rng.gen_bool(0.2) => edges.push(edge),
            _ => edges.push((rng.gen_range(0..n), rng.gen_range(0..n))),
        }
    }
    edges.shuffle(rng);
    CsrGraph::from_edges(n as usize, edges).unwrap()
}

/// A delta against `graph`. One in five gets a deliberately invalid
/// operation; repeated deletions and reweights of deleted edges fail too.
fn random_delta(graph: &CsrGraph, rng: &mut SmallRng) -> GraphDelta {
    let n = graph.num_nodes() as NodeId;
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    edges.sort_unstable();
    let parallel: Vec<(NodeId, NodeId)> =
        edges.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
    let mut delta = GraphDelta::new();
    if let Some(&(s, d)) = parallel.choose(rng) {
        delta = delta.delete(s, d);
    }
    for _ in 0..rng.gen_range(0..4) {
        if let Some(&(s, d)) = edges.choose(rng) {
            delta = delta.delete(s, d);
        }
    }
    for _ in 0..rng.gen_range(0..6) {
        let (s, d) = match edges.choose(rng) {
            Some(&edge) if rng.gen_bool(0.4) => edge,
            _ => (rng.gen_range(0..n), rng.gen_range(0..n)),
        };
        delta = delta.insert(s, d, rng.gen_range(0.0f32..=1.0));
    }
    for _ in 0..rng.gen_range(0..3) {
        if let Some(&(s, d)) = edges.choose(rng) {
            delta = delta.reweight(s, d, rng.gen_range(0.0f32..=1.0));
        }
    }
    if rng.gen_bool(0.2) {
        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
        delta = match rng.gen_range(0..5) {
            0 => delta.delete(s, d).delete(s, d).delete(s, d),
            1 => delta.reweight(s, d, 0.5),
            2 => delta.insert(s, n + 3, 0.5),
            3 => delta.insert(s, d, 1.5),
            _ => delta.reweight(s, d, f32::NAN),
        };
    }
    delta
}

fn in_scan(graph: &CsrGraph, weights: &EdgeWeights, v: NodeId) -> Vec<(NodeId, u32)> {
    let in_weights = weights.in_weights(graph, v);
    graph.in_neighbors(v).iter().zip(in_weights).map(|(&u, w)| (u, w.to_bits())).collect()
}

/// Every vertex's out-list as a sorted multiset of `(target, weight bits)`,
/// read off the transpose.
fn out_multisets(graph: &CsrGraph, weights: &EdgeWeights) -> Vec<Vec<(NodeId, u32)>> {
    let (transposed, slots) = graph.transpose_with_slots();
    (0..graph.num_nodes() as NodeId)
        .map(|v| {
            let mut out: Vec<(NodeId, u32)> = transposed
                .in_neighbors(v)
                .iter()
                .zip(&slots[transposed.in_slots(v)])
                .map(|(&target, &slot)| (target, weights.as_slice()[slot].to_bits()))
                .collect();
            out.sort_unstable();
            out
        })
        .collect()
}

fn assert_agree(
    (graph, weights): &(CsrGraph, EdgeWeights),
    (want_graph, want_weights): &(CsrGraph, EdgeWeights),
) {
    let (n, m) = (graph.num_nodes(), graph.num_edges());
    assert_eq!((n, m), (want_graph.num_nodes(), want_graph.num_edges()));
    assert_eq!(weights.model(), want_weights.model());
    let (out, want_out) = (out_multisets(graph, weights), out_multisets(want_graph, want_weights));
    for v in 0..n as NodeId {
        assert_eq!(in_scan(graph, weights, v), in_scan(want_graph, want_weights, v), "in {v}");
        assert_eq!(out[v as usize], want_out[v as usize], "out {v}");
    }
}

proptest! {
    #[test]
    fn a_spliced_chain_matches_the_rebuilt_chain(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng);
        for model in MODELS {
            let weights = EdgeWeights::generate(&graph, model, 0.3, &mut rng);
            let mut spliced = (graph.clone(), weights.clone());
            let mut reference = (graph.clone(), weights);
            for _ in 0..rng.gen_range(3..7) {
                let delta = random_delta(&spliced.0, &mut rng);
                match (delta.apply(&spliced.0, &spliced.1), rebuilt(&delta, &reference.0, &reference.1)) {
                    (Ok(next), Ok(want)) => {
                        assert_agree(&next, &want);
                        spliced = next;
                        reference = want;
                    }
                    (Err(got), Err(want)) => prop_assert_eq!(
                        std::mem::discriminant(&got),
                        std::mem::discriminant(&want),
                        "{:?} vs {:?} on {:?}", got, want, delta
                    ),
                    (got, want) => panic!("{delta:?}: splice {:?}, rebuild {:?}",
                        got.map(|_| ()), want.map(|_| ())),
                }
            }
        }
    }
}
