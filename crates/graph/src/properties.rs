//! Structural analytics used by the paper's motivation section (§III).
//!
//! The key observation the paper builds on (after Broder et al.) is that web
//! and social graphs contain a single giant strongly connected component, and
//! that the giant SCC is what makes random reverse-reachable sets cover a
//! large fraction of the graph. This module computes:
//!
//! * out-degree statistics (skew drives the adaptive representation and
//!   the adaptive counter update),
//! * strongly connected components (iterative Tarjan, no recursion so large
//!   graphs don't overflow the stack),
//! * weakly connected components,
//! * the giant-component fractions reported alongside the dataset registry.

use crate::csr::CsrGraph;
use crate::NodeId;

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// 99th-percentile degree (a simple skew indicator).
    pub p99: usize,
}

impl DegreeStats {
    fn from_degrees(mut degrees: Vec<usize>) -> Self {
        if degrees.is_empty() {
            return DegreeStats { min: 0, max: 0, mean: 0.0, median: 0, p99: 0 };
        }
        degrees.sort_unstable();
        let n = degrees.len();
        let sum: usize = degrees.iter().sum();
        DegreeStats {
            min: degrees[0],
            max: degrees[n - 1],
            mean: sum as f64 / n as f64,
            median: degrees[n / 2],
            p99: degrees[(n * 99 / 100).min(n - 1)],
        }
    }
}

/// Out-degree statistics of `graph`.
pub fn out_degree_stats(graph: &CsrGraph) -> DegreeStats {
    DegreeStats::from_degrees(graph.out_degrees())
}

/// Result of a strongly-connected-components computation.
#[derive(Debug, Clone, PartialEq)]
pub struct SccResult {
    /// `component[v]` is the SCC id of vertex `v` (ids are dense, 0-based,
    /// assigned in topological order of the condensation: an SCC's id is
    /// below the id of every SCC it has an edge into).
    pub component: Vec<u32>,
    /// Size of every SCC, indexed by SCC id.
    pub sizes: Vec<usize>,
}

impl SccResult {
    /// Number of SCCs.
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest SCC.
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of vertices in the largest SCC.
    pub fn largest_fraction(&self) -> f64 {
        if self.component.is_empty() {
            0.0
        } else {
            self.largest() as f64 / self.component.len() as f64
        }
    }
}

/// Strongly connected components via an iterative Tarjan's algorithm.
///
/// The DFS follows in-edges: the reverse graph has the same SCCs, and the
/// in-lists are the adjacency a [`CsrGraph`] stores. The standard recursive
/// formulation overflows the stack on graphs with long paths (and the SNAP
/// analogues easily have 10⁵-vertex chains inside the giant component), so
/// the DFS is driven by an explicit frame stack.
pub fn strongly_connected_components(graph: &CsrGraph) -> SccResult {
    const UNVISITED: u32 = u32::MAX;
    let n = graph.num_nodes();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![UNVISITED; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut next_index: u32 = 0;

    // Explicit DFS frame: (vertex, next in-neighbor position to visit).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();

    for root in 0..n as NodeId {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let neighbors = graph.in_neighbors(v);
            if *pos < neighbors.len() {
                let w = neighbors[*pos];
                *pos += 1;
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    index[wi] = next_index;
                    lowlink[wi] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    frames.push((w, 0));
                } else if on_stack[wi] {
                    let vi = v as usize;
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            } else {
                // Finished v: pop frame, propagate lowlink, maybe emit SCC.
                frames.pop();
                let vi = v as usize;
                if let Some(&(parent, _)) = frames.last() {
                    let pi = parent as usize;
                    lowlink[pi] = lowlink[pi].min(lowlink[vi]);
                }
                if lowlink[vi] == index[vi] {
                    let scc_id = sizes.len() as u32;
                    let mut size = 0usize;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component[w as usize] = scc_id;
                        size += 1;
                        if w == v {
                            break;
                        }
                    }
                    sizes.push(size);
                }
            }
        }
    }

    SccResult { component, sizes }
}

/// Weakly connected components (union-find). Returns `(component ids, sizes)`.
pub fn weakly_connected_components(graph: &CsrGraph) -> (Vec<u32>, Vec<usize>) {
    let n = graph.num_nodes();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    for (s, d) in graph.edges() {
        let rs = find(&mut parent, s);
        let rd = find(&mut parent, d);
        if rs != rd {
            parent[rs.max(rd) as usize] = rs.min(rd);
        }
    }

    let mut roots: Vec<u32> = (0..n as u32).map(|v| find(&mut parent, v)).collect();
    // Densify component ids.
    let mut remap = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    for r in roots.iter_mut() {
        let root = *r as usize;
        if remap[root] == u32::MAX {
            remap[root] = sizes.len() as u32;
            sizes.push(0);
        }
        *r = remap[root];
        sizes[*r as usize] += 1;
    }
    (roots, sizes)
}

/// Fraction of vertices in the largest weakly connected component.
pub fn largest_wcc_fraction(graph: &CsrGraph) -> f64 {
    if graph.num_nodes() == 0 {
        return 0.0;
    }
    let (_, sizes) = weakly_connected_components(graph);
    sizes.into_iter().max().unwrap_or(0) as f64 / graph.num_nodes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn degree_stats_on_star() {
        // star: 0 -> 1..=4
        let g = CsrGraph::from_edges(5, (1..5u32).map(|i| (0, i))).unwrap();
        let out = out_degree_stats(&g);
        assert_eq!(out.max, 4);
        assert_eq!(out.min, 0);
        assert!((out.mean - 0.8).abs() < 1e-9);
    }

    #[test]
    fn degree_stats_empty_graph() {
        let g = CsrGraph::from_edges(0, std::iter::empty()).unwrap();
        let s = out_degree_stats(&g);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn scc_of_a_cycle_is_one_component() {
        let n = 100u32;
        let g = CsrGraph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.num_components(), 1);
        assert_eq!(scc.largest(), 100);
        assert!((scc.largest_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scc_of_a_path_is_singletons() {
        let n = 50u32;
        let g = CsrGraph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.num_components(), 50);
        assert_eq!(scc.largest(), 1);
    }

    #[test]
    fn scc_two_cycles_joined_by_one_edge() {
        // cycle A: 0-1-2, cycle B: 3-4-5, bridge 2 -> 3
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];
        let g = CsrGraph::from_edges(6, edges).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.num_components(), 2);
        assert_eq!(scc.largest(), 3);
        // all of 0,1,2 share a component; all of 3,4,5 share the other
        assert_eq!(scc.component[0], scc.component[1]);
        assert_eq!(scc.component[1], scc.component[2]);
        assert_eq!(scc.component[3], scc.component[4]);
        assert_ne!(scc.component[0], scc.component[3]);
    }

    #[test]
    fn scc_handles_deep_paths_without_stack_overflow() {
        // A 200_000-vertex path would blow a recursive Tarjan.
        let n = 200_000u32;
        let g = CsrGraph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.num_components(), n as usize);
    }

    #[test]
    fn wcc_on_disconnected_graph() {
        let g = CsrGraph::from_edges(6, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, sizes) = weakly_connected_components(&g);
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        // vertex 5 is isolated
        assert_ne!(comp[5], comp[0]);
        assert_ne!(comp[5], comp[3]);
        let mut s = sizes.clone();
        s.sort_unstable();
        assert_eq!(s, vec![1, 2, 3]);
    }

    #[test]
    fn largest_wcc_fraction_of_connected_graph_is_one() {
        let g = CsrGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!((largest_wcc_fraction(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn social_like_generator_produces_giant_scc() {
        // The SBM-with-backbone social analogue must reproduce the paper's
        // "giant SCC" property that motivates dense RRR sets.
        let mut rng = SmallRng::seed_from_u64(99);
        let el = generators::social_network(2_000, 8, 0.3, &mut rng);
        let g = CsrGraph::from_edge_list(&el);
        let scc = strongly_connected_components(&g);
        assert!(
            scc.largest_fraction() > 0.5,
            "expected giant SCC, got fraction {}",
            scc.largest_fraction()
        );
    }
}
