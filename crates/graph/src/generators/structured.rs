//! Deterministic and mesh-like generators.
//!
//! The toys (path, cycle, star, complete, grid) are used heavily in tests
//! because their influence structure is known in closed form. The
//! [`road_network`] generator is the analogue of the paper's as-Skitter row:
//! a bounded-degree, spatially local graph whose RRR sets cover only a few
//! percent of the vertices.

use crate::edge_list::EdgeList;
use crate::NodeId;
use rand::Rng;

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn path(n: usize) -> EdgeList {
    let mut el = EdgeList::with_nodes(n);
    for i in 1..n {
        el.push((i - 1) as NodeId, i as NodeId);
    }
    el
}

/// Directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn cycle(n: usize) -> EdgeList {
    let mut el = path(n);
    if n > 1 {
        el.push((n - 1) as NodeId, 0);
    }
    el
}

/// Star: center 0 points at every other vertex (and they point back), the
/// canonical "one obviously best seed" graph.
pub fn star(n: usize) -> EdgeList {
    let mut el = EdgeList::with_nodes(n);
    for i in 1..n {
        el.push(0, i as NodeId);
        el.push(i as NodeId, 0);
    }
    el
}

/// Complete directed graph on `n` vertices (every ordered pair).
pub fn complete(n: usize) -> EdgeList {
    let mut el = EdgeList::with_nodes(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                el.push(i as NodeId, j as NodeId);
            }
        }
    }
    el
}

/// 2-D grid of `rows × cols` vertices with symmetric edges to the right and
/// down neighbours.
pub fn grid_2d(rows: usize, cols: usize) -> EdgeList {
    let n = rows * cols;
    let mut el = EdgeList::with_nodes(n);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                el.push(id(r, c), id(r, c + 1));
                el.push(id(r, c + 1), id(r, c));
            }
            if r + 1 < rows {
                el.push(id(r, c), id(r + 1, c));
                el.push(id(r + 1, c), id(r, c));
            }
        }
    }
    el
}

/// Road-network-like graph: a 2-D grid with a small fraction of random
/// "shortcut" edges (highways). Bounded degree, high diameter, no giant SCC
/// of the social-graph kind — the structural opposite of the scale-free
/// analogues, mirroring the paper's as-Skitter dataset whose RRR coverage is
/// under 6 %.
pub fn road_network<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    shortcut_fraction: f64,
    rng: &mut R,
) -> EdgeList {
    let mut el = grid_2d(rows, cols);
    let n = rows * cols;
    let shortcuts = ((el.num_edges() as f64) * shortcut_fraction) as usize;
    for _ in 0..shortcuts {
        let s = rng.gen_range(0..n) as NodeId;
        let d = rng.gen_range(0..n) as NodeId;
        if s != d {
            el.push(s, d);
            el.push(d, s);
        }
    }
    el.dedup();
    el
}

/// Mostly one-directional grid of `rows × cols` vertices: lattice edges point
/// only right and down. Reverse reachability is confined to the upper-left
/// quadrant of a vertex, so even with high edge probabilities RRR sets stay
/// small — the low-coverage regime of the paper's as-Skitter row.
pub fn directed_grid_2d(rows: usize, cols: usize) -> EdgeList {
    let n = rows * cols;
    let mut el = EdgeList::with_nodes(n);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                el.push(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                el.push(id(r, c), id(r + 1, c));
            }
        }
    }
    el
}

/// Directed road network: [`directed_grid_2d`] plus a sprinkling of random
/// directed shortcut edges. Used as the as-Skitter analogue in the benchmark
/// dataset registry.
pub fn directed_road_network<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    shortcut_fraction: f64,
    rng: &mut R,
) -> EdgeList {
    let mut el = directed_grid_2d(rows, cols);
    let n = rows * cols;
    let shortcuts = ((el.num_edges() as f64) * shortcut_fraction) as usize;
    for _ in 0..shortcuts {
        let s = rng.gen_range(0..n) as NodeId;
        let d = rng.gen_range(0..n) as NodeId;
        if s != d {
            el.push(s, d);
        }
    }
    el.dedup();
    el
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::properties;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let el = path(5);
        assert_eq!(el.num_nodes(), 5);
        assert_eq!(el.num_edges(), 4);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.out_degrees()[0], 1);
        assert_eq!(g.out_degrees()[4], 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn path_of_zero_and_one() {
        assert_eq!(path(0).num_edges(), 0);
        let p1 = path(1);
        assert_eq!(p1.num_nodes(), 1);
        assert_eq!(p1.num_edges(), 0);
    }

    #[test]
    fn cycle_is_one_scc() {
        let el = cycle(10);
        let g = CsrGraph::from_edge_list(&el);
        let scc = properties::strongly_connected_components(&g);
        assert_eq!(scc.num_components(), 1);
    }

    #[test]
    fn star_degrees() {
        let el = star(6);
        let g = CsrGraph::from_edge_list(&el);
        let out = g.out_degrees();
        assert_eq!(out[0], 5);
        assert_eq!(g.in_degree(0), 5);
        for v in 1..6u32 {
            assert_eq!(out[v as usize], 1);
            assert_eq!(g.in_degree(v), 1);
        }
    }

    #[test]
    fn complete_edge_count() {
        let el = complete(7);
        assert_eq!(el.num_edges(), 7 * 6);
        let g = CsrGraph::from_edge_list(&el);
        let out = g.out_degrees();
        for v in 0..7u32 {
            assert_eq!(out[v as usize], 6);
            assert_eq!(g.in_degree(v), 6);
        }
    }

    #[test]
    fn grid_edge_count_and_degree_bound() {
        let (rows, cols) = (4, 5);
        let el = grid_2d(rows, cols);
        // 2 directed edges per undirected lattice edge:
        // horizontal: rows*(cols-1), vertical: (rows-1)*cols
        let undirected = rows * (cols - 1) + (rows - 1) * cols;
        assert_eq!(el.num_edges(), 2 * undirected);
        let g = CsrGraph::from_edge_list(&el);
        for degree in g.out_degrees() {
            assert!(degree <= 4);
            assert!(degree >= 2);
        }
    }

    #[test]
    fn grid_is_connected() {
        let g = CsrGraph::from_edge_list(&grid_2d(6, 6));
        assert!((properties::largest_wcc_fraction(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn directed_grid_has_no_reverse_lattice_edges() {
        let el = directed_grid_2d(4, 4);
        let edges: std::collections::HashSet<_> = el.iter().collect();
        for &(s, d) in &edges {
            assert!(!edges.contains(&(d, s)), "({s},{d}) has a reverse edge");
        }
        // Top-left corner has in-degree 0, bottom-right has out-degree 0.
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degrees()[15], 0);
    }

    #[test]
    fn directed_road_network_adds_directed_shortcuts() {
        let mut rng = SmallRng::seed_from_u64(3);
        let plain = directed_grid_2d(10, 10);
        let road = directed_road_network(10, 10, 0.1, &mut rng);
        assert!(road.num_edges() >= plain.num_edges());
    }

    #[test]
    fn road_network_adds_shortcuts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let plain = grid_2d(10, 10);
        let road = road_network(10, 10, 0.1, &mut rng);
        assert!(road.num_edges() >= plain.num_edges());
    }

    #[test]
    fn road_network_zero_fraction_equals_grid() {
        let mut rng = SmallRng::seed_from_u64(2);
        let road = road_network(5, 5, 0.0, &mut rng);
        let mut grid = grid_2d(5, 5);
        grid.dedup();
        assert_eq!(road.edges(), grid.edges());
    }
}
