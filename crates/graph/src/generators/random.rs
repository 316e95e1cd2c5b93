//! Classic random-graph generators: Erdős–Rényi, Watts–Strogatz and the
//! stochastic block model.

use crate::edge_list::EdgeList;
use crate::NodeId;
use rand::Rng;

/// G(n, p) Erdős–Rényi graph.
///
/// When `directed` is false each unordered pair is sampled once and emitted
/// in both directions (matching how the SNAP `com-*` undirected datasets are
/// ingested). Uses geometric skipping so the cost is proportional to the
/// number of edges produced, not `n²`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, directed: bool, rng: &mut R) -> EdgeList {
    assert!((0.0..=1.0).contains(&p), "edge probability must be in [0,1]");
    let mut el = EdgeList::with_nodes(n);
    if n == 0 || p == 0.0 {
        return el;
    }

    // Iterate over the flattened pair index space with geometric jumps.
    let total_pairs: u64 =
        if directed { (n as u64) * (n as u64 - 1) } else { (n as u64) * (n as u64 - 1) / 2 };
    let log1mp = (1.0 - p).ln();
    let mut idx: u64 = 0;
    loop {
        // Number of pairs to skip ~ Geometric(p).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = if p >= 1.0 { 0 } else { (u.ln() / log1mp).floor() as u64 };
        idx = idx.saturating_add(skip);
        if idx >= total_pairs {
            break;
        }
        let (src, dst) = if directed {
            let s = idx / (n as u64 - 1);
            let mut d = idx % (n as u64 - 1);
            if d >= s {
                d += 1;
            }
            (s as NodeId, d as NodeId)
        } else {
            // Map linear index to the upper triangle (i < j).
            let (i, j) = triangle_index(idx, n as u64);
            (i as NodeId, j as NodeId)
        };
        el.push(src, dst);
        if !directed {
            el.push(dst, src);
        }
        idx += 1;
    }
    el
}

/// Map a linear index into the strict upper triangle of an `n × n` matrix to
/// its `(row, col)` pair with `row < col`.
fn triangle_index(idx: u64, n: u64) -> (u64, u64) {
    // Solve for the row: idx = row*n - row*(row+1)/2 + (col - row - 1).
    let mut row = 0u64;
    let mut remaining = idx;
    loop {
        let row_len = n - row - 1;
        if remaining < row_len {
            return (row, row + 1 + remaining);
        }
        remaining -= row_len;
        row += 1;
    }
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex is
/// connected to its `k` nearest neighbours, with each edge rewired with
/// probability `beta`. Emitted as a symmetric directed graph.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> EdgeList {
    assert!(k < n, "lattice degree k must be < n");
    assert!((0.0..=1.0).contains(&beta));
    let mut el = EdgeList::with_nodes(n);
    if n == 0 || k == 0 {
        return el;
    }
    for v in 0..n {
        for j in 1..=(k / 2).max(1) {
            let mut target = (v + j) % n;
            if rng.gen_bool(beta) {
                // Rewire to a uniformly random non-self target.
                loop {
                    target = rng.gen_range(0..n);
                    if target != v {
                        break;
                    }
                }
            }
            el.push(v as NodeId, target as NodeId);
            el.push(target as NodeId, v as NodeId);
        }
    }
    el.dedup();
    el
}

/// Stochastic block model: vertices are partitioned into blocks of the given
/// sizes; an edge between two vertices appears with probability `p_in` if
/// they share a block and `p_out` otherwise. Emitted as a symmetric directed
/// graph (community-structured social graphs like com-DBLP/com-Amazon).
pub fn stochastic_block_model<R: Rng + ?Sized>(
    block_sizes: &[usize],
    p_in: f64,
    p_out: f64,
    rng: &mut R,
) -> EdgeList {
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let n: usize = block_sizes.iter().sum();
    let mut block_of = vec![0usize; n];
    let mut start = 0usize;
    for (b, &size) in block_sizes.iter().enumerate() {
        block_of[start..start + size].fill(b);
        start += size;
    }

    let mut el = EdgeList::with_nodes(n);
    // Within-block edges: dense sampling per block (blocks are small).
    let mut block_start = 0usize;
    for &size in block_sizes {
        for i in block_start..block_start + size {
            for j in (i + 1)..block_start + size {
                if rng.gen_bool(p_in) {
                    el.push(i as NodeId, j as NodeId);
                    el.push(j as NodeId, i as NodeId);
                }
            }
        }
        block_start += size;
    }
    // Cross-block edges: expected-count sampling to stay O(edges).
    if p_out > 0.0 {
        let cross_pairs: u64 = {
            let total = (n as u64) * (n as u64 - 1) / 2;
            let within: u64 = block_sizes.iter().map(|&s| (s as u64) * (s as u64 - 1) / 2).sum();
            total - within
        };
        let expected = (cross_pairs as f64 * p_out).round() as u64;
        let mut added = 0u64;
        let mut attempts = 0u64;
        let max_attempts = expected * 20 + 100;
        while added < expected && attempts < max_attempts {
            attempts += 1;
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b || block_of[a] == block_of[b] {
                continue;
            }
            el.push(a as NodeId, b as NodeId);
            el.push(b as NodeId, a as NodeId);
            added += 1;
        }
    }
    el.dedup();
    el
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn er_edge_count_is_close_to_expectation() {
        let n = 500usize;
        let p = 0.02;
        let mut rng = SmallRng::seed_from_u64(1);
        let el = erdos_renyi(n, p, true, &mut rng);
        let expected = (n * (n - 1)) as f64 * p;
        let actual = el.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.25 * expected,
            "expected ~{expected} edges, got {actual}"
        );
    }

    #[test]
    fn er_undirected_is_symmetric() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut el = erdos_renyi(100, 0.05, false, &mut rng);
        el.dedup();
        let edges: std::collections::HashSet<_> = el.iter().collect();
        for &(s, d) in &edges {
            assert!(edges.contains(&(d, s)), "missing reverse of ({s},{d})");
        }
    }

    #[test]
    fn er_zero_probability_has_no_edges() {
        let mut rng = SmallRng::seed_from_u64(3);
        let el = erdos_renyi(50, 0.0, true, &mut rng);
        assert_eq!(el.num_edges(), 0);
        assert_eq!(el.num_nodes(), 50);
    }

    #[test]
    fn er_full_probability_is_complete() {
        let mut rng = SmallRng::seed_from_u64(4);
        let el = erdos_renyi(20, 1.0, true, &mut rng);
        assert_eq!(el.num_edges(), 20 * 19);
    }

    #[test]
    fn triangle_index_enumerates_upper_triangle() {
        let n = 5u64;
        let mut seen = Vec::new();
        for idx in 0..(n * (n - 1) / 2) {
            seen.push(triangle_index(idx, n));
        }
        let expected: Vec<(u64, u64)> =
            (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn watts_strogatz_has_lattice_degree_without_rewiring() {
        let mut rng = SmallRng::seed_from_u64(5);
        let el = watts_strogatz(40, 4, 0.0, &mut rng);
        let g = CsrGraph::from_edge_list(&el);
        for (v, &degree) in g.out_degrees().iter().enumerate() {
            assert_eq!(degree, 4, "vertex {v}");
        }
    }

    #[test]
    fn sbm_has_more_intra_than_inter_edges() {
        let mut rng = SmallRng::seed_from_u64(6);
        let sizes = [50usize, 50, 50];
        let el = stochastic_block_model(&sizes, 0.3, 0.005, &mut rng);
        let block = |v: NodeId| (v as usize) / 50;
        let (mut intra, mut inter) = (0usize, 0usize);
        for (s, d) in el.iter() {
            if block(s) == block(d) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 3 * inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn sbm_zero_out_probability_has_no_cross_edges() {
        let mut rng = SmallRng::seed_from_u64(7);
        let el = stochastic_block_model(&[20, 20], 0.5, 0.0, &mut rng);
        for (s, d) in el.iter() {
            assert_eq!((s as usize) / 20, (d as usize) / 20);
        }
    }
}
