//! The stochastic block model: the community-structured random graph behind
//! `generate --kind community`.

use crate::edge_list::EdgeList;
use crate::NodeId;
use rand::Rng;

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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
