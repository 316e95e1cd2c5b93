//! Synthetic graph generators.
//!
//! These stand in for the SNAP datasets the paper evaluates on (com-Amazon,
//! com-YouTube, com-DBLP, com-LJ, soc-Pokec, as-Skitter, web-Google,
//! Twitter7). The paper's performance story rests on two structural
//! properties of those graphs:
//!
//! 1. a heavy-tailed (skewed) degree distribution, and
//! 2. a giant strongly connected component, which makes random
//!    reverse-reachable sets cover a large fraction of the graph.
//!
//! The scale-free generators ([`barabasi_albert`], [`rmat`],
//! [`social_network`]) reproduce both; [`structured::grid_2d`] and
//! [`structured::road_network`] reproduce the *absence* of both (the paper's
//! as-Skitter row, whose RRR sets cover <6 % of the graph).
//!
//! All generators are deterministic given the caller's RNG, which the test
//! suite and benchmark harness rely on.

mod random;
mod scale_free;
pub mod structured;

pub use random::stochastic_block_model;
pub use scale_free::{barabasi_albert, rmat, social_network, RmatParams};
pub use structured::{
    complete, cycle, directed_grid_2d, directed_road_network, grid_2d, path, road_network, star,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::properties;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_generators_produce_valid_edge_lists() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cases: Vec<(&str, crate::EdgeList)> = vec![
            ("sbm", stochastic_block_model(&[30, 30, 40], 0.2, 0.01, &mut rng)),
            ("ba", barabasi_albert(100, 3, &mut rng)),
            ("rmat", rmat(7, 8, RmatParams::default(), &mut rng)),
            ("social", social_network(100, 6, 0.3, &mut rng)),
            ("path", path(50)),
            ("cycle", cycle(50)),
            ("star", star(50)),
            ("complete", complete(20)),
            ("grid", grid_2d(8, 8)),
            ("road", road_network(10, 10, 0.05, &mut rng)),
        ];
        for (name, el) in cases {
            assert!(el.num_nodes() > 0, "{name}: no nodes");
            let g = CsrGraph::from_edge_list(&el);
            // Every edge endpoint must be a valid vertex (CSR construction
            // would have panicked otherwise); double-check degrees sum.
            let total_out: usize = g.out_degrees().iter().sum();
            assert_eq!(total_out, g.num_edges(), "{name}: degree sum mismatch");
        }
    }

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        let a = barabasi_albert(200, 4, &mut SmallRng::seed_from_u64(123));
        let b = barabasi_albert(200, 4, &mut SmallRng::seed_from_u64(123));
        assert_eq!(a.edges(), b.edges());

        let a = rmat(8, 8, RmatParams::default(), &mut SmallRng::seed_from_u64(9));
        let b = rmat(8, 8, RmatParams::default(), &mut SmallRng::seed_from_u64(9));
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn scale_free_generators_are_skewed() {
        let mut rng = SmallRng::seed_from_u64(77);
        let el = barabasi_albert(2_000, 5, &mut rng);
        let g = CsrGraph::from_edge_list(&el);
        let stats = properties::out_degree_stats(&g);
        // Heavy tail: max degree far above the median.
        assert!(
            stats.max as f64 > 10.0 * stats.median.max(1) as f64,
            "expected skew, got max={} median={}",
            stats.max,
            stats.median
        );
    }

    #[test]
    fn road_network_is_not_skewed() {
        let mut rng = SmallRng::seed_from_u64(77);
        let el = road_network(30, 30, 0.02, &mut rng);
        let g = CsrGraph::from_edge_list(&el);
        let stats = properties::out_degree_stats(&g);
        assert!(stats.max <= 10, "road network should have bounded degree, got {}", stats.max);
    }
}
