//! Cross-crate property-based tests on the invariants the kernels rely on.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{
    generate_rrr_set, generate_rrr_sets, SamplingConfig, SetKey, VisitMarker,
};
use imm_diffusion::{monte_carlo_spread, DiffusionModel};
use imm_graph::{generators, CsrGraph, EdgeList, EdgeWeights, NodeId};
use imm_memsim::{CoreCaches, HierarchyConfig};
use imm_rrr::AdaptivePolicy;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: an arbitrary small directed graph as an edge list.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..200);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_preserves_edges_and_degree_sums((n, edges) in arb_graph()) {
        let el = EdgeList::from_pairs(n, edges.clone());
        let g = CsrGraph::from_edge_list(&el);
        prop_assert_eq!(g.num_edges(), edges.len());
        let out_sum: usize = (0..g.num_nodes() as NodeId).map(|v| g.out_degree(v)).sum();
        let in_sum: usize = (0..g.num_nodes() as NodeId).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
        // Forward and reverse adjacency describe the same edge multiset.
        let mut forward: Vec<(NodeId, NodeId)> = g.edges().collect();
        let mut reverse: Vec<(NodeId, NodeId)> = (0..g.num_nodes() as NodeId)
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)).collect::<Vec<_>>())
            .collect();
        forward.sort_unstable();
        reverse.sort_unstable();
        prop_assert_eq!(forward, reverse);
    }

    #[test]
    fn transpose_is_an_involution((n, edges) in arb_graph()) {
        let el = EdgeList::from_pairs(n, edges);
        let g = CsrGraph::from_edge_list(&el);
        let tt = g.transpose().transpose();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rrr_sets_only_contain_vertices_that_can_reach_the_root(
        (n, edges) in arb_graph(),
        root_pick in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let el = EdgeList::from_pairs(n, edges);
        let g = CsrGraph::from_edge_list(&el);
        let w = EdgeWeights::constant(&g, 1.0);
        let root = root_pick.index(g.num_nodes()) as NodeId;
        let mut marker = VisitMarker::new(g.num_nodes());
        let key = SetKey::new(seed, 0);
        let set = generate_rrr_set(&g, &w, DiffusionModel::IndependentCascade, root, key, &mut marker);

        // With probability-1 edges, the RRR set must be exactly the set of
        // vertices that reach the root in the transpose (i.e. reverse BFS).
        let mut reachable = vec![false; g.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        reachable[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &u in g.in_neighbors(v) {
                if !reachable[u as usize] {
                    reachable[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
        let mut expected: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .filter(|&v| reachable[v as usize])
            .collect();
        let mut got = set.clone();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn lt_walk_sets_are_simple_paths_in_reverse(
        (n, edges) in arb_graph(),
        root_pick in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let el = EdgeList::from_pairs(n, edges);
        let g = CsrGraph::from_edge_list(&el);
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = EdgeWeights::lt_normalized(&g, &mut rng);
        let root = root_pick.index(g.num_nodes()) as NodeId;
        let mut marker = VisitMarker::new(g.num_nodes());
        let key = SetKey::new(seed, 0);
        let set = generate_rrr_set(&g, &w, DiffusionModel::LinearThreshold, root, key, &mut marker);
        // No duplicates, root present, consecutive elements connected by an
        // edge (later -> earlier in the original direction).
        prop_assert!(set.contains(&root));
        let unique: std::collections::HashSet<_> = set.iter().collect();
        prop_assert_eq!(unique.len(), set.len());
        for pair in set.windows(2) {
            let (later, earlier) = (pair[1], pair[0]);
            prop_assert!(
                g.out_neighbors(later).contains(&earlier),
                "walk step {later} -> {earlier} is not an edge"
            );
        }
    }

    #[test]
    fn cache_misses_never_exceed_accesses(addresses in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let mut core = CoreCaches::new(HierarchyConfig::default());
        for &a in &addresses {
            core.access(a);
        }
        let stats = core.stats();
        prop_assert_eq!(stats.l1.accesses(), addresses.len() as u64);
        prop_assert!(stats.l1.misses <= stats.l1.accesses());
        // Inclusive two-level hierarchy: L2 only sees L1 misses.
        prop_assert_eq!(stats.l2.accesses(), stats.l1.misses);
        prop_assert!(stats.l1_plus_l2_misses() <= 2 * addresses.len() as u64);
    }
}

#[test]
fn influence_is_monotone_in_the_seed_set() {
    // Submodularity's little sibling: adding a seed can only increase the
    // expected spread. Checked with Monte-Carlo means on a fixed graph.
    let mut rng = SmallRng::seed_from_u64(1);
    let g = CsrGraph::from_edge_list(&generators::social_network(600, 6, 0.2, &mut rng));
    let w = EdgeWeights::ic_weighted_cascade(&g);
    let model = DiffusionModel::IndependentCascade;
    let base = monte_carlo_spread(&g, &w, model, &[5, 100], 4_000, 9);
    let bigger = monte_carlo_spread(&g, &w, model, &[5, 100, 200, 300], 4_000, 9);
    assert!(
        bigger.mean + 1e-9 >= base.mean,
        "adding seeds decreased spread: {} -> {}",
        base.mean,
        bigger.mean
    );
}

#[test]
fn sampling_work_profile_accounts_for_every_generated_vertex() {
    let mut rng = SmallRng::seed_from_u64(2);
    let g = CsrGraph::from_edge_list(&generators::social_network(300, 6, 0.2, &mut rng));
    let w = EdgeWeights::ic_weighted_cascade(&g);
    let cfg = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 3,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 8 },
        threads: 3,
        fused_counter: None,
    };
    let out = generate_rrr_sets(&g, &w, 120, 0, &cfg);
    let total_vertices: usize = out.sets.iter().map(|s| s.len()).sum();
    assert_eq!(out.work.total_ops(), total_vertices as u64);
}
