//! Integration tests asserting the paper's qualitative claims on the
//! reproduction's own substrates — the checks EXPERIMENTS.md summarizes.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::{Algorithm, ExecutionConfig};
use imm_bench::datasets::{find, Scale};
use imm_bench::efficient::select_seeds_efficient;
use imm_bench::instrumented::{bitmap_check_cost, cache_misses_efficient, cache_misses_ripples};
use imm_bench::ripples::select_seeds_ripples;
use imm_diffusion::DiffusionModel;
use imm_memsim::HierarchyConfig;
use imm_numa::Topology;
use imm_rrr::{AdaptivePolicy, RrrCollection};

fn sample(name: &str, sets: usize, threads: usize) -> RrrCollection {
    let spec = find(Scale::Small, name).expect("registry dataset");
    let dataset = spec.build();
    let cfg = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 0xAB ^ spec.seed,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 16 },
        threads,
    };
    generate_rrr_sets(&dataset.graph, &dataset.ic_weights, sets, |i| i, &cfg).sets
}

#[test]
fn claim_table1_social_analogues_have_dense_rrr_sets_and_road_analogue_does_not() {
    // Table I: SCC-dominated graphs have >30% average coverage; as-Skitter
    // stays in the low single digits.
    let social = sample("soc-Pokec", 96, 2).coverage_stats();
    assert!(
        social.max_coverage > 0.5,
        "social analogue max coverage too low: {}",
        social.max_coverage
    );
    let road = sample("as-Skitter", 96, 2).coverage_stats();
    assert!(road.avg_coverage < 0.15, "road analogue coverage too high: {}", road.avg_coverage);
    assert!(social.avg_coverage > 3.0 * road.avg_coverage);
}

#[test]
fn claim_fig1_ripples_selection_work_replicates_with_threads_while_efficientimm_does_not() {
    // The root cause of Figure 1/2's scalability ceiling.
    let sets = sample("web-Google", 64, 2);
    let k = 5;

    let ripples_1 = select_seeds_ripples(&sets, k, 1).work;
    let ripples_8 = select_seeds_ripples(&sets, k, 8).work;
    assert!(
        ripples_8.total_ops() as f64 > 4.0 * ripples_1.total_ops() as f64,
        "Ripples total work must grow with threads: {} -> {}",
        ripples_1.total_ops(),
        ripples_8.total_ops()
    );
    // Per-thread (span) work does not shrink for the baseline.
    assert!(ripples_8.max_thread_ops() as f64 > 0.6 * ripples_1.max_thread_ops() as f64);

    let exec1 = ExecutionConfig::new(Algorithm::Efficient, 1);
    let exec8 = ExecutionConfig::new(Algorithm::Efficient, 8);
    let eff_1 = select_seeds_efficient(&sets, k, &exec1, true, None).0.work;
    let eff_8 = select_seeds_efficient(&sets, k, &exec8, true, None).0.work;
    let growth = eff_8.total_ops() as f64 / eff_1.total_ops() as f64;
    assert!(
        (0.8..1.2).contains(&growth),
        "EfficientIMM total work must stay flat with threads (growth {growth:.2})"
    );
    // And its span shrinks.
    assert!(
        (eff_8.max_thread_ops() as f64) < 0.5 * eff_1.max_thread_ops() as f64,
        "EfficientIMM per-thread work must shrink: {} -> {}",
        eff_1.max_thread_ops(),
        eff_8.max_thread_ops()
    );
}

#[test]
fn claim_table4_efficientimm_reduces_l1_l2_cache_misses_by_a_large_factor() {
    let sets = sample("com-YouTube", 96, 2);
    let config = HierarchyConfig::default();
    let ripples = cache_misses_ripples(&sets, 5, 8, config);
    let efficient = cache_misses_efficient(&sets, 5, 8, config);
    let reduction = ripples.l1_plus_l2_misses as f64 / efficient.l1_plus_l2_misses.max(1) as f64;
    assert!(
        reduction > 5.0,
        "expected a large cache-miss reduction, got {reduction:.1}x ({} vs {})",
        ripples.l1_plus_l2_misses,
        efficient.l1_plus_l2_misses
    );
}

#[test]
fn claim_table2_numa_aware_placement_lowers_the_bitmap_cost_share() {
    let spec = find(Scale::Small, "com-LJ").unwrap();
    let dataset = spec.build();
    let topo = Topology::perlmutter_node();
    let original = bitmap_check_cost(
        &dataset.graph,
        &dataset.ic_weights,
        DiffusionModel::IndependentCascade,
        64,
        3,
        topo,
        128,
        false,
    );
    let aware = bitmap_check_cost(
        &dataset.graph,
        &dataset.ic_weights,
        DiffusionModel::IndependentCascade,
        64,
        3,
        topo,
        128,
        true,
    );
    let improvement = 1.0 - aware.bitmap_fraction / original.bitmap_fraction;
    assert!(
        improvement > 0.15,
        "NUMA-aware placement should cut the bitmap share noticeably, got {:.0}%",
        improvement * 100.0
    );
}

#[test]
fn claim_fig5_adaptive_counter_update_touches_less_memory_on_skewed_inputs() {
    let sets = sample("com-LJ", 128, 2);
    let k = 5;

    let exec = ExecutionConfig::new(Algorithm::Efficient, 4);
    let (adaptive, rebuilds) = select_seeds_efficient(&sets, k, &exec, true, None);
    let (plain, _) = select_seeds_efficient(&sets, k, &exec, false, None);

    assert_eq!(adaptive.seeds, plain.seeds, "optimization must not change the result");
    assert!(rebuilds > 0, "dense covered sets must trigger rebuilds");
    assert!(
        adaptive.work.total_ops() < plain.work.total_ops(),
        "adaptive update must reduce counter-update work: {} vs {}",
        adaptive.work.total_ops(),
        plain.work.total_ops()
    );
}

#[test]
fn claim_adaptive_representation_reduces_memory_for_dense_collections() {
    // The Twitter7 OOM discussion: storing dense sets as sorted u32 vectors
    // costs far more than bitmaps, and the adaptive policy should approach
    // the cheaper of the two per set.
    let spec = find(Scale::Small, "twitter7").unwrap();
    let dataset = spec.build();
    let build = |policy: AdaptivePolicy| {
        let cfg = SamplingConfig {
            model: DiffusionModel::IndependentCascade,
            rng_seed: 5,
            policy,
            schedule: Schedule::Static,
            threads: 2,
        };
        generate_rrr_sets(&dataset.graph, &dataset.ic_weights, 64, |i| i, &cfg).sets.memory_bytes()
    };
    let sorted_only = build(AdaptivePolicy::always_sorted());
    let adaptive = build(AdaptivePolicy::default());
    assert!(
        adaptive < sorted_only,
        "adaptive representation should use less memory on dense sets: {adaptive} vs {sorted_only}"
    );
}
