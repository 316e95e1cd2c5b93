//! The dataset registry: synthetic analogues of the paper's SNAP graphs.
//!
//! The real datasets (com-Amazon … Twitter7) cannot be downloaded in this
//! environment, so each entry generates a synthetic graph reproducing the two
//! structural properties the paper's analysis attributes its results to —
//! degree skew and the presence (or absence) of a giant SCC that makes RRR
//! sets dense. Sizes are scaled down so the full suite completes on one core;
//! the scale factor and the paper's reference numbers are recorded on every
//! entry so EXPERIMENTS.md can show paper-vs-measured side by side.

use imm_graph::{generators, CsrGraph, EdgeList, EdgeWeights, WeightModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Reference values reported by the paper for the original dataset.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PaperReference {
    /// Nodes of the original SNAP graph (Table I).
    pub nodes: u64,
    /// Edges of the original SNAP graph (Table I).
    pub edges: u64,
    /// Average RRR-set coverage under IC, ε = 0.5 (Table I), as a fraction.
    pub avg_rrr_coverage: f64,
    /// Maximum RRR-set coverage (Table I), as a fraction.
    pub max_rrr_coverage: f64,
    /// Best Ripples runtime under IC in seconds (Table III); `None` = OOM.
    pub ripples_ic_seconds: Option<f64>,
    /// Best EfficientIMM runtime under IC in seconds (Table III).
    pub efficientimm_ic_seconds: f64,
    /// Best Ripples runtime under LT in seconds (Table III).
    pub ripples_lt_seconds: Option<f64>,
    /// Best EfficientIMM runtime under LT in seconds (Table III).
    pub efficientimm_lt_seconds: f64,
    /// Ripples L1+L2 misses in `Find_Most_Influential_Set` (Table IV), when
    /// reported.
    pub ripples_cache_misses: Option<u64>,
    /// EfficientIMM L1+L2 misses (Table IV), when reported.
    pub efficientimm_cache_misses: Option<u64>,
}

/// How the synthetic analogue is generated.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum GeneratorKind {
    /// Community-structured graph (stochastic block model + backbone):
    /// product/co-authorship networks such as com-Amazon and com-DBLP.
    Community {
        /// Number of vertices.
        nodes: usize,
        /// Number of equally sized communities.
        blocks: usize,
    },
    /// Preferential-attachment social network with extra long-range edges:
    /// com-YouTube, soc-Pokec, com-LJ, Twitter7.
    Social {
        /// Number of vertices.
        nodes: usize,
        /// Average degree of the backbone.
        avg_degree: usize,
        /// Extra random directed edges as a fraction of the backbone.
        extra: f64,
    },
    /// R-MAT graph: the web-crawl analogue (web-Google).
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Directed edges per vertex.
        edge_factor: usize,
    },
    /// Grid with shortcuts: the low-coverage as-Skitter analogue.
    Road {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
}

/// One entry of the registry.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct DatasetSpec {
    /// Short name used in output tables (matches the paper's dataset names).
    pub name: &'static str,
    /// The SNAP dataset this entry stands in for.
    pub paper_name: &'static str,
    /// Generator configuration.
    pub generator: GeneratorKind,
    /// Seed for the generator RNG (fixed so every run sees the same graph).
    pub seed: u64,
    /// The paper's reference numbers for the original dataset.
    pub reference: PaperReference,
}

/// A materialized dataset: the graph plus IC and LT edge weights.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The registry entry this graph was generated from.
    pub spec: DatasetSpec,
    /// The graph.
    pub graph: CsrGraph,
    /// Independent-cascade probabilities (uniform `[0,1]`, as in the paper).
    pub ic_weights: EdgeWeights,
    /// Linear-threshold weights (normalized in-weights, as in the paper).
    pub lt_weights: EdgeWeights,
}

impl DatasetSpec {
    /// Generate the synthetic graph for this entry.
    pub fn build_graph(&self) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let el: EdgeList = match self.generator {
            GeneratorKind::Community { nodes, blocks } => {
                let block_size = (nodes / blocks).max(2);
                let sizes = vec![block_size; blocks];
                let mut el = generators::stochastic_block_model(&sizes, 0.08, 0.0008, &mut rng);
                // A sparse backbone keeps the whole graph weakly connected
                // and creates the giant SCC the com-* graphs have.
                let backbone = generators::social_network(block_size * blocks, 4, 0.1, &mut rng);
                for (s, d) in backbone.iter() {
                    el.push(s, d);
                }
                el.dedup();
                el
            }
            GeneratorKind::Social { nodes, avg_degree, extra } => {
                generators::social_network(nodes, avg_degree, extra, &mut rng)
            }
            GeneratorKind::Rmat { scale, edge_factor } => {
                let mut el = generators::rmat(
                    scale,
                    edge_factor,
                    generators::RmatParams::default(),
                    &mut rng,
                );
                el.symmetrize();
                el
            }
            GeneratorKind::Road { rows, cols } => {
                generators::directed_road_network(rows, cols, 0.03, &mut rng)
            }
        };
        CsrGraph::from_edge_list(&el)
    }

    /// Generate the graph and both weight sets.
    pub fn build(&self) -> Dataset {
        let graph = self.build_graph();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xA5A5_5A5A);
        let ic_weights = EdgeWeights::generate(&graph, WeightModel::IcUniform, 0.0, &mut rng);
        let lt_weights = EdgeWeights::generate(&graph, WeightModel::LtNormalized, 0.0, &mut rng);
        Dataset { spec: *self, graph, ic_weights, lt_weights }
    }
}

/// The eight SNAP analogues, in the order the paper's Table I lists them.
///
/// `scale` selects the analogue size: benchmarks default to the small scale
/// so the whole suite finishes quickly on one core; `Scale::Full` roughly
/// quadruples the vertex counts for longer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick-run sizes (1–4 k vertices).
    Small,
    /// Larger sizes (4–16 k vertices) for overnight-style runs.
    Full,
}

/// Build the dataset registry at the requested scale.
pub fn registry(scale: Scale) -> Vec<DatasetSpec> {
    let f = match scale {
        Scale::Small => 1usize,
        Scale::Full => 4usize,
    };
    vec![
        DatasetSpec {
            name: "com-Amazon",
            paper_name: "com-Amazon",
            generator: GeneratorKind::Community { nodes: 1_600 * f, blocks: 40 },
            seed: 101,
            reference: PaperReference {
                nodes: 334_863,
                edges: 925_872,
                avg_rrr_coverage: 0.613,
                max_rrr_coverage: 0.796,
                ripples_ic_seconds: Some(7.93),
                efficientimm_ic_seconds: 0.97,
                ripples_lt_seconds: Some(0.93),
                efficientimm_lt_seconds: 0.16,
                ripples_cache_misses: Some(283_963_507),
                efficientimm_cache_misses: Some(10_947_324),
            },
        },
        DatasetSpec {
            name: "com-DBLP",
            paper_name: "com-DBLP",
            generator: GeneratorKind::Community { nodes: 1_500 * f, blocks: 30 },
            seed: 102,
            reference: PaperReference {
                nodes: 317_080,
                edges: 1_049_866,
                avg_rrr_coverage: 0.514,
                max_rrr_coverage: 0.789,
                ripples_ic_seconds: Some(7.10),
                efficientimm_ic_seconds: 0.94,
                ripples_lt_seconds: Some(4.2),
                efficientimm_lt_seconds: 0.85,
                ripples_cache_misses: None,
                efficientimm_cache_misses: None,
            },
        },
        DatasetSpec {
            name: "com-YouTube",
            paper_name: "com-YouTube",
            generator: GeneratorKind::Social { nodes: 2_400 * f, avg_degree: 5, extra: 0.25 },
            seed: 103,
            reference: PaperReference {
                nodes: 1_134_890,
                edges: 2_987_624,
                avg_rrr_coverage: 0.327,
                max_rrr_coverage: 0.599,
                ripples_ic_seconds: Some(14.07),
                efficientimm_ic_seconds: 3.0,
                ripples_lt_seconds: Some(1.23),
                efficientimm_lt_seconds: 0.14,
                ripples_cache_misses: Some(135_802_513),
                efficientimm_cache_misses: Some(379_979),
            },
        },
        DatasetSpec {
            name: "as-Skitter",
            paper_name: "as-Skitter",
            generator: GeneratorKind::Road { rows: 45, cols: 40 },
            seed: 104,
            reference: PaperReference {
                nodes: 1_696_415,
                edges: 11_095_298,
                avg_rrr_coverage: 0.016,
                max_rrr_coverage: 0.054,
                ripples_ic_seconds: Some(2.3),
                efficientimm_ic_seconds: 0.45,
                ripples_lt_seconds: Some(38.96),
                efficientimm_lt_seconds: 10.59,
                ripples_cache_misses: None,
                efficientimm_cache_misses: None,
            },
        },
        DatasetSpec {
            name: "web-Google",
            paper_name: "web-Google",
            generator: GeneratorKind::Rmat { scale: 11, edge_factor: 6 },
            seed: 105,
            reference: PaperReference {
                nodes: 875_713,
                edges: 5_105_039,
                avg_rrr_coverage: 0.174,
                max_rrr_coverage: 0.548,
                ripples_ic_seconds: Some(36.04),
                efficientimm_ic_seconds: 4.82,
                ripples_lt_seconds: Some(21.93),
                efficientimm_lt_seconds: 3.7,
                ripples_cache_misses: Some(406_351_077),
                efficientimm_cache_misses: Some(18_139_797),
            },
        },
        DatasetSpec {
            name: "soc-Pokec",
            paper_name: "soc-Pokec",
            generator: GeneratorKind::Social { nodes: 2_000 * f, avg_degree: 12, extra: 0.3 },
            seed: 106,
            reference: PaperReference {
                nodes: 1_632_803,
                edges: 30_622_564,
                avg_rrr_coverage: 0.601,
                max_rrr_coverage: 0.785,
                ripples_ic_seconds: Some(59.90),
                efficientimm_ic_seconds: 36.97,
                ripples_lt_seconds: Some(40.57),
                efficientimm_lt_seconds: 10.7,
                ripples_cache_misses: Some(48_114_540),
                efficientimm_cache_misses: Some(516_602),
            },
        },
        DatasetSpec {
            name: "com-LJ",
            paper_name: "com-LJ (LiveJournal)",
            generator: GeneratorKind::Social { nodes: 3_000 * f, avg_degree: 10, extra: 0.3 },
            seed: 107,
            reference: PaperReference {
                nodes: 3_997_962,
                edges: 34_681_189,
                avg_rrr_coverage: 0.680,
                max_rrr_coverage: 0.841,
                ripples_ic_seconds: Some(167.4),
                efficientimm_ic_seconds: 134.0,
                ripples_lt_seconds: Some(1.58),
                efficientimm_lt_seconds: 0.13,
                ripples_cache_misses: Some(69_299_959),
                efficientimm_cache_misses: Some(687_345),
            },
        },
        DatasetSpec {
            name: "twitter7",
            paper_name: "Twitter7",
            generator: GeneratorKind::Social { nodes: 4_000 * f, avg_degree: 16, extra: 0.4 },
            seed: 108,
            reference: PaperReference {
                nodes: 41_652_230,
                edges: 1_468_365_182,
                avg_rrr_coverage: 0.598,
                max_rrr_coverage: 0.880,
                ripples_ic_seconds: None, // OOM in the paper
                efficientimm_ic_seconds: 1_645.58,
                ripples_lt_seconds: Some(2_354.7),
                efficientimm_lt_seconds: 1_734.9,
                ripples_cache_misses: None,
                efficientimm_cache_misses: None,
            },
        },
    ]
}

/// Look up one registry entry by (case-insensitive) name.
pub fn find(scale: Scale, name: &str) -> Option<DatasetSpec> {
    registry(scale).into_iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

/// The five datasets the paper's Table IV (cache misses) reports.
pub fn cache_miss_subset(scale: Scale) -> Vec<DatasetSpec> {
    ["com-Amazon", "web-Google", "soc-Pokec", "com-YouTube", "com-LJ"]
        .iter()
        .filter_map(|n| find(scale, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_graph::properties;

    #[test]
    fn registry_has_all_eight_paper_datasets() {
        let r = registry(Scale::Small);
        assert_eq!(r.len(), 8);
        let names: Vec<_> = r.iter().map(|d| d.name).collect();
        for expected in [
            "com-Amazon",
            "com-DBLP",
            "com-YouTube",
            "as-Skitter",
            "web-Google",
            "soc-Pokec",
            "com-LJ",
            "twitter7",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find(Scale::Small, "COM-amazon").is_some());
        assert!(find(Scale::Small, "no-such-graph").is_none());
    }

    #[test]
    fn cache_miss_subset_has_five_entries() {
        assert_eq!(cache_miss_subset(Scale::Small).len(), 5);
    }

    #[test]
    fn graphs_build_and_are_deterministic() {
        let spec = find(Scale::Small, "com-YouTube").unwrap();
        let a = spec.build_graph();
        let b = spec.build_graph();
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.num_nodes() >= 1_000);
    }

    #[test]
    fn full_scale_is_larger_than_small() {
        let small = find(Scale::Small, "soc-Pokec").unwrap().build_graph();
        let full = find(Scale::Full, "soc-Pokec").unwrap().build_graph();
        assert!(full.num_nodes() > 2 * small.num_nodes());
    }

    #[test]
    fn social_analogues_have_giant_sccs_and_road_analogue_does_not_dominate() {
        let social = find(Scale::Small, "soc-Pokec").unwrap().build_graph();
        let scc = properties::strongly_connected_components(&social);
        assert!(scc.largest_fraction() > 0.5, "social analogue must have a giant SCC");

        let road = find(Scale::Small, "as-Skitter").unwrap().build_graph();
        let stats = properties::out_degree_stats(&road);
        assert!(stats.max <= 12, "road analogue must have bounded degree");
    }

    #[test]
    fn dataset_build_produces_valid_weights() {
        let d = find(Scale::Small, "com-Amazon").unwrap().build();
        assert_eq!(d.ic_weights.len(), d.graph.num_edges());
        assert_eq!(d.lt_weights.len(), d.graph.num_edges());
        // LT in-weights must be <= 1.
        for v in 0..d.graph.num_nodes() as u32 {
            assert!(d.lt_weights.in_weight_sum(&d.graph, v) <= 1.0 + 1e-4);
        }
    }
}
