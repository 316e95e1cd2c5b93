//! Shared execution helpers: run one (dataset, model, engine, threads)
//! configuration and collect everything the tables need.

use crate::datasets::Dataset;
use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams, ImmResult};
use imm_diffusion::DiffusionModel;
use imm_graph::EdgeWeights;
use std::time::Instant;

/// The two engines the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The Ripples baseline, [`crate::ripples::run`].
    Ripples,
    /// EfficientIMM, `efficient-imm`'s [`run_imm`].
    Efficient,
}

impl Engine {
    /// Short name used in benchmark output (`"ripples"` / `"efficientimm"`).
    pub fn short_name(self) -> &'static str {
        match self {
            Engine::Ripples => "ripples",
            Engine::Efficient => "efficientimm",
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchMeasurement {
    /// Dataset name.
    pub dataset: String,
    /// Diffusion model (short name, `"ic"`/`"lt"`).
    pub model: String,
    /// Engine (short name, `"ripples"`/`"efficientimm"`).
    pub algorithm: String,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
    /// Wall-clock seconds of the sampling kernel.
    pub sampling_seconds: f64,
    /// Wall-clock seconds of the selection kernel.
    pub selection_seconds: f64,
    /// Modelled parallel time (work/contention model, arbitrary units) —
    /// what the scaling figures are derived from on this one-core host.
    pub modeled_time: f64,
    /// θ: number of RRR sets the guarantee was established with.
    pub theta: usize,
    /// Peak RRR-set storage in bytes.
    pub rrr_memory_bytes: usize,
    /// Estimated influence of the returned seed set.
    pub estimated_influence: f64,
    /// The selected seeds.
    pub seeds: Vec<u32>,
}

/// Pick the weight set matching `model` from a dataset.
pub fn weights_for(dataset: &Dataset, model: DiffusionModel) -> &EdgeWeights {
    match model {
        DiffusionModel::IndependentCascade => &dataset.ic_weights,
        DiffusionModel::LinearThreshold => &dataset.lt_weights,
    }
}

/// Run one configuration and collect a [`BenchMeasurement`].
pub fn run_configuration(
    dataset: &Dataset,
    model: DiffusionModel,
    engine: Engine,
    threads: usize,
    k: usize,
    epsilon: f64,
) -> BenchMeasurement {
    let params = ImmParams::new(k, epsilon, model).with_seed(0xB5EED ^ dataset.spec.seed);
    let weights = weights_for(dataset, model);
    let start = Instant::now();
    let result = match engine {
        Engine::Ripples => crate::ripples::run(&dataset.graph, weights, &params, threads),
        Engine::Efficient => {
            let exec = ExecutionConfig::new(Algorithm::Efficient, threads);
            run_imm(&dataset.graph, weights, &params, &exec)
                .expect("benchmark parameters are valid for every registry dataset")
        }
    };
    let wall = start.elapsed().as_secs_f64();
    measurement_from(dataset, model, engine, threads, wall, &result)
}

/// Convert an [`ImmResult`] into the flat record the tables consume.
pub fn measurement_from(
    dataset: &Dataset,
    model: DiffusionModel,
    engine: Engine,
    threads: usize,
    wall_seconds: f64,
    result: &ImmResult,
) -> BenchMeasurement {
    BenchMeasurement {
        dataset: dataset.spec.name.to_string(),
        model: model.short_name().to_string(),
        algorithm: engine.short_name().to_string(),
        threads,
        wall_seconds,
        sampling_seconds: result.breakdown.timings.generate_rrrsets.as_secs_f64(),
        selection_seconds: result.breakdown.timings.find_most_influential.as_secs_f64(),
        modeled_time: crate::scaling::modeled_time(
            &result.breakdown.sampling_work,
            &result.breakdown.selection_work,
            threads,
        ),
        theta: result.theta,
        rrr_memory_bytes: result.breakdown.rrr_memory_bytes,
        estimated_influence: result.estimated_influence,
        seeds: result.seeds.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{find, Scale};

    #[test]
    fn run_configuration_produces_consistent_measurement() {
        let dataset = find(Scale::Small, "as-Skitter").unwrap().build();
        let m = run_configuration(
            &dataset,
            DiffusionModel::IndependentCascade,
            Engine::Efficient,
            2,
            5,
            0.5,
        );
        assert_eq!(m.dataset, "as-Skitter");
        assert_eq!(m.model, "ic");
        assert_eq!(m.algorithm, "efficientimm");
        assert_eq!(m.seeds.len(), 5);
        assert!(m.wall_seconds > 0.0);
        assert!(m.theta > 0);
        assert!(m.modeled_time > 0.0);
        assert!(m.wall_seconds >= m.sampling_seconds);
    }

    #[test]
    fn short_names() {
        assert_eq!(Engine::Ripples.short_name(), "ripples");
        assert_eq!(Engine::Efficient.short_name(), "efficientimm");
    }

    #[test]
    fn weights_for_selects_the_right_model() {
        let dataset = find(Scale::Small, "as-Skitter").unwrap().build();
        let ic = weights_for(&dataset, DiffusionModel::IndependentCascade);
        let lt = weights_for(&dataset, DiffusionModel::LinearThreshold);
        assert_eq!(ic.len(), dataset.graph.num_edges());
        assert_eq!(lt.len(), dataset.graph.num_edges());
        assert_ne!(ic.as_slice(), lt.as_slice());
    }
}
