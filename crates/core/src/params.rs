//! Algorithm parameters and execution configuration.

use crate::balance::{Schedule, JOB_CHUNK};
use imm_diffusion::DiffusionModel;
use imm_rrr::AdaptivePolicy;

/// The IMM problem parameters (what to solve). The confidence exponent ℓ
/// is IMM's default, [`math::ELL`](crate::math::ELL).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ImmParams {
    /// Number of seeds to select (the paper uses `k = 50` throughout).
    pub k: usize,
    /// Approximation parameter ε of the `(1 - 1/e - ε)` guarantee
    /// (the paper uses `ε = 0.5`).
    pub epsilon: f64,
    /// Diffusion model the RRR sets are sampled under.
    pub model: DiffusionModel,
    /// Base RNG seed; every RRR set derives its own stream from this, so runs
    /// are reproducible for any thread count.
    pub rng_seed: u64,
}

impl ImmParams {
    /// Parameters with a fixed seed.
    pub fn new(k: usize, epsilon: f64, model: DiffusionModel) -> Self {
        ImmParams { k, epsilon, model, rng_seed: 0x5EED }
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Validate the parameters against a graph of `num_nodes` vertices.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be at least 1".into());
        }
        if num_nodes == 0 {
            return Err("graph has no vertices".into());
        }
        if self.k > num_nodes {
            return Err(format!("k = {} exceeds the number of vertices ({num_nodes})", self.k));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(format!("epsilon must be in (0, 1), got {}", self.epsilon));
        }
        Ok(())
    }
}

/// The engine token [`ExecutionConfig::new`] takes. `run_imm` has one
/// engine, so the token selects nothing; it stays only because the pinned
/// benchmark harness (`spine/src/sut.rs`) names it in that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Algorithm {
    /// EfficientIMM.
    Efficient,
}

/// The sampling-side optimizations of the paper that a run applies; each
/// can be disabled for ablation studies. `run_imm` derives every run's set
/// representation and job schedule from them. (The adaptive counter update
/// is an argument of the eager kernel in `imm-bench`, the only code that
/// reads it.)
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct EfficientFeatures {
    /// Adaptive sorted-list / bitmap RRR-set representation (§IV-C).
    pub adaptive_representation: bool,
    /// Dynamic producer-consumer job balancing instead of static chunking
    /// (§IV-C).
    pub dynamic_balancing: bool,
}

impl Default for EfficientFeatures {
    fn default() -> Self {
        EfficientFeatures { adaptive_representation: true, dynamic_balancing: true }
    }
}

impl EfficientFeatures {
    /// Every optimization disabled (the "naive RRR-set-partitioned" engine
    /// used as the ablation floor, and the Ripples baseline's sorted lists
    /// in static blocks).
    pub fn none() -> Self {
        EfficientFeatures { adaptive_representation: false, dynamic_balancing: false }
    }

    /// The RRR-set representation policy implied by the flags.
    pub fn representation_policy(&self) -> AdaptivePolicy {
        if self.adaptive_representation {
            AdaptivePolicy::default()
        } else {
            AdaptivePolicy::always_sorted()
        }
    }

    /// The job schedule implied by the flags: [`JOB_CHUNK`]-job pulls from
    /// a shared cursor, or one fixed block per worker.
    pub fn schedule(&self) -> Schedule {
        if self.dynamic_balancing {
            Schedule::Dynamic { chunk: JOB_CHUNK }
        } else {
            Schedule::Static
        }
    }
}

/// How the workflow is executed: parallelism, features and what the result
/// keeps of the sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ExecutionConfig {
    /// Width of every fork-join the run opens: the number of tasks (and of
    /// per-worker scratch slots) each parallel phase splits into. The
    /// tasks run on the process-global `imm-exec` pool, whatever its size.
    pub threads: usize,
    /// The set representation and job schedule of every sampling call the
    /// run makes.
    pub features: EfficientFeatures,
    /// Return the sampled [`imm_rrr::RrrCollection`] in
    /// [`ImmResult::rrr_sets`](crate::ImmResult::rrr_sets) instead of dropping
    /// it, so callers (the `imm-service` sketch index, the CLI stats path) can
    /// reuse the sketches without resampling. Off by default: the collection
    /// can be large and most batch callers only want the seeds.
    pub retain_rrr_sets: bool,
    /// Return per-set sampling provenance (the roots) in
    /// [`ImmResult::provenance`](crate::ImmResult::provenance) — the input
    /// for building an incrementally refreshable `imm-service` index. Off by
    /// default: batch runs discard the sample and have no use for it.
    pub trace_provenance: bool,
}

impl ExecutionConfig {
    /// Configuration with every feature on and the given thread count.
    pub fn new(_: Algorithm, threads: usize) -> Self {
        ExecutionConfig {
            threads: threads.max(1),
            features: EfficientFeatures::default(),
            retain_rrr_sets: false,
            trace_provenance: false,
        }
    }

    /// Opt in (or out) of returning the sampled RRR collection in the result.
    pub fn with_retained_sets(mut self, retain: bool) -> Self {
        self.retain_rrr_sets = retain;
        self
    }

    /// Opt in (or out) of recording per-set sampling provenance.
    pub fn with_provenance(mut self, trace: bool) -> Self {
        self.trace_provenance = trace;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_parameters() {
        let model = DiffusionModel::IndependentCascade;
        assert!(ImmParams::new(0, 0.5, model).validate(100).is_err());
        assert!(ImmParams::new(5, 0.5, model).validate(0).is_err());
        assert!(ImmParams::new(500, 0.5, model).validate(100).is_err());
        assert!(ImmParams::new(5, 0.0, model).validate(100).is_err());
        assert!(ImmParams::new(5, 1.5, model).validate(100).is_err());
        assert!(ImmParams::new(5, 0.5, model).validate(100).is_ok());
    }

    #[test]
    fn with_seed_sets_the_seed() {
        let p = ImmParams::new(3, 0.3, DiffusionModel::LinearThreshold).with_seed(99);
        assert_eq!(p.rng_seed, 99);
    }

    #[test]
    fn execution_config_turns_every_feature_on() {
        let exec = ExecutionConfig::new(Algorithm::Efficient, 4);
        assert_eq!(exec.features, EfficientFeatures::default());
        assert_eq!(exec.features.schedule(), Schedule::Dynamic { chunk: JOB_CHUNK });
        assert_eq!(exec.threads, 4);
        // Zero threads is clamped to one.
        assert_eq!(ExecutionConfig::new(Algorithm::Efficient, 0).threads, 1);
    }

    #[test]
    fn representation_policy_follows_flag() {
        let adaptive = EfficientFeatures::default().representation_policy();
        assert!(adaptive.density_threshold < 1.0);
        let sorted = EfficientFeatures::none().representation_policy();
        assert!(sorted.density_threshold > 1.0);
    }
}
