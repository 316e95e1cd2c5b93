//! The two diffusion models the paper evaluates.

/// Which diffusion process edge weights are interpreted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum DiffusionModel {
    /// Independent Cascade: a newly activated vertex `u` gets one chance to
    /// activate each out-neighbor `v`, succeeding with probability `p_uv`.
    IndependentCascade,
    /// Linear Threshold: each vertex draws a threshold uniformly from
    /// `[0, 1]` and activates once the summed weight of its activated
    /// in-neighbors reaches it.
    LinearThreshold,
}

impl DiffusionModel {
    /// Short lowercase name used in CLI flags and benchmark output
    /// (`"ic"` / `"lt"`, matching the paper's artifact scripts).
    pub fn short_name(&self) -> &'static str {
        match self {
            DiffusionModel::IndependentCascade => "ic",
            DiffusionModel::LinearThreshold => "lt",
        }
    }

    /// Parse the short name (case-insensitive). Returns `None` for anything
    /// else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "ic" | "independent_cascade" | "independentcascade" => {
                Some(DiffusionModel::IndependentCascade)
            }
            "lt" | "linear_threshold" | "linearthreshold" => Some(DiffusionModel::LinearThreshold),
            _ => None,
        }
    }
}

impl std::fmt::Display for DiffusionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffusionModel::IndependentCascade => write!(f, "Independent Cascade"),
            DiffusionModel::LinearThreshold => write!(f, "Linear Threshold"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_round_trip() {
        for m in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            assert_eq!(DiffusionModel::parse(m.short_name()), Some(m));
        }
    }

    #[test]
    fn parse_accepts_long_names_and_mixed_case() {
        assert_eq!(DiffusionModel::parse("IC"), Some(DiffusionModel::IndependentCascade));
        assert_eq!(
            DiffusionModel::parse("Linear_Threshold"),
            Some(DiffusionModel::LinearThreshold)
        );
        assert_eq!(DiffusionModel::parse("bogus"), None);
    }

    #[test]
    fn display_is_human_readable() {
        assert!(DiffusionModel::IndependentCascade.to_string().contains("Cascade"));
        assert!(DiffusionModel::LinearThreshold.to_string().contains("Threshold"));
    }
}
