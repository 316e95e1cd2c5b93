//! The one JSON shape for `imm-obs` registry exports.
//!
//! Every export — `stats --metrics`, `query --metrics` and the daemon's
//! `metrics` verb, whose provider the `serve` command wires to
//! [`registry_json`] — serializes samples through [`samples_json`], so the
//! three can never drift. The shape is versioned on its own:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "recording_enabled": true,
//!   "metrics": [
//!     { "name": "...", "kind": "counter",   "unit": "count", "description": "...", "value": 7 },
//!     { "name": "...", "kind": "gauge",     "unit": "ratio", "description": "...", "value": 1.25 },
//!     { "name": "...", "kind": "histogram", "unit": "nanoseconds", "description": "...",
//!       "value": { "count": 9, "p50": 95, "p90": 127, "p99": 127, "max": 127,
//!                  "buckets": [[95, 5], [127, 4]] } }
//!   ]
//! }
//! ```
//!
//! Metrics are sorted by name; histogram `buckets` are the non-empty
//! `(inclusive upper bound, count)` pairs, ascending. Bumping
//! [`METRICS_SCHEMA_VERSION`] is a breaking change to every dashboard
//! keyed on this shape and must be deliberate.

use imm_obs::{MetricValue, Sample};
use serde_json::{json, Value};

/// Version of the metrics JSON shape.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Register every subsystem's metrics with the global registry, whether
/// or not the calling process happened to construct the engines that
/// would register them organically. Exporters call this first so a
/// snapshot always lists the full workspace catalog (unused metrics
/// read zero).
pub fn register_workspace_metrics() {
    imm_exec::metrics::register();
    efficient_imm::metrics::register();
    imm_service::metrics::register();
    imm_shard::metrics::register();
    imm_serve::metrics::register();
    imm_store::metrics::register();
}

/// One sample in the documented shape.
fn sample_json(s: &Sample) -> Value {
    let value = match &s.value {
        MetricValue::Counter(v) => json!(v),
        MetricValue::Gauge(v) => json!(v),
        MetricValue::Histogram(h) => json!({
            "count": h.count,
            "p50": h.p50,
            "p90": h.p90,
            "p99": h.p99,
            "max": h.max,
            "buckets": h.buckets.iter().map(|&(ub, c)| json!([ub, c])).collect::<Vec<_>>(),
        }),
    };
    json!({
        "name": s.name,
        "kind": s.kind.as_str(),
        "unit": s.unit.as_str(),
        "description": s.description,
        "value": value,
    })
}

/// Serialize a sample list in the documented, versioned shape.
pub fn samples_json(samples: &[Sample]) -> Value {
    json!({
        "schema_version": METRICS_SCHEMA_VERSION,
        "recording_enabled": imm_obs::recording_enabled(),
        "metrics": samples.iter().map(sample_json).collect::<Vec<_>>(),
    })
}

/// Snapshot the full registry (after [`register_workspace_metrics`]) in
/// the documented shape.
pub fn registry_json() -> Value {
    register_workspace_metrics();
    samples_json(&imm_obs::snapshot())
}

/// The markdown metric catalog (name, kind, unit, description), sorted
/// by name — the exact text of the README's "Observability" section,
/// emitted by `stats --metrics --describe` so docs cannot drift.
pub fn catalog_markdown() -> String {
    register_workspace_metrics();
    let mut out = String::from("| Metric | Kind | Unit | Description |\n|---|---|---|---|\n");
    for s in imm_obs::snapshot() {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            s.name,
            s.kind.as_str(),
            s.unit.as_str(),
            s.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_json_has_the_documented_shape() {
        let v = registry_json();
        assert_eq!(v["schema_version"], json!(METRICS_SCHEMA_VERSION));
        let metrics = v["metrics"].as_array().expect("metrics array");
        assert!(!metrics.is_empty());
        for m in metrics {
            for key in ["name", "kind", "unit", "description", "value"] {
                assert!(!m[key].is_null(), "sample missing {key}: {m:?}");
            }
        }
        // Sorted by name.
        let names: Vec<&str> = metrics.iter().map(|m| m["name"].as_str().unwrap()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn catalog_lists_every_registered_metric() {
        let catalog = catalog_markdown();
        for s in imm_obs::snapshot() {
            assert!(catalog.contains(&format!("| `{}` |", s.name)), "{} missing", s.name);
        }
    }
}
