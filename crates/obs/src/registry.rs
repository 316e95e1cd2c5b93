//! The process-global metric registry.
//!
//! Each subsystem's [`metrics!`](crate::metrics) block generates the
//! `register()` that adds its `static`s here once (behind a private
//! `std::sync::Once`, called at constructor sites — never on a hot path),
//! and exporters call [`snapshot`] to sample everything as structured
//! [`Sample`]s. Registration is idempotent (duplicate pointers are
//! dropped) and growable — adding a metric never touches a call site.
//! Name hygiene (uniqueness, snake_case) is enforced by a workspace-wide
//! gate test over the snapshot, not at registration time.

use std::sync::Mutex;

use crate::histogram::HistogramSnapshot;
use crate::Unit;

/// The interface every registrable metric implements.
pub trait Metric: Sync {
    /// Stable snake_case metric name (see the crate docs' convention).
    fn name(&self) -> &'static str;
    /// Human description (a full sentence; feeds the README catalog).
    fn description(&self) -> &'static str;
    /// Unit tag.
    fn unit(&self) -> Unit;
    /// Which of the three metric kinds this is.
    fn kind(&self) -> MetricKind;
    /// Sample the current value.
    fn value(&self) -> MetricValue;
}

/// The three metric kinds the registry understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` counter.
    Counter,
    /// Last-written `f64` gauge.
    Gauge,
    /// Fixed-bucket log-linear histogram.
    Histogram,
}

impl MetricKind {
    /// Stable snake_case tag used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A sampled metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram readout (count, percentiles, buckets).
    Histogram(HistogramSnapshot),
}

/// One sampled metric with its full metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Stable metric name.
    pub name: &'static str,
    /// Metric kind.
    pub kind: MetricKind,
    /// Unit tag.
    pub unit: Unit,
    /// Human description.
    pub description: &'static str,
    /// Value at snapshot time.
    pub value: MetricValue,
}

static REGISTRY: Mutex<Vec<&'static dyn Metric>> = Mutex::new(Vec::new());

/// Register metrics into the process-global registry.
///
/// Idempotent: a metric already registered (same `static`) is skipped,
/// so every subsystem can call its `register()` freely from multiple
/// constructor sites.
pub fn register(metrics: &[&'static dyn Metric]) {
    let mut reg = REGISTRY.lock().expect("metric registry poisoned");
    for &m in metrics {
        let p = m as *const dyn Metric as *const ();
        if !reg.iter().any(|&e| std::ptr::eq(e as *const dyn Metric as *const (), p)) {
            reg.push(m);
        }
    }
}

/// Sample every registered metric, sorted by name for stable output.
pub fn snapshot() -> Vec<Sample> {
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    let mut samples: Vec<Sample> = reg
        .iter()
        .map(|m| Sample {
            name: m.name(),
            kind: m.kind(),
            unit: m.unit(),
            description: m.description(),
            value: m.value(),
        })
        .collect();
    drop(reg);
    samples.sort_by_key(|s| s.name);
    samples
}

/// What happened between two snapshots, matched by metric name.
///
/// Counters subtract (saturating); histograms subtract
/// per bucket and recompute percentiles over the difference; gauges
/// report their `after` value. Metrics present only in `after` (newly
/// registered) are passed through unchanged.
pub fn delta(before: &[Sample], after: &[Sample]) -> Vec<Sample> {
    after
        .iter()
        .map(|a| {
            let b = before.iter().find(|b| b.name == a.name);
            let value = match (&a.value, b.map(|b| &b.value)) {
                (MetricValue::Counter(av), Some(MetricValue::Counter(bv))) => {
                    MetricValue::Counter(av.saturating_sub(*bv))
                }
                (MetricValue::Histogram(av), Some(MetricValue::Histogram(bv))) => {
                    MetricValue::Histogram(av.delta(bv))
                }
                // Gauges (and kind mismatches, which the gate test rules
                // out) keep the later reading.
                (v, _) => v.clone(),
            };
            Sample { value, ..a.clone() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge};

    static A: Counter = Counter::new("test_registry_a", "registry test counter a");
    static B: Gauge = Gauge::new("test_registry_b", "registry test gauge b", Unit::Ratio);

    #[test]
    fn register_is_idempotent_and_snapshot_sorts_by_name() {
        register(&[&B, &A]);
        register(&[&A, &B]); // second call must not duplicate
        let samples: Vec<_> =
            snapshot().into_iter().filter(|s| s.name.starts_with("test_registry_")).collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "test_registry_a");
        assert_eq!(samples[1].name, "test_registry_b");
        assert_eq!(samples[0].kind, MetricKind::Counter);
        assert_eq!(samples[1].kind, MetricKind::Gauge);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let before = vec![Sample {
            name: "c",
            kind: MetricKind::Counter,
            unit: Unit::Count,
            description: "",
            value: MetricValue::Counter(3),
        }];
        let after = vec![
            Sample {
                name: "c",
                kind: MetricKind::Counter,
                unit: Unit::Count,
                description: "",
                value: MetricValue::Counter(10),
            },
            Sample {
                name: "g",
                kind: MetricKind::Gauge,
                unit: Unit::Ratio,
                description: "",
                value: MetricValue::Gauge(1.5),
            },
        ];
        let d = delta(&before, &after);
        assert_eq!(d[0].value, MetricValue::Counter(7));
        assert_eq!(d[1].value, MetricValue::Gauge(1.5));
    }
}
