//! `imm-obs`: the workspace-wide observability layer.
//!
//! Generalizes the PR 6 `imm-exec` counter idiom (static lazy metrics in
//! the metriken style: a `static` with a stable name and a human
//! description, mutated with relaxed atomics, zero cost when nobody
//! reads it) into three metric kinds plus a process-global registry:
//!
//! * [`Counter`] — monotonic `u64`, one relaxed `fetch_add` per event.
//! * [`Gauge`] — last-written `f64` (stored as bits in an `AtomicU64`),
//!   for point-in-time values such as a load-imbalance ratio.
//! * [`Histogram`] (a.k.a. [`LatencyHistogram`]) — lock-free fixed-bucket
//!   log-linear histogram; one relaxed `fetch_add` per recorded value,
//!   p50/p90/p99/max on readout with bounded relative error.
//!
//! # Naming convention
//!
//! Metric names are stable, snake_case (`[a-z][a-z0-9_]*`), and prefixed
//! with the subsystem that owns them: `exec_` (runtime), `core_`
//! (sampling and selection), `service_` (query serving + dynamic refresh),
//! `shard_` (shard map), `serve_` (daemon), `store_` (snapshot storage).
//! Units are carried as a structured [`Unit`] tag, never baked into the
//! name, so `service_topk_latency` can switch resolution without a rename.
//! Descriptions are full sentences; the README's "Observability" catalog is
//! generated from them (via `stats --metrics --describe`) so prose cannot
//! drift from code.
//!
//! # Registry
//!
//! Each subsystem declares its metrics in one [`metrics!`] block. The
//! macro generates the `static`s and one `register()` that adds all of
//! them to the registry (through [`register`]) behind a private
//! `std::sync::Once`, so registration is generated, not written per
//! subsystem; constructor sites call it — never a hot path. [`snapshot`]
//! samples every registered metric as structured [`Sample`]s, and
//! [`delta`] subtracts two snapshots for before/after reporting.
//!
//! # Compile-out guard
//!
//! With the `obs-off` feature every mutation compiles to a no-op (the
//! perf suite uses this to prove the instrumentation's cost is within
//! noise); [`recording_enabled`] reports which build this is.

pub mod histogram;
pub mod registry;

use std::sync::atomic::{AtomicU64, Ordering};

pub use histogram::{Histogram, HistogramSnapshot, LatencyHistogram};
pub use registry::{delta, register, snapshot, Metric, MetricKind, MetricValue, Sample};

/// Declare a subsystem's metrics: one documented `static` per entry and one
/// `pub fn register()` that adds every entry to the process-global registry
/// exactly once.
///
/// An entry is `pub NAME: Kind = "name", "description";`, where `Kind` is
/// [`Counter`], [`Gauge`] or [`Histogram`], with a trailing `, Unit` (a
/// [`Unit`] variant): required by gauges and histograms, optional for
/// counters (default `Count`). The description is the static's doc comment;
/// `///` lines written above an entry follow it.
///
/// ```
/// imm_obs::metrics! {
///     pub HITS: Counter = "example_hits", "Lookups answered from the table";
///     pub FILL: Gauge = "example_fill", "Share of the table in use", Ratio;
/// }
///
/// register();
/// register(); // idempotent
/// HITS.increment();
/// FILL.set(0.5);
/// ```
#[macro_export]
macro_rules! metrics {
    (@new Counter, $name:literal, $description:literal, $unit:ident) => {
        $crate::Counter::with_unit($name, $description, $crate::Unit::$unit)
    };
    (@new $kind:ident, $name:literal, $description:literal $(, $unit:ident)?) => {
        $crate::$kind::new($name, $description $(, $crate::Unit::$unit)?)
    };
    ($(
        $(#[$attr:meta])*
        pub $static:ident: $kind:ident = $name:literal, $description:literal $(, $unit:ident)?;
    )*) => {
        $(
            #[doc = $description]
            #[doc = ""]
            $(#[$attr])*
            pub static $static: $crate::$kind =
                $crate::metrics!(@new $kind, $name, $description $(, $unit)?);
        )*

        /// Register this module's metrics with the process-global `imm-obs`
        /// registry. Idempotent; called from constructor sites, never per
        /// event.
        pub fn register() {
            static ONCE: ::std::sync::Once = ::std::sync::Once::new();
            ONCE.call_once(|| $crate::register(&[$(&$static as &'static dyn $crate::Metric),*]));
        }
    };
}

/// Whether this build actually records events (`false` under `obs-off`).
pub const fn recording_enabled() -> bool {
    cfg!(not(feature = "obs-off"))
}

/// The unit a metric is measured in, exported as a structured tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Plain event or object count.
    Count,
    /// Durations in nanoseconds.
    Nanoseconds,
    /// Memory sizes in bytes.
    Bytes,
    /// A dimensionless ratio (e.g. max/mean load imbalance).
    Ratio,
}

impl Unit {
    /// Stable snake_case tag used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Nanoseconds => "nanoseconds",
            Unit::Bytes => "bytes",
            Unit::Ratio => "ratio",
        }
    }
}

/// A named monotonic counter with a registered description.
///
/// The hot path ([`increment`](Counter::increment) / [`add`](Counter::add))
/// is a single relaxed `fetch_add`; under `obs-off` it compiles away.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    description: &'static str,
    unit: Unit,
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter (used in `static` position), unit [`Unit::Count`].
    pub const fn new(name: &'static str, description: &'static str) -> Self {
        Counter { name, description, unit: Unit::Count, value: AtomicU64::new(0) }
    }

    /// A fresh counter with an explicit unit (e.g. [`Unit::Bytes`]).
    pub const fn with_unit(name: &'static str, description: &'static str, unit: Unit) -> Self {
        Counter { name, description, unit, value: AtomicU64::new(0) }
    }

    /// Add one.
    #[inline]
    pub fn increment(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "obs-off"))]
        self.value.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = n;
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Metric for Counter {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn unit(&self) -> Unit {
        self.unit
    }
    fn kind(&self) -> MetricKind {
        MetricKind::Counter
    }
    fn value(&self) -> MetricValue {
        MetricValue::Counter(self.value())
    }
}

/// A last-written point-in-time `f64` value (bits in an `AtomicU64`).
///
/// Used for values that are *set*, not accumulated — e.g. the shard
/// load-imbalance ratio recomputed at build/refresh time.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    description: &'static str,
    unit: Unit,
    bits: AtomicU64,
}

impl Gauge {
    /// A fresh gauge (used in `static` position), initial value `0.0`.
    pub const fn new(name: &'static str, description: &'static str, unit: Unit) -> Self {
        Gauge { name, description, unit, bits: AtomicU64::new(0) }
    }

    /// Store a new value (relaxed store; last writer wins).
    #[inline]
    pub fn set(&self, value: f64) {
        #[cfg(not(feature = "obs-off"))]
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = value;
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl Metric for Gauge {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn unit(&self) -> Unit {
        self.unit
    }
    fn kind(&self) -> MetricKind {
        MetricKind::Gauge
    }
    fn value(&self) -> MetricValue {
        MetricValue::Gauge(self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        static C: Counter = Counter::new("test_lib_counter", "a test counter");
        assert_eq!(C.value(), 0);
        C.increment();
        C.add(4);
        if recording_enabled() {
            assert_eq!(C.value(), 5);
        } else {
            assert_eq!(C.value(), 0);
        }
        assert_eq!(C.name(), "test_lib_counter");
        assert_eq!(C.description(), "a test counter");
        assert_eq!(C.unit(), Unit::Count);
    }

    mod declared {
        crate::metrics! {
            pub HITS: Counter = "test_macro_hits", "a declared counter";
            pub FILL: Gauge = "test_macro_fill", "a declared gauge", Ratio;
        }
    }

    #[test]
    fn metrics_macro_registers_every_entry_once() {
        declared::register();
        declared::register();
        let registered: Vec<_> = snapshot()
            .into_iter()
            .filter(|s| s.name.starts_with("test_macro_"))
            .map(|s| (s.name, s.kind, s.unit, s.description))
            .collect();
        assert_eq!(
            registered,
            [
                ("test_macro_fill", MetricKind::Gauge, Unit::Ratio, "a declared gauge"),
                ("test_macro_hits", MetricKind::Counter, Unit::Count, "a declared counter"),
            ]
        );
    }

    #[test]
    fn gauge_stores_last_value() {
        static G: Gauge = Gauge::new("test_lib_gauge", "a test gauge", Unit::Ratio);
        assert_eq!(G.value(), 0.0);
        G.set(1.5);
        G.set(2.25);
        if recording_enabled() {
            assert_eq!(G.value(), 2.25);
        }
    }

    #[test]
    fn unit_tags_are_snake_case() {
        for unit in [Unit::Count, Unit::Nanoseconds, Unit::Bytes, Unit::Ratio] {
            let tag = unit.as_str();
            assert!(tag.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
