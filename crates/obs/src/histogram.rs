//! Lock-free fixed-bucket log-linear histogram.
//!
//! The bucket layout is the HDR/"h2" scheme with `GROUPING_BITS = 3`:
//! values below `2^3 = 8` get exact unit buckets; above that, every
//! power-of-two octave is split into 8 linear sub-buckets, so any
//! recorded value lands in a bucket whose width is at most 1/8 of the
//! value — percentile readouts carry a bounded relative error of 12.5%.
//! The whole `u64` range fits in [`NUM_BUCKETS`] buckets (~4 KiB of
//! atomics per histogram), so [`Histogram::record`] is exactly one
//! relaxed `fetch_add` with no allocation, locking, or resizing — safe
//! on any hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::{Metric, MetricKind, MetricValue, Unit};

/// Sub-bucket resolution: each octave is split into `2^GROUPING_BITS`
/// linear buckets.
pub const GROUPING_BITS: u32 = 3;

const SUB: u64 = 1 << GROUPING_BITS;

/// Total bucket count covering the full `u64` range.
pub const NUM_BUCKETS: usize =
    ((64 - GROUPING_BITS as usize - 1) * SUB as usize) + SUB as usize * 2;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let h = 63 - value.leading_zeros() as u64; // position of the top bit, >= GROUPING_BITS
        let shift = h - GROUPING_BITS as u64;
        let sub = (value >> shift) - SUB; // 0..SUB within the octave
        (((h - GROUPING_BITS as u64 + 1) * SUB) + sub) as usize
    }
}

/// Inclusive `(lower, upper)` value range of bucket `index`.
pub fn bucket_range(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < SUB {
        (i, i)
    } else {
        let octave = i / SUB; // 1-based octave group
        let sub = i % SUB;
        let h = octave + GROUPING_BITS as u64 - 1;
        let shift = h - GROUPING_BITS as u64;
        let lower = (SUB + sub) << shift;
        let upper = lower + ((1u64 << shift) - 1);
        (lower, upper)
    }
}

/// A lock-free latency/size histogram with log-spaced fixed buckets.
///
/// `record` is one relaxed atomic increment; readout walks the bucket
/// array and reports count, p50/p90/p99 and max as the *upper bound* of
/// the bucket containing that rank (never an underestimate, at most
/// 12.5% above the true value).
pub struct Histogram {
    name: &'static str,
    description: &'static str,
    unit: Unit,
    buckets: [AtomicU64; NUM_BUCKETS],
}

/// Alias emphasizing the primary use: per-query-type latency tracking.
pub type LatencyHistogram = Histogram;

impl Histogram {
    /// A fresh histogram (used in `static` position).
    pub const fn new(name: &'static str, description: &'static str, unit: Unit) -> Self {
        Histogram { name, description, unit, buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS] }
    }

    /// Record one observation: a single relaxed `fetch_add`.
    #[inline]
    pub fn record(&self, value: u64) {
        #[cfg(not(feature = "obs-off"))]
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = value;
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Run `f`, recording its wall-clock duration in nanoseconds.
    ///
    /// Under `obs-off` the clock is never read: this is just `f()`.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        #[cfg(not(feature = "obs-off"))]
        {
            let start = std::time::Instant::now();
            let out = f();
            self.record_duration(start.elapsed());
            out
        }
        #[cfg(feature = "obs-off")]
        {
            f()
        }
    }

    /// Sample every bucket and derive count/percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_range(i).1, c));
            }
        }
        HistogramSnapshot::from_buckets(buckets)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Metric for Histogram {
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
        MetricKind::Histogram
    }
    fn value(&self) -> MetricValue {
        MetricValue::Histogram(self.snapshot())
    }
}

/// A point-in-time histogram readout: total count, percentile upper
/// bounds, and the non-empty `(bucket_upper_bound, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Upper bound of the bucket holding the median observation.
    pub p50: u64,
    /// 90th-percentile bucket upper bound.
    pub p90: u64,
    /// 99th-percentile bucket upper bound.
    pub p99: u64,
    /// Upper bound of the highest non-empty bucket.
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Build a snapshot (count + percentiles) from sorted non-empty
    /// `(upper_bound, count)` pairs.
    pub fn from_buckets(buckets: Vec<(u64, u64)>) -> Self {
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        let max = buckets.last().map_or(0, |&(ub, _)| ub);
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64 * q).ceil() as u64).max(1);
            let mut cum = 0u64;
            for &(ub, c) in &buckets {
                cum += c;
                if cum >= rank {
                    return ub;
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
            max,
            buckets,
        }
    }

    /// The observations recorded between `earlier` and `self`
    /// (per-bucket saturating subtraction; percentiles recomputed over
    /// the difference).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut diff = Vec::with_capacity(self.buckets.len());
        let mut prev = earlier.buckets.iter().peekable();
        for &(ub, c) in &self.buckets {
            let mut before = 0;
            while let Some(&&(pub_, pc)) = prev.peek() {
                if pub_ < ub {
                    prev.next();
                } else {
                    if pub_ == ub {
                        before = pc;
                    }
                    break;
                }
            }
            let d = c.saturating_sub(before);
            if d > 0 {
                diff.push((ub, d));
            }
        }
        HistogramSnapshot::from_buckets(diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_below_the_first_octave() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_range(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_ranges_tile_the_u64_line() {
        let mut expected_lower = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, expected_lower, "bucket {i} lower bound");
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            if i == NUM_BUCKETS - 1 {
                assert_eq!(hi, u64::MAX);
            } else {
                expected_lower = hi + 1;
            }
        }
    }

    #[test]
    fn delta_subtracts_buckets() {
        let before = HistogramSnapshot::from_buckets(vec![(3, 2), (7, 1)]);
        let after = HistogramSnapshot::from_buckets(vec![(3, 5), (7, 1), (15, 4)]);
        let d = after.delta(&before);
        assert_eq!(d.count, 7);
        assert_eq!(d.buckets, vec![(3, 3), (15, 4)]);
        assert_eq!(d.max, 15);
    }
}
