//! Windowed events/sec meter in the dataplane `rate.rs` style.
//!
//! The write side is a plain monotonic event counter (one relaxed
//! `fetch_add` per [`RateMeter::mark`]). The *read* side anchors a
//! `(instant, count)` pair behind a mutex and, whenever enough wall
//! clock has passed since the anchor, folds the elapsed window into a
//! fresh events/sec figure. All clock reads and locking happen on the
//! cold snapshot path only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{Metric, MetricKind, MetricValue, Unit};

/// Minimum window folded into a rate; shorter gaps reuse the last figure.
const MIN_WINDOW_NANOS: u128 = 1_000_000; // 1ms

#[derive(Debug)]
struct Window {
    anchor: Option<(Instant, u64)>,
    rate: f64,
}

/// A windowed events-per-second meter with a monotonic event count.
#[derive(Debug)]
pub struct RateMeter {
    name: &'static str,
    description: &'static str,
    events: AtomicU64,
    window: Mutex<Window>,
}

impl RateMeter {
    /// A fresh meter (used in `static` position).
    pub const fn new(name: &'static str, description: &'static str) -> Self {
        RateMeter {
            name,
            description,
            events: AtomicU64::new(0),
            window: Mutex::new(Window { anchor: None, rate: 0.0 }),
        }
    }

    /// Count one event: a single relaxed `fetch_add`.
    #[inline]
    pub fn mark(&self) {
        self.add(1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "obs-off"))]
        self.events.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = n;
    }

    /// Total events since process start.
    #[inline]
    pub fn count(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Events/sec over the window since the last anchor (cold path:
    /// reads the clock and takes a lock). The first call anchors and
    /// returns `0.0`.
    pub fn rate(&self) -> f64 {
        let count = self.count();
        let now = Instant::now();
        let mut w = self.window.lock().expect("rate meter window poisoned");
        match w.anchor {
            None => {
                w.anchor = Some((now, count));
                w.rate = 0.0;
            }
            Some((at, prev)) => {
                let elapsed = now.duration_since(at).as_nanos();
                if elapsed >= MIN_WINDOW_NANOS {
                    w.rate = (count.saturating_sub(prev)) as f64 * 1e9 / elapsed as f64;
                    w.anchor = Some((now, count));
                }
            }
        }
        w.rate
    }
}

impl Metric for RateMeter {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn unit(&self) -> Unit {
        Unit::EventsPerSecond
    }
    fn kind(&self) -> MetricKind {
        MetricKind::Rate
    }
    fn value(&self) -> MetricValue {
        MetricValue::Rate(RateSnapshot { count: self.count(), per_sec: self.rate() })
    }
}

/// A point-in-time rate readout.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSnapshot {
    /// Total events since process start.
    pub count: u64,
    /// Events/sec over the most recent window.
    pub per_sec: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rate_reflects_marks_over_a_window() {
        static M: RateMeter = RateMeter::new("test_rate", "a test meter");
        assert_eq!(M.rate(), 0.0); // anchors
        for _ in 0..100 {
            M.mark();
        }
        std::thread::sleep(Duration::from_millis(5));
        let r = M.rate();
        if crate::recording_enabled() {
            assert_eq!(M.count(), 100);
            assert!(r > 0.0, "rate should be positive after marks, got {r}");
        } else {
            assert_eq!(M.count(), 0);
        }
    }
}
