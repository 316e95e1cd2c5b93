//! Max-over-window sampling: turn racy point-in-time reads into a
//! defensible metric.
//!
//! Some quantities can only be observed by *peeking* — the daemon's
//! in-flight request count, say. One such read is racy: it describes the
//! instant of the read, can miss every burst between reads, and two
//! observers see different values, so reporting that raw read as a
//! metric is a bug. The fix is the standard one: a sampler
//! peeks on a fixed cadence, pushes each observation into a
//! [`MaxWindow`], and the *maximum over the last W samples* is what a
//! gauge exports — a stable high-water mark that catches bursts at
//! sampling resolution instead of an arbitrary instant.

/// Rolling maximum over the last `window` observations.
///
/// Not thread-safe by design: one sampler thread owns the window and
/// publishes the rolling max into an atomic [`Gauge`](crate::Gauge).
/// The window is a fixed ring, so `record` is O(window) worst case and
/// allocation-free after construction.
#[derive(Debug)]
pub struct MaxWindow {
    ring: Vec<u64>,
    next: usize,
    filled: usize,
}

impl MaxWindow {
    /// A window remembering the last `window` samples (clamped ≥ 1).
    pub fn new(window: usize) -> Self {
        MaxWindow { ring: vec![0; window.max(1)], next: 0, filled: 0 }
    }

    /// Push one observation; returns the maximum over the stored window
    /// (including this sample).
    pub fn record(&mut self, value: u64) -> u64 {
        self.ring[self.next] = value;
        self.next = (self.next + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());
        self.max()
    }

    /// Maximum over the currently stored samples (0 when empty).
    pub fn max(&self) -> u64 {
        // Before the ring wraps, only `ring[..filled]` holds real samples;
        // once full, every slot does (and `filled == ring.len()`).
        self.ring[..self.filled].iter().copied().max().unwrap_or(0)
    }

    /// How many samples the window currently holds.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_tracks_the_window_not_all_history() {
        let mut w = MaxWindow::new(3);
        assert_eq!(w.record(5), 5);
        assert_eq!(w.record(2), 5);
        assert_eq!(w.record(1), 5);
        // The fourth sample evicts the 5; the window is now {3, 2, 1}.
        assert_eq!(w.record(3), 3);
        assert_eq!(w.record(0), 3);
        assert_eq!(w.record(0), 3);
        // Three zeros in a row flush the 3 out.
        assert_eq!(w.record(0), 0);
    }

    #[test]
    fn empty_window_reports_zero() {
        let w = MaxWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.max(), 0);
    }

    #[test]
    fn window_of_one_is_the_last_sample() {
        let mut w = MaxWindow::new(1);
        assert_eq!(w.record(9), 9);
        assert_eq!(w.record(2), 2);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let mut w = MaxWindow::new(0);
        assert_eq!(w.record(7), 7);
        assert_eq!(w.record(1), 1);
    }
}
