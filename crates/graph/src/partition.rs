//! Vertex/work partitioning helpers shared by the parallel kernels.
//!
//! Two partitioning shapes show up throughout the paper:
//!
//! * **Block ranges** — contiguous, nearly equal vertex ranges handed to each
//!   thread (Ripples' vertex partitioning of the counter, and the first step
//!   of EfficientIMM's two-level parallel max reduction).
//! * **Interleaved ownership** — round-robin assignment of pages/vertices to
//!   NUMA nodes (the `numactl --interleave` placement the paper uses).

/// A half-open index range `[start, end)` assigned to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// First index owned by the worker.
    pub start: usize,
    /// One past the last index owned by the worker.
    pub end: usize,
}

impl Range {
    /// Number of items in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Iterate over the indices in the range.
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Split `[0, n)` into `parts` contiguous ranges whose sizes differ by at most
/// one. Always returns exactly `parts` ranges (some may be empty when
/// `n < parts`).
///
/// # Panics
/// Panics if `parts == 0`.
pub fn block_ranges(n: usize, parts: usize) -> Vec<Range> {
    assert!(parts > 0, "cannot partition into zero parts");
    let base = n / parts;
    let rem = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        ranges.push(Range { start, end: start + len });
        start += len;
    }
    ranges
}

/// Least bytes of input one thread of the graph load takes: a file range to
/// parse, or a block of destinations whose edges the CSR build scatters.
/// Below twice this, the load stays on the calling thread.
const MIN_SPLIT_BYTES: usize = 1 << 20;

/// How many parts the graph load splits `bytes` of input into: one per
/// available core, but none smaller than [`MIN_SPLIT_BYTES`].
pub(crate) fn split_parts(bytes: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (bytes / MIN_SPLIT_BYTES).clamp(1, cores)
}

/// `work` applied to every item, in item order: the first item on the
/// calling thread, each other one on a scoped thread of its own. A panic
/// in any of them resumes on the caller.
pub(crate) fn map_scoped<I: Send, O: Send>(
    items: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> O + Sync,
) -> Vec<O> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return Vec::new() };
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.push(work(first));
        out.extend(
            spawned.into_iter().map(|handle| {
                handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_everything_without_overlap() {
        for n in [0usize, 1, 7, 100, 1023] {
            for parts in [1usize, 2, 3, 8, 17] {
                let ranges = block_ranges(n, parts);
                assert_eq!(ranges.len(), parts);
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn block_ranges_are_balanced() {
        let ranges = block_ranges(10, 3);
        let sizes: Vec<_> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn block_ranges_zero_parts_panics() {
        block_ranges(10, 0);
    }

    #[test]
    fn range_helpers() {
        let r = Range { start: 3, end: 7 };
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        let e = Range { start: 5, end: 5 };
        assert!(e.is_empty());
    }
}
