//! Dynamic job balancing (§IV-C of the paper).
//!
//! RRR-set sizes vary by orders of magnitude on skewed graphs, so a static
//! `θ/p` split leaves threads idle while one unlucky worker drains a batch of
//! giant sets. The paper's remedy is a producer-consumer scheme in which
//! threads pull fixed-size job batches from a shared queue as they finish.
//!
//! That shared queue is [`JobQueue`]: one atomic cursor. [`run_jobs`]
//! executes `total` jobs under either schedule as one fork-join of
//! `threads` tasks on the process-global `imm-exec` pool, which only forks
//! and joins — the balancing is the cursor's, not the pool's. The worker
//! closure receives `(worker index, job range)` so callers can
//! keep per-worker scratch state (RNGs, local collections, work counters)
//! and preserve the locality benefits the paper notes ("while still
//! preserving the advantages of locality … within each job batch").

use imm_graph::{block_ranges, Range};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How jobs are distributed over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Schedule {
    /// One contiguous `total/p` block per worker, fixed up front (the
    /// Ripples-style split).
    Static,
    /// Workers repeatedly claim the next `chunk` jobs from a shared cursor
    /// until the queue is empty (the paper's dynamic balancing).
    Dynamic {
        /// Jobs claimed per pull.
        chunk: usize,
    },
}

/// A shared queue of job indices `[0, total)` handed out in chunks.
#[derive(Debug)]
pub struct JobQueue {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
}

impl JobQueue {
    /// Queue over `total` jobs with the given chunk size.
    pub fn new(total: usize, chunk: usize) -> Self {
        JobQueue { next: AtomicUsize::new(0), total, chunk: chunk.max(1) }
    }

    /// Claim the next chunk. Returns `None` once all jobs are handed out.
    pub fn claim(&self) -> Option<Range> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(Range { start, end: (start + self.chunk).min(self.total) })
    }

    /// Number of jobs in the queue (claimed or not).
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Execute `total` jobs as `threads` tasks under `schedule`.
///
/// The worker closure is called as `worker(slot, range)` where `slot` is
/// always in `[0, threads)`; ranges never overlap and together cover
/// `[0, total)` exactly once.
///
/// Under the static schedule `slot` is the owning worker's index. Under the
/// dynamic schedule it is the chunk ordinal modulo `threads` — the slot a
/// perfectly balanced dynamic scheduler would hand the chunk to. Callers use
/// the slot for per-worker accounting (work profiles, scratch buffers), so
/// attribution stays deterministic and meaningful even when the physical
/// machine has fewer cores than requested workers and one OS thread happens
/// to drain most of the queue. Shared per-slot state must still be
/// synchronized (two workers can execute chunks with the same slot
/// concurrently).
pub fn run_jobs<F>(threads: usize, total: usize, schedule: Schedule, worker: F)
where
    F: Fn(usize, Range) + Sync,
{
    let threads = threads.max(1);
    if total == 0 {
        return;
    }
    match schedule {
        Schedule::Static => {
            let ranges = block_ranges(total, threads);
            rayon::scope(|s| {
                for (worker_idx, range) in ranges.into_iter().enumerate() {
                    if range.is_empty() {
                        continue;
                    }
                    let worker = &worker;
                    s.spawn(move |_| worker(worker_idx, range));
                }
            });
        }
        Schedule::Dynamic { chunk } => {
            // Clamp the batch size so small job counts still spread across
            // all workers: a chunk bigger than total/(4·threads) would leave
            // most of the pool idle while one worker drains the queue.
            let chunk = chunk.min((total / (4 * threads)).max(1));
            let queue = JobQueue::new(total, chunk);
            rayon::scope(|s| {
                for _ in 0..threads {
                    let queue = &queue;
                    let worker = &worker;
                    s.spawn(move |_| {
                        while let Some(range) = queue.claim() {
                            let slot = (range.start / chunk) % threads;
                            worker(slot, range);
                        }
                    });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashSet;

    #[test]
    fn job_queue_hands_out_disjoint_full_coverage() {
        let q = JobQueue::new(100, 7);
        let mut seen = HashSet::new();
        while let Some(r) = q.claim() {
            for i in r.iter() {
                assert!(seen.insert(i), "job {i} handed out twice");
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn job_queue_empty() {
        let q = JobQueue::new(0, 4);
        assert!(q.claim().is_none());
    }

    #[test]
    fn job_queue_chunk_of_zero_is_clamped() {
        let q = JobQueue::new(3, 0);
        assert_eq!(q.claim(), Some(Range { start: 0, end: 1 }));
    }

    fn check_coverage(schedule: Schedule, total: usize, threads: usize) {
        let seen = Mutex::new(vec![0u32; total]);
        run_jobs(threads, total, schedule, |_, range| {
            let mut guard = seen.lock();
            for i in range.iter() {
                guard[i] += 1;
            }
        });
        let seen = seen.into_inner();
        assert!(seen.iter().all(|&c| c == 1), "every job must run exactly once: {seen:?}");
    }

    #[test]
    fn static_schedule_covers_all_jobs_exactly_once() {
        check_coverage(Schedule::Static, 257, 4);
        check_coverage(Schedule::Static, 3, 8);
        check_coverage(Schedule::Static, 0, 4);
    }

    #[test]
    fn dynamic_schedule_covers_all_jobs_exactly_once() {
        check_coverage(Schedule::Dynamic { chunk: 10 }, 257, 4);
        check_coverage(Schedule::Dynamic { chunk: 1 }, 33, 8);
        check_coverage(Schedule::Dynamic { chunk: 1000 }, 10, 2);
    }

    #[test]
    fn dynamic_schedule_balances_skewed_work() {
        // Job i costs ~i, so a static split gives the last worker far more
        // work. With dynamic chunks the per-worker totals must be close.
        let threads = 4;
        let total = 400usize;
        let per_worker = Mutex::new(vec![0u64; threads]);
        run_jobs(threads, total, Schedule::Dynamic { chunk: 4 }, |w, range| {
            // Simulate work proportional to the job index.
            let mut acc = 0u64;
            for i in range.iter() {
                for j in 0..i {
                    acc = acc.wrapping_add(j as u64);
                }
            }
            std::hint::black_box(acc);
            let cost: u64 = range.iter().map(|i| i as u64).sum();
            per_worker.lock()[w] += cost;
        });
        let per_worker = per_worker.into_inner();
        let total_cost: u64 = per_worker.iter().sum();
        let expected: u64 = (0..total as u64).sum();
        assert_eq!(total_cost, expected);
    }

    #[test]
    fn worker_indices_stay_in_range() {
        let threads = 3;
        let max_seen = Mutex::new(0usize);
        run_jobs(threads, 50, Schedule::Dynamic { chunk: 5 }, |w, _| {
            let mut guard = max_seen.lock();
            *guard = (*guard).max(w);
        });
        assert!(*max_seen.lock() < threads);
    }
}
