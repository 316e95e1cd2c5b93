//! Dynamic job balancing (§IV-C of the paper).
//!
//! RRR-set sizes vary by orders of magnitude on skewed graphs, so a static
//! `θ/p` split leaves threads idle while one unlucky worker drains a batch of
//! giant sets. The paper's remedy is a producer-consumer scheme in which
//! threads pull fixed-size job batches from a shared queue as they finish.
//!
//! That shared queue is [`JobQueue`]: one atomic cursor. [`run_tasks`]
//! executes `total` jobs under either schedule as one fork-join of
//! `threads` tasks on the process-global `imm-exec` pool, which only forks
//! and joins — the balancing is the cursor's, not the pool's. Each task
//! keeps one state for the whole call (scratch, output, tallies), made at
//! its first job range and handed back after the join, and the worker
//! closure receives `(state, slot, job range)`; the slot is the per-worker
//! attribution index. That preserves the locality benefits the paper notes
//! ("while still preserving the advantages of locality … within each job
//! batch") across every range a task drains.

use imm_graph::{block_ranges, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Jobs a worker claims per pull when a run balances dynamically
/// ([`EfficientFeatures::schedule`](crate::EfficientFeatures::schedule)).
pub const JOB_CHUNK: usize = 64;

/// How jobs are distributed over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Schedule {
    /// One contiguous `total/p` block per worker, fixed up front (the
    /// Ripples baseline's split).
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

/// Execute `total` jobs as `threads` tasks under `schedule`, each task with
/// one state for the whole call.
///
/// A task makes its state with `init` when it takes its first job range,
/// then calls `worker(&mut state, slot, range)` for every range it takes;
/// `slot` is always in `[0, threads)`, and the ranges never overlap and
/// together cover `[0, total)` exactly once. The states of the tasks that
/// took a range come back after the join, in no particular order (a task
/// that took none made none).
///
/// Under the static schedule each task takes one range and `slot` is the
/// owning worker's index. Under the dynamic schedule tasks take chunks off
/// the shared cursor until it runs dry, and `slot` is the chunk ordinal
/// modulo `threads` — the slot a perfectly balanced dynamic scheduler would
/// hand the chunk to. Callers use the slot for per-worker accounting (work
/// profiles), so attribution stays deterministic and meaningful even when
/// the physical machine has fewer cores than requested workers and one OS
/// thread happens to drain most of the queue. Shared per-slot state must
/// still be synchronized (two tasks can execute chunks with the same slot
/// concurrently).
pub fn run_tasks<S, I, F>(
    threads: usize,
    total: usize,
    schedule: Schedule,
    init: I,
    worker: F,
) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range) + Sync,
{
    let threads = threads.max(1);
    if total == 0 {
        return Vec::new();
    }
    let states = Mutex::new(Vec::new());
    // One task: its ranges, in the order it takes them, then its state.
    let task = |ranges: &mut dyn Iterator<Item = (usize, Range)>| {
        let mut state = None;
        for (slot, range) in ranges {
            worker(state.get_or_insert_with(&init), slot, range);
        }
        states.lock().unwrap_or_else(PoisonError::into_inner).extend(state);
    };
    match schedule {
        Schedule::Static => {
            let ranges = block_ranges(total, threads);
            rayon::scope(|s| {
                for (worker_idx, range) in ranges.into_iter().enumerate() {
                    if range.is_empty() {
                        continue;
                    }
                    let task = &task;
                    s.spawn(move |_| task(&mut std::iter::once((worker_idx, range))));
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
                    let (queue, task) = (&queue, &task);
                    s.spawn(move |_| {
                        let claims = std::iter::from_fn(|| queue.claim());
                        task(&mut claims.map(|range| ((range.start / chunk) % threads, range)))
                    });
                }
            });
        }
    }
    states.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// [`run_tasks`] without task state: `worker(slot, range)` per range.
    fn run_jobs(
        threads: usize,
        total: usize,
        schedule: Schedule,
        worker: impl Fn(usize, Range) + Sync,
    ) {
        run_tasks(threads, total, schedule, || (), |_, slot, range| worker(slot, range));
    }

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
            let mut guard = seen.lock().unwrap();
            for i in range.iter() {
                guard[i] += 1;
            }
        });
        let seen = seen.into_inner().unwrap();
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
            per_worker.lock().unwrap()[w] += cost;
        });
        let per_worker = per_worker.into_inner().unwrap();
        let total_cost: u64 = per_worker.iter().sum();
        let expected: u64 = (0..total as u64).sum();
        assert_eq!(total_cost, expected);
    }

    #[test]
    fn worker_indices_stay_in_range() {
        let threads = 3;
        let max_seen = Mutex::new(0usize);
        run_jobs(threads, 50, Schedule::Dynamic { chunk: 5 }, |w, _| {
            let mut guard = max_seen.lock().unwrap();
            *guard = (*guard).max(w);
        });
        assert!(*max_seen.lock().unwrap() < threads);
    }
}
