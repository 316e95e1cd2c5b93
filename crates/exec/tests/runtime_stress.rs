//! Stress suite for the persistent execution runtime: panic recovery,
//! shutdown under churn, nested fork-join, and degenerate pool shapes.
//!
//! The in-crate unit tests pin down each mechanism in isolation; these
//! tests hammer the same guarantees across repeated cycles and through
//! the public API only, the way the engines use it.

use imm_exec::{Executor, Pinned, PinnedPool, WakeMode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A trivial pinned cell: counts requests, panics on demand.
struct Tally {
    served: usize,
}

enum Req {
    Add(usize),
    Boom,
}

impl Pinned for Tally {
    type Request = Req;
    type Response = usize;

    fn serve(&mut self, request: Req) -> usize {
        match request {
            Req::Add(n) => {
                self.served += n;
                self.served
            }
            Req::Boom => panic!("tally boom"),
        }
    }
}

fn tally_pool(cells: usize, threads: usize, mode: WakeMode) -> PinnedPool<Tally> {
    PinnedPool::with_wake_mode((0..cells).map(|_| Tally { served: 0 }).collect(), threads, mode)
}

// ---------------------------------------------------------------------
// Panic propagation without poisoning
// ---------------------------------------------------------------------

#[test]
fn executor_survives_repeated_task_panics() {
    for &threads in &[1usize, 4] {
        let pool = Executor::new(threads);
        let completed = AtomicUsize::new(0);
        for round in 0..25 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for i in 0..8 {
                        s.spawn(|_| {
                            completed.fetch_add(1, Ordering::Relaxed);
                        });
                        if i == 3 {
                            s.spawn(|_| panic!("round {round} task panic"));
                        }
                    }
                })
            }));
            assert!(result.is_err(), "the task panic reaches the scope owner");
            // The pool must keep working after every single panic.
            let (a, b) = pool.join(|| 2, || 3);
            assert_eq!(a * b, 6);
        }
        // Panics never cancel sibling tasks: the scope drains fully.
        assert_eq!(completed.into_inner(), 25 * 8);
    }
}

#[test]
fn pinned_pool_survives_repeated_serve_panics() {
    for &mode in &[WakeMode::Never, WakeMode::Always] {
        let pool = tally_pool(3, 4, mode);
        for round in 0..25 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scatter(vec![(0, Req::Add(1)), (1, Req::Boom), (2, Req::Add(1))])
            }));
            assert!(result.is_err(), "round {round}: the serve panic reaches the caller");
            // Neither the panicking cell nor its siblings are poisoned.
            let responses =
                pool.scatter(vec![(0, Req::Add(0)), (1, Req::Add(1)), (2, Req::Add(0))]);
            assert_eq!(responses[0], round + 1, "cell 0 kept its pre-panic state");
            assert_eq!(responses[1], round + 1, "the panicking cell still serves");
            assert_eq!(responses[2], round + 1);
        }
    }
}

// ---------------------------------------------------------------------
// Shutdown under churn (drop right after heavy traffic)
// ---------------------------------------------------------------------

#[test]
fn executor_drops_cleanly_right_after_a_burst() {
    // Exercises shutdown while workers are still winding down from a
    // burst: no hangs, no lost tasks, across many build/drop cycles.
    let completed = Arc::new(AtomicUsize::new(0));
    for _ in 0..20 {
        let pool = Executor::new(4);
        pool.scope(|s| {
            for _ in 0..64 {
                let completed = Arc::clone(&completed);
                s.spawn(move |_| {
                    completed.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        drop(pool);
    }
    assert_eq!(completed.load(Ordering::Relaxed), 20 * 64);
}

#[test]
fn pinned_pool_drops_cleanly_right_after_slow_serves() {
    for _ in 0..10 {
        let pool = PinnedPool::with_wake_mode(
            (0..4).map(|_| Slow).collect::<Vec<_>>(),
            4,
            WakeMode::Always,
        );
        let responses = pool.scatter((0..4).map(|c| (c, ())));
        assert_eq!(responses.len(), 4);
        drop(pool); // workers may still be between serving and parking
    }

    struct Slow;
    impl Pinned for Slow {
        type Request = ();
        type Response = ();
        fn serve(&mut self, (): ()) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

// ---------------------------------------------------------------------
// Nested scopes
// ---------------------------------------------------------------------

#[test]
fn nested_scopes_complete_on_any_pool_size() {
    for &threads in &[1usize, 2, 8] {
        let pool = Executor::new(threads);
        let leaf = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|_| {
                    // A fresh nested scope from inside a running task; the
                    // owner-helps discipline makes this deadlock-free even
                    // on a 1-thread (pure inline) pool.
                    imm_exec::global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|_| {
                                leaf.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(leaf.into_inner(), 16, "threads = {threads}");
    }
}

#[test]
fn deeply_nested_joins_stay_inline_safe() {
    fn fib(pool: &Executor, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) =
            pool.join(|| fib(imm_exec::global(), n - 1), || fib(imm_exec::global(), n - 2));
        a + b
    }
    let pool = Executor::new(1);
    assert_eq!(fib(&pool, 16), 987);
}

// ---------------------------------------------------------------------
// Degenerate sizes
// ---------------------------------------------------------------------

#[test]
fn one_thread_pool_is_a_pure_inline_executor() {
    let pool = Executor::new(1);
    assert_eq!(pool.num_threads(), 1);
    let main_id = std::thread::current().id();
    let mut ran_on = Vec::new();
    pool.scope(|s| {
        s.spawn(|_| {}); // interleave spawns and captures
    });
    pool.scope(|_| {
        ran_on.push(std::thread::current().id());
    });
    assert_eq!(ran_on, vec![main_id]);
}

#[test]
fn many_more_cells_than_workers_still_gather_everything() {
    // 16 cells, 2 threads => 1 worker owning every cell; the scattering
    // thread help-drains, so the round completes regardless of the split.
    let pool = tally_pool(16, 2, WakeMode::Always);
    assert!(pool.num_workers() >= 1);
    for round in 1..=10usize {
        let responses = pool.scatter((0..16).map(|c| (c, Req::Add(c))));
        assert_eq!(responses.len(), 16);
        for (c, &r) in responses.iter().enumerate() {
            assert_eq!(r, c * round, "cell {c} accumulated its own requests only");
        }
    }
}

#[test]
fn single_cell_pool_serializes_all_requests() {
    let pool = tally_pool(1, 8, WakeMode::Always);
    let responses = pool.scatter((0..100).map(|_| (0, Req::Add(1))));
    // In-order serving over one cell: responses are the running tally.
    assert_eq!(responses, (1..=100).collect::<Vec<_>>());
    assert_eq!(pool.with_cell(0, |t| t.served), 100);
}
