//! Stress suite for the persistent execution runtime: panic recovery,
//! shutdown under churn, nested fork-join, concurrent scope owners, and
//! degenerate pool shapes.
//!
//! The in-crate unit tests pin down each mechanism in isolation; these
//! tests hammer the same guarantees across repeated cycles and through
//! the public API only, the way the engines use it.

use imm_exec::Executor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
            let mut b = 0;
            let a = pool.scope(|s| {
                s.spawn(|_| b = 3);
                2
            });
            assert_eq!(a * b, 6);
        }
        // Panics never cancel sibling tasks: the scope drains fully.
        assert_eq!(completed.into_inner(), 25 * 8);
    }
}

#[test]
fn a_panicking_scope_body_still_waits_for_its_tasks() {
    // The tasks borrow stack slots and finish well after the body panics;
    // a scope that unwound before they ran would leave slots unwritten
    // (and let them write into a dead frame).
    for &threads in &[1usize, 2, 4] {
        let pool = Executor::new(threads);
        let mut slots = [0usize; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move |_| {
                        std::thread::sleep(Duration::from_millis(5));
                        *slot = i + 1;
                    });
                }
                panic!("scope body panics with tasks in flight");
            })
        }));
        assert!(result.is_err(), "the body's panic reaches the caller");
        let expected: Vec<usize> = (1..=8).collect();
        assert_eq!(slots.to_vec(), expected, "threads = {threads}");
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
                    // A fresh nested scope from inside a running task; its
                    // owner drains its own tasks, which makes this
                    // deadlock-free even on a 1-thread (pure inline) pool.
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
fn deeply_nested_scopes_stay_inline_safe() {
    fn fib(pool: &Executor, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let mut b = 0;
        let a = pool.scope(|s| {
            s.spawn(|_| b = fib(imm_exec::global(), n - 2));
            fib(imm_exec::global(), n - 1)
        });
        a + b
    }
    let pool = Executor::new(1);
    assert_eq!(fib(&pool, 16), 987);
}

// ---------------------------------------------------------------------
// Concurrent scope owners
// ---------------------------------------------------------------------

#[test]
fn many_threads_open_scopes_on_one_pool_at_once() {
    // The daemon's shape: one connection thread per client, each opening
    // its own scopes on the shared pool.
    const OWNERS: usize = 8;
    const ROUNDS: usize = 100;
    const TASKS: usize = 4;
    let pool = Executor::new(2);
    let total = AtomicUsize::new(0);
    std::thread::scope(|threads| {
        for owner in 0..OWNERS {
            let (pool, total) = (&pool, &total);
            threads.spawn(move || {
                for round in 0..ROUNDS {
                    let mut parts = [0usize; TASKS];
                    pool.scope(|s| {
                        for (i, part) in parts.iter_mut().enumerate() {
                            s.spawn(move |_| *part = owner * 10_000 + round * 10 + i);
                        }
                    });
                    for (i, &part) in parts.iter().enumerate() {
                        assert_eq!(part, owner * 10_000 + round * 10 + i);
                    }
                    total.fetch_add(parts.iter().sum::<usize>(), Ordering::Relaxed);
                }
            });
        }
    });
    let expected: usize = (0..OWNERS)
        .flat_map(|o| {
            (0..ROUNDS).flat_map(move |r| (0..TASKS).map(move |i| o * 10_000 + r * 10 + i))
        })
        .sum();
    assert_eq!(total.into_inner(), expected);
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
