//! The shared fixed pool: long-lived workers, scoped fork-join submission.
//!
//! # Model
//!
//! An [`Executor`] built for `t` threads owns `t - 1` long-lived worker
//! threads; the thread calling [`Executor::scope`] is the `t`-th. Each
//! scope owns a queue of its spawned tasks and a pending count, both under
//! one mutex. The pool itself has one injector: a queue of *scope handles*
//! that idle workers sleep on.
//!
//! * A spawn pushes the task onto its scope's queue. It also pushes the
//!   scope's handle onto the injector while the injector holds fewer
//!   handles than the pool has workers, and notifies only when an idle
//!   worker is waiting for that handle. The idle count lives under the
//!   injector lock, so a busy pool pays no futex wake.
//! * A worker pops a handle and runs that scope's queued tasks until none
//!   are left (the owner may have run them all already).
//! * A finished scope takes back any handle no worker popped, so the
//!   injector only ever offers live scopes.
//! * The **owner** (the thread inside `scope`) runs its own scope's queued
//!   tasks until none are left, then waits for the pending count to reach
//!   zero, waking early if a running task spawns another.
//!
//! Because the owner drains its own scope, a scope never waits for a free
//! worker: nested scopes entered from a worker cannot deadlock, and a pool
//! with no workers (`t == 1`, the serving daemon's shape) runs every task
//! on the spawning thread, which is the owner, when the scope drains; its
//! spawns never touch the injector.
//!
//! # Shutdown and panics
//!
//! Dropping the executor (never done for the process-global one) flags
//! shutdown, wakes every worker and joins them. A panicking task is
//! caught where it runs, stored in its scope, and re-thrown on the owner
//! when the scope ends — workers survive and the pool is never poisoned.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

use crate::metrics::{self, Counter};

type ScopedTask<'a> = Box<dyn FnOnce() + Send + 'a>;
type Task = ScopedTask<'static>;

/// Lock `mutex`, ignoring poison: no user code runs while these locks are
/// held, so a poisoned lock still guards consistent state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one `scope` call's mutex guards.
#[derive(Default)]
struct ScopeQueue {
    /// Spawned tasks nobody has started yet.
    tasks: VecDeque<Task>,
    /// Spawned tasks not yet finished (queued or running).
    pending: usize,
    /// True while the owner sleeps on [`ScopeState::wake`].
    owner_waiting: bool,
    /// First panic payload from any task, re-thrown at scope exit.
    panic: Option<Box<dyn Any + Send + 'static>>,
}

/// Shared bookkeeping for one `scope` call.
#[derive(Default)]
struct ScopeState {
    queue: Mutex<ScopeQueue>,
    /// Wakes the owner when a task is queued or the last one finishes.
    wake: Condvar,
}

impl ScopeState {
    /// Run queued tasks until none are left.
    fn run_queued(&self, ran_by: &Counter) {
        loop {
            let Some(task) = lock(&self.queue).tasks.pop_front() else { return };
            self.run(task, ran_by);
        }
    }

    /// Run one task and account for it; never unwinds.
    fn run(&self, task: Task, ran_by: &Counter) {
        ran_by.increment();
        let outcome = panic::catch_unwind(AssertUnwindSafe(task));
        let mut queue = lock(&self.queue);
        if let Err(payload) = outcome {
            queue.panic.get_or_insert(payload);
        }
        queue.pending -= 1;
        if queue.pending == 0 && queue.owner_waiting {
            self.wake.notify_one();
        }
    }

    /// Owner side: run queued tasks until none are left, then sleep until
    /// every task that workers took has finished.
    fn drain(&self) {
        loop {
            self.run_queued(&metrics::TASKS_HELPED);
            let mut queue = lock(&self.queue);
            if queue.pending == 0 {
                return;
            }
            if queue.tasks.is_empty() {
                queue.owner_waiting = true;
                queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
                queue.owner_waiting = false;
            }
        }
    }
}

/// What the pool's mutex guards.
#[derive(Default)]
struct Injector {
    /// Live scopes offered to workers, no more entries than workers.
    scopes: VecDeque<Arc<ScopeState>>,
    /// Workers asleep on [`Shared::wake`].
    idle: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    injector: Mutex<Injector>,
    wake: Condvar,
}

fn worker_loop(shared: &Shared) {
    let mut injector = lock(&shared.injector);
    loop {
        if let Some(scope) = injector.scopes.pop_front() {
            drop(injector);
            scope.run_queued(&metrics::TASKS_WORKER);
            injector = lock(&shared.injector);
        } else if injector.shutdown {
            return;
        } else {
            injector.idle += 1;
            metrics::WORKER_PARKS.increment();
            injector = shared.wake.wait(injector).unwrap_or_else(PoisonError::into_inner);
            injector.idle -= 1;
        }
    }
}

/// A fixed pool of long-lived workers with scoped fork-join submission.
///
/// See the [module docs](self) for the execution model. Most code should
/// use the process-global instance via [`global`] (configured once at
/// startup with [`configure_global`]); standalone pools are for tests and
/// embedding.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Executor {
    /// A pool presenting `threads` units of parallelism: `threads - 1`
    /// spawned workers plus the calling thread inside every scope.
    /// `threads` is clamped to at least 1; with exactly 1, no worker
    /// threads exist and every task runs inline on the spawning thread.
    pub fn new(threads: usize) -> Self {
        metrics::register();
        let threads = threads.max(1);
        let shared = Arc::new(Shared::default());
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("imm-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn imm-exec worker")
            })
            .collect();
        Executor { shared, workers, threads }
    }

    /// The parallelism this pool was built with (workers + scope owner).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Scoped fork-join: `op` may [`Scope::spawn`] tasks borrowing from
    /// `'env`; every task completes before `scope` returns. The calling
    /// thread runs `op`, then runs whatever tasks no worker has taken.
    /// Mirrors `rayon::scope` (and `std::thread::scope`) semantics,
    /// including re-throwing the first task panic on the caller.
    pub fn scope<'env, OP, R>(&self, op: OP) -> R
    where
        OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        metrics::SCOPES.increment();
        let state = Arc::new(ScopeState::default());
        let scope = Scope { state: Arc::clone(&state), exec: self, _marker: PhantomData };
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // Tasks borrow `'env` data: the scope MUST drain before returning
        // or unwinding past the borrowed frame.
        state.drain();
        if !self.workers.is_empty() {
            // A handle no worker popped in time would hold an injector slot
            // that a later scope's handle needs.
            lock(&self.shared.injector).scopes.retain(|s| !Arc::ptr_eq(s, &state));
        }
        let task_panic = lock(&state.queue).panic.take();
        match result {
            Err(payload) => panic::resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = task_panic {
                    panic::resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Queue a type-erased task on its scope and offer the scope to a
    /// worker.
    fn submit(&self, state: &Arc<ScopeState>, task: Task) {
        {
            let mut queue = lock(&state.queue);
            queue.tasks.push_back(task);
            queue.pending += 1;
            // A task spawning into its own scope may find the owner asleep.
            if queue.owner_waiting {
                state.wake.notify_one();
            }
        }
        if self.workers.is_empty() {
            // No worker could take the handle: the owner's drain runs it.
            return;
        }
        let mut injector = lock(&self.shared.injector);
        if injector.scopes.len() < self.workers.len() {
            injector.scopes.push_back(Arc::clone(state));
            if injector.scopes.len() <= injector.idle {
                metrics::WORKER_UNPARKS.increment();
                self.shared.wake.notify_one();
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        lock(&self.shared.injector).shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            // Workers catch task panics, so join only fails if a worker
            // itself died; nothing useful to do while dropping.
            let _ = worker.join();
        }
    }
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Spawn handle passed to the closure of [`Executor::scope`]; mirrors
/// `rayon::Scope`. `'scope` is the lifetime of the scope itself, `'env`
/// the environment it may borrow from.
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    exec: &'scope Executor,
    _marker: PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task that runs concurrently with the rest of the scope and
    /// completes before the enclosing [`Executor::scope`] returns. The
    /// task receives a scope handle for nested spawns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        metrics::TASKS_SPAWNED.increment();
        let scope = Scope { state: Arc::clone(&self.state), exec: self.exec, _marker: PhantomData };
        let task: ScopedTask<'scope> = Box::new(move || f(&scope));
        // SAFETY: erasing `'scope` to `'static` is sound because
        // `Executor::scope` does not return or unwind until its pending
        // count is zero (`ScopeState::drain`), and a task leaves that count
        // only after it has run and been dropped (`ScopeState::run`); every
        // queued task is run, by a worker or by the draining owner. So no
        // task outlives the `'scope`/`'env` borrows, as in
        // `std::thread::scope`. The executor outlives the task because
        // `scope` borrows it for the full drain.
        let task: Task = unsafe { std::mem::transmute::<ScopedTask<'scope>, Task>(task) };
        self.exec.submit(&self.state, task);
    }
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// Error from [`configure_global`] when the global pool already exists.
#[derive(Debug)]
pub struct GlobalPoolError;

impl fmt::Display for GlobalPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "global executor already initialized")
    }
}

impl std::error::Error for GlobalPoolError {}

/// The pool size used when nothing configures one explicitly: the
/// `IMM_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("IMM_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Install the process-global executor with an explicit thread count.
/// Callable successfully at most once, before anything touches
/// [`global`]; later calls (or calls after `global()` auto-initialized)
/// fail with [`GlobalPoolError`] and leave the existing pool untouched.
pub fn configure_global(threads: usize) -> Result<(), GlobalPoolError> {
    if GLOBAL.get().is_some() {
        return Err(GlobalPoolError);
    }
    match GLOBAL.set(Executor::new(threads)) {
        Ok(()) => {
            metrics::GLOBAL_CONFIGS.increment();
            Ok(())
        }
        // Lost an init race: the just-built pool drops (joins cleanly).
        Err(_) => Err(GlobalPoolError),
    }
}

/// The process-global executor, initialized on first use with
/// [`default_threads`] unless [`configure_global`] ran first.
pub fn global() -> &'static Executor {
    GLOBAL.get_or_init(|| Executor::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_finished_scope_frees_its_state() {
        let exec = Executor::new(1);
        let mut state = None;
        exec.scope(|s| {
            state = Some(Arc::downgrade(&s.state));
            s.spawn(|_| {});
            s.spawn(|_| {});
        });
        assert!(state.expect("the scope ran").upgrade().is_none(), "tasks kept their scope alive");
    }

    #[test]
    fn inline_pool_runs_every_task_on_the_owner() {
        let exec = Executor::new(1);
        assert_eq!(exec.num_threads(), 1);
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..64 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn worker_pool_joins_all_spawns() {
        let exec = Executor::new(4);
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..512 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 512);
    }

    #[test]
    fn tasks_can_write_disjoint_env_slots() {
        let exec = Executor::new(3);
        let slots: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        exec.scope(|s| {
            for (i, slot) in slots.iter().enumerate() {
                s.spawn(move |_| {
                    slot.store(i + 1, Ordering::Relaxed);
                });
            }
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), i + 1);
        }
    }

    #[test]
    fn nested_spawn_and_nested_scope_complete() {
        let exec = Executor::new(2);
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            s.spawn(|s2| {
                s2.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                // A full nested scope from inside a task must also drain.
                global().scope(|inner| {
                    inner.spawn(|_| {
                        counter.fetch_add(10, Ordering::Relaxed);
                    });
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let exec = Executor::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                s.spawn(|_| panic!("task boom"));
                s.spawn(|_| {});
            });
        }));
        assert!(caught.is_err(), "scope must re-throw the task panic");
        // The pool is not poisoned: a later scope completes normally.
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
