//! The shared fixed pool: long-lived workers, scoped fork-join submission.
//!
//! # Model
//!
//! An [`Executor`] built for `t` threads owns `t - 1` long-lived worker
//! threads; the thread calling [`Executor::scope`] is the `t`-th. Every
//! spawned task becomes a reference-counted `Job` that lives in two
//! places at once:
//!
//! * the scope's own job list, where the **owner** (the thread inside
//!   `scope`) claims and runs still-unclaimed jobs while it waits, and
//! * at most one worker's SPSC inbox, where the worker claims jobs the
//!   owner has not reached yet.
//!
//! A one-byte claim CAS arbitrates; whoever wins runs the task, the loser
//! skips. This "owner helps" discipline is what makes the pool safe on any
//! machine shape: with zero workers (`t == 1`, the default on a 1-CPU
//! host) every task runs inline on the owner with no parking, no wakeups
//! and no cross-thread traffic, and a scope can never deadlock waiting for
//! a worker that does not exist. Nested scopes entered from a worker
//! thread are safe for the same reason — the nested owner drives its own
//! jobs to completion without needing a free worker.
//!
//! # Shutdown and panics
//!
//! Dropping the executor (never done for the process-global one) flags
//! shutdown, unparks every worker and joins them; workers drain their
//! inbox first. A panicking task is caught on the worker, stored in its
//! scope, and re-thrown on the owner when the scope ends — workers survive
//! and the pool is never poisoned.

use std::any::Any;
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle, Thread};

use crate::metrics::{self, Counter};
use crate::spsc;

/// Times the process-global executor was explicitly configured.
pub static GLOBAL_CONFIGS: Counter = Counter::new(
    "exec_global_configs",
    "Explicit configure_global calls that installed the process-global pool",
);

/// Capacity of each worker's SPSC inbox; overflow runs on the submitter.
const INBOX_CAPACITY: usize = 256;

const READY: u8 = 0;
const CLAIMED: u8 = 1;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// One spawned task, claimable exactly once (by a worker or by the helping
/// scope owner).
struct Job {
    claim: AtomicU8,
    func: UnsafeCell<Option<Task>>,
    scope: Arc<ScopeState>,
}

// `func` is only touched by the claim winner; the CAS on `claim` (AcqRel)
// is the hand-off point.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim the job; `Some(task)` exactly once across all threads.
    fn claim(&self) -> Option<Task> {
        if self.claim.compare_exchange(READY, CLAIMED, Ordering::AcqRel, Ordering::Relaxed).is_ok()
        {
            unsafe { (*self.func.get()).take() }
        } else {
            None
        }
    }

    fn is_ready(&self) -> bool {
        self.claim.load(Ordering::Acquire) == READY
    }
}

/// Claim and run a job, routing its completion back to the scope. The
/// counter identifies who ran it (worker / helping owner / overflow).
fn run_job(job: &Job, ran_by: &Counter) {
    let Some(task) = job.claim() else { return };
    ran_by.increment();
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
        job.scope.store_panic(payload);
    }
    job.scope.complete_one();
}

/// Shared bookkeeping for one `scope` call.
struct ScopeState {
    /// Spawned-but-not-finished job count; the scope ends when this is 0.
    pending: AtomicUsize,
    /// The thread inside `Executor::scope`, unparked when work completes.
    owner: Thread,
    /// True while the owner is in (or committing to) `thread::park`.
    owner_parked: AtomicBool,
    /// First panic payload from any task, re-thrown at scope exit.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Every job spawned on this scope, in submission order (helping list).
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Owner's helping cursor into `jobs` (owner-advanced only).
    cursor: AtomicUsize,
}

impl ScopeState {
    fn new(owner: Thread) -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            owner,
            owner_parked: AtomicBool::new(false),
            panic: Mutex::new(None),
            jobs: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
        }
    }

    fn store_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Mark one job finished; wake the owner when the scope drains.
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && self.owner_parked.load(Ordering::SeqCst)
        {
            self.owner.unpark();
        }
    }

    /// Next job the owner has not walked past that still looks claimable.
    fn next_unclaimed(&self) -> Option<Arc<Job>> {
        let jobs = self.jobs.lock().unwrap();
        let mut cursor = self.cursor.load(Ordering::Relaxed);
        while cursor < jobs.len() {
            let job = &jobs[cursor];
            cursor += 1;
            if job.is_ready() {
                self.cursor.store(cursor, Ordering::Relaxed);
                return Some(Arc::clone(job));
            }
        }
        self.cursor.store(cursor, Ordering::Relaxed);
        None
    }

    /// Any claimable job at or past the owner's cursor?
    fn has_unclaimed(&self) -> bool {
        let jobs = self.jobs.lock().unwrap();
        let cursor = self.cursor.load(Ordering::Relaxed).min(jobs.len());
        jobs[cursor..].iter().any(|job| job.is_ready())
    }

    /// Owner-side wait: help run unclaimed jobs, park only when every
    /// remaining job is already claimed by a worker.
    fn wait_with_help(&self) {
        loop {
            if self.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(job) = self.next_unclaimed() {
                run_job(&job, &metrics::TASKS_HELPED);
                continue;
            }
            self.owner_parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if self.pending.load(Ordering::SeqCst) == 0 || self.has_unclaimed() {
                self.owner_parked.store(false, Ordering::SeqCst);
                continue;
            }
            thread::park();
            self.owner_parked.store(false, Ordering::SeqCst);
        }
    }
}

struct Worker {
    /// Producer half of the worker's inbox (mutex: many scopes submit).
    inbox: Mutex<spsc::Producer<Arc<Job>>>,
    /// True while the worker is in (or committing to) `thread::park`.
    parked: Arc<AtomicBool>,
    /// Unpark handle.
    thread: Thread,
    join: Option<JoinHandle<()>>,
}

fn worker_loop(
    mut inbox: spsc::Consumer<Arc<Job>>,
    parked: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        if let Some(job) = inbox.pop() {
            run_job(&job, &metrics::TASKS_WORKER);
            continue;
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !inbox.is_empty() || shutdown.load(Ordering::SeqCst) {
            parked.store(false, Ordering::SeqCst);
            continue;
        }
        metrics::WORKER_PARKS.increment();
        thread::park();
        parked.store(false, Ordering::SeqCst);
    }
}

/// A fixed pool of long-lived workers with scoped fork-join submission.
///
/// See the [module docs](self) for the execution model. Most code should
/// use the process-global instance via [`global`] (configured once at
/// startup with [`configure_global`]); standalone pools are for tests and
/// embedding.
pub struct Executor {
    workers: Box<[Worker]>,
    /// Round-robin submission cursor over `workers`.
    next: AtomicUsize,
    shutdown: Arc<AtomicBool>,
    threads: usize,
}

impl Executor {
    /// A pool presenting `threads` units of parallelism: `threads - 1`
    /// spawned workers plus the calling thread inside every scope.
    /// `threads` is clamped to at least 1; with exactly 1, no worker
    /// threads exist and every task runs inline on the scope owner.
    pub fn new(threads: usize) -> Self {
        metrics::register();
        let threads = threads.max(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..threads - 1)
            .map(|i| {
                let (tx, rx) = spsc::channel(INBOX_CAPACITY);
                let parked = Arc::new(AtomicBool::new(false));
                let handle = thread::Builder::new()
                    .name(format!("imm-exec-{i}"))
                    .spawn({
                        let parked = Arc::clone(&parked);
                        let shutdown = Arc::clone(&shutdown);
                        move || worker_loop(rx, parked, shutdown)
                    })
                    .expect("spawn imm-exec worker");
                Worker {
                    inbox: Mutex::new(tx),
                    parked,
                    thread: handle.thread().clone(),
                    join: Some(handle),
                }
            })
            .collect();
        Executor { workers, next: AtomicUsize::new(0), shutdown, threads }
    }

    /// The parallelism this pool was built with (workers + scope owner).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Current inbox depth per worker (racy snapshot, for observability).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.inbox.lock().unwrap().len()).collect()
    }

    /// Scoped fork-join: `op` may [`Scope::spawn`] tasks borrowing from
    /// `'env`; every task completes before `scope` returns. The calling
    /// thread runs `op`, then helps run unclaimed tasks. Mirrors
    /// `rayon::scope` (and `std::thread::scope`) semantics, including
    /// re-throwing the first task panic on the caller.
    pub fn scope<'env, OP, R>(&self, op: OP) -> R
    where
        OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        metrics::SCOPES.increment();
        let state = Arc::new(ScopeState::new(thread::current()));
        let scope = Scope { state: Arc::clone(&state), exec: self, _marker: PhantomData };
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // Tasks borrow `'env` data: the scope MUST drain before returning
        // or unwinding past the borrowed frame.
        state.wait_with_help();
        // Every job has run; each holds the state that lists it, and only
        // emptying the list breaks that cycle (a daemon opens a scope per
        // request: a scope that stayed allocated was its whole RSS growth).
        state.jobs.lock().unwrap().clear();
        let task_panic = state.panic.lock().unwrap().take();
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

    /// Run two closures, potentially in parallel, returning both results.
    /// Mirrors `rayon::join`: `oper_a` runs on the caller.
    pub fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let mut rb = None;
        let ra = self.scope(|s| {
            let slot = &mut rb;
            s.spawn(move |_| *slot = Some(oper_b()));
            oper_a()
        });
        (ra, rb.expect("join task completed"))
    }

    /// Enqueue a type-erased task for the given scope.
    fn submit(&self, state: &Arc<ScopeState>, task: Task) {
        metrics::TASKS_SPAWNED.increment();
        state.pending.fetch_add(1, Ordering::SeqCst);
        let job = Arc::new(Job {
            claim: AtomicU8::new(READY),
            func: UnsafeCell::new(Some(task)),
            scope: Arc::clone(state),
        });
        state.jobs.lock().unwrap().push(Arc::clone(&job));
        let mut overflow = false;
        if !self.workers.is_empty() {
            let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
            let worker = &self.workers[idx];
            let pushed = worker.inbox.lock().unwrap().push(Arc::clone(&job)).is_ok();
            // Publish-then-check-parked needs a StoreLoad barrier on both
            // sides (Dekker); the park loops carry the matching fence.
            fence(Ordering::SeqCst);
            if pushed {
                if worker.parked.load(Ordering::SeqCst) {
                    metrics::WORKER_UNPARKS.increment();
                    worker.thread.unpark();
                }
            } else {
                overflow = true;
            }
        } else {
            fence(Ordering::SeqCst);
        }
        // A parked owner (helping list exhausted) must learn about the new
        // job — nested spawns can arrive while the owner sleeps.
        if state.owner_parked.load(Ordering::SeqCst) {
            state.owner.unpark();
        }
        if overflow {
            run_job(&job, &metrics::TASKS_OVERFLOW);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for worker in self.workers.iter() {
            worker.thread.unpark();
        }
        for worker in self.workers.iter_mut() {
            if let Some(handle) = worker.join.take() {
                // Workers catch task panics, so join only fails if a
                // worker itself died; nothing useful to do while dropping.
                let _ = handle.join();
            }
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
        let state = Arc::clone(&self.state);
        let exec = self.exec;
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope = Scope { state, exec, _marker: PhantomData };
            f(&scope);
        });
        // SAFETY: erasing `'scope` to `'static` is sound because
        // `Executor::scope` blocks (wait_with_help) until `pending == 0`,
        // i.e. every spawned task has run or been dropped, before the
        // `'scope`/`'env` borrows can expire — the same argument as
        // `std::thread::scope`. The executor itself outlives the task
        // because `scope` borrows it for the full wait.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
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
            GLOBAL_CONFIGS.increment();
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
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn a_finished_scope_frees_its_state() {
        let exec = Executor::new(1);
        let mut state = None;
        exec.scope(|s| {
            state = Some(Arc::downgrade(&s.state));
            s.spawn(|_| {});
            s.spawn(|_| {});
        });
        assert!(state.expect("the scope ran").upgrade().is_none(), "jobs kept their scope alive");
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
    fn join_returns_both_results() {
        let exec = Executor::new(2);
        let (a, b) = exec.join(|| 2 + 2, || "ok".len());
        assert_eq!((a, b), (4, 2));
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
    fn overflow_beyond_inbox_capacity_still_completes() {
        let exec = Executor::new(2);
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..(INBOX_CAPACITY * 4) {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), INBOX_CAPACITY * 4);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
