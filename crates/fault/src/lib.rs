//! # imm-fault
//!
//! Deterministic, seeded fault injection for the serving stack.
//!
//! A [`FaultPlan`] is installed process-globally and consulted from
//! *sites* — named points in the daemon's socket IO and the snapshot
//! writer. Every decision is a pure function of `(seed, site, per-site
//! call index)`, so the same seed replayed against the same call
//! sequence injects the same schedule: chaos failures reproduce instead
//! of flaking.
//!
//! The hook families:
//!
//! * [`io_fault`] / [`FaultyIo`] — injected errors, partial
//!   reads/writes, and stalls around any `Read + Write` transport
//!   (the daemon wraps each connection's stream; the snapshot writer
//!   wraps its file).
//! * [`write_point`] — numbered kill-points threaded through the
//!   snapshot save path. A plan with `kill_at_write_point = Some(k)`
//!   aborts the k-th point and *stays dead* (every later hook fails)
//!   until the plan is cleared — simulating a process kill so recovery
//!   can be proven at every interruption offset.
//! * [`fsync_fault`] — injected `sync_all` failures.
//! * [`fail_point`] — generic structured failure (e.g. aborting a
//!   delta rollout mid-rebuild); `fail_first = n` fails the first `n`
//!   calls at each such site, so "retry succeeds" is deterministic.
//!
//! When no plan is installed every hook is a single relaxed atomic
//! load.
//!
//! Plans record every injected event; [`FaultPlan::schedule`] returns
//! the log so determinism tests can assert same-seed ⇒ same-schedule.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Rates and limits for one seeded fault plan.
///
/// All `*_rate`-style fields are probabilities in `[0, 1]` evaluated
/// independently per hook call; `Duration` fields size injected stalls.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Root seed: same seed ⇒ same decisions at every `(site, seq)`.
    pub seed: u64,
    /// Probability an IO op fails with an injected error
    /// (`ConnectionReset` on reads, `BrokenPipe` on writes).
    pub io_error: f64,
    /// Probability a read/write is shortened to a strict prefix
    /// (never to zero bytes — that would forge an EOF).
    pub io_partial: f64,
    /// Probability an IO op sleeps for [`stall`](Self::stall) first.
    pub io_stall: f64,
    /// Length of one injected IO stall.
    pub stall: Duration,
    /// Probability `sync_all` at an [`fsync_fault`] site fails.
    pub fsync_error: f64,
    /// Fail the first `n` calls at each [`fail_point`] site.
    pub fail_first: u64,
    /// Abort the plan-global k-th [`write_point`] and stay dead after.
    pub kill_at_write_point: Option<u64>,
    /// Unconditional sleep at every *counted* write point (snapshot
    /// IO); gives an external `kill -9` a deterministic window.
    pub snapshot_stall: Duration,
    /// Total injected-fault budget; once spent the plan goes quiet
    /// (kill-death excepted), so retry loops provably converge.
    pub max_faults: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            io_error: 0.0,
            io_partial: 0.0,
            io_stall: 0.0,
            stall: Duration::from_millis(2),
            fsync_error: 0.0,
            fail_first: 0,
            kill_at_write_point: None,
            snapshot_stall: Duration::ZERO,
            max_faults: u64::MAX,
        }
    }
}

impl FaultConfig {
    /// A quiet plan with the given seed; set rates on the result.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig { seed, ..FaultConfig::default() }
    }

    /// Parse a `key=value,key=value` spec (the `IMM_FAULT_PLAN`
    /// environment format).
    ///
    /// Keys: `seed`, `io_error`, `io_partial`, `io_stall`, `stall_ms`,
    /// `fsync_error`, `fail_first`, `kill_at`, `snapshot_stall_ms`,
    /// `max_faults`. Unknown keys are errors so typos cannot silently
    /// disable a chaos run.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut config = FaultConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{part}` is not key=value"))?;
            let bad = |e: &dyn fmt::Display| format!("fault spec `{key}`: bad value ({e})");
            match key.trim() {
                "seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
                "io_error" => config.io_error = parse_rate(key, value)?,
                "io_partial" => config.io_partial = parse_rate(key, value)?,
                "io_stall" => config.io_stall = parse_rate(key, value)?,
                "stall_ms" => {
                    config.stall = Duration::from_millis(value.parse().map_err(|e| bad(&e))?)
                }
                "fsync_error" => config.fsync_error = parse_rate(key, value)?,
                "fail_first" => config.fail_first = value.parse().map_err(|e| bad(&e))?,
                "kill_at" => config.kill_at_write_point = Some(value.parse().map_err(|e| bad(&e))?),
                "snapshot_stall_ms" => {
                    config.snapshot_stall =
                        Duration::from_millis(value.parse().map_err(|e| bad(&e))?)
                }
                "max_faults" => config.max_faults = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("fault spec has unknown key `{other}`")),
            }
        }
        Ok(config)
    }
}

fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let rate: f64 =
        value.trim().parse().map_err(|e| format!("fault spec `{key}`: bad value ({e})"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault spec `{key}`: rate {rate} outside [0, 1]"));
    }
    Ok(rate)
}

/// What kind of fault an event injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An IO op failed with an injected error.
    IoError,
    /// A read/write was shortened to a prefix.
    IoPartial,
    /// An IO op slept before running.
    IoStall,
    /// A `sync_all` failed.
    FsyncError,
    /// A write point triggered the plan's kill.
    Kill,
    /// A [`fail_point`] returned an error.
    Fail,
}

/// One injected fault, as recorded in the plan's schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The site that asked for a decision.
    pub site: &'static str,
    /// The per-site call index the decision was made at.
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// The structured error carried by injected failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Site the fault fired at.
    pub site: &'static str,
    /// Per-site call index it fired at.
    pub seq: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}[{}]", self.site, self.seq)
    }
}

impl std::error::Error for InjectedFault {}

/// An installed fault plan: config + per-site counters + the schedule
/// of everything injected so far.
pub struct FaultPlan {
    config: FaultConfig,
    site_seq: Mutex<HashMap<&'static str, u64>>,
    write_points: AtomicU64,
    injected: AtomicU64,
    killed: AtomicBool,
    log: Mutex<Vec<FaultEvent>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("config", &self.config)
            .field("injected", &self.injected())
            .field("write_points", &self.write_points())
            .field("killed", &self.killed())
            .finish()
    }
}

impl FaultPlan {
    fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            site_seq: Mutex::new(HashMap::new()),
            write_points: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The config this plan was installed with.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Everything injected so far, in injection order.
    pub fn schedule(&self) -> Vec<FaultEvent> {
        lock(&self.log).clone()
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Number of counted write points visited so far.
    pub fn write_points(&self) -> u64 {
        self.write_points.load(Ordering::Relaxed)
    }

    /// Whether a kill-point fired (the plan stays dead once killed).
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }

    fn next_seq(&self, site: &'static str) -> u64 {
        let mut map = lock(&self.site_seq);
        let seq = map.entry(site).or_insert(0);
        let current = *seq;
        *seq += 1;
        current
    }

    /// Deterministic uniform draw in `[0, 1)` for `(site, seq, salt)`.
    fn roll(&self, site: &'static str, seq: u64, salt: u64) -> f64 {
        let mut x = self
            .config
            .seed
            .wrapping_add(fnv1a64(site.as_bytes()))
            .wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        // splitmix64 finalizer.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True if the budget admits one more fault; reserves it.
    fn spend(&self) -> bool {
        let mut spent = self.injected.load(Ordering::Relaxed);
        loop {
            if spent >= self.config.max_faults {
                return false;
            }
            match self.injected.compare_exchange_weak(
                spent,
                spent + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => spent = now,
            }
        }
    }

    fn record(&self, site: &'static str, seq: u64, kind: FaultKind) {
        lock(&self.log).push(FaultEvent { site, seq, kind });
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
// Serializes tests that install process-global plans (cargo runs tests
// on threads; two live plans would corrupt each other's schedules).
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Whether a fault plan is installed. Inlined single relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install a plan process-globally, replacing any previous one.
pub fn install(config: FaultConfig) -> Arc<FaultPlan> {
    let plan = Arc::new(FaultPlan::new(config));
    *lock(&PLAN) = Some(Arc::clone(&plan));
    ENABLED.store(true, Ordering::SeqCst);
    plan
}

/// Remove the installed plan; every hook goes back to no-op.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *lock(&PLAN) = None;
}

/// The installed plan, if any.
pub fn active() -> Option<Arc<FaultPlan>> {
    if !enabled() {
        return None;
    }
    lock(&PLAN).clone()
}

/// Install a plan parsed from `std::env::var(var)`; `Ok(None)` when
/// the variable is unset or empty.
pub fn install_from_env(var: &str) -> Result<Option<Arc<FaultPlan>>, String> {
    match std::env::var(var) {
        Ok(spec) if !spec.trim().is_empty() => Ok(Some(install(FaultConfig::from_spec(&spec)?))),
        _ => Ok(None),
    }
}

/// Run `f` with `config` installed, serialized against every other
/// `with_plan` caller in the process, clearing the plan afterwards.
/// The way tests use fault plans.
pub fn with_plan<R>(config: FaultConfig, f: impl FnOnce(&Arc<FaultPlan>) -> R) -> R {
    let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = install(config);
    // Clear even if `f` panics so a failing test cannot leak its plan
    // into later tests in the binary.
    struct ClearOnDrop;
    impl Drop for ClearOnDrop {
        fn drop(&mut self) {
            clear();
        }
    }
    let _clear = ClearOnDrop;
    f(&plan)
}

/// Which direction an IO op runs; picks independent decision streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A `read` call.
    Read,
    /// A `write` call.
    Write,
}

/// The decision for one IO op.
#[derive(Debug)]
pub enum IoFault {
    /// Run the op unchanged.
    None,
    /// Fail with this injected error instead of running the op.
    Error(io::Error),
    /// Run the op on at most this many bytes (always ≥ 1).
    Partial(usize),
    /// Sleep this long, then run the op unchanged.
    Stall(Duration),
}

// `io::Error` is neither `Clone` nor `Eq`; injected errors compare by
// kind, which is all the determinism tests need.
impl PartialEq for IoFault {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IoFault::None, IoFault::None) => true,
            (IoFault::Error(a), IoFault::Error(b)) => a.kind() == b.kind(),
            (IoFault::Partial(a), IoFault::Partial(b)) => a == b,
            (IoFault::Stall(a), IoFault::Stall(b)) => a == b,
            _ => false,
        }
    }
}

fn injected_io(kind: io::ErrorKind, site: &'static str, seq: u64) -> io::Error {
    io::Error::new(kind, InjectedFault { site, seq })
}

/// Decide the fate of one IO op of `len` bytes at `site`.
pub fn io_fault(site: &'static str, op: IoOp, len: usize) -> IoFault {
    let Some(plan) = active() else { return IoFault::None };
    let seq = plan.next_seq(site);
    let error_kind = match op {
        IoOp::Read => io::ErrorKind::ConnectionReset,
        IoOp::Write => io::ErrorKind::BrokenPipe,
    };
    if plan.killed() {
        return IoFault::Error(injected_io(error_kind, site, seq));
    }
    let salt_base = match op {
        IoOp::Read => 0x10,
        IoOp::Write => 0x20,
    };
    if plan.roll(site, seq, salt_base + 1) < plan.config.io_error && plan.spend() {
        plan.record(site, seq, FaultKind::IoError);
        return IoFault::Error(injected_io(error_kind, site, seq));
    }
    if len > 1 && plan.roll(site, seq, salt_base + 2) < plan.config.io_partial && plan.spend() {
        plan.record(site, seq, FaultKind::IoPartial);
        // Strict prefix, never empty: 0 would forge an EOF.
        let keep = 1 + (plan.roll(site, seq, salt_base + 3) * (len - 1) as f64) as usize;
        return IoFault::Partial(keep.min(len - 1).max(1));
    }
    if plan.roll(site, seq, salt_base + 4) < plan.config.io_stall && plan.spend() {
        plan.record(site, seq, FaultKind::IoStall);
        return IoFault::Stall(plan.config.stall);
    }
    IoFault::None
}

/// A counted kill-point. Threaded through the snapshot save path so a
/// plan can abort it at any chosen write offset; once the configured
/// point fires, the plan is dead and every later hook fails too (the
/// crash does not "un-happen" mid-operation).
pub fn write_point(site: &'static str) -> io::Result<()> {
    let Some(plan) = active() else { return Ok(()) };
    let seq = plan.next_seq(site);
    if plan.killed() {
        return Err(injected_io(io::ErrorKind::Other, site, seq));
    }
    if !plan.config.snapshot_stall.is_zero() {
        std::thread::sleep(plan.config.snapshot_stall);
    }
    let point = plan.write_points.fetch_add(1, Ordering::Relaxed);
    if plan.config.kill_at_write_point == Some(point) {
        plan.killed.store(true, Ordering::Relaxed);
        plan.record(site, seq, FaultKind::Kill);
        return Err(injected_io(io::ErrorKind::Other, site, seq));
    }
    Ok(())
}

/// Decide whether a `sync_all` at `site` fails.
pub fn fsync_fault(site: &'static str) -> io::Result<()> {
    let Some(plan) = active() else { return Ok(()) };
    let seq = plan.next_seq(site);
    if plan.killed() {
        return Err(injected_io(io::ErrorKind::Other, site, seq));
    }
    if plan.roll(site, seq, 0x30) < plan.config.fsync_error && plan.spend() {
        plan.record(site, seq, FaultKind::FsyncError);
        return Err(injected_io(io::ErrorKind::Other, site, seq));
    }
    Ok(())
}

/// Generic structured failure: the first
/// [`fail_first`](FaultConfig::fail_first) calls at each such site
/// fail, later ones succeed — "retry succeeds" is deterministic.
pub fn fail_point(site: &'static str) -> Result<(), InjectedFault> {
    let Some(plan) = active() else { return Ok(()) };
    let seq = plan.next_seq(site);
    if plan.killed() {
        return Err(InjectedFault { site, seq });
    }
    if seq < plan.config.fail_first && plan.spend() {
        plan.record(site, seq, FaultKind::Fail);
        return Err(InjectedFault { site, seq });
    }
    Ok(())
}

/// A `Read + Write` transport with the plan's IO faults injected
/// around every op.
#[derive(Debug)]
pub struct FaultyIo<T> {
    inner: T,
    site: &'static str,
    counted: bool,
}

impl<T> FaultyIo<T> {
    /// Wrap a transport; IO decisions draw from `site`'s stream.
    pub fn new(inner: T, site: &'static str) -> Self {
        FaultyIo { inner, site, counted: false }
    }

    /// Wrap a transport whose writes are also numbered
    /// [`write_point`]s — the snapshot-file mode, where a plan can
    /// kill the save between any two writes.
    pub fn counted(inner: T, site: &'static str) -> Self {
        FaultyIo { inner, site, counted: true }
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably.
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: io::Read> io::Read for FaultyIo<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !enabled() {
            return self.inner.read(buf);
        }
        match io_fault(self.site, IoOp::Read, buf.len()) {
            IoFault::None => self.inner.read(buf),
            IoFault::Error(e) => Err(e),
            IoFault::Partial(n) => {
                let n = n.min(buf.len()).max(1);
                self.inner.read(&mut buf[..n])
            }
            IoFault::Stall(d) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
        }
    }
}

impl<T: io::Write> io::Write for FaultyIo<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !enabled() {
            return self.inner.write(buf);
        }
        if self.counted {
            write_point(self.site)?;
        }
        match io_fault(self.site, IoOp::Write, buf.len()) {
            IoFault::None => self.inner.write(buf),
            IoFault::Error(e) => Err(e),
            IoFault::Partial(n) => {
                let n = n.min(buf.len()).max(1);
                self.inner.write(&buf[..n])
            }
            IoFault::Stall(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_no_ops() {
        // Under the lock `with_plan` holds: an unlocked `clear()` would pull
        // the plan out from under a sibling test mid-run.
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        assert!(!enabled());
        assert_eq!(io_fault("t.io", IoOp::Read, 64), IoFault::None);
        assert!(write_point("t.wp").is_ok());
        assert!(fsync_fault("t.fsync").is_ok());
        assert!(fail_point("t.fail").is_ok());
        assert!(active().is_none());
    }

    #[test]
    fn rates_zero_injects_nothing() {
        with_plan(FaultConfig::seeded(7), |plan| {
            for _ in 0..100 {
                assert_eq!(io_fault("t.quiet", IoOp::Write, 128), IoFault::None);
            }
            assert!(plan.schedule().is_empty());
        });
    }

    #[test]
    fn same_seed_same_schedule() {
        let drive = |seed: u64| {
            with_plan(
                FaultConfig {
                    io_error: 0.2,
                    io_partial: 0.3,
                    io_stall: 0.1,
                    fsync_error: 0.5,
                    ..FaultConfig::seeded(seed)
                },
                |plan| {
                    for _ in 0..50 {
                        let _ = io_fault("t.sock", IoOp::Read, 256);
                        let _ = io_fault("t.sock", IoOp::Write, 256);
                        let _ = fsync_fault("t.fsync");
                    }
                    plan.schedule()
                },
            )
        };
        let first = drive(42);
        assert!(!first.is_empty(), "rates this high must inject something in 150 draws");
        assert_eq!(first, drive(42), "same seed must reproduce the schedule");
        assert_ne!(first, drive(43), "different seeds must diverge");
    }

    #[test]
    fn kill_point_fires_once_then_everything_is_dead() {
        with_plan(FaultConfig { kill_at_write_point: Some(2), ..FaultConfig::seeded(1) }, |plan| {
            assert!(write_point("t.save").is_ok());
            assert!(write_point("t.save").is_ok());
            assert!(write_point("t.save").is_err(), "third visit is point 2");
            assert!(plan.killed());
            assert!(write_point("t.save").is_err(), "dead plans stay dead");
            assert!(fsync_fault("t.fsync").is_err());
            assert!(fail_point("t.fail").is_err());
            matches!(io_fault("t.sock", IoOp::Write, 8), IoFault::Error(_))
                .then_some(())
                .expect("IO is dead after a kill");
        });
    }

    #[test]
    fn fail_first_fails_then_recovers() {
        with_plan(FaultConfig { fail_first: 2, ..FaultConfig::seeded(9) }, |_| {
            assert!(fail_point("t.rollout").is_err());
            assert!(fail_point("t.rollout").is_err());
            assert!(fail_point("t.rollout").is_ok(), "third call succeeds");
            assert!(fail_point("t.other").is_err(), "sites count independently");
        });
    }

    #[test]
    fn budget_caps_total_injections() {
        with_plan(FaultConfig { io_error: 1.0, max_faults: 3, ..FaultConfig::seeded(5) }, |plan| {
            let mut injected = 0;
            for _ in 0..20 {
                if matches!(io_fault("t.budget", IoOp::Read, 16), IoFault::Error(_)) {
                    injected += 1;
                }
            }
            assert_eq!(injected, 3, "budget must cap injections");
            assert_eq!(plan.injected(), 3);
        });
    }

    #[test]
    fn partial_io_is_a_nonempty_strict_prefix() {
        with_plan(FaultConfig { io_partial: 1.0, ..FaultConfig::seeded(11) }, |_| {
            for len in 2..40 {
                match io_fault("t.partial", IoOp::Write, len) {
                    IoFault::Partial(n) => assert!(n >= 1 && n < len, "bad prefix {n} of {len}"),
                    other => panic!("expected a partial, got {other:?}"),
                }
            }
            // Length-1 ops cannot be shortened without forging EOF.
            assert_eq!(io_fault("t.partial", IoOp::Write, 1), IoFault::None);
        });
    }

    #[test]
    fn spec_round_trips_and_rejects_garbage() {
        let config = FaultConfig::from_spec(
            "seed=42, io_error=0.25, io_partial=0.5, stall_ms=7, fsync_error=1, \
             fail_first=3, kill_at=9, snapshot_stall_ms=40, max_faults=64",
        )
        .expect("valid spec");
        assert_eq!(config.seed, 42);
        assert_eq!(config.io_error, 0.25);
        assert_eq!(config.stall, Duration::from_millis(7));
        assert_eq!(config.fail_first, 3);
        assert_eq!(config.kill_at_write_point, Some(9));
        assert_eq!(config.snapshot_stall, Duration::from_millis(40));
        assert_eq!(config.max_faults, 64);

        assert!(FaultConfig::from_spec("io_error=2.0").is_err(), "rate outside [0,1]");
        assert!(FaultConfig::from_spec("frobnicate=1").is_err(), "unknown key");
        assert!(FaultConfig::from_spec("seed").is_err(), "missing =");
    }

    #[test]
    fn faulty_io_round_trips_when_quiet() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        let mut buf = Vec::new();
        {
            use std::io::Write as _;
            let mut w = FaultyIo::new(&mut buf, "t.writer");
            w.write_all(b"abc").unwrap();
            w.flush().unwrap();
        }
        assert_eq!(buf, b"abc");
        use std::io::Read as _;
        let mut r = FaultyIo::new(&buf[..], "t.reader");
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abc");
    }
}
