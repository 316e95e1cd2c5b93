//! The real `efficient-imm` binary as a child process: one-shot commands
//! measured by wall time, and the serving daemon; CPU time and peak memory
//! of both are read from `/proc`.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod ffi {
    extern "C" {
        pub fn sysconf(name: i32) -> i64;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub const SC_PAGESIZE: i32 = 30;
}

fn sysconf(name: i32) -> i64 {
    // SAFETY: `sysconf` takes an integer selector and returns an integer;
    // it reads no memory of ours.
    unsafe { ffi::sysconf(name) }
}

pub fn page_size() -> u64 {
    sysconf(ffi::SC_PAGESIZE).max(0) as u64
}

/// What a finished child cost.
#[derive(Debug, Clone)]
pub struct Finished {
    pub wall_s: f64,
    pub rss_peak_mb: f64,
    pub stdout: String,
}

/// Path of the CLI under test and where its scratch files go.
#[derive(Debug, Clone)]
pub struct Cli {
    pub binary: PathBuf,
}

/// `VmHWM` of `/proc/<pid>/status`, in MB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}

impl Cli {
    /// Run `efficient-imm <args>` to completion. A non-zero exit is an
    /// error carrying the child's stderr.
    ///
    /// Peak memory is the last `VmHWM` read while the child ran (polled
    /// every millisecond). `ru_maxrss` cannot be used: exec folds the
    /// high-water mark of the address space the child was forked from —
    /// the harness's own — into the child's figure.
    pub fn run(&self, args: &[&str]) -> Result<Finished, String> {
        let started = Instant::now();
        let mut child = Command::new(&self.binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.binary.display()))?;
        // The commands the harness runs print a few kilobytes, far below a
        // pipe buffer, so reading after the exit cannot deadlock.
        let mut rss_peak_mb = 0.0;
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            rss_peak_mb = peak_rss_mb(child.id()).unwrap_or(rss_peak_mb);
            std::thread::sleep(Duration::from_millis(1));
        };
        let wall_s = started.elapsed().as_secs_f64();
        let mut stdout = String::new();
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            pipe.read_to_string(&mut stdout).map_err(|e| e.to_string())?;
        }
        if let Some(mut pipe) = child.stderr.take() {
            pipe.read_to_string(&mut stderr).map_err(|e| e.to_string())?;
        }
        if !status.success() {
            return Err(format!(
                "`efficient-imm {}` failed ({status}): {}",
                args.join(" "),
                stderr.trim()
            ));
        }
        Ok(Finished { wall_s, rss_peak_mb, stdout })
    }

    /// Spawn `efficient-imm serve <args>`. The child inherits the
    /// spawning thread's CPU affinity.
    pub fn spawn_daemon(&self, args: &[&str]) -> Result<Daemon, String> {
        let child = Command::new(&self.binary)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.binary.display()))?;
        Ok(Daemon { child, spawned: Instant::now() })
    }
}

/// A running serving daemon.
pub struct Daemon {
    child: Child,
    pub spawned: Instant,
}

impl Daemon {
    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// CPU seconds the daemon's live threads have spent running, at the
    /// scheduler's nanosecond resolution (`/proc/<pid>/stat` counts in
    /// 10 ms ticks, too coarse for a window of a few seconds).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let tasks = std::fs::read_dir(&dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
        let mut ns = 0u64;
        for task in tasks.flatten() {
            // A thread may exit between the listing and the read.
            let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            ns += stat.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        }
        Ok(ns as f64 / 1e9)
    }

    /// Reset the peak resident set to the current one, so the next
    /// reading is the peak of the window in between (`VmHWM` only ever
    /// grows, and one coincidence early in a run would own it).
    pub fn reset_rss_peak(&self) -> Result<(), String> {
        let path = format!("/proc/{}/clear_refs", self.child.id());
        std::fs::write(&path, "5").map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id()).ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// Threads the daemon runs right now.
    pub fn threads(&self) -> usize {
        self.proc_file("status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Threads:"))
                    .and_then(|v| v.trim().parse::<usize>().ok())
            })
            .unwrap_or(0)
    }

    /// Wait for the daemon to exit on its own (after a shutdown verb);
    /// kill it if it has not within `limit`. Returns whether it exited
    /// cleanly.
    pub fn finish(mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    self.child.kill().ok();
                    self.child.wait().ok();
                    return false;
                }
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon must never outlive the run that started it, whatever path
    /// the run took out of its scope.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16]; // room for 1024 CPUs
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 is the calling thread; pointer and byte length describe
    // a live local buffer.
    unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The calling thread confined to one CPU for as long as the guard lives;
/// a child spawned meanwhile inherits the confinement for good.
pub struct Pin {
    restore: Vec<usize>,
}

impl Pin {
    /// Pin to `cpu`; `None` (or a refused mask) pins nothing.
    pub fn on(cpu: Option<usize>) -> Self {
        let allowed = allowed_cpus();
        match cpu {
            Some(cpu) if set_affinity(&[cpu]) => Pin { restore: allowed },
            _ => Pin { restore: Vec::new() },
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if !self.restore.is_empty() {
            set_affinity(&self.restore);
        }
    }
}

/// Facts about the machine a result was taken on.
pub fn machine_json() -> serde_json::Value {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let caches: Vec<serde_json::Value> = (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = read(&format!("{dir}/size"));
            if size.trim().is_empty() {
                return None;
            }
            Some(serde_json::json!({
                "level": read(&format!("{dir}/level")).trim(),
                "type": read(&format!("{dir}/type")).trim(),
                "size": size.trim(),
            }))
        })
        .collect();
    serde_json::json!({
        "nproc": nproc(),
        "numa_nodes": crate::sut::numa_nodes(),
        "page_size": page_size(),
        "cpu_model": cpu_model,
        "caches": caches,
        "harness_pool_threads": crate::sut::pool_threads(),
        "load_average_1m": load_average(),
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One-minute load average (0 when `/proc/loadavg` is unreadable).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// The CPUs this process may run on, lowest first.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
        .unwrap_or("0");
    let mut cpus = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    if cpus.is_empty() {
        cpus.push(0);
    }
    cpus
}

/// Where build outputs and the benchmark's scratch files live: cargo's
/// target directory (the caller's `CARGO_TARGET_DIR`, else
/// `target/spine`), always relative to the checkout root so that unix
/// socket paths stay short.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("target").join("spine"))
}
