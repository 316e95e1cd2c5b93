//! The load generator: one connection, one thread, closed loop; a second
//! thread on a control connection rolls deltas out during the churn
//! window. Never more threads than the two the smallest supported
//! machine has CPUs for.

use crate::child::Daemon;
use crate::gen::{self, Rng};
use crate::plan::Mix;
use crate::sut::{Answers, Req, Rollout, Wire};
use crate::trace::Tracer;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Distinct requests of a point or heavy pool. The response cache holds
/// 256 entries, so cycling through this many distinct queries never hits.
const POINT_POOL: usize = 4096;
const HEAVY_POOL: usize = 512;
const HEAVY_QUERIES_PER_REQUEST: usize = 8;
/// One steady request in this many is kept and re-executed in process.
pub const VERIFY_ONE_IN: usize = 256;
const VERIFY_CAP: usize = 2048;

/// The requests a workload sends, built once before any clock starts, and
/// cycled through in order.
pub struct RequestPool {
    pub requests: Vec<Req>,
    at: usize,
}

impl RequestPool {
    pub fn build(mix: Mix, nodes: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let requests = match mix {
            Mix::Point => (0..POINT_POOL)
                .map(|_| Req::batch(&[gen::point_query(&mut rng, nodes)], nodes))
                .collect(),
            Mix::Heavy => (0..HEAVY_POOL)
                .map(|_| {
                    let specs: Vec<_> = (0..HEAVY_QUERIES_PER_REQUEST)
                        .map(|_| gen::heavy_query(&mut rng, nodes))
                        .collect();
                    Req::batch(&specs, nodes)
                })
                .collect(),
        };
        RequestPool { requests, at: 0 }
    }

    /// Index of the next request to send.
    pub fn next(&mut self) -> usize {
        let i = self.at;
        self.at = (self.at + 1) % self.requests.len();
        i
    }
}

/// One answered request. `sent` is an offset from the start of traffic.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub sent: Duration,
    pub rtt_us: f32,
}

/// One `apply-delta` round trip.
pub struct RolloutSample {
    /// Applied, checked and replayed like every other, but not timed.
    pub warm: bool,
    pub start: Duration,
    pub end: Duration,
    pub outcome: Result<Rollout, String>,
}

/// One window of plain traffic.
pub struct Segment {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub queries: u64,
    /// Daemon on-CPU seconds over the window.
    pub daemon_cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The window of traffic under rollouts.
pub struct Churn {
    pub samples: Vec<Sample>,
    pub rollouts: Vec<RolloutSample>,
    pub attempted: u64,
    pub failed: u64,
}

struct Loop<'a> {
    wire: &'a mut Wire,
    pool: &'a mut RequestPool,
    /// Records the client-side steps of every request when enabled.
    tr: &'a mut Tracer,
    origin: Instant,
    sent: u64,
    attempted: u64,
    failed: u64,
    queries: u64,
}

impl<'a> Loop<'a> {
    fn new(wire: &'a mut Wire, pool: &'a mut RequestPool, tr: &'a mut Tracer) -> Self {
        Loop {
            wire,
            pool,
            tr,
            origin: Instant::now(),
            sent: 0,
            attempted: 0,
            failed: 0,
            queries: 0,
        }
    }

    /// Send one request and account for it; `keep` asks for the answers.
    fn step(&mut self, keep: bool) -> Result<(Sample, Option<(usize, Answers)>), String> {
        let index = self.pool.next();
        self.attempted += 1;
        let request = &self.pool.requests[index];
        let sent = self.origin.elapsed();
        self.sent += 1;
        let answers = self.wire.batch_traced(request, self.sent, self.tr)?;
        let done = self.origin.elapsed();
        if answers.len() != request.num_queries() || answers.rejected() > 0 {
            self.failed += 1;
        }
        self.queries += answers.len() as u64;
        let rtt_us = (done - sent).as_secs_f64() as f32 * 1e6;
        Ok((Sample { sent, rtt_us }, keep.then_some((index, answers))))
    }
}

/// Drive plain traffic for `window`. One request in [`VERIFY_ONE_IN`] is
/// pushed, with its answers, onto `kept` for re-execution later. A
/// transport error ends the run: no workload is built to provoke one.
pub fn steady_segment(
    wire: &mut Wire,
    daemon: &Daemon,
    pool: &mut RequestPool,
    window: Duration,
    kept: &mut Vec<(usize, Answers)>,
    tr: &mut Tracer,
) -> Result<Segment, String> {
    let cpu_before = daemon.cpu_s()?;
    let mut lp = Loop::new(wire, pool, tr);
    let mut samples = Vec::new();
    while lp.origin.elapsed() < window {
        let keep = (lp.sent as usize).is_multiple_of(VERIFY_ONE_IN) && kept.len() < VERIFY_CAP;
        let (sample, answers) = lp.step(keep)?;
        samples.push(sample);
        kept.extend(answers);
    }
    let wall_s = lp.origin.elapsed().as_secs_f64();
    Ok(Segment {
        samples,
        wall_s,
        queries: lp.queries,
        daemon_cpu_s: daemon.cpu_s()? - cpu_before,
        attempted: lp.attempted,
        failed: lp.failed,
    })
}

/// The rollouts of one churn window: `deltas` go out one after another,
/// `gap` apart — `warm` untimed ones first, then timed ones until the
/// window has passed and at least `min` of them were applied.
pub struct Rollouts<'a> {
    pub deltas: &'a [String],
    pub gap: Duration,
    pub warm: usize,
    pub min: usize,
}

/// Drive closed-loop traffic for `window` while a control connection
/// rolls `rollouts` out.
pub fn churn(
    wire: &mut Wire,
    socket: &Path,
    pool: &mut RequestPool,
    window: Duration,
    rollouts: Rollouts,
) -> Result<Churn, String> {
    let Rollouts { deltas, gap, warm, min: min_rollouts } = rollouts;
    let stop = AtomicBool::new(false);
    let mut off = Tracer::new(false);
    let mut lp = Loop::new(wire, pool, &mut off);
    let origin = lp.origin;

    std::thread::scope(|scope| {
        let stop = &stop;
        let control = scope.spawn(move || -> Result<Vec<RolloutSample>, String> {
            let mut control_wire = Wire::connect(socket, Duration::from_secs(5))?;
            let mut rollouts = Vec::new();
            for text in deltas {
                if stop.load(Ordering::Acquire) && rollouts.len() >= warm + min_rollouts {
                    break;
                }
                let start = origin.elapsed();
                let outcome = control_wire.apply_delta(text);
                let failed = outcome.is_err();
                rollouts.push(RolloutSample {
                    warm: rollouts.len() < warm,
                    start,
                    end: origin.elapsed(),
                    outcome,
                });
                if failed {
                    break;
                }
                std::thread::sleep(gap);
            }
            Ok(rollouts)
        });

        let mut samples = Vec::new();
        let mut outcome = Ok(());
        loop {
            if origin.elapsed() >= window {
                stop.store(true, Ordering::Release);
                if control.is_finished() {
                    break;
                }
            }
            match lp.step(false) {
                Ok((sample, _)) => samples.push(sample),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        // Stop the control thread on every path out.
        stop.store(true, Ordering::Release);
        let rollouts = control.join().map_err(|_| "the control thread panicked".to_string())??;
        outcome?;
        let failed_rollouts = rollouts.iter().filter(|r| r.outcome.is_err()).count() as u64;
        Ok(Churn {
            samples,
            attempted: lp.attempted + rollouts.len() as u64,
            failed: lp.failed + failed_rollouts,
            rollouts,
        })
    })
}

/// The round trips of `samples` sent during a timed rollout.
pub fn in_rollout_rtts(samples: &[Sample], rollouts: &[RolloutSample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| rollouts.iter().any(|r| !r.warm && r.start <= s.sent && s.sent < r.end))
        .map(|s| s.rtt_us as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollout_window_selects_by_send_time() {
        let at = |us: u64| Sample { sent: Duration::from_micros(us), rtt_us: us as f32 };
        let samples = [at(10), at(20), at(30), at(40)];
        let rollout = |warm, start, end| RolloutSample {
            warm,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            outcome: Err("unused".into()),
        };
        // The warm-up rollout covering 10 selects nothing.
        let rollouts = [rollout(true, 5, 15), rollout(false, 20, 40)];
        assert_eq!(in_rollout_rtts(&samples, &rollouts), vec![20.0, 30.0]);
    }

    #[test]
    fn pools_cycle_through_every_request_in_order() {
        let mut pool = RequestPool::build(Mix::Heavy, 3000, 1);
        assert_eq!(pool.requests.len(), HEAVY_POOL);
        assert!(pool.requests.iter().all(|r| r.num_queries() == HEAVY_QUERIES_PER_REQUEST));
        let first: Vec<usize> = (0..HEAVY_POOL).map(|_| pool.next()).collect();
        assert_eq!(first, (0..HEAVY_POOL).collect::<Vec<_>>());
        assert_eq!(pool.next(), 0);
    }
}
