//! The tracing-off pass: one walk of the whole spine against the real
//! `efficient-imm` binary — solve, cold starts, steady traffic, traffic
//! under rollouts — producing every end-to-end metric, with the
//! correctness checks run outside the timed windows.

use crate::child::{self, Cli, Daemon};
use crate::gen::{self, Rng, Seeds};
use crate::loadgen::{self, RequestPool};
use crate::plan::Plan;
use crate::stats::{highest_supported_quantile, median, quantile_sorted, sorted};
use crate::sut::{Engine, Graph, Index, Replica, Req, Wire};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Forward simulations behind `seed_spread`.
const SPREAD_TRIALS: usize = 256;
/// The solver's own estimate must land this close to the simulation.
const SPREAD_TOLERANCE: f64 = 0.10;
/// Requests compared against the replayed in-process index after the
/// last rollout.
const FINAL_BATTERY: usize = 32;
/// Delta batches a run prepares; the rollouts stop when they run out.
const MAX_ROLLOUTS: usize = 128;
const WARMUP: Duration = Duration::from_millis(200);
/// The steady window is cut into slices this long; round trip, throughput
/// and daemon CPU are taken per slice and the median slice is reported, so
/// a host stall spoils one slice and not the window's mean.
const SLICE: Duration = Duration::from_millis(250);
const CONNECT_WAIT: Duration = Duration::from_secs(20);

/// Where a run keeps its files, and the binary it measures.
pub struct Env {
    pub cli: Cli,
    pub work: PathBuf,
}

impl Env {
    /// A fresh scratch directory for `workload` under the target dir.
    pub fn new(workload: &str) -> Result<Self, String> {
        let target = child::target_dir();
        let binary = target.join("release").join("efficient-imm");
        if !binary.is_file() {
            return Err(format!(
                "{} is missing: build it with `cargo build --release --offline -p imm-cli` \
                 (spine/run.sh does)",
                binary.display()
            ));
        }
        let work = target.join("spine-work").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&work).ok();
        std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {work:?}: {e}"))?;
        Ok(Env { cli: Cli { binary }, work })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.work).ok();
    }
}

/// Operations attempted and failed, and the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    pub fn absorb(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{failed} of {attempted} {what} failed"));
        }
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// One finished pass: metric values by name, the tally, and a free-form
/// record (parameters, pins, counts) for the result file.
pub struct Pass {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub record: serde_json::Value,
}

fn arg(v: impl ToString) -> String {
    v.to_string()
}

/// `efficient-imm generate` into file `name` of the scratch directory.
pub fn generate_graph(
    env: &Env,
    plan: &Plan,
    seeds: &Seeds,
    name: &str,
) -> Result<PathBuf, String> {
    let path = env.path(name);
    env.cli.run(&[
        "generate",
        "--output",
        &path.to_string_lossy(),
        "--kind",
        "social",
        "--nodes",
        &arg(plan.nodes),
        "--avg-degree",
        &arg(plan.avg_degree),
        "--seed",
        &arg(seeds.graph),
    ])?;
    Ok(path)
}

/// The edge-insert batches of the churn window.
pub fn delta_batches(plan: &Plan, seeds: &Seeds, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seeds.deltas);
    (0..count).map(|_| gen::delta_text(&mut rng, plan.nodes, plan.delta_edges, 0.05)).collect()
}

fn solve_args(plan: &Plan, seeds: &Seeds, graph: &Path) -> Vec<String> {
    vec![
        "--graph".into(),
        graph.to_string_lossy().into_owned(),
        "--model".into(),
        plan.model.cli_name().into(),
        "--k".into(),
        arg(plan.k),
        "--epsilon".into(),
        arg(plan.epsilon),
        "--seed".into(),
        arg(seeds.imm),
    ]
}

fn seeds_of(json: &serde_json::Value, key: &str) -> Vec<u32> {
    json[key]
        .as_array()
        .map(|a| a.iter().filter_map(|v| v.as_u64()).map(|v| v as u32).collect())
        .unwrap_or_default()
}

/// Arguments of `efficient-imm serve` for this plan.
pub fn serve_args(
    plan: &Plan,
    snapshot: &Path,
    socket: &Path,
    graph: Option<&Path>,
    mmap: bool,
) -> Vec<String> {
    let mut args = vec![
        "--index".into(),
        snapshot.to_string_lossy().into_owned(),
        "--socket".into(),
        socket.to_string_lossy().into_owned(),
        "--shards".into(),
        arg(plan.shards),
    ];
    if let Some(graph) = graph {
        args.push("--graph".into());
        args.push(graph.to_string_lossy().into_owned());
    }
    if mmap {
        args.push("--mmap".into());
    }
    args
}

pub fn as_strs(args: &[String]) -> Vec<&str> {
    args.iter().map(String::as_str).collect()
}

struct ColdStart {
    pong_s: f64,
    ttfq_ms: f64,
}

/// spawn → connect → first pong → first Top-K(8) answered → shutdown.
fn cold_start(
    env: &Env,
    plan: &Plan,
    snapshot: &Path,
    mmap: bool,
    probe: &Req,
    reference: &Engine,
    tally: &mut Tally,
) -> Result<ColdStart, String> {
    let socket = env.path("cold.sock");
    std::fs::remove_file(&socket).ok();
    let args = serve_args(plan, snapshot, &socket, None, mmap);
    let daemon = env.cli.spawn_daemon(&as_strs(&args))?;
    let mut wire = Wire::connect(&socket, CONNECT_WAIT)?;
    wire.ping()?;
    let pong_s = daemon.spawned.elapsed().as_secs_f64();
    let answers = wire.batch(probe)?;
    let ttfq_ms = daemon.spawned.elapsed().as_secs_f64() * 1e3;
    tally.check(reference.agrees(probe, &answers, 1), || {
        format!("cold start (mmap: {mmap}) answered its first Top-K differently")
    });
    wire.shutdown()?;
    tally.check(daemon.finish(Duration::from_secs(10)), || {
        "a cold-started daemon did not exit cleanly".into()
    });
    Ok(ColdStart { pong_s, ttfq_ms })
}

/// The CPU generator and daemon share (`None` only if the mask cannot be
/// read). The daemon inherits the pin and sizes itself to one thread. It
/// is the only placement whose readings repeat on a small virtual machine:
/// a daemon that goes idle on a CPU of its own pays a vCPU wake-up per
/// request (tens of microseconds to milliseconds, different from run to
/// run), and work that needs two vCPUs at once runs at one or two CPUs'
/// speed depending on where the host put them — the same two-thread
/// sampling takes 0.24 s or 0.46 s.
pub fn shared_cpu() -> Option<usize> {
    child::allowed_cpus().last().copied()
}

/// Spawn a traffic daemon (`serve --mmap`; with `--graph …` it accepts
/// rollouts) confined to `cpu`, and wait for its first pong.
pub fn start_daemon(
    env: &Env,
    plan: &Plan,
    snapshot: &Path,
    graph: Option<&Path>,
    cpu: Option<usize>,
) -> Result<(Daemon, Wire, PathBuf), String> {
    let socket = env.path(if graph.is_some() { "churn.sock" } else { "serve.sock" });
    std::fs::remove_file(&socket).ok();
    let args = serve_args(plan, snapshot, &socket, graph, true);
    let daemon = {
        let _pin = child::Pin::on(cpu);
        env.cli.spawn_daemon(&as_strs(&args))?
    };
    let mut wire = Wire::connect(&socket, CONNECT_WAIT)?;
    wire.ping()?;
    Ok((daemon, wire, socket))
}

/// Closed-loop requests for `window`, unrecorded: caches fill, lazy
/// set-up finishes.
pub fn warm_up(wire: &mut Wire, pool: &mut RequestPool, window: Duration) -> Result<(), String> {
    let started = Instant::now();
    while started.elapsed() < window {
        let index = pool.next();
        wire.batch(&pool.requests[index])?;
    }
    Ok(())
}

/// The end-to-end pass of `plan`.
///
/// Host speed on a small virtual machine has modes that last seconds, so
/// nothing is measured in one block: the run is `solve_repeats` rounds of
/// [set-up, solve, a share of the cold starts, a share of the steady
/// window, a share of the traffic under rollouts], and every metric is the
/// median over the rounds (over all slices of all rounds for the steady
/// window).
pub fn run(plan: &Plan, seed: u64, seconds: f64) -> Result<Pass, String> {
    let env = Env::new(plan.name)?;
    let seeds = Seeds::derive(seed);
    let threads = child::nproc();
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let load_at_start = child::load_average();

    // Set-up: the graph file, the requests, the deltas. Timed here, and
    // once more at the top of every round, so `setup_s` is a median over
    // the whole run like every other metric.
    let set_up = |name: &str| -> Result<(f64, PathBuf, RequestPool, Vec<String>), String> {
        let t = Instant::now();
        let graph_path = generate_graph(&env, plan, &seeds, name)?;
        let pool = RequestPool::build(plan.mix, plan.nodes, seeds.queries);
        let deltas = delta_batches(plan, &seeds, MAX_ROLLOUTS);
        let took = t.elapsed().as_secs_f64();
        // The graph file is still dirty in the page cache, and the next
        // fsync of `build-index` would pay for flushing it: flush it here,
        // untimed.
        std::fs::File::open(&graph_path).and_then(|f| f.sync_all()).map_err(|e| e.to_string())?;
        Ok((took, graph_path, pool, deltas))
    };
    let (first_setup_s, graph_path, mut pool, deltas) = set_up("graph.txt")?;
    let mut setups = vec![first_setup_s];

    let snapshot = env.path("index.sketch");
    let base = solve_args(plan, &seeds, &graph_path);
    let mut run_args = vec!["run".to_string()];
    run_args.extend(base.iter().cloned());
    let mut build_args = vec!["build-index".to_string()];
    build_args.extend(base.iter().cloned());
    build_args.extend(["--output".to_string(), snapshot.to_string_lossy().into_owned()]);
    let probe = Req::batch(&[gen::QuerySpec::TopK { k: 8, audience: None }], plan.nodes);

    let rounds = plan.solve_repeats;
    let slices_per_round = ((seconds * plan.steady_share / rounds as f64 / SLICE.as_secs_f64())
        .round() as usize)
        .max(1);
    let churn_window = Duration::from_secs_f64(seconds * (1.0 - plan.steady_share) / rounds as f64);
    let rollouts_per_round = plan.min_rollouts.div_ceil(rounds);
    let cpu = shared_cpu();

    let (mut run_s, mut build_s, mut solve_rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut build_sampling_s = Vec::new();
    let (mut mapped, mut decoded, mut pongs) = (Vec::new(), Vec::new(), Vec::new());
    let mut segments = Vec::new();
    let mut kept = Vec::new();
    let mut theta = 0;
    // Built in the first round, once the snapshot exists.
    let mut oracle = None;
    // Two long-lived daemons on the same snapshot: one is only read (its
    // answers can be re-executed on the snapshot), the other takes the
    // rollouts (its answers are checked against the replayed replica).
    let mut serving: Option<(Daemon, Wire, PathBuf)> = None;
    let mut churned: Option<(Daemon, Wire, PathBuf)> = None;
    let mut churn_counters = None;
    let mut rollouts: Vec<loadgen::RolloutSample> = Vec::new();
    let mut in_rollout = Vec::new();
    let (mut churn_requests, mut churn_attempted, mut churn_failed) = (0, 0, 0);
    let mut serve_rss = Vec::new();
    // Where the run's own wall time went: [set-up, solve, oracle, cold
    // starts, steady traffic, churn, checks].
    let mut phase_s = [0.0f64; 7];
    phase_s[0] = first_setup_s;
    let mut phase_started = Instant::now();
    let mut lap = |phase: usize| {
        phase_s[phase] += phase_started.elapsed().as_secs_f64();
        phase_started = Instant::now();
    };

    for round in 0..rounds {
        let (again_s, again_path, ..) = set_up("graph-again.txt")?;
        std::fs::remove_file(again_path).ok();
        setups.push(again_s);
        lap(0);

        // Solve: the paper's headline run, then the index build. (A later
        // round's build replaces the snapshot by rename; the daemon keeps
        // serving the identical file it mapped.)
        let ran = env.cli.run(&as_strs(&run_args))?;
        let built = env.cli.run(&as_strs(&build_args))?;
        tally.attempted += 2;
        let ran_json = serde_json::from_str(&ran.stdout).map_err(|e| format!("run output: {e}"))?;
        let built_json =
            serde_json::from_str(&built.stdout).map_err(|e| format!("build-index output: {e}"))?;
        let solved_seeds = seeds_of(&ran_json, "seeds");
        theta = ran_json["theta"].as_u64().unwrap_or(0);
        tally.check(
            solved_seeds.len() == plan.k && solved_seeds == seeds_of(&built_json, "top_k_seeds"),
            || "`run` and `build-index` chose different seeds for one seed".into(),
        );
        run_s.push(ran.wall_s);
        build_s.push(built.wall_s);
        build_sampling_s.push(built_json["sampling_seconds"].as_f64().unwrap_or(0.0));
        solve_rss.push(ran.rss_peak_mb.max(built.rss_peak_mb));
        lap(1);

        // The oracle and the in-process reference, outside every timed
        // window.
        if oracle.is_none() {
            let graph = Graph::load(&graph_path, plan.model, seeds.imm, &mut off)?;
            let seed_spread =
                graph.forward_spread(plan.model, &solved_seeds, SPREAD_TRIALS, seeds.spread);
            let sharded =
                Index::load_decode(&snapshot, &mut off)?.into_sharded(plan.shards, &mut off)?;
            let reference = sharded.engine(threads, 0, &mut off);
            let own_estimate = reference.spread_estimate(&solved_seeds)?;
            tally.check((own_estimate - seed_spread).abs() <= SPREAD_TOLERANCE * seed_spread, || {
                format!("IMM estimates {own_estimate:.1} for its seeds, simulation {seed_spread:.1}")
            });
            oracle = Some((graph, sharded, reference, seed_spread, own_estimate));
        }
        let reference = &oracle.as_ref().expect("built above").2;
        lap(2);

        // This round's share of the cold starts, mapped and read-decode
        // alternating.
        let share = plan.cold_starts / rounds + usize::from(round < plan.cold_starts % rounds);
        for _ in 0..share {
            let m = cold_start(&env, plan, &snapshot, true, &probe, reference, &mut tally)?;
            mapped.push(m.ttfq_ms);
            pongs.push(m.pong_s);
            let d = cold_start(&env, plan, &snapshot, false, &probe, reference, &mut tally)?;
            decoded.push(d.ttfq_ms);
        }
        lap(3);

        // This round's share of the steady window.
        if serving.is_none() {
            serving = Some(start_daemon(&env, plan, &snapshot, None, cpu)?);
        }
        let (daemon, wire, _) = serving.as_mut().expect("started above");
        let _pin = child::Pin::on(cpu);
        daemon.reset_rss_peak()?;
        warm_up(wire, &mut pool, if round == 0 { WARMUP } else { WARMUP / 4 })?;
        let slice = SLICE.min(Duration::from_secs_f64(seconds * plan.steady_share / rounds as f64));
        for _ in 0..slices_per_round {
            segments.push(loadgen::steady_segment(
                wire, daemon, &mut pool, slice, &mut kept, &mut off,
            )?);
        }
        let read_rss_peak_mb = daemon.rss_peak_mb()?;
        lap(4);

        // This round's share of the traffic under rollouts.
        if churned.is_none() {
            let mut started = start_daemon(&env, plan, &snapshot, Some(&graph_path), cpu)?;
            warm_up(&mut started.1, &mut pool, WARMUP)?;
            churn_counters = Some(started.1.counters()?);
            churned = Some(started);
        }
        let (daemon, wire, socket) = churned.as_mut().expect("started above");
        daemon.reset_rss_peak()?;
        let churn = loadgen::churn(
            wire,
            socket,
            &mut pool,
            churn_window,
            loadgen::Rollouts {
                deltas: &deltas[rollouts.len()..],
                gap: Duration::from_millis(plan.rollout_gap_ms),
                warm: if round == 0 { plan.warm_rollouts } else { 0 },
                min: rollouts_per_round,
            },
        )?;
        in_rollout.extend(loadgen::in_rollout_rtts(&churn.samples, &churn.rollouts));
        churn_requests += churn.samples.len();
        churn_attempted += churn.attempted;
        churn_failed += churn.failed;
        rollouts.extend(churn.rollouts);
        serve_rss.push(daemon.rss_peak_mb()?.max(read_rss_peak_mb));
        lap(5);
    }

    // (Untimed) the battery the replayed replica is compared against.
    let (daemon, mut wire, _) = serving.take().expect("at least one round ran");
    let workers = wire.workers()?;
    let daemon_threads = daemon.threads();
    let read_fallbacks = wire.counters()?.mmap_fallbacks;
    wire.shutdown()?;
    tally.check(daemon.finish(Duration::from_secs(10)), || {
        "the read daemon did not exit cleanly".into()
    });
    let (daemon, mut wire, _) = churned.take().expect("at least one round ran");
    let hits_before = churn_counters.expect("read when the daemon started");
    let mut battery = Vec::with_capacity(FINAL_BATTERY);
    for _ in 0..FINAL_BATTERY {
        let index = pool.next();
        battery.push((index, wire.batch(&pool.requests[index])?));
    }
    let counters = wire.counters()?;
    wire.shutdown()?;
    tally.check(daemon.finish(Duration::from_secs(10)), || {
        "the churned daemon did not exit cleanly".into()
    });
    tally.check(counters.mmap_fallbacks + read_fallbacks == 0.0, || {
        "--mmap fell back to read-decode".into()
    });
    for segment in &segments {
        tally.absorb(segment.attempted, segment.failed, "steady requests");
    }
    tally.absorb(churn_attempted, churn_failed, "requests and rollouts under churn");

    // One steady request in 256, re-executed in process.
    let (graph, sharded, reference, seed_spread, own_estimate) = oracle.expect("a round ran");
    let mut wrong = 0;
    for (index, answers) in &kept {
        wrong += !reference.agrees(&pool.requests[*index], answers, threads) as u64;
    }
    tally.absorb(kept.len() as u64, wrong, "re-executed requests");
    drop(reference);

    // The rollouts replayed on an in-process replica: the daemon's edge
    // counts and its answers after the last rollout must match.
    let mut replica = Replica::new(&sharded, graph);
    drop(sharded);
    for (rollout, text) in rollouts.iter().zip(&deltas) {
        let Ok(reported) = &rollout.outcome else { continue };
        let edges_after = replica.roll(text, &mut off)?;
        tally.check(edges_after == reported.edges_after, || {
            format!("rollout reported {} edges, the replay has {edges_after}", reported.edges_after)
        });
    }
    let replayed = replica.sharded().engine(threads, 0, &mut off);
    let mut wrong = 0;
    for (index, answers) in &battery {
        wrong += !replayed.agrees(&pool.requests[*index], answers, threads) as u64;
    }
    tally.absorb(battery.len() as u64, wrong, "post-rollout answers");
    lap(6);

    // Metrics: medians over the rounds and slices.
    let per_slice =
        |f: &dyn Fn(&loadgen::Segment) -> f64| -> Vec<f64> { segments.iter().map(f).collect() };
    let slice_rtt_us =
        per_slice(&|s| median(&s.samples.iter().map(|x| x.rtt_us as f64).collect::<Vec<_>>()));
    let slice_cpu_us = per_slice(&|s| s.daemon_cpu_s * 1e6 / s.queries.max(1) as f64);
    let slice_queries_per_s = per_slice(&|s| s.queries as f64 / s.wall_s);
    let rollout_ms: Vec<f64> = rollouts
        .iter()
        .filter(|r| !r.warm && r.outcome.is_ok())
        .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
        .collect();
    let metrics = vec![
        ("setup_s", median(&setups) + median(&pongs)),
        ("imm_run_s", median(&run_s)),
        ("seed_spread", seed_spread),
        (
            "snapshot_mb",
            std::fs::metadata(&snapshot).map_err(|e| e.to_string())?.len() as f64 / 1e6,
        ),
        ("solve_rss_peak_mb", median(&solve_rss)),
        // The mean, not the median: the series is a staircase (the heap
        // grows a step at a time, in a different round every run), and its
        // median flips between two steps.
        ("serve_rss_peak_mb", serve_rss.iter().sum::<f64>() / serve_rss.len() as f64),
        ("rtt_p50_us", median(&slice_rtt_us)),
        ("cpu_us_per_query", median(&slice_cpu_us)),
        ("rollout_p50_ms", median(&rollout_ms)),
        ("ttfq_ms", median(&mapped)),
        ("ttfq_decode_ms", median(&decoded)),
    ];

    // Reported with the run, never gated: one host stall moves a tail by
    // an order of magnitude.
    let steady_rtts = sorted(segments.iter().flat_map(|s| &s.samples).map(|x| x.rtt_us as f64));
    let tail = highest_supported_quantile(steady_rtts.len());
    let hits = counters.minus(&hits_before);
    let noisy = load_at_start > crate::NOISY_LOAD_AVERAGE_PER_CPU * threads as f64;
    let record = serde_json::json!({
        "seeds": {
            "graph": seeds.graph, "imm": seeds.imm, "queries": seeds.queries,
            "deltas": seeds.deltas, "spread": seeds.spread,
        },
        "graph": { "nodes": plan.nodes, "model": plan.model.cli_name() },
        "theta": theta,
        "imm_own_estimate": own_estimate,
        "generator_and_daemon_pinned_to_cpu": cpu,
        "daemon_workers": workers,
        "daemon_threads": daemon_threads,
        "rounds": rounds,
        "steady_slices": segments.len(),
        "steady_requests": steady_rtts.len(),
        "churn_requests": churn_requests,
        "rtt_tail_quantile": tail,
        "rtt_tail_us": quantile_sorted(&steady_rtts, tail),
        "rollouts": rollouts.len(),
        "timed_rollouts": rollout_ms.len(),
        "requests_in_rollout": in_rollout.len(),
        "rtt_in_rollout_p50_us": median(&in_rollout),
        "index_build_s": median(&build_s),
        "queries_per_s": median(&slice_queries_per_s),
        "reexecuted_requests": kept.len(),
        "cache_hit_share_under_churn": hits.cache_hits
            / (hits.cache_hits + hits.cache_misses).max(1.0),
        "load_average_at_start": load_at_start,
        "noisy": noisy,
        "failures": tally.reasons.clone(),
        "fail_share": tally.failed as f64 / tally.attempted.max(1) as f64,
        "phase_s": {
            "setup": phase_s[0], "solve": phase_s[1], "oracle": phase_s[2],
            "cold_starts": phase_s[3], "steady": phase_s[4], "churn": phase_s[5],
            "checks": phase_s[6],
        },
        "detail": {
            "run_s": run_s, "build_s": build_s, "build_sampling_s": build_sampling_s,
            "serve_rss_mb": serve_rss, "ttfq_ms": mapped, "ttfq_decode_ms": decoded,
            "rollout_ms": rollout_ms,
            "rtt_p50_us": slice_rtt_us, "cpu_us": slice_cpu_us,
        },
    });
    Ok(Pass { metrics, tally, record })
}
