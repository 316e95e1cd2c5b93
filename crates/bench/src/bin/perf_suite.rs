//! The machine-readable performance baseline: one fixed sampling +
//! selection + query-serving workload, timed and written as `BENCH_7.json`
//! so later PRs can prove they did not regress the hot paths.
//!
//! Unlike the figure/table binaries (which sweep parameters to reproduce the
//! paper), this suite pins a single deterministic workload and reports a
//! small set of tracked metrics. Comparing two commits means running the bin
//! once on each, on the same machine, and diffing the `metrics` object.
//!
//! # Workload
//!
//! A seeded `social_network` graph under constant-probability IC weights,
//! sized so seed selection — not sampling — dominates (small RRR sets, many
//! of them). Five phases:
//!
//! 0. **Executor dispatch** — the fork-join round-trip cost on the two
//!    execution strategies the workspace has used: *spawn-per-round*
//!    (`std::thread::scope` creating fresh OS threads every round — what
//!    the scatter/gather serving paid per CELF round before the persistent
//!    runtime) vs the *persistent* process-global `imm-exec` pool
//!    (`rayon::scope` delegating to long-lived workers). Median over many
//!    rounds of the same trivial task fan-out.
//! 1. **Sampling** — bulk-generate θ RRR sets on a rayon pool.
//! 2. **Selection** — `select_seeds` (EfficientIMM kernel) at budget k,
//!    median of three runs.
//! 3. **Serving** — freeze a `SketchIndex`; measure Top-K latency on a
//!    *fresh* `QueryEngine` per trial (so every trial pays the full greedy
//!    cost, which is what the lazy-greedy selection optimizes), and
//!    uncached `Spread` latency on a shared engine.
//! 4. **Sharded serving** — partition the same index into each tracked
//!    shard count and measure the scatter/gather path: cold Top-K on a
//!    fresh `ShardedEngine` per trial and uncached Spread on a shared one.
//!    The single-index numbers of phase 3 stay in the report, so the
//!    serving trajectory and the sharding overhead/crossover are both
//!    visible in one file.
//! 5. **Observability overhead** — per-op cost of the two `imm-obs`
//!    hot-path primitives (relaxed counter add, histogram record),
//!    measured directly, plus the instrumented sampling throughput of
//!    phase 1 compared against an `obs-off` build's throughput when
//!    `--obs-baseline PATH` points at that build's output. The guard
//!    asserts (full runs only) that instrumentation costs no more than
//!    run-to-run noise.
//!
//! # Output schema (`BENCH_7.json`)
//!
//! ```json
//! {
//!   "bench": "perf_suite",            // constant tag
//!   "schema_version": 4,              // bump on layout changes
//!   "smoke": false,                   // true when --smoke shrank the run
//!   "workload": {
//!     "nodes": 60000, "edges": 623940,   // graph size actually built
//!     "theta": 60000,                    // RRR sets sampled
//!     "k": 64,                           // selection / Top-K budget
//!     "threads": 2,                      // requested sampling width
//!     "pool_threads": 1,                 // resolved global-pool width
//!     "shard_counts": [1, 2, 4],         // sharded-serving sweep
//!     "model": "independent-cascade",
//!     "edge_probability": 0.02,
//!     "rng_seed": 4242
//!   },
//!   "metrics": {
//!     "executor": {                     // phase 0 dispatch round-trips
//!       "spawn_per_round_us": 25.0,     //   fresh OS threads per round
//!       "persistent_scope_us": 0.4      //   persistent imm-exec pool
//!     },
//!     "sampling_sets_per_sec": 1.0e6,   // θ / sampling wall time
//!     "selection_ms": 12.5,             // median select_seeds wall, ms
//!     "topk_p50_ms": 9.1,               // median cold Top-K latency, ms
//!     "spread_p50_us": 40.2,            // median uncached Spread, µs
//!     "rrr_memory_bytes": 123456,       // CoverageStats::memory_bytes
//!     "sharded_serving": [              // one entry per shard count
//!       {"shards": 1, "topk_p50_ms": 9.5, "spread_p50_us": 41.0},
//!       {"shards": 2, "topk_p50_ms": 8.0, "spread_p50_us": 35.1},
//!       {"shards": 4, "topk_p50_ms": 7.2, "spread_p50_us": 33.8}
//!     ],
//!     "obs_overhead": {                 // phase 5 instrumentation guard
//!       "recording_enabled": true,      //   false under --features obs-off
//!       "counter_add_ns": 3.1,          //   one relaxed counter add
//!       "histogram_record_ns": 4.0,     //   one relaxed histogram record
//!       "obs_events_per_set": 2.0,      //   core counter deltas / θ
//!       "baseline_sampling_sets_per_sec": 1.02e6, // from --obs-baseline
//!       "sampling_throughput_ratio": 0.99         // instrumented/baseline
//!     }
//!   },
//!   "obs_metrics": { ... }              // full imm-obs registry snapshot,
//!                                       // imm_bench::obs::registry_json()
//!                                       // shape (its own schema_version) —
//!                                       // same serializer as the CLI's
//!                                       // `stats --metrics`
//! }
//! ```
//!
//! Schema v4 replaces v3's `exec_metrics` array with the `obs_metrics`
//! registry embed; the exec counters appear inside it under their
//! unchanged (byte-stable) names.
//!
//! All timings are wall-clock medians over the trial counts below; the
//! memory figure is the collection's own heap accounting (the peak-RSS
//! *estimate* — the sets dominate the process footprint at this scale).
//!
//! # Flags
//!
//! * `--smoke` — shrink every dimension so the run finishes in well under a
//!   second; used by CI to prove the bin runs and its JSON parses.
//! * `--out PATH` — write the JSON somewhere other than `./BENCH_7.json`.
//! * `--obs-baseline PATH` — a BENCH JSON produced by an `obs-off` build of
//!   this bin on the same machine; its sampling throughput becomes the
//!   denominator of `sampling_throughput_ratio`. Full (non-smoke) runs
//!   assert the instrumented throughput is within noise of that baseline.
//!
//! After writing, the bin reads the file back and re-parses it, so a run
//! that exits 0 has by construction produced valid JSON.

use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::{select_seeds, Algorithm, ExecutionConfig};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_rrr::AdaptivePolicy;
use imm_service::{Query, QueryEngine, QueryResponse, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Fixed base seed of the workload (graph + query streams).
const RNG_SEED: u64 = 4242;

struct Workload {
    nodes: usize,
    theta: usize,
    k: usize,
    threads: usize,
    shard_counts: Vec<usize>,
    edge_probability: f32,
    sampling_trials: usize,
    selection_trials: usize,
    topk_trials: usize,
    spread_trials: usize,
    executor_rounds: usize,
}

impl Workload {
    fn full() -> Self {
        Workload {
            nodes: 60_000,
            theta: 60_000,
            k: 64,
            threads: 2,
            shard_counts: vec![1, 2, 4],
            edge_probability: 0.02,
            sampling_trials: 7,
            selection_trials: 3,
            topk_trials: 41,
            spread_trials: 501,
            executor_rounds: 501,
        }
    }

    fn smoke() -> Self {
        Workload {
            nodes: 1_500,
            theta: 1_000,
            k: 8,
            threads: 2,
            shard_counts: vec![1, 2],
            edge_probability: 0.05,
            sampling_trials: 1,
            selection_trials: 1,
            topk_trials: 3,
            spread_trials: 21,
            executor_rounds: 21,
        }
    }
}

/// Median of raw f64 samples (callers pass odd trial counts).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => value.clone(),
            _ => {
                eprintln!("error: --out requires a path operand");
                std::process::exit(2);
            }
        },
        None => "BENCH_7.json".to_string(),
    };
    let obs_baseline = match args.iter().position(|a| a == "--obs-baseline") {
        Some(i) => match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Some(value.clone()),
            _ => {
                eprintln!("error: --obs-baseline requires a path operand");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let w = if smoke { Workload::smoke() } else { Workload::full() };

    // Metric registration is idempotent and happens before any timed phase,
    // so the snapshot at exit covers the full workspace catalog.
    imm_bench::obs::register_workspace_metrics();

    let mut rng = SmallRng::seed_from_u64(RNG_SEED);
    let graph = CsrGraph::from_edge_list(&generators::social_network(w.nodes, 8, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, w.edge_probability);
    let sampling = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: RNG_SEED,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 32 },
        threads: w.threads,
        fused_counter: None,
    };

    // Phase 0: executor dispatch round-trips. Both sides fan out the same
    // trivial task set and join; the only difference is who runs it —
    // fresh OS threads every round (the pre-persistent-runtime regime) or
    // the long-lived process-global pool.
    let fanout = w.threads.max(2);
    let counter = std::sync::atomic::AtomicU64::new(0);
    let mut spawn_us: Vec<f64> = (0..w.executor_rounds)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..fanout {
                    s.spawn(|| counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
                }
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let spawn_per_round_us = median(&mut spawn_us);
    let mut persistent_us: Vec<f64> = (0..w.executor_rounds)
        .map(|_| {
            let t = Instant::now();
            rayon::scope(|s| {
                for _ in 0..fanout {
                    s.spawn(|_| {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let persistent_scope_us = median(&mut persistent_us);
    assert_eq!(
        counter.into_inner(),
        2 * (w.executor_rounds * fanout) as u64,
        "every spawned task ran exactly once"
    );
    eprintln!(
        "[perf-suite] executor dispatch ({fanout} tasks/round): spawn-per-round \
         {spawn_per_round_us:.1} µs, persistent pool {persistent_scope_us:.1} µs"
    );

    // Phase 1: sampling throughput, median over trials — the phase is only
    // tens of milliseconds, so a single run would be mostly scheduler
    // noise, and phase 5's obs-off comparison needs a stable number on
    // both sides. Every trial regenerates the same θ sets (same seed); the
    // last trial's collection feeds the later phases. The core counter
    // deltas around the first timed region tell us how many
    // instrumentation events the workload actually generated per set
    // (phase 5 turns that into a cost bound).
    let sets_sampled_before = efficient_imm::metrics::SETS_SAMPLED.value();
    let mut sampling_trial_secs: Vec<f64> = Vec::with_capacity(w.sampling_trials);
    let t0 = Instant::now();
    let mut out = generate_rrr_sets(&graph, &weights, w.theta, 0, &sampling);
    sampling_trial_secs.push(t0.elapsed().as_secs_f64());
    let obs_events_during_sampling =
        // Two relaxed atomic adds per generated set (SETS_SAMPLED +
        // SET_VERTICES) at the one sampling choke point — the whole
        // instrumentation budget.
        2 * (efficient_imm::metrics::SETS_SAMPLED.value() - sets_sampled_before);
    for _ in 1..w.sampling_trials {
        let t = Instant::now();
        out = generate_rrr_sets(&graph, &weights, w.theta, 0, &sampling);
        sampling_trial_secs.push(t.elapsed().as_secs_f64());
    }
    let sampling_secs = median(&mut sampling_trial_secs);
    let collection = out.sets;
    let stats = collection.coverage_stats();
    eprintln!(
        "[perf-suite] sampled θ = {} in {sampling_secs:.3}s (avg set size {:.2})",
        collection.len(),
        stats.avg_size
    );

    // Phase 2: batch selection kernel.
    let exec = ExecutionConfig::new(Algorithm::Efficient, w.threads);
    let mut selection_ms: Vec<f64> = (0..w.selection_trials)
        .map(|_| {
            let t = Instant::now();
            let selection = select_seeds(&collection, w.k, &exec, None);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(selection.seeds.len(), w.k);
            ms
        })
        .collect();
    let selection_ms = median(&mut selection_ms);
    eprintln!("[perf-suite] selection k = {}: {selection_ms:.2} ms", w.k);

    // Phase 3: single-index serving. The spread loop measures the steady
    // state of the coverage-marking path (uncached, so every call does
    // real work). Cold Top-K is measured in phase 4, interleaved trial by
    // trial with the sharded engines, so the single/sharded comparison is
    // paired and immune to clock-speed drift across the run.
    let index =
        Arc::new(SketchIndex::build(&graph, collection, "perf-suite").expect("index builds"));
    let engine = QueryEngine::new(Arc::clone(&index));
    let mut query_rng = SmallRng::seed_from_u64(RNG_SEED ^ 0xC0FFEE);
    let mut spread_us: Vec<f64> = (0..w.spread_trials)
        .map(|_| {
            let seeds: Vec<u32> = (0..3).map(|_| query_rng.gen_range(0..w.nodes as u32)).collect();
            let query = Query::Spread { seeds };
            let t = Instant::now();
            let _ = engine.execute_uncached(&query);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let spread_p50_us = median(&mut spread_us);
    eprintln!("[perf-suite] uncached Spread p50: {spread_p50_us:.1} µs");

    // Phase 4: sharded scatter/gather serving, one sweep entry per shard
    // count. Cold Top-K uses a fresh engine per trial (the full
    // merged-bound greedy); Spread reuses one engine uncached. Every trial
    // round times a fresh single-index QueryEngine back to back with a
    // fresh ShardedEngine at each shard count, rotating which
    // configuration goes first — the paired, position-debiased design
    // keeps both the single/sharded ratio and the cross-shard-count
    // comparison honest on hosts whose effective clock drifts over a
    // multi-minute run (and whose caches remember the previous
    // measurement).
    let time_cold_topk = |run: &dyn Fn(&Query) -> QueryResponse| -> f64 {
        let t = Instant::now();
        let response = run(&Query::top_k(w.k));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match response {
            QueryResponse::TopK { seeds, .. } => assert_eq!(seeds.len(), w.k),
            other => panic!("unexpected {other:?}"),
        }
        ms
    };
    let shard_indexes: Vec<Arc<ShardedIndex>> = w
        .shard_counts
        .iter()
        .map(|&shards| {
            Arc::new(ShardedIndex::from_index((*index).clone(), shards).expect("index partitions"))
        })
        .collect();
    let mut single_topk_ms: Vec<f64> = Vec::with_capacity(w.topk_trials);
    let mut sharded_topk_ms: Vec<Vec<f64>> =
        vec![Vec::with_capacity(w.topk_trials); shard_indexes.len()];
    let config_count = shard_indexes.len() + 1;
    for trial in 0..w.topk_trials {
        for slot in 0..config_count {
            match (trial + slot) % config_count {
                0 => {
                    let single = QueryEngine::new(Arc::clone(&index));
                    single_topk_ms.push(time_cold_topk(&|q| single.execute(q)));
                }
                cfg => {
                    let engine = ShardedEngine::new(Arc::clone(&shard_indexes[cfg - 1]));
                    sharded_topk_ms[cfg - 1].push(time_cold_topk(&|q| engine.execute(q)));
                }
            }
        }
    }
    let topk_p50_ms = median(&mut single_topk_ms);
    eprintln!("[perf-suite] cold TopK p50 (single index, paired trials): {topk_p50_ms:.2} ms");

    let mut sharded_serving = Vec::with_capacity(w.shard_counts.len());
    for (i, &shards) in w.shard_counts.iter().enumerate() {
        let sharded_topk_p50_ms = median(&mut sharded_topk_ms[i]);

        let engine = ShardedEngine::new(Arc::clone(&shard_indexes[i]));
        let mut shard_query_rng = SmallRng::seed_from_u64(RNG_SEED ^ 0x5A5A);
        let mut spread_us: Vec<f64> = (0..w.spread_trials)
            .map(|_| {
                let seeds: Vec<u32> =
                    (0..3).map(|_| shard_query_rng.gen_range(0..w.nodes as u32)).collect();
                let query = Query::Spread { seeds };
                let t = Instant::now();
                let _ = engine.execute_uncached(&query);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let sharded_spread_p50_us = median(&mut spread_us);
        eprintln!(
            "[perf-suite] {shards} shards: cold TopK p50 {sharded_topk_p50_ms:.2} ms, \
             uncached Spread p50 {sharded_spread_p50_us:.1} µs"
        );
        sharded_serving.push(serde_json::json!({
            "shards": shards,
            "topk_p50_ms": sharded_topk_p50_ms,
            "spread_p50_us": sharded_spread_p50_us,
        }));
    }

    // Phase 5: observability overhead. Per-op costs come from hammering
    // the two hot-path primitives directly (a scratch counter/histogram so
    // the loop is exactly one relaxed atomic op per iteration); the
    // end-to-end check compares phase 1's instrumented sampling throughput
    // against an obs-off build's run when one is supplied.
    let micro_ops: u64 = if smoke { 200_000 } else { 5_000_000 };
    static SCRATCH_COUNTER: imm_obs::Counter =
        imm_obs::Counter::new("bench_scratch_counter", "perf-suite overhead probe (unregistered)");
    static SCRATCH_HISTOGRAM: imm_obs::Histogram = imm_obs::Histogram::new(
        "bench_scratch_histogram",
        "perf-suite overhead probe (unregistered)",
        imm_obs::Unit::Nanoseconds,
    );
    let t = Instant::now();
    for _ in 0..micro_ops {
        SCRATCH_COUNTER.increment();
    }
    let counter_add_ns = t.elapsed().as_secs_f64() * 1e9 / micro_ops as f64;
    let t = Instant::now();
    for i in 0..micro_ops {
        SCRATCH_HISTOGRAM.record(i);
    }
    let histogram_record_ns = t.elapsed().as_secs_f64() * 1e9 / micro_ops as f64;
    // Defeat dead-code elimination of the obs-off no-op loops.
    std::hint::black_box((SCRATCH_COUNTER.value(), SCRATCH_HISTOGRAM.snapshot().count));
    let sampling_sets_per_sec = w.theta as f64 / sampling_secs.max(1e-9);
    let obs_events_per_set = obs_events_during_sampling as f64 / w.theta.max(1) as f64;
    let mut obs_overhead = serde_json::json!({
        "recording_enabled": imm_obs::recording_enabled(),
        "counter_add_ns": counter_add_ns,
        "histogram_record_ns": histogram_record_ns,
        "obs_events_per_set": obs_events_per_set,
    });
    eprintln!(
        "[perf-suite] obs overhead: counter add {counter_add_ns:.2} ns, histogram record \
         {histogram_record_ns:.2} ns, {obs_events_per_set:.1} events/set"
    );
    if let Some(path) = &obs_baseline {
        let raw = std::fs::read_to_string(path).expect("read --obs-baseline json");
        let baseline: serde_json::Value =
            serde_json::from_str(&raw).expect("--obs-baseline parses as JSON");
        let baseline_rate = baseline["metrics"]["sampling_sets_per_sec"]
            .as_f64()
            .expect("--obs-baseline has metrics.sampling_sets_per_sec");
        let ratio = sampling_sets_per_sec / baseline_rate.max(1e-9);
        eprintln!(
            "[perf-suite] instrumented sampling at {ratio:.3}x the obs-off baseline \
             ({sampling_sets_per_sec:.0} vs {baseline_rate:.0} sets/s)"
        );
        if let serde_json::Value::Object(pairs) = &mut obs_overhead {
            pairs.push((
                "baseline_sampling_sets_per_sec".to_string(),
                serde_json::json!(baseline_rate),
            ));
            pairs.push(("sampling_throughput_ratio".to_string(), serde_json::json!(ratio)));
        }
        // The guard: instrumentation must hide inside run-to-run noise. The
        // 15% band is deliberately generous — shared CI hosts see that much
        // jitter between identical runs — while still catching a hot-path
        // mistake (a lock, a seq-cst op, or a per-vertex event would show
        // up as an integer-factor slowdown, not a percentage). Smoke runs
        // are too short to clear the noise floor, so they only record.
        if !smoke {
            assert!(
                ratio > 0.85,
                "instrumented sampling dropped to {ratio:.3}x of the obs-off baseline \
                 ({sampling_sets_per_sec:.0} vs {baseline_rate:.0} sets/s)"
            );
        }
    }

    let report = serde_json::json!({
        "bench": "perf_suite",
        "schema_version": 4,
        "smoke": smoke,
        "workload": {
            "nodes": graph.num_nodes(),
            "edges": graph.num_edges(),
            "theta": w.theta,
            "k": w.k,
            "threads": w.threads,
            "pool_threads": rayon::current_num_threads(),
            "shard_counts": w.shard_counts.clone(),
            "model": "independent-cascade",
            "edge_probability": w.edge_probability,
            "rng_seed": RNG_SEED,
        },
        "metrics": {
            "executor": {
                "spawn_per_round_us": spawn_per_round_us,
                "persistent_scope_us": persistent_scope_us,
            },
            "sampling_sets_per_sec": sampling_sets_per_sec,
            "selection_ms": selection_ms,
            "topk_p50_ms": topk_p50_ms,
            "spread_p50_us": spread_p50_us,
            "rrr_memory_bytes": stats.memory_bytes,
            "sharded_serving": sharded_serving,
            "obs_overhead": obs_overhead,
        },
        "obs_metrics": imm_bench::obs::registry_json(),
    });
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &rendered).expect("write BENCH json");

    // Self-check: the written file must parse back as JSON with the tracked
    // metric keys present — this is the contract `ci.sh --smoke` relies on.
    let reread = std::fs::read_to_string(&out_path).expect("reread BENCH json");
    let parsed: serde_json::Value = serde_json::from_str(&reread).expect("BENCH json parses");
    for key in ["sampling_sets_per_sec", "selection_ms", "topk_p50_ms", "spread_p50_us"] {
        assert!(parsed["metrics"][key].as_f64().is_some(), "metric {key} missing from {out_path}");
    }
    let sweep = parsed["metrics"]["sharded_serving"].as_array().expect("sharded sweep present");
    assert_eq!(sweep.len(), w.shard_counts.len(), "one sweep entry per shard count");
    for entry in sweep {
        assert!(entry["topk_p50_ms"].as_f64().is_some(), "sharded topk metric missing");
        assert!(entry["spread_p50_us"].as_f64().is_some(), "sharded spread metric missing");
    }
    for key in ["spawn_per_round_us", "persistent_scope_us"] {
        assert!(
            parsed["metrics"]["executor"][key].as_f64().is_some(),
            "executor metric {key} missing from {out_path}"
        );
    }
    for key in ["counter_add_ns", "histogram_record_ns", "obs_events_per_set"] {
        assert!(
            parsed["metrics"]["obs_overhead"][key].as_f64().is_some(),
            "obs overhead metric {key} missing from {out_path}"
        );
    }
    let registry = parsed["obs_metrics"]["metrics"].as_array().expect("obs registry embedded");
    assert!(!registry.is_empty(), "obs registry snapshot is empty");
    assert!(
        registry.iter().any(|m| m["name"] == serde_json::json!("exec_scopes")),
        "exec counters missing from the embedded registry"
    );
    println!("{rendered}");
    println!("perf suite OK: {out_path}");
}
