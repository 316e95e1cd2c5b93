//! The tracing-on pass: per-layer numbers taken from outside. The harness
//! calls each layer's public functions itself, on the same generated
//! inputs the end-to-end pass feeds the binary, with a span around every
//! call; the parts only a live daemon can show (transport floor, accept
//! latency, pool counters) come from a short run against the real
//! binary. Spans stay in memory and are written once, at the end.

use crate::child;
use crate::gen::{self, Rng, Seeds};
use crate::loadgen::{self, RequestPool, Sample};
use crate::pipeline::{self, Env, Pass, Tally};
use crate::plan::Plan;
use crate::stats::{median, quantile_sorted, sorted};
use crate::sut::{self, Graph, Index, Replica, Wire};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Requests walked through the in-process serve path.
const PATH_REQUESTS: usize = 2000;
const PATH_BUDGET: Duration = Duration::from_millis(1500);
const PINGS: usize = 2000;
const CONNECTS: usize = 20;
const SPAWNS: usize = 5;
const MAX_SPANS_WRITTEN: usize = 20_000;

/// What the short run against the live daemon measured.
struct Live {
    ping_rtt_us: f64,
    connect_ms: f64,
    untraced: Vec<Sample>,
    queries_per_s: f64,
    traced_p50_us: f64,
    rtt_in_rollout_p50_us: f64,
    counters: sut::DaemonCounters,
    attempted: u64,
    failed: u64,
}

/// The files a live daemon is started on and rolls out.
struct LiveInputs<'a> {
    snapshot: &'a std::path::Path,
    graph: &'a std::path::Path,
    deltas: &'a [String],
}

fn live_daemon(
    env: &Env,
    plan: &Plan,
    inputs: LiveInputs,
    pool: &mut RequestPool,
    burst: Duration,
    tr: &mut Tracer,
) -> Result<Live, String> {
    let cpu = pipeline::shared_cpu();
    let (daemon, mut wire, socket) =
        pipeline::start_daemon(env, plan, inputs.snapshot, Some(inputs.graph), cpu)?;
    let _pin = child::Pin::on(cpu);

    // The floor under every round trip: an empty verb over the real socket
    // is transport plus thread hand-off, nothing else.
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        wire.ping()?;
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    // A fresh connection's first pong waits for the accept loop's next
    // poll.
    let mut connects = Vec::with_capacity(CONNECTS);
    for _ in 0..CONNECTS {
        let t = Instant::now();
        let mut fresh = Wire::connect(&socket, Duration::from_secs(5))?;
        fresh.ping()?;
        connects.push(t.elapsed().as_secs_f64() * 1e3);
    }

    pipeline::warm_up(&mut wire, pool, Duration::from_millis(200))?;
    let before = wire.counters()?;
    let mut off = Tracer::new(false);
    let untraced =
        loadgen::steady_segment(&mut wire, &daemon, pool, burst, &mut Vec::new(), &mut off)?;
    let counters = wire.counters()?.minus(&before);

    // The same loop with a span around every client step:
    // its median against the untraced one is the tracing overhead.
    let traced = loadgen::steady_segment(&mut wire, &daemon, pool, burst, &mut Vec::new(), tr)?;

    // Reads while the daemon's first rollouts run (the end-to-end pass
    // times rollouts; what they do to readers is reported here).
    let first_rollouts =
        loadgen::Rollouts { deltas: inputs.deltas, gap: Duration::ZERO, warm: 0, min: 2 };
    let churn = loadgen::churn(&mut wire, &socket, pool, Duration::ZERO, first_rollouts)?;
    let in_rollout = loadgen::in_rollout_rtts(&churn.samples, &churn.rollouts);

    wire.shutdown()?;
    let clean = daemon.finish(Duration::from_secs(10));
    Ok(Live {
        ping_rtt_us: median(&pings),
        connect_ms: median(&connects),
        queries_per_s: untraced.queries as f64 / untraced.wall_s,
        rtt_in_rollout_p50_us: median(&in_rollout),
        untraced: untraced.samples,
        traced_p50_us: median(&traced.samples.iter().map(|s| s.rtt_us as f64).collect::<Vec<_>>()),
        counters,
        attempted: untraced.attempted + traced.attempted + churn.attempted + 1,
        failed: untraced.failed + traced.failed + churn.failed + !clean as u64,
    })
}

/// The per-layer pass of `plan`.
pub fn run(plan: &Plan, seed: u64, seconds: f64) -> Result<Pass, String> {
    let env = Env::new(plan.name)?;
    let seeds = Seeds::derive(seed);
    let threads = child::nproc();
    // The in-process engine mirrors the daemon's: a daemon confined to one
    // CPU sizes itself to one thread and serves every shard inline.
    let serve_threads = 1;
    let mut tally = Tally::default();
    let mut tr = Tracer::new(true);

    let graph_path = pipeline::generate_graph(&env, plan, &seeds, "graph.txt")?;
    let mut pool = RequestPool::build(plan.mix, plan.nodes, seeds.queries);
    let deltas = pipeline::delta_batches(plan, &seeds, 2);
    let snapshot = env.path("index.sketch");

    // Build side, layer by layer, exactly the calls `build-index` makes.
    let graph = Graph::load(&graph_path, plan.model, seeds.imm, &mut tr)?;
    let mut solved =
        sut::solve(&graph, plan.model, plan.k, plan.epsilon, seeds.imm, threads, &mut tr)?;
    let built = Index::build(&graph, &mut solved, plan.model, seeds.imm, "spine", &mut tr)?;
    built.save(&snapshot, &mut tr)?;
    tally.check(built.theta() == solved.theta, || "the index lost sets".into());
    drop(built);

    // Open side: both load paths, each followed by its first query.
    let (mapped, mapped_bytes) = Index::open_mapped(&snapshot, &mut tr)?;
    mapped.first_query(8, &mut tr);
    drop(Index::open_decode(&snapshot, &mut tr)?);
    let index = Index::load_decode(&snapshot, &mut tr)?;
    tally.check(index.theta() == solved.theta && index.nodes() == graph.nodes(), || {
        "the snapshot does not round-trip".into()
    });

    // Query kinds on the single-index engine.
    let mut spec_rng = Rng::new(seeds.queries ^ 0x4B1D);
    let mut specs: Vec<_> = (0..128).map(|_| gen::point_query(&mut spec_rng, plan.nodes)).collect();
    specs.extend(
        (0..48)
            .map(|_| gen::heavy_query(&mut spec_rng, plan.nodes))
            .filter(|q| matches!(q, gen::QuerySpec::TopK { .. })),
    );
    let celf_revalidations_per_round = sut::time_query_kinds(&index, &specs, plan.k, &mut tr);

    // One delta through each layer's share of a rollout.
    graph.apply_delta_only(&deltas[0], &mut tr)?;
    let (resampled, total_sets) = index.refresh_copy(&graph, &deltas[0], &mut tr)?;

    // Serve side: partition, price, start the engine, then the
    // workload's own requests down the daemon's request path.
    let sharded = index.into_sharded(plan.shards, &mut tr)?;
    let load_imbalance = sharded.load_imbalance();
    let costs = sharded.cost_model(&mut tr);
    let engine = sharded.engine(serve_threads, 256, &mut tr);
    let mut sizes = (Vec::new(), Vec::new());
    let started = Instant::now();
    for rid in 1..=PATH_REQUESTS as u64 {
        if started.elapsed() > PATH_BUDGET {
            break;
        }
        let next = pool.next();
        let request = &pool.requests[next];
        let frame =
            sut::serve_path_in_process(&engine, &costs, request, serve_threads, rid, &mut tr)?;
        sizes.0.push(frame.request_bytes as f64);
        sizes.1.push(frame.response_bytes as f64);
    }
    drop(engine);
    let mut replica = Replica::new(&sharded, graph);
    drop(sharded);
    replica.roll(&deltas[0], &mut tr)?;
    drop(replica);
    let scope_dispatch_us = sut::scope_dispatch_us(threads.max(2), 200, &mut tr);

    // The live daemon and the bare CLI.
    let burst = Duration::from_secs_f64((seconds * 0.25).clamp(0.2, 2.0));
    let inputs = LiveInputs { snapshot: &snapshot, graph: &graph_path, deltas: &deltas };
    let live = live_daemon(&env, plan, inputs, &mut pool, burst, &mut tr)?;
    tally.absorb(live.attempted, live.failed, "live requests");
    tally.check(live.counters.mmap_fallbacks == 0.0, || "--mmap fell back to read-decode".into());
    let spawns: Vec<f64> = (0..SPAWNS)
        .map(|_| env.cli.run(&["help"]).map(|done| done.wall_s * 1e3))
        .collect::<Result<_, _>>()?;

    // Derive the metrics.
    let summary = tr.summary();
    let p50_us = |name: &str| summary.get(name).map_or(0.0, |s| s.p50_us);
    let p50_ms = |name: &str| p50_us(name) / 1e3;
    let self_us = |name: &str| summary.get(name).map_or(0.0, |s| s.self_p50_us);
    let batch_us = sorted(
        tr.spans().iter().filter(|s| s.name == "shard.batch").map(|s| s.duration_ns() as f64 / 1e3),
    );
    let untraced = sorted(live.untraced.iter().map(|s| s.rtt_us as f64));
    let rtt_p50_us = quantile_sorted(&untraced, 0.5);
    let layer_self_us: f64 = [
        "serve.encode_request",
        "serve.decode_request",
        "serve.admission",
        "shard.batch",
        "serve.encode_response",
        "serve.decode_response",
    ]
    .iter()
    .map(|name| self_us(name))
    .sum();
    let c = live.counters;
    let queries = c.queries.max(1.0);

    let metrics = vec![
        ("graph.parse_ms", p50_ms("graph.parse")),
        ("graph.weights_ms", p50_ms("graph.weights")),
        ("graph.delta_apply_ms", p50_ms("graph.delta_apply")),
        ("core.sampling_ms", solved.sampling_ms),
        ("core.selection_ms", solved.selection_ms),
        ("core.imm_total_ms", solved.total_ms),
        ("core.theta", solved.theta as f64),
        ("core.rrr_vertices", solved.rrr_vertices as f64),
        ("core.sets_per_s", solved.theta as f64 / (solved.sampling_ms / 1e3).max(1e-9)),
        ("rrr.memory_mb", solved.rrr_memory_bytes as f64 / 1e6),
        ("rrr.mean_set_len", solved.mean_set_len),
        ("rrr.bitmap_set_share", solved.bitmap_set_share),
        ("service.index_build_ms", p50_ms("service.index_build")),
        ("service.save_ms", p50_ms("service.save")),
        ("service.load_decode_ms", p50_ms("service.load_decode")),
        ("service.topk_cold_us", p50_us("service.topk_cold")),
        ("service.spread_us", p50_us("service.spread")),
        ("service.marginal_us", p50_us("service.marginal")),
        ("service.audience_topk_us", p50_us("service.audience_topk")),
        ("service.cache_hit_us", p50_us("service.cache_hit")),
        ("service.cache_hit_share", c.cache_hits / (c.cache_hits + c.cache_misses).max(1.0)),
        ("service.celf_revalidations_per_round", celf_revalidations_per_round),
        ("service.delta_refresh_ms", p50_ms("service.delta_refresh")),
        ("service.delta_resampled_share", resampled as f64 / total_sets.max(1) as f64),
        ("shard.partition_ms", p50_ms("shard.partition")),
        ("shard.engine_start_ms", p50_ms("shard.engine_start")),
        ("shard.batch_us", quantile_sorted(&batch_us, 0.5)),
        ("shard.batch_p99_us", quantile_sorted(&batch_us, 0.99)),
        ("shard.rebuild_ms", p50_ms("shard.rebuild")),
        ("shard.load_imbalance", load_imbalance),
        ("exec.scope_dispatch_us", scope_dispatch_us),
        ("exec.inline_serve_share", c.served_inline / (c.served_inline + c.served_worker).max(1.0)),
        ("exec.unparks_per_query", c.unparks / queries),
        ("store.open_mapped_us", p50_us("store.open_mapped")),
        ("store.open_decode_ms", p50_ms("store.open_decode")),
        ("store.first_query_us", p50_us("store.first_query")),
        ("store.mapped_mb", mapped_bytes as f64 / 1e6),
        ("store.mmap_fallbacks", c.mmap_fallbacks),
        ("serve.encode_request_us", p50_us("serve.encode_request")),
        ("serve.decode_request_us", p50_us("serve.decode_request")),
        ("serve.encode_response_us", p50_us("serve.encode_response")),
        ("serve.decode_response_us", p50_us("serve.decode_response")),
        ("serve.admission_us", p50_us("serve.admission")),
        ("serve.cost_model_build_ms", p50_ms("serve.cost_model_build")),
        ("serve.request_bytes", median(&sizes.0)),
        ("serve.response_bytes", median(&sizes.1)),
        ("serve.ping_rtt_us", live.ping_rtt_us),
        ("serve.connect_ms", live.connect_ms),
        ("serve.unattributed_us", rtt_p50_us - live.ping_rtt_us - layer_self_us),
        ("serve.rejected_share", c.rejected / queries),
        ("cli.spawn_ms", median(&spawns)),
        ("loadgen.rtt_p50_us", rtt_p50_us),
        ("loadgen.rtt_p99_us", quantile_sorted(&untraced, 0.99)),
        ("loadgen.rtt_p999_us", quantile_sorted(&untraced, 0.999)),
        ("loadgen.rtt_in_rollout_p50_us", live.rtt_in_rollout_p50_us),
        ("loadgen.queries_per_s", live.queries_per_s),
        ("loadgen.rtt_max_ms", untraced.last().copied().unwrap_or(0.0) / 1e3),
        ("loadgen.requests", untraced.len() as f64),
        ("loadgen.trace_overhead_ratio", live.traced_p50_us / rtt_p50_us.max(1e-9)),
        ("loadgen.fail_share", tally.failed as f64 / tally.attempted.max(1) as f64),
    ];

    let trace_path = child::target_dir().join("spine").join(format!("trace-{}.json", plan.name));
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let rendered =
        serde_json::to_string(&tr.to_json(MAX_SPANS_WRITTEN)).map_err(|e| e.to_string())?;
    std::fs::write(&trace_path, rendered)
        .map_err(|e| format!("cannot write {trace_path:?}: {e}"))?;

    let record = serde_json::json!({
        "trace_file": trace_path.to_string_lossy().into_owned(),
        "spans": tr.spans().len(),
        "in_process_requests": sizes.0.len(),
        "accounting_us": {
            "rtt_p50": rtt_p50_us,
            "ping_floor": live.ping_rtt_us,
            "layer_self_times": layer_self_us,
            "unattributed": rtt_p50_us - live.ping_rtt_us - layer_self_us,
        },
        "failures": tally.reasons.clone(),
    });
    Ok(Pass { metrics, tally, record })
}
