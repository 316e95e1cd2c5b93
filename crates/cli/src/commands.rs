//! Command implementations for the `efficient-imm` CLI.

use crate::args::{
    BatchSpec, BuildIndexArgs, ClientAction, ClientArgs, Command, GenerateArgs, QueryArgs, RunArgs,
    ServeArgs, StatsArgs, UpdateIndexArgs, USAGE,
};
use crate::obs;
use efficient_imm::balance::Schedule;
use efficient_imm::sampling::{generate_rrr_sets, SamplingConfig};
use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
use imm_diffusion::DiffusionModel;
use imm_graph::{generators, io, properties, CsrGraph, EdgeWeights, GraphDelta, WeightModel};
use imm_rrr::{AdaptivePolicy, BitSet};
use imm_serve::{Client, ClientError, Rejection, RetryPolicy, Server, ServerConfig};
use imm_service::{
    DeltaJournal, Query, QueryEngine, QueryResponse, RecoverError, Recovered, SampleSpec,
    SketchIndex,
};
use imm_shard::ShardedIndex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-level error type: every failure is reported as a message string.
pub type CliError = String;

/// Execute a parsed command.
pub fn execute(command: Command) -> Result<(), CliError> {
    match command {
        Command::Help => print_line(USAGE),
        Command::Generate(args) => generate(&args),
        Command::Run(args) => run(&args),
        Command::Stats(args) => stats(&args),
        Command::BuildIndex(args) => build_index(&args),
        Command::UpdateIndex(args) => update_index(&args),
        Command::Query(args) => query(&args),
        Command::Serve(args) => serve(&args),
        Command::Client(args) => client(&args),
    }
}

/// Render JSON for printing. `to_string_pretty` only fails on values the
/// CLI never builds (non-string map keys), but a long-lived tool must
/// degrade a render failure into a diagnostic, never a panic.
fn pretty(json: &serde_json::Value) -> String {
    serde_json::to_string_pretty(json)
        .unwrap_or_else(|e| format!("{{\"error\":\"cannot render json: {e}\"}}"))
}

/// Print `text` and a newline to stdout through [`write_stdout`]. (A unit
/// test prints through `print!`, the only writer its harness captures.)
fn print_line(text: impl std::fmt::Display) -> Result<(), CliError> {
    let text = format!("{text}\n");
    if cfg!(test) {
        print!("{text}");
        return Ok(());
    }
    write_stdout(&mut std::io::stdout().lock(), &text)
}

/// Write `text` to `out`, the CLI's stdout. A reader that closed the pipe
/// (`efficient-imm … | head`) ends the output quietly; any other write
/// error is reported.
fn write_stdout(out: &mut impl Write, text: &str) -> Result<(), CliError> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write to stdout: {e}")),
        _ => Ok(()),
    }
}

fn generate(args: &GenerateArgs) -> Result<(), CliError> {
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let el = match args.kind.as_str() {
        "social" => generators::social_network(args.nodes, args.avg_degree, 0.3, &mut rng),
        "community" => {
            let blocks = (args.nodes / 50).max(2);
            generators::stochastic_block_model(
                &vec![args.nodes / blocks; blocks],
                0.1,
                0.001,
                &mut rng,
            )
        }
        "rmat" => {
            let scale = (args.nodes.max(2) as f64).log2().ceil() as u32;
            generators::rmat(
                scale,
                args.avg_degree.max(1),
                generators::RmatParams::default(),
                &mut rng,
            )
        }
        "road" => {
            let side = (args.nodes as f64).sqrt().ceil() as usize;
            generators::road_network(side, side, 0.03, &mut rng)
        }
        other => return Err(format!("unknown generator kind '{other}'")),
    };
    let file = std::fs::File::create(&args.output)
        .map_err(|e| format!("cannot create {}: {e}", args.output))?;
    io::write_snap_edge_list(file, &el, None).map_err(|e| e.to_string())?;
    print_line(format_args!(
        "wrote {} ({} nodes, {} edges, kind = {})",
        args.output,
        el.num_nodes(),
        el.num_edges(),
        args.kind
    ))
}

/// Load a graph file and its model weights: the file's weight column when it
/// has one, else weights drawn for `model` from `seed`.
fn load(path: &str, model: DiffusionModel, seed: u64) -> Result<(CsrGraph, EdgeWeights), CliError> {
    let (el, file_weights) =
        io::read_snap_file(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Each branch drops the edge list (and the line-order weight column) as
    // soon as the CSR holds them, before the weights are built: the list is
    // the load's largest allocation.
    match file_weights {
        // The weight column is in line order; it moves with its edge.
        Some(line_weights) => {
            let (graph, w) = CsrGraph::from_edge_list_with(&el, &line_weights);
            drop((el, line_weights));
            let weights = EdgeWeights::from_vec(&graph, w, WeightModel::Constant)
                .map_err(|e| e.to_string())?;
            Ok((graph, weights))
        }
        None => {
            let graph = CsrGraph::from_edge_list(&el);
            drop(el);
            let model = match model {
                DiffusionModel::IndependentCascade => WeightModel::IcUniform,
                DiffusionModel::LinearThreshold => WeightModel::LtNormalized,
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let weights = EdgeWeights::generate(&graph, model, 0.0, &mut rng);
            Ok((graph, weights))
        }
    }
}

fn run(args: &RunArgs) -> Result<(), CliError> {
    let start = Instant::now();
    let (graph, weights) = load(&args.graph, args.model, args.seed)?;
    // Parse, CSR build and weights: the part of the process's wall time
    // spent before IMM.
    let load_seconds = start.elapsed().as_secs_f64();
    let params = ImmParams::new(args.k, args.epsilon, args.model).with_seed(args.seed);
    let exec = ExecutionConfig::new(Algorithm::Efficient, args.threads);
    let start = Instant::now();
    let result = run_imm(&graph, &weights, &params, &exec).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    let json = serde_json::json!({
        "input": args.graph,
        "diffusion_model": args.model.short_name(),
        "algorithm": "efficientimm",
        "k": args.k,
        "epsilon": args.epsilon,
        "threads": args.threads,
        "wall_seconds": wall,
        "generate_rrrsets_seconds": result.breakdown.timings.generate_rrrsets.as_secs_f64(),
        "find_most_influential_seconds": result.breakdown.timings.find_most_influential.as_secs_f64(),
        "theta": result.theta,
        "rrr_memory_bytes": result.breakdown.rrr_memory_bytes,
        "estimated_influence": result.estimated_influence,
        "coverage_fraction": result.coverage_fraction,
        "seeds": result.seeds,
        "load_seconds": load_seconds,
    });
    let rendered = pretty(&json);
    match &args.output {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            print_line(format_args!("run log written to {path}"))
        }
        None => print_line(rendered),
    }
}

/// Sample RRR sets once and freeze them into a reusable sketch-index
/// snapshot: the expensive phase runs exactly once, every later `query` /
/// `stats --index` invocation loads the frozen sample instead of resampling.
fn build_index(args: &BuildIndexArgs) -> Result<(), CliError> {
    print_line(pretty(&build_index_json(args)?))
}

/// [`build_index`]'s work: the snapshot written, and its JSON report.
fn build_index_json(args: &BuildIndexArgs) -> Result<serde_json::Value, CliError> {
    let run = &args.run;
    let start = Instant::now();
    let (graph, weights) = load(&run.graph, run.model, run.seed)?;
    let load_seconds = start.elapsed().as_secs_f64();
    let params = ImmParams::new(run.k, run.epsilon, run.model).with_seed(run.seed);
    let exec = ExecutionConfig::new(Algorithm::Efficient, run.threads)
        .with_retained_sets(true)
        .with_provenance(true);
    let start = Instant::now();
    let result = run_imm(&graph, &weights, &params, &exec).map_err(|e| e.to_string())?;
    let build_seconds = start.elapsed().as_secs_f64();
    let collection = result
        .rrr_sets
        .ok_or("internal error: the run did not retain its RRR sets despite the request")?;
    let records = result
        .provenance
        .ok_or("internal error: the run did not return provenance despite the request")?;
    let spec =
        SampleSpec::new(run.model, run.seed).with_policy(exec.features.representation_policy());
    let index = SketchIndex::build_with_provenance(&graph, collection, records, spec, &run.graph)
        .map_err(|e| e.to_string())?;
    index.save_to_path(&args.output).map_err(|e| format!("cannot write {}: {e}", args.output))?;
    let json = serde_json::json!({
        "input": run.graph,
        "snapshot": args.output,
        "theta": index.num_sets(),
        "nodes": index.num_nodes(),
        "edges": index.meta().num_edges,
        "index_memory_bytes": index.memory_bytes(),
        "load_seconds": load_seconds,
        "build_seconds": build_seconds,
        "sampling_seconds": result.breakdown.timings.generate_rrrsets.as_secs_f64(),
        "top_k_seeds": result.seeds,
        "dynamic": index.is_dynamic(),
    });
    Ok(json)
}

/// Rebuild the live revision of the dynamic snapshot `index`, loaded from
/// `path`: load its original `graph` file under the snapshot's sampling spec
/// and hand it, with the daemon's journal, to `SketchIndex::recover`.
/// `static_hint` finishes the refusal of a static snapshot.
fn recover(
    index: &mut SketchIndex,
    path: &str,
    graph: &str,
    journal: Option<&str>,
    static_hint: &str,
) -> Result<Recovered, CliError> {
    let Some(spec) = index.provenance().map(|provenance| provenance.spec) else {
        return Err(format!(
            "{path} is a static snapshot (it stores no sampling provenance); {static_hint}"
        ));
    };
    let (csr, weights) = load(graph, spec.model, spec.rng_seed)?;
    index.recover(csr, weights, journal.map(Path::new)).map_err(|e| match e {
        RecoverError::Log { .. } => {
            format!("{e} — is '{graph}' the original graph the snapshot was built from?")
        }
        e => e.to_string(),
    })
}

/// Refresh a dynamic snapshot against a delta file: recover the current
/// graph revision, apply the new batch through `SketchIndex::apply_delta`,
/// and persist the refreshed snapshot — resampling only the RRR sets the
/// batch touched.
///
/// With `--journal` the serving daemon's delta journal is honored:
/// entries the snapshot has not folded in yet (accepted rollouts that
/// outlived a crashed or killed daemon) are replayed *before* the new
/// delta applies, and the journal is cleared once an in-place refresh
/// has durably landed — so a daemon restart on the refreshed snapshot
/// replays nothing twice.
fn update_index(args: &UpdateIndexArgs) -> Result<(), CliError> {
    let mut index = SketchIndex::load_from_path(&args.index)
        .map_err(|e| format!("cannot load {}: {e}", args.index))?;
    let journal = args.journal.as_deref();
    let live =
        recover(&mut index, &args.index, &args.graph, journal, "rebuild it with build-index")?;

    let text = std::fs::read_to_string(&args.delta)
        .map_err(|e| format!("cannot read {}: {e}", args.delta))?;
    let delta = GraphDelta::parse_text(&text).map_err(|e| e.to_string())?;

    let start = Instant::now();
    let (_, _, stats) =
        index.apply_delta(&live.graph, &live.weights, &delta).map_err(|e| e.to_string())?;
    let refresh_seconds = start.elapsed().as_secs_f64();
    let applied_deltas_total = index.provenance().map_or(0, |p| p.delta_log.len());

    // The save is crash-safe end to end (temp file, fsync, atomic
    // rename), so the default in-place refresh can never destroy the
    // only copy of the snapshot — a kill mid-write leaves the old
    // generation plus a `.tmp` the next save of the path reclaims.
    let output = args.output.as_deref().unwrap_or(&args.index);
    index.save_to_path(output).map_err(|e| format!("cannot write {output}: {e}"))?;
    // Only an in-place refresh supersedes the journal; writing the refreshed
    // snapshot elsewhere leaves the original still behind its entries.
    if let Some(journal) = journal.filter(|_| output == args.index) {
        DeltaJournal::clear(journal).map_err(|e| format!("cannot clear journal {journal}: {e}"))?;
    }
    let json = serde_json::json!({
        "input": args.graph,
        "snapshot": output,
        "theta": stats.total_sets,
        "resampled_sets": stats.resampled_sets,
        "resampled_fraction": stats.resampled_fraction(),
        "inserted_edges": stats.inserted_edges,
        "deleted_edges": stats.deleted_edges,
        "reweighted_edges": stats.reweighted_edges,
        "edges_after": stats.num_edges_after,
        "applied_deltas_total": applied_deltas_total,
        "journal_entries_replayed": live.journal_replayed,
        "refresh_seconds": refresh_seconds,
    });
    print_line(pretty(&json))
}

fn response_json(query: &Query, response: &QueryResponse) -> serde_json::Value {
    match (query, response) {
        (
            Query::TopK { k, audience },
            QueryResponse::TopK { seeds, coverage_fraction, estimated_influence },
        ) => serde_json::json!({
            "query": "top-k",
            "k": k,
            "audience_vertices": audience.as_ref().map(|a| a.len()),
            "seeds": seeds,
            "coverage_fraction": coverage_fraction,
            "estimated_influence": estimated_influence,
        }),
        (Query::Spread { seeds }, QueryResponse::Spread { coverage_fraction, estimate }) => {
            serde_json::json!({
                "query": "spread",
                "seeds": seeds,
                "coverage_fraction": coverage_fraction,
                "estimate": estimate,
            })
        }
        (Query::Marginal { seeds, candidate }, QueryResponse::Marginal { gain_fraction, gain }) => {
            serde_json::json!({
                "query": "marginal",
                "seeds": seeds,
                "candidate": candidate,
                "gain_fraction": gain_fraction,
                "gain": gain,
            })
        }
        // The engines answer every query with its own response kind, so
        // this arm is dead in practice — but a mismatch (say, a future
        // protocol skew between daemon and client) must render as a
        // diagnostic row, not abort the whole report.
        (query, response) => serde_json::json!({
            "query": "mismatched",
            "error": format!(
                "internal error: a {} query was answered with a {} response",
                query_kind(query),
                response_kind(response)
            ),
        }),
    }
}

fn query_kind(query: &Query) -> &'static str {
    match query {
        Query::TopK { .. } => "top-k",
        Query::Spread { .. } => "spread",
        Query::Marginal { .. } => "marginal",
    }
}

fn response_kind(response: &QueryResponse) -> &'static str {
    match response {
        QueryResponse::TopK { .. } => "top-k",
        QueryResponse::Spread { .. } => "spread",
        QueryResponse::Marginal { .. } => "marginal",
    }
}

/// Serve queries from a saved sketch index — no graph, no sampling.
fn query(args: &QueryArgs) -> Result<(), CliError> {
    let index = SketchIndex::load_from_path(&args.index)
        .map_err(|e| format!("cannot load {}: {e}", args.index))?;
    let engine = QueryEngine::new(Arc::new(index));
    let num_nodes = engine.index().num_nodes();
    // A Spread or Marginal vertex the index does not hold is refused, in the
    // words of the daemon's admission check.
    let spec = &args.batch;
    let marginal =
        spec.marginal.iter().flat_map(|(seeds, candidate)| seeds.iter().chain([candidate]));
    let mut named = spec.spread.iter().flatten().chain(marginal);
    if let Some(&vertex) = named.find(|&&v| v as usize >= num_nodes) {
        return Err(Rejection::InvalidVertex { vertex, num_nodes: num_nodes as u64 }.to_string());
    }
    let queries = batch_queries(spec, num_nodes);

    let before = if args.metrics {
        obs::register_workspace_metrics();
        Some(imm_obs::snapshot())
    } else {
        None
    };

    let start = Instant::now();
    let responses = engine.execute_batch(&queries, args.threads);
    let wall = start.elapsed().as_secs_f64();

    let mut json = serde_json::json!({
        "index": args.index,
        "source": engine.index().meta().label,
        "theta": engine.index().num_sets(),
        "nodes": num_nodes,
        "threads": args.threads,
        "wall_seconds": wall,
        "responses": queries
            .iter()
            .zip(responses.iter())
            .map(|(q, r)| response_json(q, r))
            .collect::<Vec<_>>(),
    });
    if let Some(before) = before {
        // What this batch alone did to the registry: counters and
        // histograms are differenced, gauges keep their final value.
        let delta = imm_obs::delta(&before, &imm_obs::snapshot());
        if let serde_json::Value::Object(pairs) = &mut json {
            pairs.push(("metrics_delta".to_string(), obs::samples_json(&delta)));
        }
    }
    print_line(pretty(&json))
}

/// Run the serving daemon: load a snapshot, partition it into shards,
/// bind the socket, and block until a client's `shutdown` verb (or a
/// signal) stops the accept loop.
///
/// With `--graph` the live revision is recovered from the snapshot's
/// original graph file (and `--journal`), as `update-index` does,
/// so the daemon holds the live graph revision and can serve rolling
/// `apply-delta` rollouts. Without a graph the daemon serves statically
/// and answers rollout requests with a structured `not-dynamic` error.
fn serve(args: &ServeArgs) -> Result<(), CliError> {
    // `--mmap` serves borrowed views into the mapping (falling back to
    // read-decode with a counted `store_mmap_fallbacks` if the file or
    // platform cannot map).
    let (mut index, load_mode) = if args.mmap {
        let opened = imm_store::Store::open(&args.index)
            .map_err(|e| format!("cannot load {}: {e}", args.index))?;
        (opened.index, opened.mode)
    } else {
        let index = SketchIndex::load_from_path(&args.index)
            .map_err(|e| format!("cannot load {}: {e}", args.index))?;
        (index, imm_store::LoadMode::ReadDecode)
    };

    if args.journal.is_some() && args.graph.is_none() {
        return Err("--journal records apply-delta rollouts, which need the snapshot's \
                    original --graph; a static daemon cannot accept or replay them"
            .into());
    }
    let hint = "serve it without --graph, or rebuild it with build-index";
    let live = (args.graph.as_deref())
        .map(|graph| recover(&mut index, &args.index, graph, args.journal.as_deref(), hint))
        .transpose()?;
    let journal_replayed = live.as_ref().map_or(0, |live| live.journal_replayed);
    let dynamic = live.map(|live| (live.graph, live.weights));
    let dynamic_enabled = dynamic.is_some();

    let sharded = ShardedIndex::from_index(index, args.shards)
        .map_err(|e| format!("cannot shard {}: {e}", args.index))?;

    let mut config = ServerConfig::new(args.listen.clone());
    config.budget = args.max_cost;
    config.max_inflight = args.max_inflight;
    config.idle_timeout = args.idle_timeout_ms.map(Duration::from_millis);
    config.batch_deadline = args.deadline_ms.map(Duration::from_millis);
    config.journal = args.journal.as_ref().map(PathBuf::from);
    let handle =
        Server::start(Arc::new(sharded), dynamic, config, || pretty(&obs::registry_json()))
            .map_err(|e| format!("cannot start the daemon: {e}"))?;

    // The startup line doubles as the readiness signal scripts wait for —
    // and carries the kernel-resolved address when `--tcp` asked for
    // port 0.
    if journal_replayed > 0 {
        print_line(format_args!("replayed {journal_replayed} pending journal entries"))?;
    }
    print_line(format_args!(
        "serving {} on {} ({} shards, {} threads, dynamic: {}, load: {})",
        args.index,
        handle.address(),
        args.shards,
        args.threads,
        dynamic_enabled,
        load_mode.as_str()
    ))?;
    handle.join().map_err(|_| "the daemon's accept loop panicked".to_string())
}

/// The queries of a `query` or `client` batch over a vertex space of
/// `num_nodes`, which sizes the audience bitmap: Top-Ks first, then the
/// Spread, then the Marginal.
fn batch_queries(spec: &BatchSpec, num_nodes: usize) -> Vec<Query> {
    let audience = spec.audience.as_ref().map(|vertices| {
        // Out-of-range audience vertices select no sets; dropping them keeps
        // the bitmap sized to the vertex space.
        BitSet::from_iter_with_capacity(
            num_nodes,
            vertices.iter().map(|&v| v as usize).filter(|&v| v < num_nodes),
        )
    });
    let mut queries: Vec<Query> = spec
        .top_k
        .iter()
        .map(|&k| match &audience {
            None => Query::top_k(k),
            Some(a) => Query::audience_top_k(k, a.clone()),
        })
        .collect();
    if let Some(seeds) = &spec.spread {
        queries.push(Query::Spread { seeds: seeds.clone() });
    }
    if let Some((seeds, candidate)) = &spec.marginal {
        queries.push(Query::Marginal { seeds: seeds.clone(), candidate: *candidate });
    }
    queries
}

/// Materialize a `client` batch against the *served* index: an audience
/// bitmap is sized to the daemon's vertex space, which the client learns
/// over the `info` verb (it has no local index to size it from). Without an
/// audience nothing is sized, so no `info` is asked.
fn remote_queries(client: &mut Client, spec: &BatchSpec) -> Result<Vec<Query>, CliError> {
    let num_nodes = match spec.audience {
        None => 0,
        Some(_) => client.info().map_err(|e| client_failure("info", e))?.nodes as usize,
    };
    Ok(batch_queries(spec, num_nodes))
}

/// A structured admission rejection as a response row.
fn rejection_json(rejection: &Rejection) -> serde_json::Value {
    match rejection {
        Rejection::OverBudget { estimated_cost, budget } => serde_json::json!({
            "rejected": "over-budget",
            "estimated_cost": estimated_cost,
            "budget": budget,
        }),
        Rejection::InvalidVertex { vertex, num_nodes } => serde_json::json!({
            "rejected": "invalid-vertex",
            "vertex": vertex,
            "num_nodes": num_nodes,
        }),
        Rejection::DeadlineExceeded { elapsed_ms, deadline_ms } => serde_json::json!({
            "rejected": "deadline-exceeded",
            "elapsed_ms": elapsed_ms,
            "deadline_ms": deadline_ms,
        }),
    }
}

/// Render a client failure for the CLI exit path. The typed transport
/// failures name themselves — a lost connection or an expired request
/// timeout after the retries ran out reads differently from a daemon
/// that *answered* with an error — so scripts can branch on the message.
fn client_failure(verb: &str, error: ClientError) -> CliError {
    match error {
        ClientError::ConnectionLost { .. } => {
            format!("connection lost: {verb} failed after exhausting its retries: {error}")
        }
        ClientError::TimedOut { .. } => {
            format!("timed out: {verb} failed after exhausting its retries: {error}")
        }
        error => format!("{verb} failed: {error}"),
    }
}

/// Talk to a serving daemon: run the requested actions in order and
/// print one JSON report. Batch responses reuse [`response_json`], so a
/// remote answer renders byte-identically to the local `query` command's.
///
/// One [`Client`] serves the whole invocation, and the first action dials
/// it: `--wait-ms` is its readiness window (the first dial retries while a
/// just-started daemon binds its socket), idempotent verbs retry lost
/// connections and timeouts with capped, jittered exponential backoff
/// (reconnecting as needed — a daemon restart mid-invocation is
/// survivable), and `apply-delta` and `shutdown` get exactly one attempt
/// each.
fn client(args: &ClientArgs) -> Result<(), CliError> {
    let policy = RetryPolicy {
        attempts: args.retries.saturating_add(1),
        base_backoff: Duration::from_millis(args.retry_backoff_ms),
        request_timeout: args
            .request_timeout_ms
            .map(Duration::from_millis)
            .or(RetryPolicy::default().request_timeout),
        wait: Duration::from_millis(args.wait_ms),
    };
    let mut client = Client::new(args.address.clone(), policy);

    let mut report: Vec<(String, serde_json::Value)> =
        vec![("address".into(), serde_json::json!(args.address.to_string()))];
    for action in &args.actions {
        match action {
            ClientAction::Ping => {
                client.ping().map_err(|e| client_failure("ping", e))?;
                report.push(("ping".into(), serde_json::json!("pong")));
            }
            ClientAction::Info => {
                // `postings_*` describe the global postings the daemon's
                // generation serves from — `stats --index`'s four numbers.
                let info = client.info().map_err(|e| client_failure("info", e))?;
                report.push((
                    "info".into(),
                    serde_json::json!({
                        "source": info.label,
                        "theta": info.theta,
                        "nodes": info.nodes,
                        "shards": info.shards,
                        "workers": info.workers,
                        "rollouts": info.rollouts,
                        "postings_row_vertices": info.postings_row_vertices,
                        "postings_row_bytes": info.postings_row_bytes,
                        "postings_list_entries": info.postings_list_entries,
                        "postings_list_bytes": info.postings_list_bytes,
                    }),
                ));
            }
            ClientAction::Metrics => {
                let raw = client.metrics_json().map_err(|e| client_failure("metrics", e))?;
                // The daemon sends rendered JSON; embed it structurally,
                // falling back to a string if it ever fails to parse.
                let value = serde_json::from_str(&raw).unwrap_or(serde_json::Value::String(raw));
                report.push(("metrics".into(), value));
            }
            ClientAction::Batch(spec) => {
                let queries = remote_queries(&mut client, spec)?;
                let outcomes = client.batch(&queries).map_err(|e| client_failure("batch", e))?;
                let responses: Vec<serde_json::Value> = queries
                    .iter()
                    .zip(outcomes.iter())
                    .map(|(q, outcome)| match outcome {
                        Ok(r) => response_json(q, r),
                        Err(rejection) => rejection_json(rejection),
                    })
                    .collect();
                report.push(("responses".into(), serde_json::Value::Array(responses)));
            }
            ClientAction::ApplyDelta { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let outcome =
                    client.apply_delta(&text).map_err(|e| client_failure("apply-delta", e))?;
                report.push((
                    "delta".into(),
                    serde_json::json!({
                        "theta": outcome.total_sets,
                        "resampled_sets": outcome.resampled_sets,
                        "inserted_edges": outcome.inserted_edges,
                        "deleted_edges": outcome.deleted_edges,
                        "reweighted_edges": outcome.reweighted_edges,
                        "edges_after": outcome.edges_after,
                    }),
                ));
            }
            ClientAction::Shutdown => {
                client.shutdown().map_err(|e| client_failure("shutdown", e))?;
                report.push(("shutdown".into(), serde_json::json!("acknowledged")));
            }
        }
    }
    print_line(pretty(&serde_json::Value::Object(report)))
}

/// The workspace metric registry in the documented, versioned shape
/// ([`obs`] — the same serializer the daemon's `metrics` verb answers
/// with), plus the process-global pool's thread count.
fn metrics_json() -> serde_json::Value {
    serde_json::json!({
        "pool": {
            "threads": imm_exec::global().num_threads(),
        },
        "registry": obs::registry_json(),
    })
}

/// Render a stats payload, appending the full metric registry when
/// `--metrics` was passed.
fn print_stats(json: serde_json::Value, metrics: bool) -> Result<(), CliError> {
    let json = match (metrics, json) {
        (true, serde_json::Value::Object(mut pairs)) => {
            pairs.push(("metrics".to_string(), metrics_json()));
            serde_json::Value::Object(pairs)
        }
        (_, json) => json,
    };
    print_line(pretty(&json))
}

/// What a saved index holds, read off its postings — the sketches are
/// reused, not resampled: θ, the mean coverage (entries / θ / n), and the
/// shape of the postings: how many vertices store a row, how many list
/// entries the rest hold, the bytes of each form (what a daemon serving the
/// file reports under `client --info`).
fn stats_from_index(path: &str, metrics: bool) -> Result<(), CliError> {
    let index =
        SketchIndex::load_from_path(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let (theta, n) = (index.num_sets(), index.num_nodes());
    let avg_coverage = if theta == 0 || n == 0 {
        0.0
    } else {
        index.postings().entries() as f64 / theta as f64 / n as f64
    };
    let postings = index.postings().stats();
    let json = serde_json::json!({
        "input": index.meta().label,
        "snapshot": path,
        "nodes": n,
        "edges": index.meta().num_edges,
        "rrr_sets_sampled": theta,
        "avg_rrr_coverage": avg_coverage,
        "postings_row_vertices": postings.row_vertices,
        "postings_row_bytes": postings.row_bytes,
        "postings_list_entries": postings.list_entries,
        "postings_list_bytes": postings.list_bytes,
    });
    print_stats(json, metrics)
}

/// Time one load path end to end: the store's per-phase open timings plus
/// the first query served from the freshly opened index — together the
/// path's time-to-first-query.
fn startup_phase_json(opened: imm_store::OpenedIndex) -> serde_json::Value {
    let timings = opened.timings;
    let mapped_bytes = opened.mapped_len();
    let engine = QueryEngine::new(Arc::new(opened.index));
    let t_query = Instant::now();
    let _ = engine.execute(&Query::top_k(1));
    let first_query_ns = t_query.elapsed().as_nanos() as u64;
    serde_json::json!({
        "mode": opened.mode.as_str(),
        "mapped_bytes": mapped_bytes,
        "open_ns": timings.open_ns,
        "map_ns": timings.map_ns,
        "decode_ns": timings.decode_ns,
        "first_query_ns": first_query_ns,
        "time_to_first_query_ns": timings.total_ns() + first_query_ns,
    })
}

/// `stats --index <FILE> --startup-timing`: open the snapshot through both
/// store paths and print each one's open/map/decode/first-query phase
/// breakdown, so the mmap win (and the fallback cost) is measurable on the
/// exact file a daemon would serve.
fn startup_timing_from_index(path: &str, metrics: bool) -> Result<(), CliError> {
    let mapped = imm_store::Store::open(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let read = imm_store::Store::open_read(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let json = serde_json::json!({
        "snapshot": path,
        "mapped": startup_phase_json(mapped),
        "read_decode": startup_phase_json(read),
    });
    print_stats(json, metrics)
}

fn stats(args: &StatsArgs) -> Result<(), CliError> {
    if args.describe {
        // The catalog is registry metadata only — no graph, no sampling.
        // Printed as the exact markdown table of the README's
        // "Observability" section (tests/metrics_catalog.rs pins the two
        // together).
        return print_line(obs::catalog_markdown().trim_end_matches('\n'));
    }
    if let Some(path) = &args.index {
        if args.startup_timing {
            return startup_timing_from_index(path, args.metrics);
        }
        return stats_from_index(path, args.metrics);
    }
    let path = args.graph.as_deref().ok_or("stats needs a graph file or an --index snapshot")?;
    let (graph, weights) = load(path, DiffusionModel::IndependentCascade, 0xC0FFEE)?;
    let scc = properties::strongly_connected_components(&graph);
    let out_stats = properties::out_degree_stats(&graph);

    // The sampling pass rides the shared process-wide pool at whatever
    // width the pool was given.
    let threads = imm_exec::global().num_threads();
    let cfg = SamplingConfig {
        model: DiffusionModel::IndependentCascade,
        rng_seed: 0xC0FFEE,
        policy: AdaptivePolicy::default(),
        schedule: Schedule::Dynamic { chunk: 16 },
        threads,
    };
    let out = generate_rrr_sets(&graph, &weights, args.rrr_sets, |i| i, &cfg);
    let coverage = out.sets.coverage_stats();

    let json = serde_json::json!({
        "input": path,
        "nodes": graph.num_nodes(),
        "edges": graph.num_edges(),
        "graph_bytes": graph.memory_bytes() + std::mem::size_of_val(weights.as_slice()),
        "out_degree": {
            "max": out_stats.max,
            "mean": out_stats.mean,
            "p99": out_stats.p99,
        },
        "largest_scc_fraction": scc.largest_fraction(),
        "num_sccs": scc.num_components(),
        "rrr_sets_sampled": coverage.count,
        "avg_rrr_coverage": coverage.avg_coverage,
        "max_rrr_coverage": coverage.max_coverage,
        "rrr_memory_bytes": coverage.memory_bytes,
    });
    print_stats(json, args.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch path whose name carries this process's id, so two test runs
    /// on one machine never share a file or a socket.
    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("efficient_imm_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    /// `generate` a graph of `kind` with `nodes` vertices into `name`.
    fn generated(name: &str, kind: &str, nodes: usize) -> String {
        let path = temp_path(name).to_string_lossy().into_owned();
        let (kind, avg_degree, seed) = (kind.into(), 6, 5);
        execute(Command::Generate(GenerateArgs {
            output: path.clone(),
            kind,
            nodes,
            avg_degree,
            seed,
        }))
        .unwrap();
        path
    }

    #[test]
    fn generate_then_run_round_trips_through_a_file() {
        let graph_path = generated("cli_social.txt", "social", 300);
        let out_path = temp_path("cli_run.json");
        assert!(Path::new(&graph_path).exists());

        execute(Command::Run(RunArgs {
            graph: graph_path.clone(),
            model: DiffusionModel::IndependentCascade,
            k: 3,
            epsilon: 0.5,
            threads: 2,
            seed: 7,
            output: Some(out_path.to_string_lossy().into_owned()),
        }))
        .unwrap();
        let log: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(log["k"], 3);
        assert_eq!(log["seeds"].as_array().unwrap().len(), 3);
        assert!(log["theta"].as_u64().unwrap() > 0);
        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn run_and_build_index_report_their_load_seconds() {
        let graph_path = generated("cli_load_seconds.txt", "social", 300);
        let out_path = temp_path("cli_load_seconds.json");
        let snapshot_path = temp_path("cli_load_seconds.sketch");
        let run = RunArgs {
            graph: graph_path.clone(),
            model: DiffusionModel::LinearThreshold,
            k: 3,
            epsilon: 0.5,
            threads: 1,
            seed: 7,
            output: Some(out_path.to_string_lossy().into_owned()),
        };
        let started = Instant::now();
        execute(Command::Run(run.clone())).unwrap();
        let run_wall = started.elapsed().as_secs_f64();
        let log: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        let started = Instant::now();
        let built = build_index_json(&BuildIndexArgs {
            run,
            output: snapshot_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        let build_wall = started.elapsed().as_secs_f64();
        for (json, wall) in [(&log, run_wall), (&built, build_wall)] {
            let load = json["load_seconds"].as_f64().expect("a load_seconds number");
            assert!(load > 0.0 && load <= wall, "load {load} s of a {wall} s command");
        }
        for path in [graph_path.into(), out_path, snapshot_path] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn file_weights_stay_on_their_edges_in_any_line_order() {
        // Only 1 -> 0 is live, so the one seed that reaches both is 1.
        let mut maps = Vec::new();
        for (name, text) in [("cli_w_a", "1 0 1.0\n0 1 0.0\n"), ("cli_w_b", "0 1 0.0\n1 0 1.0\n")] {
            let graph_path = temp_path(&format!("{name}.txt"));
            let out_path = temp_path(&format!("{name}.json"));
            std::fs::write(&graph_path, text).unwrap();
            let path = graph_path.to_string_lossy().into_owned();
            let (graph, weights) = load(&path, DiffusionModel::IndependentCascade, 7).unwrap();
            let by_edge: std::collections::BTreeMap<(imm_graph::NodeId, imm_graph::NodeId), u32> =
                graph.edges().zip(weights.as_slice()).map(|(e, w)| (e, w.to_bits())).collect();
            maps.push(by_edge);

            execute(Command::Run(RunArgs {
                graph: path,
                model: DiffusionModel::IndependentCascade,
                k: 1,
                epsilon: 0.5,
                threads: 1,
                seed: 7,
                output: Some(out_path.to_string_lossy().into_owned()),
            }))
            .unwrap();
            let log: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
            assert_eq!(log["seeds"], serde_json::json!([1]), "{text:?}");
            std::fs::remove_file(&graph_path).ok();
            std::fs::remove_file(&out_path).ok();
        }
        assert_eq!(maps[0], maps[1]);
        let want = [((0, 1), 0.0f32.to_bits()), ((1, 0), 1.0f32.to_bits())];
        assert_eq!(maps[0], want.into_iter().collect());
    }

    #[test]
    fn missing_graph_file_and_bad_generator_are_reported() {
        let err = execute(Command::Run(RunArgs {
            graph: "/nonexistent/g.txt".into(),
            model: DiffusionModel::IndependentCascade,
            k: 2,
            epsilon: 0.5,
            threads: 1,
            seed: 7,
            output: None,
        }))
        .unwrap_err();
        assert!(err.starts_with("cannot read /nonexistent/g.txt: "), "unexpected error: {err}");

        let err = execute(Command::Generate(GenerateArgs {
            output: temp_path("never.txt").to_string_lossy().into_owned(),
            kind: "quantum".into(),
            nodes: 10,
            avg_degree: 2,
            seed: 1,
        }))
        .unwrap_err();
        assert!(err.contains("unknown generator"));
    }

    #[test]
    fn stats_command_runs_on_generated_file() {
        let graph_path = generated("cli_stats.txt", "road", 100);
        execute(Command::Stats(StatsArgs {
            graph: Some(graph_path.clone()),
            rrr_sets: 32,
            index: None,
            metrics: true,
            describe: false,
            startup_timing: false,
        }))
        .unwrap();
        std::fs::remove_file(&graph_path).ok();
    }

    #[test]
    fn build_index_then_query_and_stats_reuse_the_snapshot() {
        let graph_path = generated("cli_index.txt", "social", 1_000);
        let snapshot_path = temp_path("cli_index.sketch");
        execute(Command::BuildIndex(BuildIndexArgs {
            run: RunArgs {
                graph: graph_path.clone(),
                model: DiffusionModel::IndependentCascade,
                k: 4,
                epsilon: 0.5,
                threads: 2,
                seed: 11,
                output: None,
            },
            output: snapshot_path.to_string_lossy().into_owned(),
        }))
        .unwrap();
        assert!(snapshot_path.exists());

        execute(Command::Query(QueryArgs {
            index: snapshot_path.to_string_lossy().into_owned(),
            batch: BatchSpec {
                top_k: vec![2, 4],
                audience: Some(vec![0, 1, 2, 3, 4, 5, 6, 7]),
                spread: Some(vec![0, 1]),
                marginal: Some((vec![0], 1)),
            },
            threads: 2,
            // Exercises the before/after registry delta path end to end.
            metrics: true,
        }))
        .unwrap();

        // A Spread or Marginal vertex outside the index is refused by name;
        // an out-of-range audience vertex is dropped.
        let nodes = SketchIndex::load_from_path(&snapshot_path).unwrap().num_nodes();
        let absent = nodes as u32 + 7;
        let query = |spread, marginal| {
            execute(Command::Query(QueryArgs {
                index: snapshot_path.to_string_lossy().into_owned(),
                batch: BatchSpec {
                    top_k: vec![2],
                    audience: Some(vec![0, absent]),
                    spread,
                    marginal,
                },
                threads: 1,
                metrics: false,
            }))
        };
        query(None, None).unwrap();
        for (spread, marginal) in [(Some(vec![0, absent]), None), (None, Some((vec![0], absent)))] {
            assert_eq!(
                query(spread, marginal).unwrap_err(),
                format!("query rejected: vertex {absent} outside the vertex space {nodes}")
            );
        }

        execute(Command::Stats(StatsArgs {
            graph: None,
            rrr_sets: 32,
            index: Some(snapshot_path.to_string_lossy().into_owned()),
            metrics: false,
            describe: false,
            startup_timing: false,
        }))
        .unwrap();

        // The startup breakdown opens the same snapshot through both store
        // paths and times each phase.
        execute(Command::Stats(StatsArgs {
            graph: None,
            rrr_sets: 0,
            index: Some(snapshot_path.to_string_lossy().into_owned()),
            metrics: false,
            describe: false,
            startup_timing: true,
        }))
        .unwrap();
        std::fs::remove_file(&snapshot_path).ok();
        std::fs::remove_file(&graph_path).ok();
    }

    #[test]
    fn update_index_refreshes_a_snapshot_and_replays_its_log() {
        let graph_path = generated("cli_update_graph.txt", "social", 200);
        let snapshot_path = temp_path("cli_update.sketch");
        let delta1_path = temp_path("cli_update_1.delta");
        let delta2_path = temp_path("cli_update_2.delta");
        execute(Command::BuildIndex(BuildIndexArgs {
            run: RunArgs {
                graph: graph_path.clone(),
                model: DiffusionModel::IndependentCascade,
                k: 3,
                epsilon: 0.5,
                threads: 2,
                seed: 13,
                output: None,
            },
            output: snapshot_path.to_string_lossy().into_owned(),
        }))
        .unwrap();

        // First delta: insertions plus the deletion of a real edge taken
        // from the graph file itself.
        let first_edge = std::fs::read_to_string(&graph_path)
            .unwrap()
            .lines()
            .find(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| l.split_whitespace().take(2).collect::<Vec<_>>().join(" "))
            .expect("generated graph has edges");
        std::fs::write(&delta1_path, format!("# churn\n+ 0 199 0.4\n- {first_edge}\n")).unwrap();
        let update = |delta_path: &std::path::Path| {
            execute(Command::UpdateIndex(UpdateIndexArgs {
                index: snapshot_path.to_string_lossy().into_owned(),
                graph: graph_path.clone(),
                delta: delta_path.to_string_lossy().into_owned(),
                output: None,
                journal: None,
            }))
        };
        update(&delta1_path).unwrap();

        // Second delta exercises the log replay: the snapshot now describes
        // revision 1, so the logged first delta must be replayed before this
        // one applies — including deleting the edge revision 1 added.
        std::fs::write(&delta2_path, "- 0 199\n+ 5 6 0.7\n").unwrap();
        update(&delta2_path).unwrap();

        // The refreshed snapshot still serves queries.
        execute(Command::Query(QueryArgs {
            index: snapshot_path.to_string_lossy().into_owned(),
            batch: BatchSpec { top_k: vec![2], spread: Some(vec![0, 5]), ..BatchSpec::default() },
            threads: 1,
            metrics: false,
        }))
        .unwrap();

        // A bogus delta (deleting a non-existent edge) is reported cleanly.
        std::fs::write(&delta1_path, "- 198 199\n- 198 199\n- 198 199\n- 198 199\n").unwrap();
        let err = update(&delta1_path).unwrap_err();
        assert!(err.contains("delta"), "unexpected error: {err}");

        for p in [graph_path.into(), snapshot_path, delta1_path, delta2_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn update_index_rejects_static_snapshots_and_missing_files() {
        let err = execute(Command::UpdateIndex(UpdateIndexArgs {
            index: "/nonexistent/u.sketch".into(),
            graph: "/nonexistent/u.txt".into(),
            delta: "/nonexistent/u.delta".into(),
            output: None,
            journal: None,
        }))
        .unwrap_err();
        assert!(err.contains("cannot load"));

        // A provenance-free (static) snapshot is rejected with a pointer to
        // build-index, before any graph loading happens.
        let static_path = temp_path("cli_static.sketch");
        let mut collection = imm_rrr::RrrCollection::new(10);
        collection.push_vertices(vec![0, 1], &imm_rrr::AdaptivePolicy::always_sorted());
        imm_service::SketchIndex::from_collection(collection, imm_service::IndexMeta::default())
            .unwrap()
            .save_to_path(&static_path)
            .unwrap();
        let err = execute(Command::UpdateIndex(UpdateIndexArgs {
            index: static_path.to_string_lossy().into_owned(),
            graph: "/nonexistent/u.txt".into(),
            delta: "/nonexistent/u.delta".into(),
            output: None,
            journal: None,
        }))
        .unwrap_err();
        assert!(err.contains("static snapshot"), "unexpected error: {err}");
        std::fs::remove_file(&static_path).ok();
    }

    #[test]
    fn serve_then_client_round_trips_over_a_unix_socket() {
        let graph_path = generated("cli_serve.txt", "social", 1_000);
        let snapshot_path = temp_path("cli_serve.sketch");
        let socket_path = temp_path("cli_serve.sock");
        std::fs::remove_file(&socket_path).ok();
        execute(Command::BuildIndex(BuildIndexArgs {
            run: RunArgs {
                graph: graph_path.clone(),
                model: DiffusionModel::IndependentCascade,
                k: 3,
                epsilon: 0.5,
                threads: 2,
                seed: 17,
                output: None,
            },
            output: snapshot_path.to_string_lossy().into_owned(),
        }))
        .unwrap();

        let serve_args = ServeArgs {
            index: snapshot_path.to_string_lossy().into_owned(),
            graph: None,
            listen: imm_serve::Listen::Unix(socket_path.clone()),
            shards: 2,
            threads: 2,
            max_cost: None,
            max_inflight: 8,
            idle_timeout_ms: None,
            deadline_ms: None,
            journal: None,
            // Serve from the mapping so the round trip covers the zero-copy
            // path (falls back, still serving, where mmap is unavailable).
            mmap: true,
        };
        let daemon = std::thread::spawn(move || execute(Command::Serve(serve_args)));

        // One invocation: probe, identify, query (audience included, so
        // the client sizes the bitmap over the info verb), fetch metrics,
        // and take the daemon down.
        execute(Command::Client(ClientArgs {
            address: imm_serve::Listen::Unix(socket_path.clone()),
            actions: vec![
                ClientAction::Ping,
                ClientAction::Info,
                ClientAction::Batch(BatchSpec {
                    top_k: vec![2],
                    audience: Some(vec![0, 1, 2, 3]),
                    spread: Some(vec![0, 1]),
                    marginal: Some((vec![0], 1)),
                }),
                ClientAction::Metrics,
                ClientAction::Shutdown,
            ],
            wait_ms: 5_000,
            retries: 3,
            retry_backoff_ms: 10,
            request_timeout_ms: None,
        }))
        .unwrap();

        daemon.join().unwrap().unwrap();
        assert!(!socket_path.exists(), "the daemon removes its socket on shutdown");

        // A vanished daemon is reported as an error, not a panic.
        let socket = socket_path.to_string_lossy();
        let argv = ["client", "--socket", &socket, "--retries", "0", "--ping"].map(String::from);
        let err = execute(crate::args::parse(&argv).unwrap()).unwrap_err();
        assert!(err.contains("connect"), "unexpected error: {err}");

        std::fs::remove_file(&snapshot_path).ok();
        std::fs::remove_file(&graph_path).ok();
    }

    /// A `client` run is one connection: `--wait-ms` is the readiness window of the dial its
    /// actions use (the socket is bound 50 ms into it), not a probe dialed and dropped first.
    #[test]
    fn a_client_run_dials_the_daemon_once() {
        use imm_serve::protocol::*;
        let socket_path = temp_path("cli_one_dial.sock");
        std::fs::remove_file(&socket_path).ok();
        let path = socket_path.clone();
        // Answers pings, one connection at a time, until a connection carried a request.
        let daemon = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let listener = std::os::unix::net::UnixListener::bind(path).unwrap();
            (1..).find(|_| {
                let mut conn = listener.accept().unwrap().0;
                let mut pinged = false;
                while let FrameRead::Frame(frame) = read_frame(&mut conn, 64).unwrap() {
                    assert_eq!(decode_request(&frame).unwrap(), Request::Ping);
                    write_frame(&mut conn, &encode_response(&Response::Pong)).unwrap();
                    pinged = true;
                }
                pinged
            })
        });
        let socket = socket_path.to_string_lossy();
        let argv = ["client", "--socket", &socket, "--wait-ms", "5000", "--ping"].map(String::from);
        execute(crate::args::parse(&argv).unwrap()).unwrap();
        assert_eq!(daemon.join().unwrap(), Some(1), "connections accepted for one client run");
        std::fs::remove_file(&socket_path).ok();
    }

    #[test]
    fn query_on_a_missing_snapshot_is_reported() {
        let err = execute(Command::Query(QueryArgs {
            index: "/nonexistent/q.sketch".into(),
            batch: BatchSpec { top_k: vec![1], ..BatchSpec::default() },
            threads: 1,
            metrics: false,
        }))
        .unwrap_err();
        assert!(err.contains("cannot load"));
    }

    #[test]
    fn help_prints_without_error() {
        execute(Command::Help).unwrap();
    }

    /// A writer whose every write and flush fails with `kind`.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn stdout_writes_end_quietly_on_a_closed_pipe_and_report_other_errors() {
        let mut out = Vec::new();
        write_stdout(&mut out, "line\n").unwrap();
        assert_eq!(out, b"line\n");
        write_stdout(&mut Failing(ErrorKind::BrokenPipe), "line\n").unwrap();
        let err = write_stdout(&mut Failing(ErrorKind::PermissionDenied), "line\n").unwrap_err();
        assert!(err.starts_with("cannot write to stdout"), "unexpected error: {err}");
    }
}
