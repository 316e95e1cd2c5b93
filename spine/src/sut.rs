//! The adapter: every call the benchmark makes into a crate of the system
//! under test lives in this file, so a rename in the system is a one-file
//! change here. Each call into a layer is wrapped in a span named
//! `<layer>.<operation>`; with tracing off the wrapper is one branch.
//!
//! The rest of the harness sees only the opaque types below, the
//! harness's own [`QuerySpec`], strings and numbers.

use crate::gen::QuerySpec;
use crate::plan::Model;
use crate::trace::Tracer;
use efficient_imm::{run_imm, Algorithm, ExecutionConfig, ImmParams};
use imm_diffusion::DiffusionModel;
use imm_graph::{io, CsrGraph, EdgeWeights, GraphDelta, WeightModel};
use imm_rrr::{BitSet, RrrCollection, SetProvenance};
use imm_serve::protocol::{self, FrameRead};
use imm_serve::{CostModel, Rejection, Request, Response};
use imm_service::{Query, QueryEngine, QueryResponse, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use imm_store::Store;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn diffusion(model: Model) -> DiffusionModel {
    match model {
        Model::Ic => DiffusionModel::IndependentCascade,
        Model::Lt => DiffusionModel::LinearThreshold,
    }
}

/// Value of a process-local counter of the system's metric registry.
fn local_counter(name: &str) -> u64 {
    imm_obs::snapshot()
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            imm_obs::MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------- graph --

/// A parsed graph with the model's edge weights, built exactly as the
/// CLI's `run` / `build-index` / `serve --graph` build theirs.
pub struct Graph {
    graph: CsrGraph,
    weights: EdgeWeights,
}

impl Graph {
    /// Parse `path` and derive weights from `weight_seed` (the CLI seeds
    /// its weight RNG with `--seed`).
    pub fn load(
        path: &Path,
        model: Model,
        weight_seed: u64,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let graph = tr.span("graph.parse", 0, |tr| -> Result<CsrGraph, String> {
            let (edges, _file_weights) = tr
                .span("graph.read_snap_file", 0, |_| io::read_snap_file(path))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok(tr.span("graph.from_edge_list", 0, |_| CsrGraph::from_edge_list(&edges)))
        })?;
        let weights = tr.span("graph.weights", 0, |_| {
            let mut rng = SmallRng::seed_from_u64(weight_seed);
            let weight_model = match model {
                Model::Ic => WeightModel::IcUniform,
                Model::Lt => WeightModel::LtNormalized,
            };
            EdgeWeights::generate(&graph, weight_model, 0.0, &mut rng)
        });
        Ok(Graph { graph, weights })
    }

    pub fn nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Mean activation of `seeds` over `trials` forward simulations: the
    /// oracle the solver's own estimate is held against.
    pub fn forward_spread(&self, model: Model, seeds: &[u32], trials: usize, seed: u64) -> f64 {
        imm_diffusion::monte_carlo_spread(
            &self.graph,
            &self.weights,
            diffusion(model),
            seeds,
            trials,
            seed,
        )
        .mean
    }

    /// `GraphDelta::apply` alone, timed: the graph layer's share of a
    /// rollout.
    pub fn apply_delta_only(&self, text: &str, tr: &mut Tracer) -> Result<usize, String> {
        let delta = GraphDelta::parse_text(text).map_err(|e| e.to_string())?;
        let (graph, _weights) = tr
            .span("graph.delta_apply", 0, |_| delta.apply(&self.graph, &self.weights))
            .map_err(|e| e.to_string())?;
        Ok(graph.num_edges())
    }
}

// ----------------------------------------------------------- core + rrr --

/// What one in-process IMM run reported about itself.
pub struct Solved {
    pub theta: usize,
    pub sampling_ms: f64,
    pub selection_ms: f64,
    pub total_ms: f64,
    /// Vertices appended into RRR sets (`core_rrr_set_vertices` delta).
    pub rrr_vertices: u64,
    pub rrr_memory_bytes: usize,
    pub mean_set_len: f64,
    pub bitmap_set_share: f64,
    parts: Option<(RrrCollection, Vec<SetProvenance>)>,
}

/// The IMM run `build-index` performs (sets and provenance retained).
pub fn solve(
    graph: &Graph,
    model: Model,
    k: usize,
    epsilon: f64,
    seed: u64,
    threads: usize,
    tr: &mut Tracer,
) -> Result<Solved, String> {
    let params = ImmParams::new(k, epsilon, diffusion(model)).with_seed(seed);
    let exec = ExecutionConfig::new(Algorithm::Efficient, threads)
        .with_retained_sets(true)
        .with_provenance(true);
    let vertices_before = local_counter("core_rrr_set_vertices");
    let started = Instant::now();
    let result = tr
        .span("core.run_imm", 0, |_| run_imm(&graph.graph, &graph.weights, &params, &exec))
        .map_err(|e| e.to_string())?;
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let rrr_vertices = local_counter("core_rrr_set_vertices") - vertices_before;
    let stats = result.rrr_stats;
    let collection = result.rrr_sets.ok_or("run_imm did not retain its RRR sets")?;
    let provenance = result.provenance.ok_or("run_imm did not trace provenance")?;
    Ok(Solved {
        theta: result.theta,
        sampling_ms: result.breakdown.timings.generate_rrrsets.as_secs_f64() * 1e3,
        selection_ms: result.breakdown.timings.find_most_influential.as_secs_f64() * 1e3,
        total_ms,
        rrr_vertices,
        rrr_memory_bytes: stats.memory_bytes,
        mean_set_len: stats.avg_size,
        bitmap_set_share: if stats.count == 0 {
            0.0
        } else {
            stats.bitmap_sets as f64 / stats.count as f64
        },
        parts: Some((collection, provenance)),
    })
}

// -------------------------------------------------------------- service --

/// A sketch index (heap-owned or served from a mapping).
pub struct Index(SketchIndex);

impl Index {
    /// Freeze a solved run into a dynamic index, as `build-index` does.
    pub fn build(
        graph: &Graph,
        solved: &mut Solved,
        model: Model,
        seed: u64,
        label: &str,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let (collection, provenance) = solved.parts.take().ok_or("solved run already consumed")?;
        let exec = ExecutionConfig::new(Algorithm::Efficient, 1);
        let spec = SampleSpec::new(diffusion(model), seed)
            .with_policy(exec.features.representation_policy());
        tr.span("service.index_build", 0, |_| {
            SketchIndex::build_with_provenance(&graph.graph, collection, provenance, spec, label)
        })
        .map(Index)
        .map_err(|e| e.to_string())
    }

    pub fn save(&self, path: &Path, tr: &mut Tracer) -> Result<(), String> {
        tr.span("service.save", 0, |_| self.0.save_to_path(path)).map_err(|e| e.to_string())
    }

    /// The checksummed read-decode load `serve` uses without `--mmap`.
    pub fn load_decode(path: &Path, tr: &mut Tracer) -> Result<Self, String> {
        tr.span("service.load_decode", 0, |_| SketchIndex::load_from_path(path))
            .map(Index)
            .map_err(|e| format!("cannot load {}: {e}", path.display()))
    }

    /// Strict zero-copy open (no silent fallback); returns the index and
    /// the mapped length in bytes.
    pub fn open_mapped(path: &Path, tr: &mut Tracer) -> Result<(Self, usize), String> {
        let opened = tr
            .span("store.open_mapped", 0, |_| Store::open_mapped(path))
            .map_err(|e| format!("cannot map {}: {e}", path.display()))?;
        let mapped = opened.mapped_len();
        Ok((Index(opened.index), mapped))
    }

    /// `Store::open_read`: the store's own read-decode entry point.
    pub fn open_decode(path: &Path, tr: &mut Tracer) -> Result<Self, String> {
        tr.span("store.open_decode", 0, |_| Store::open_read(path))
            .map(|opened| Index(opened.index))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
    }

    pub fn theta(&self) -> usize {
        self.0.num_sets()
    }

    pub fn nodes(&self) -> usize {
        self.0.num_nodes()
    }

    /// One uncached Top-K on a fresh single-index engine: the first query
    /// a just-opened snapshot answers (faults mapped pages in).
    pub fn first_query(self, k: usize, tr: &mut Tracer) {
        let engine = QueryEngine::with_cache_capacity(Arc::new(self.0), 0);
        tr.span("store.first_query", 0, |_| {
            std::hint::black_box(engine.execute_uncached(&Query::top_k(k)));
        });
    }

    /// `SketchIndex::apply_delta` on a private copy: the service layer's
    /// share of a rollout. Returns (resampled sets, total sets).
    pub fn refresh_copy(
        &self,
        graph: &Graph,
        text: &str,
        tr: &mut Tracer,
    ) -> Result<(usize, usize), String> {
        let delta = GraphDelta::parse_text(text).map_err(|e| e.to_string())?;
        let mut copy = self.0.clone();
        let (_, _, stats) = tr
            .span("service.delta_refresh", 0, |_| {
                copy.apply_delta(&graph.graph, &graph.weights, &delta)
            })
            .map_err(|e| e.to_string())?;
        Ok((stats.resampled_sets, stats.total_sets))
    }

    /// Partition into `shards` set-range shards, as `serve` does.
    pub fn into_sharded(self, shards: usize, tr: &mut Tracer) -> Result<Sharded, String> {
        tr.span("shard.partition", 0, |_| ShardedIndex::from_index(self.0, shards))
            .map(|index| Sharded(Arc::new(index)))
            .map_err(|e| e.to_string())
    }
}

/// Time each single-index query kind on a cache-less `QueryEngine`, one
/// span per query (`service.topk_cold`, `service.spread`,
/// `service.marginal`, `service.audience_topk`, `service.cache_hit`).
/// Top-K is timed cold: a fresh engine per trial, so each pays the whole
/// lazy-greedy run. Returns CELF revalidations per round of those runs.
pub fn time_query_kinds(index: &Index, specs: &[QuerySpec], k: usize, tr: &mut Tracer) -> f64 {
    let shared = Arc::new(index.0.clone());
    let nodes = shared.num_nodes();

    let revalidations = local_counter("service_celf_revalidations");
    let rounds = local_counter("service_celf_rounds");
    for _ in 0..3 {
        let engine = QueryEngine::with_cache_capacity(Arc::clone(&shared), 0);
        tr.span("service.topk_cold", 0, |_| {
            std::hint::black_box(engine.execute_uncached(&Query::top_k(k)));
        });
    }
    let rounds = (local_counter("service_celf_rounds") - rounds).max(1);
    let revalidations = local_counter("service_celf_revalidations") - revalidations;

    let engine = QueryEngine::with_cache_capacity(Arc::clone(&shared), 0);
    for spec in specs {
        let name = match spec {
            QuerySpec::Spread { .. } => "service.spread",
            QuerySpec::Marginal { .. } => "service.marginal",
            QuerySpec::TopK { audience: Some(_), .. } => "service.audience_topk",
            QuerySpec::TopK { audience: None, .. } => continue,
        };
        let query = to_query(spec, nodes);
        tr.span(name, 0, |_| {
            std::hint::black_box(engine.execute_uncached(&query));
        });
    }

    // The cached path: the same query again on an engine with a cache.
    let cached = QueryEngine::new(shared);
    let probe = Query::top_k(k.min(8));
    cached.execute(&probe);
    for _ in 0..256 {
        tr.span("service.cache_hit", 0, |_| {
            std::hint::black_box(cached.execute(&probe));
        });
    }
    revalidations as f64 / rounds as f64
}

// ---------------------------------------------------------------- shard --

/// A sharded index, shareable between engines.
#[derive(Clone)]
pub struct Sharded(Arc<ShardedIndex>);

impl Sharded {
    /// Busiest shard's postings entries over the per-shard mean.
    pub fn load_imbalance(&self) -> f64 {
        let sizes: Vec<f64> =
            self.0.segments().iter().map(|s| s.postings_entries() as f64).collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            sizes.iter().cloned().fold(0.0, f64::max) / mean
        }
    }

    pub fn cost_model(&self, tr: &mut Tracer) -> Costs {
        Costs(tr.span("serve.cost_model_build", 0, |_| CostModel::from_index(&self.0)))
    }

    /// Stand up the scatter/gather engine the daemon serves from.
    pub fn engine(&self, threads: usize, cache_capacity: usize, tr: &mut Tracer) -> Engine {
        Engine(tr.span("shard.engine_start", 0, |_| {
            ShardedEngine::with_options(Arc::clone(&self.0), threads, cache_capacity)
        }))
    }
}

/// An in-process `ShardedEngine`: the reference the daemon's answers are
/// compared against, and the subject of the shard-layer timings.
pub struct Engine(ShardedEngine);

impl Engine {
    /// Whether the daemon's answers to `request` equal this engine's
    /// (which executes the queries as the daemon does after admission).
    pub fn agrees(&self, request: &Req, answers: &Answers, threads: usize) -> bool {
        match self.0.try_execute_batch(request.queries(), threads) {
            Ok(expected) => {
                expected.len() == answers.0.len()
                    && expected.iter().zip(&answers.0).all(|(want, got)| got.as_ref() == Ok(want))
            }
            Err(_) => false,
        }
    }

    /// The coverage-based spread estimate of `seeds` (a `Spread` query).
    pub fn spread_estimate(&self, seeds: &[u32]) -> Result<f64, String> {
        match self.0.try_execute_uncached(&Query::Spread { seeds: seeds.to_vec() }) {
            Ok(QueryResponse::Spread { estimate, .. }) => Ok(estimate),
            Ok(other) => Err(format!("spread query answered {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The in-process mirror of a dynamic daemon: the same sharded index and
/// graph revision, replaying the same deltas.
pub struct Replica {
    index: ShardedIndex,
    graph: CsrGraph,
    weights: EdgeWeights,
}

impl Replica {
    pub fn new(sharded: &Sharded, graph: Graph) -> Self {
        Replica { index: (*sharded.0).clone(), graph: graph.graph, weights: graph.weights }
    }

    /// Roll one delta the way the daemon does (`rebuilt_with_delta`),
    /// returning the refreshed graph's edge count.
    pub fn roll(&mut self, text: &str, tr: &mut Tracer) -> Result<u64, String> {
        let delta = GraphDelta::parse_text(text).map_err(|e| e.to_string())?;
        let (index, graph, weights, stats) = tr
            .span("shard.rebuild", 0, |_| {
                self.index.rebuilt_with_delta(&self.graph, &self.weights, &delta)
            })
            .map_err(|e| e.to_string())?;
        self.index = index;
        self.graph = graph;
        self.weights = weights;
        Ok(stats.num_edges_after as u64)
    }

    pub fn sharded(&self) -> Sharded {
        Sharded(Arc::new(self.index.clone()))
    }
}

// ---------------------------------------------------------------- serve --

fn to_query(spec: &QuerySpec, nodes: usize) -> Query {
    match spec {
        QuerySpec::TopK { k, audience: None } => Query::top_k(*k),
        QuerySpec::TopK { k, audience: Some(vertices) } => Query::audience_top_k(
            *k,
            BitSet::from_iter_with_capacity(nodes, vertices.iter().map(|&v| v as usize)),
        ),
        QuerySpec::Spread { seeds } => Query::Spread { seeds: seeds.clone() },
        QuerySpec::Marginal { seeds, candidate } => {
            Query::Marginal { seeds: seeds.clone(), candidate: *candidate }
        }
    }
}

/// One framed batch request, built once and sent many times.
pub struct Req(Request);

impl Req {
    pub fn batch(specs: &[QuerySpec], nodes: usize) -> Self {
        Req(Request::Batch(specs.iter().map(|s| to_query(s, nodes)).collect()))
    }

    fn queries(&self) -> &[Query] {
        match &self.0 {
            Request::Batch(queries) => queries,
            _ => &[],
        }
    }

    pub fn num_queries(&self) -> usize {
        self.queries().len()
    }
}

/// The daemon's answers to one batch.
pub struct Answers(Vec<Result<QueryResponse, Rejection>>);

impl Answers {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn rejected(&self) -> usize {
        self.0.iter().filter(|a| a.is_err()).count()
    }
}

/// What an `apply-delta` rollout reported.
pub struct Rollout {
    pub edges_after: u64,
}

/// One blocking `IMSV` connection over a unix socket: encode, write,
/// read, decode — the client's whole share of a round trip.
pub struct Wire {
    stream: UnixStream,
    /// The disabled tracer the untraced exchanges run under.
    untraced: Tracer,
}

impl Wire {
    /// Dial `path`, retrying every millisecond until `wait` runs out (a
    /// just-spawned daemon is still loading its snapshot).
    pub fn connect(path: &Path, wait: Duration) -> Result<Self, String> {
        let deadline = Instant::now() + wait;
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => return Ok(Wire { stream, untraced: Tracer::new(false) }),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("cannot connect to {}: {e}", path.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// One request/response exchange, with a span around each client-side
    /// step (a disabled tracer makes them plain calls).
    fn exchange_on(
        stream: &mut UnixStream,
        request: &Request,
        rid: u64,
        tr: &mut Tracer,
    ) -> Result<Response, String> {
        tr.span("client.request", rid, |tr| {
            let frame =
                tr.span("client.encode_request", rid, |_| protocol::encode_request(request));
            let payload = tr.span("client.wire", rid, |_| -> Result<Vec<u8>, String> {
                protocol::write_frame(stream, &frame).map_err(|e| format!("write failed: {e}"))?;
                match protocol::read_frame(stream, protocol::DEFAULT_MAX_FRAME_LEN) {
                    Ok(FrameRead::Frame(payload)) => Ok(payload),
                    Ok(_) => Err("the daemon closed the connection before replying".into()),
                    Err(e) => Err(format!("read failed: {e}")),
                }
            })?;
            tr.span("client.decode_response", rid, |_| protocol::decode_response(&payload))
                .map_err(|e| format!("bad response: {e}"))
        })
    }

    fn exchange(&mut self, request: &Request) -> Result<Response, String> {
        Self::exchange_on(&mut self.stream, request, 0, &mut self.untraced)
    }

    fn into_answers(response: Response) -> Result<Answers, String> {
        match response {
            Response::Batch(outcomes) => Ok(Answers(outcomes)),
            Response::Error(e) => Err(format!("daemon error: {e}")),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    pub fn batch(&mut self, request: &Req) -> Result<Answers, String> {
        self.exchange(&request.0).and_then(Self::into_answers)
    }

    pub fn batch_traced(
        &mut self,
        request: &Req,
        rid: u64,
        tr: &mut Tracer,
    ) -> Result<Answers, String> {
        Self::exchange_on(&mut self.stream, &request.0, rid, tr).and_then(Self::into_answers)
    }

    pub fn ping(&mut self) -> Result<(), String> {
        match self.exchange(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(format!("ping answered {other:?}")),
        }
    }

    /// Pinned shard workers the daemon runs (`info` verb).
    pub fn workers(&mut self) -> Result<u32, String> {
        match self.exchange(&Request::Info)? {
            Response::Info(info) => Ok(info.workers),
            other => Err(format!("info answered {other:?}")),
        }
    }

    pub fn apply_delta(&mut self, text: &str) -> Result<Rollout, String> {
        match self.exchange(&Request::ApplyDelta { text: text.into() })? {
            Response::DeltaApplied(o) => Ok(Rollout { edges_after: o.edges_after }),
            Response::Error(e) => Err(format!("daemon error: {e}")),
            other => Err(format!("apply-delta answered {other:?}")),
        }
    }

    /// The daemon's live counters (`metrics` verb).
    pub fn counters(&mut self) -> Result<DaemonCounters, String> {
        match self.exchange(&Request::Metrics)? {
            Response::MetricsJson(text) => DaemonCounters::parse(&text),
            other => Err(format!("metrics answered {other:?}")),
        }
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.exchange(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("shutdown answered {other:?}")),
        }
    }
}

/// The registry counters of the daemon the per-layer metrics are made
/// from, by the names the system registers them under.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonCounters {
    pub queries: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub pinned_enqueued: f64,
    pub served_inline: f64,
    pub served_worker: f64,
    pub unparks: f64,
    pub rejected: f64,
    pub mmap_fallbacks: f64,
    pub mapped_bytes: f64,
}

impl DaemonCounters {
    fn parse(text: &str) -> Result<Self, String> {
        let json = serde_json::from_str(text).map_err(|e| format!("metrics json: {e}"))?;
        let metrics = json["metrics"].as_array().ok_or("metrics json has no metrics array")?;
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m["name"] == *name)
                .and_then(|m| m["value"].as_f64())
                .unwrap_or(0.0)
        };
        Ok(DaemonCounters {
            queries: get("serve_queries"),
            cache_hits: get("service_cache_hits"),
            cache_misses: get("service_cache_misses"),
            pinned_enqueued: get("exec_pinned_enqueued"),
            served_inline: get("exec_pinned_served_inline"),
            served_worker: get("exec_pinned_served_worker"),
            unparks: get("exec_pinned_unparks") + get("exec_worker_unparks"),
            rejected: get("serve_rejected_over_budget")
                + get("serve_rejected_invalid_vertex")
                + get("serve_rejected_queue_full")
                + get("serve_deadline_exceeded"),
            mmap_fallbacks: get("store_mmap_fallbacks"),
            mapped_bytes: get("store_mapped_memory"),
        })
    }

    pub fn minus(&self, earlier: &DaemonCounters) -> DaemonCounters {
        DaemonCounters {
            queries: self.queries - earlier.queries,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            pinned_enqueued: self.pinned_enqueued - earlier.pinned_enqueued,
            served_inline: self.served_inline - earlier.served_inline,
            served_worker: self.served_worker - earlier.served_worker,
            unparks: self.unparks - earlier.unparks,
            rejected: self.rejected - earlier.rejected,
            mmap_fallbacks: self.mmap_fallbacks - earlier.mmap_fallbacks,
            mapped_bytes: self.mapped_bytes - earlier.mapped_bytes,
        }
    }
}

/// The admission cost model of one index generation.
pub struct Costs(CostModel);

/// Frame sizes of one request and its response.
pub struct FrameSizes {
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// Walk one request through every step the daemon performs between
/// reading a frame and writing the answer — decode, price, execute,
/// encode — plus the client's encode and decode, each under its own span
/// and all under one `request` span. Nothing here touches a socket: the
/// difference between this and the real round trip is transport and
/// thread hand-off.
pub fn serve_path_in_process(
    engine: &Engine,
    costs: &Costs,
    request: &Req,
    threads: usize,
    rid: u64,
    tr: &mut Tracer,
) -> Result<FrameSizes, String> {
    tr.span("request", rid, |tr| {
        let frame = tr.span("serve.encode_request", rid, |_| protocol::encode_request(&request.0));
        let decoded = tr
            .span("serve.decode_request", rid, |_| protocol::decode_request(&frame))
            .map_err(|e| e.to_string())?;
        let Request::Batch(queries) = decoded else {
            return Err("a batch decoded into another verb".into());
        };
        tr.span("serve.admission", rid, |_| {
            for query in &queries {
                std::hint::black_box(costs.0.cost(query).is_ok());
            }
        });
        let responses = tr
            .span("shard.batch", rid, |_| engine.0.try_execute_batch(&queries, threads))
            .map_err(|e| e.to_string())?;
        let response = Response::Batch(responses.into_iter().map(Ok).collect());
        let payload =
            tr.span("serve.encode_response", rid, |_| protocol::encode_response(&response));
        tr.span("serve.decode_response", rid, |_| protocol::decode_response(&payload))
            .map_err(|e| e.to_string())?;
        Ok(FrameSizes {
            request_bytes: frame.len() + protocol::FRAME_HEADER_LEN,
            response_bytes: payload.len() + protocol::FRAME_HEADER_LEN,
        })
    })
}

// ----------------------------------------------------------------- exec --

/// Median microseconds of one fork-join scope fanning `fanout` trivial
/// tasks over the process-global pool.
pub fn scope_dispatch_us(fanout: usize, rounds: usize, tr: &mut Tracer) -> f64 {
    let counter = std::sync::atomic::AtomicU64::new(0);
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            tr.span("exec.scope_dispatch", 0, |_| {
                let t = Instant::now();
                imm_exec::global().scope(|s| {
                    for _ in 0..fanout {
                        s.spawn(|_| {
                            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        });
                    }
                });
                t.elapsed().as_secs_f64() * 1e6
            })
        })
        .collect();
    crate::stats::median(&samples)
}

/// Threads of the process-global pool the in-process layers run on.
pub fn pool_threads() -> usize {
    imm_exec::global().num_threads()
}

// ----------------------------------------------------------------- numa --

pub fn numa_nodes() -> usize {
    imm_numa::Topology::detect().num_nodes()
}
