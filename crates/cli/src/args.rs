//! Argument parsing without a CLI framework. Each subcommand has one grammar:
//! the flags that take a value and the valueless switches it reads. A flag
//! outside it, a repeated flag and a value flag with no value are errors that
//! name the flag and the subcommand, so a typo never falls back to a default.

use efficient_imm::Algorithm;
use imm_diffusion::DiffusionModel;
use imm_serve::Listen;
use std::path::PathBuf;

/// Usage text printed on parse errors and by `help`.
pub const USAGE: &str = "\
efficient-imm — influence maximization (EfficientIMM / Ripples engines)

USAGE:
  efficient-imm generate    --output <FILE> [--kind social|community|rmat|road]
                            [--nodes <N>] [--avg-degree <D>] [--seed <S>]
  efficient-imm run         (--graph <FILE> | --dataset <NAME>) [--model ic|lt]
                            [--algorithm efficientimm|ripples] [--k <K>]
                            [--epsilon <E>] [--threads <T>] [--seed <S>]
                            [--output <JSON>]
  efficient-imm compare     (--graph <FILE> | --dataset <NAME>) [--model ic|lt]
                            [--k <K>] [--epsilon <E>] [--threads <T>] [--seed <S>]
  efficient-imm stats       (--graph <FILE> | --dataset <NAME> | --index <FILE>)
                            [--rrr-sets <N>] [--metrics] [--startup-timing]
  efficient-imm stats       --metrics --describe
  efficient-imm build-index (--graph <FILE> | --dataset <NAME>) --output <FILE>
                            [--model ic|lt] [--k <K>] [--epsilon <E>]
                            [--threads <T>] [--seed <S>]
  efficient-imm query       --index <FILE>
                            [--top-k <K1,K2,..>] [--audience <V1,V2,..>]
                            [--spread <V1,V2,..>] [--marginal <V1,V2,..:C>]
                            [--threads <T>] [--metrics]
  efficient-imm update-index --index <FILE> (--graph <FILE> | --dataset <NAME>)
                            --delta <FILE> [--output <FILE>] [--journal <FILE>]
  efficient-imm serve       --index <FILE> (--socket <PATH> | --tcp <ADDR>)
                            [--graph <FILE> | --dataset <NAME>] [--shards <N>]
                            [--threads <T>] [--max-cost <C>]
                            [--max-inflight <N>] [--idle-timeout-ms <MS>]
                            [--deadline-ms <MS>] [--journal <FILE>] [--mmap]
  efficient-imm client      (--socket <PATH> | --tcp <ADDR>) [--wait-ms <MS>]
                            [--top-k <K1,K2,..>] [--audience <V1,V2,..>]
                            [--spread <V1,V2,..>] [--marginal <V1,V2,..:C>]
                            [--apply-delta <FILE>] [--ping] [--info]
                            [--metrics] [--shutdown] [--retries <N>]
                            [--retry-backoff-ms <MS>]
                            [--request-timeout-ms <MS>]
  efficient-imm help

`build-index` samples RRR sets once (the expensive phase) and freezes them
into a reusable sketch-index snapshot; `query` serves top-k / spread /
marginal-gain requests from that snapshot without resampling, and `stats
--index` reads coverage statistics from it. `--audience` restricts top-k
coverage to the RRR sets touching the given vertex slice. `update-index`
refreshes a snapshot against a batch of edge mutations (delta file lines:
`+ src dst w`, `- src dst`, `~ src dst w`, `#` comments), resampling only
the RRR sets the mutations touch; pass the *original* graph source — the
snapshot's delta log replays every earlier batch to reconstruct the current
revision. The --dataset name refers to the built-in SNAP analogues
(com-Amazon, com-DBLP, com-YouTube, as-Skitter, web-Google, soc-Pokec,
com-LJ, twitter7).

`serve` starts the long-running daemon: it loads a snapshot, lays a
--shards-range shard map over it (the map feeds only the
shard_load_imbalance gauge; every query reads the whole index, so answers
do not depend on it), and answers framed RPC requests on a unix socket
(--socket) or TCP address (--tcp) until a client sends the shutdown verb.
Pass the snapshot's original --graph/--dataset to enable rolling
`apply-delta` rollouts (queries keep serving on the old index until the
refreshed one swaps in); --max-cost rejects queries
whose postings-size cost estimate exceeds the budget, and --max-inflight
bounds concurrently served requests. --idle-timeout-ms is each
connection's read timeout: a connection silent that long between frames
gets a structured idle-timeout goodbye and is closed, and one that stalls
that long inside a frame is dropped as truncated (without it, a silent
peer holds only its own connection); --deadline-ms bounds each query
batch's execution, answering the queries the deadline cut with structured
deadline-exceeded rejections;
--journal appends every accepted apply-delta rollout to a crash-safe
delta journal before the new index swaps in, and replays unsnapshotted
entries from it at startup (a journal of another history is refused);
--mmap serves the snapshot zero-copy from a memory mapping (on
little-endian Linux; elsewhere, or when the mapping fails, it falls back
to the checksummed read-decode load, counted by store_mmap_fallbacks),
cutting time-to-first-query from whole-file decode to head-page parsing;
a snapshot of any format version but this build's (6) is refused on both
paths: rebuild it with build-index. `stats --index <FILE>
--startup-timing` prints the open/map/decode/first-query phase
breakdown of both load paths. `client` dials a running daemon: query flags
mirror `query` and print the same response JSON (remote answers are
byte-identical to in-process serving); --ping/--info/--metrics/--shutdown
drive the control verbs; --apply-delta sends a delta file through a
rolling refresh; --wait-ms retries the connection while a just-started
daemon binds its socket. Idempotent verbs (ping, info, metrics, batch)
are retried on lost connections and timeouts with capped exponential
backoff: --retries caps the retries per call, --retry-backoff-ms sets
the base backoff, and --request-timeout-ms bounds each round trip.

Every parallel phase runs on one persistent process-wide worker pool, sized
once at startup: --threads (where accepted) wins, then the IMM_THREADS
environment variable, then the machine parallelism. `stats --metrics`
appends the full workspace metric registry (exec runtime counters, sampling
totals, per-query-type latency percentiles, CELF/refresh/shard
metrics, serving-daemon counters) to the stats output. `stats --metrics
--describe` prints the metric catalog as a markdown table (the README's
Observability section) and exits. `query --metrics` appends the
before/after metrics delta of the served batch to the query output.";

/// Which graph source a command reads.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// SNAP-format edge-list file.
    File(String),
    /// Built-in registry dataset by name.
    Dataset(String),
}

/// Parsed `generate` options.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Output path for the SNAP edge list.
    pub output: String,
    /// Generator family.
    pub kind: String,
    /// Number of vertices.
    pub nodes: usize,
    /// Average degree.
    pub avg_degree: usize,
    /// Generator seed.
    pub seed: u64,
}

/// Parsed `run` / `compare` options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Where the graph comes from.
    pub source: GraphSource,
    /// Diffusion model.
    pub model: DiffusionModel,
    /// Engine: `run`'s `--algorithm`. `compare` runs both engines, and
    /// `build-index` (which has no such flag) always samples as EfficientIMM.
    pub algorithm: Algorithm,
    /// Number of seeds.
    pub k: usize,
    /// Approximation parameter.
    pub epsilon: f64,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional JSON output path (stdout when absent).
    pub output: Option<String>,
}

/// Parsed `stats` options.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsArgs {
    /// Where the graph comes from (absent when reading a saved index).
    pub source: Option<GraphSource>,
    /// How many RRR sets to sample for the coverage columns.
    pub rrr_sets: usize,
    /// Sketch-index snapshot to reuse instead of resampling.
    pub index: Option<String>,
    /// Append the workspace metric registry to the output.
    pub metrics: bool,
    /// Print the metric catalog (markdown) instead of graph statistics.
    pub describe: bool,
    /// Measure and print the snapshot's startup phase breakdown
    /// (open/map/decode/first-query, mapped vs. read-decode). Requires
    /// `--index`.
    pub startup_timing: bool,
}

/// Parsed `build-index` options.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildIndexArgs {
    /// The sampling run that produces the indexed collection.
    pub run: RunArgs,
    /// Where the snapshot is written.
    pub output: String,
}

/// Parsed `update-index` options.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateIndexArgs {
    /// Sketch-index snapshot to refresh (must carry keyed-sampler provenance,
    /// i.e. be written by this build's `build-index`).
    pub index: String,
    /// The *original* graph source the snapshot was built from.
    pub source: GraphSource,
    /// Delta file with one mutation per line.
    pub delta: String,
    /// Where the refreshed snapshot is written (defaults to `--index`).
    pub output: Option<String>,
    /// The serving daemon's delta journal: pending (unsnapshotted)
    /// entries are replayed before the new delta applies, and the journal
    /// is cleared after an in-place refresh lands (absent → no journal).
    pub journal: Option<String>,
}

/// Parsed `query` options.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Sketch-index snapshot to serve.
    pub index: String,
    /// The query batch to answer.
    pub batch: BatchSpec,
    /// Worker threads for the query batch.
    pub threads: usize,
    /// Append the batch's before/after metrics delta to the output.
    pub metrics: bool,
}

/// Parsed `serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Sketch-index snapshot to serve.
    pub index: String,
    /// The snapshot's original graph source; enables rolling
    /// `apply-delta` rollouts (absent → the daemon serves statically).
    pub source: Option<GraphSource>,
    /// Where the daemon listens.
    pub listen: Listen,
    /// Shard count of the shard map.
    pub shards: usize,
    /// Serving parallelism (batch fan-out).
    pub threads: usize,
    /// Per-query cost budget in postings entries (absent → admit all).
    pub max_cost: Option<u64>,
    /// Bound on concurrently served requests.
    pub max_inflight: usize,
    /// Each connection's read timeout in milliseconds: shed connections
    /// silent past it, between frames or inside one (absent → never).
    pub idle_timeout_ms: Option<u64>,
    /// Per-batch execution deadline in milliseconds (absent → unbounded).
    pub deadline_ms: Option<u64>,
    /// Crash-safe delta journal path: accepted rollouts are appended
    /// before the swap and replayed at startup (absent → no journal).
    pub journal: Option<String>,
    /// Serve the snapshot zero-copy from a memory mapping (fallback to
    /// read-decode when the file or platform cannot be mapped).
    pub mmap: bool,
}

/// The query batch of a `query` or `client` invocation, in flag form.
///
/// Audience bitsets are materialized later, against the vertex-space size of
/// the index that answers: the loaded snapshot's for `query`, the daemon's
/// (fetched over the `info` verb) for `client`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchSpec {
    /// Top-k budgets (one query per entry).
    pub top_k: Vec<usize>,
    /// Optional audience slice restricting the top-k queries.
    pub audience: Option<Vec<u32>>,
    /// Seed set for a spread estimate.
    pub spread: Option<Vec<u32>>,
    /// Seed set and candidate for a marginal-gain estimate.
    pub marginal: Option<(Vec<u32>, u32)>,
}

impl BatchSpec {
    /// Whether any query flag was given.
    pub fn is_empty(&self) -> bool {
        self.top_k.is_empty() && self.spread.is_none() && self.marginal.is_none()
    }
}

/// One action a `client` invocation performs.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Liveness probe (`--ping`).
    Ping,
    /// Server identity and shape (`--info`).
    Info,
    /// The daemon's live metrics registry (`--metrics`).
    Metrics,
    /// A query batch assembled from the `query`-style flags.
    Batch(BatchSpec),
    /// Send a delta file through a rolling refresh (`--apply-delta`).
    ApplyDelta {
        /// Path of the delta file.
        path: String,
    },
    /// Ask the daemon to drain and exit (`--shutdown`).
    Shutdown,
}

/// Parsed `client` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// The daemon's address.
    pub address: Listen,
    /// What to do, in order (queries first, then control verbs, with
    /// `--shutdown` always last).
    pub actions: Vec<ClientAction>,
    /// Connection-retry budget in milliseconds (0 = one attempt).
    pub wait_ms: u64,
    /// Retries per idempotent call on lost connections / timeouts.
    pub retries: u32,
    /// Base backoff between retries in milliseconds (doubles, capped).
    pub retry_backoff_ms: u64,
    /// Per-round-trip timeout in milliseconds (absent → the policy
    /// default).
    pub request_timeout_ms: Option<u64>,
}

/// A fully parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `generate`
    Generate(GenerateArgs),
    /// `run`
    Run(RunArgs),
    /// `compare`
    Compare(RunArgs),
    /// `stats`
    Stats(StatsArgs),
    /// `build-index`
    BuildIndex(BuildIndexArgs),
    /// `update-index`
    UpdateIndex(UpdateIndexArgs),
    /// `query`
    Query(QueryArgs),
    /// `serve`
    Serve(ServeArgs),
    /// `client`
    Client(ClientArgs),
    /// `help`
    Help,
}

/// The thread count a parsed command requested, when it accepts one — the
/// process-global worker pool is configured from this exactly once at
/// startup (commands without a `--threads` flag leave the pool to its
/// default: `IMM_THREADS`, else the machine parallelism).
pub fn pool_threads(command: &Command) -> Option<usize> {
    match command {
        Command::Run(r) | Command::Compare(r) => Some(r.threads),
        Command::BuildIndex(b) => Some(b.run.threads),
        Command::Query(q) => Some(q.threads),
        Command::Serve(s) => Some(s.threads),
        Command::Generate(_)
        | Command::Stats(_)
        | Command::UpdateIndex(_)
        | Command::Client(_)
        | Command::Help => None,
    }
}

/// One subcommand's grammar: its name, the flags that take a value and the
/// valueless switches (space-separated lists), and the builder that reads
/// them. Its `USAGE` synopsis names the same flags (a test checks).
struct Grammar(&'static str, &'static str, &'static str, fn(&Flags) -> Result<Command, String>);

/// `run` reads these flags, and `build-index` all but `--algorithm`: both
/// engines draw the same keyed sets, θ and postings, so an index does not
/// depend on the engine.
const RUN_FLAGS: &str =
    "--graph --dataset --model --algorithm --k --epsilon --threads --seed --output";
const BUILD_INDEX_FLAGS: &str = "--graph --dataset --model --k --epsilon --threads --seed --output";

const GRAMMARS: [Grammar; 9] = [
    Grammar("generate", "--output --kind --nodes --avg-degree --seed", "", parse_generate),
    Grammar("run", RUN_FLAGS, "", |f| Ok(Command::Run(parse_run(f)?))),
    Grammar("compare", "--graph --dataset --model --k --epsilon --threads --seed", "", |f| {
        Ok(Command::Compare(parse_run(f)?))
    }),
    Grammar(
        "stats",
        "--graph --dataset --index --rrr-sets",
        "--metrics --describe --startup-timing",
        parse_stats,
    ),
    Grammar("build-index", BUILD_INDEX_FLAGS, "", parse_build_index),
    Grammar(
        "update-index",
        "--index --graph --dataset --delta --output --journal",
        "",
        parse_update_index,
    ),
    Grammar(
        "query",
        "--index --top-k --audience --spread --marginal --threads",
        "--metrics",
        parse_query,
    ),
    Grammar(
        "serve",
        "--index --socket --tcp --graph --dataset --shards --threads --max-cost \
         --max-inflight --idle-timeout-ms --deadline-ms --journal",
        "--mmap",
        parse_serve,
    ),
    Grammar(
        "client",
        "--socket --tcp --wait-ms --top-k --audience --spread --marginal --apply-delta \
         --retries --retry-backoff-ms --request-timeout-ms",
        "--ping --info --metrics --shutdown",
        parse_client,
    ),
];

/// One invocation's flags, checked against its subcommand's grammar.
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Split `args` into value flags and switches. An unknown flag, a
    /// repeated flag and a value flag with no value are errors that name
    /// the flag and the subcommand.
    fn parse(args: &'a [String], grammar: &Grammar) -> Result<Self, String> {
        let Grammar(command, values, switches, _) = *grammar;
        let mut flags = Flags { values: Vec::new(), switches: Vec::new() };
        let mut args = args.iter().map(String::as_str);
        while let Some(flag) = args.next() {
            if flags.has(flag) || flags.get(flag).is_some() {
                return Err(format!("flag '{flag}' is repeated in {command}"));
            }
            if switches.split_whitespace().any(|s| s == flag) {
                flags.switches.push(flag);
            } else if values.split_whitespace().any(|v| v == flag) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => flags.values.push((flag, value)),
                    _ => return Err(format!("flag '{flag}' of {command} needs a value")),
                }
            } else {
                return Err(format!("unknown flag '{flag}' for {command}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.values.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse =
            |raw: &str| raw.parse().map_err(|_| format!("invalid value '{raw}' for {name}"));
        self.get(name).map(parse).transpose()
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    fn get_list<T: std::str::FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String> {
        self.get(name).map(|raw| parse_list(raw, name)).transpose()
    }

    fn optional_source(&self) -> Result<Option<GraphSource>, String> {
        match (self.get("--graph"), self.get("--dataset")) {
            (Some(path), None) => Ok(Some(GraphSource::File(path.to_string()))),
            (None, Some(name)) => Ok(Some(GraphSource::Dataset(name.to_string()))),
            (Some(_), Some(_)) => Err("pass either --graph or --dataset, not both".into()),
            (None, None) => Ok(None),
        }
    }

    fn source(&self) -> Result<GraphSource, String> {
        self.optional_source()?.ok_or_else(|| "one of --graph or --dataset is required".into())
    }
}

fn parse_generate(flags: &Flags) -> Result<Command, String> {
    Ok(Command::Generate(GenerateArgs {
        output: flags.get("--output").ok_or("generate requires --output")?.to_string(),
        kind: flags.get("--kind").unwrap_or("social").to_string(),
        nodes: flags.get_parsed("--nodes", 1_000usize)?,
        avg_degree: flags.get_parsed("--avg-degree", 8usize)?,
        seed: flags.get_parsed("--seed", 1u64)?,
    }))
}

fn parse_run(flags: &Flags) -> Result<RunArgs, String> {
    let model = match flags.get("--model") {
        None => DiffusionModel::IndependentCascade,
        Some(raw) => DiffusionModel::parse(raw).ok_or(format!("unknown model '{raw}'"))?,
    };
    let algorithm = match flags.get("--algorithm").unwrap_or("efficientimm") {
        "efficientimm" | "efficient" | "eimm" => Algorithm::Efficient,
        "ripples" | "baseline" => Algorithm::Ripples,
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    Ok(RunArgs {
        source: flags.source()?,
        model,
        algorithm,
        k: flags.get_parsed("--k", 50usize)?,
        epsilon: flags.get_parsed("--epsilon", 0.5f64)?,
        threads: flags.get_parsed("--threads", imm_exec::default_threads())?,
        seed: flags.get_parsed("--seed", 0x5EEDu64)?,
        output: flags.get("--output").map(str::to_string),
    })
}

fn parse_build_index(flags: &Flags) -> Result<Command, String> {
    let run = parse_run(flags)?;
    let output = run.output.clone().ok_or("build-index requires --output")?;
    Ok(Command::BuildIndex(BuildIndexArgs { run, output }))
}

fn parse_update_index(flags: &Flags) -> Result<Command, String> {
    Ok(Command::UpdateIndex(UpdateIndexArgs {
        index: flags.get("--index").ok_or("update-index requires --index")?.to_string(),
        source: flags.source()?,
        delta: flags.get("--delta").ok_or("update-index requires --delta")?.to_string(),
        output: flags.get("--output").map(str::to_string),
        journal: flags.get("--journal").map(str::to_string),
    }))
}

fn parse_stats(flags: &Flags) -> Result<Command, String> {
    let stats = StatsArgs {
        source: None,
        rrr_sets: 0,
        index: flags.get("--index").map(str::to_string),
        metrics: flags.has("--metrics"),
        describe: flags.has("--describe"),
        startup_timing: flags.has("--startup-timing"),
    };
    if stats.describe {
        // The catalog is pure registry metadata: no graph, no sample. Anything
        // else on the line would be silently ignored, so reject it outright.
        let timing = stats.startup_timing.then_some("--startup-timing");
        return match (stats.metrics, flags.values.first().map(|(flag, _)| *flag).or(timing)) {
            (false, _) => {
                Err("--describe documents the metric registry; pass --metrics --describe".into())
            }
            (true, Some(flag)) => Err(format!("--describe takes no other flags, got '{flag}'")),
            (true, None) => Ok(Command::Stats(stats)),
        };
    }
    if stats.startup_timing && stats.index.is_none() {
        // The breakdown times opening a snapshot file; sampling a fresh
        // index has no open/map/decode phases to measure.
        return Err("--startup-timing times a snapshot load; pass --index <FILE>".into());
    }
    if stats.index.is_some() {
        // A snapshot already fixes the graph and the sample: a second source or
        // a sample size would be silently ignored, so reject the combination.
        for conflicting in ["--graph", "--dataset", "--rrr-sets"] {
            if flags.get(conflicting).is_some() {
                return Err(format!("pass either --index or {conflicting}, not both"));
            }
        }
        return Ok(Command::Stats(stats));
    }
    Ok(Command::Stats(StatsArgs {
        source: Some(flags.source()?),
        rrr_sets: flags.get_parsed("--rrr-sets", 256usize)?,
        ..stats
    }))
}

/// Parse the comma-separated list (`"1,2,3"`) given to flag `name`.
fn parse_list<T: std::str::FromStr>(raw: &str, name: &str) -> Result<Vec<T>, String> {
    let entry = |p: &str| p.trim().parse().map_err(|_| format!("invalid entry '{p}' in {name}"));
    raw.split(',').map(entry).collect()
}

/// Parse the `--top-k` / `--audience` / `--spread` / `--marginal` family
/// shared by `query` and `client`.
fn parse_batch_spec(flags: &Flags) -> Result<BatchSpec, String> {
    let top_k = flags.get_list("--top-k")?.unwrap_or_default();
    let audience = flags.get_list("--audience")?;
    if audience.is_some() && top_k.is_empty() {
        return Err("--audience restricts top-k queries; pass --top-k too".into());
    }
    let spread = flags.get_list("--spread")?;
    let marginal = match flags.get("--marginal") {
        None => None,
        Some(raw) => {
            let (seeds, candidate) = raw
                .split_once(':')
                .ok_or(format!("--marginal wants 'seeds:candidate', got '{raw}'"))?;
            let seeds =
                if seeds.trim().is_empty() { Vec::new() } else { parse_list(seeds, "--marginal")? };
            let candidate = candidate
                .trim()
                .parse()
                .map_err(|_| format!("invalid candidate '{candidate}' in --marginal"))?;
            Some((seeds, candidate))
        }
    };
    Ok(BatchSpec { top_k, audience, spread, marginal })
}

fn parse_query(flags: &Flags) -> Result<Command, String> {
    let index = flags.get("--index").ok_or("query requires --index")?.to_string();
    let batch = parse_batch_spec(flags)?;
    if batch.is_empty() {
        return Err("query needs at least one of --top-k, --spread, --marginal".into());
    }
    Ok(Command::Query(QueryArgs {
        index,
        batch,
        threads: flags.get_parsed("--threads", imm_exec::default_threads())?,
        metrics: flags.has("--metrics"),
    }))
}

/// The `--socket <PATH>` / `--tcp <ADDR>` pair shared by `serve` and
/// `client`.
fn parse_listen(flags: &Flags, command: &str) -> Result<Listen, String> {
    match (flags.get("--socket"), flags.get("--tcp")) {
        (Some(path), None) => Ok(Listen::Unix(PathBuf::from(path))),
        (None, Some(addr)) => Ok(Listen::Tcp(addr.to_string())),
        (Some(_), Some(_)) => Err("pass either --socket or --tcp, not both".into()),
        (None, None) => Err(format!("{command} requires --socket or --tcp")),
    }
}

fn parse_serve(flags: &Flags) -> Result<Command, String> {
    let listen = parse_listen(flags, "serve")?;
    let shards = flags.get_parsed("--shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let max_inflight = flags.get_parsed("--max-inflight", 64usize)?;
    if max_inflight == 0 {
        // A zero bound would start a daemon that refuses every batch.
        return Err("--max-inflight must be at least 1".into());
    }
    Ok(Command::Serve(ServeArgs {
        index: flags.get("--index").ok_or("serve requires --index")?.to_string(),
        source: flags.optional_source()?,
        listen,
        shards,
        threads: flags.get_parsed("--threads", imm_exec::default_threads())?,
        max_cost: flags.get_opt("--max-cost")?,
        max_inflight,
        idle_timeout_ms: flags.get_opt("--idle-timeout-ms")?,
        deadline_ms: flags.get_opt("--deadline-ms")?,
        journal: flags.get("--journal").map(str::to_string),
        mmap: flags.has("--mmap"),
    }))
}

fn parse_client(flags: &Flags) -> Result<Command, String> {
    let address = parse_listen(flags, "client")?;
    let spec = parse_batch_spec(flags)?;
    // Fixed action order: readiness first, then identity, then the data
    // verbs, with shutdown always last so one invocation can query a
    // daemon and take it down.
    let actions: Vec<ClientAction> = [
        flags.has("--ping").then_some(ClientAction::Ping),
        flags.has("--info").then_some(ClientAction::Info),
        (!spec.is_empty()).then_some(ClientAction::Batch(spec)),
        flags.get("--apply-delta").map(|path| ClientAction::ApplyDelta { path: path.to_string() }),
        flags.has("--metrics").then_some(ClientAction::Metrics),
        flags.has("--shutdown").then_some(ClientAction::Shutdown),
    ]
    .into_iter()
    .flatten()
    .collect();
    if actions.is_empty() {
        return Err("client needs at least one of --top-k/--spread/--marginal, \
                    --apply-delta, --ping, --info, --metrics, --shutdown"
            .into());
    }
    Ok(Command::Client(ClientArgs {
        address,
        actions,
        wait_ms: flags.get_parsed("--wait-ms", 0u64)?,
        retries: flags.get_parsed("--retries", 3u32)?,
        retry_backoff_ms: flags.get_parsed("--retry-backoff-ms", 10u64)?,
        request_timeout_ms: flags.get_opt("--request-timeout-ms")?,
    }))
}

/// Parse the raw CLI arguments into a [`Command`].
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Err("missing subcommand".into());
    };
    if matches!(sub.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let Some(grammar) = GRAMMARS.iter().find(|g| g.0 == sub) else {
        return Err(format!("unknown subcommand '{sub}'"));
    };
    (grammar.3)(&Flags::parse(&args[1..], grammar)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_help_and_rejects_missing_subcommand() {
        assert_eq!(parse(&sv(&["help"])).unwrap(), Command::Help);
        assert!(parse(&[]).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn parses_generate_with_defaults() {
        let cmd = parse(&sv(&["generate", "--output", "g.txt"])).unwrap();
        match cmd {
            Command::Generate(g) => {
                assert_eq!(g.output, "g.txt");
                assert_eq!(g.kind, "social");
                assert_eq!(g.nodes, 1_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&sv(&["generate"])).is_err(), "--output is required");
    }

    #[test]
    fn parses_run_with_all_flags() {
        let cmd = parse(&sv(&[
            "run",
            "--dataset",
            "web-Google",
            "--model",
            "lt",
            "--algorithm",
            "ripples",
            "--k",
            "5",
            "--epsilon",
            "0.3",
            "--threads",
            "2",
            "--seed",
            "9",
        ]))
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.source, GraphSource::Dataset("web-Google".into()));
                assert_eq!(r.model, DiffusionModel::LinearThreshold);
                assert_eq!(r.algorithm, Algorithm::Ripples);
                assert_eq!(r.k, 5);
                assert!((r.epsilon - 0.3).abs() < 1e-12);
                assert_eq!(r.threads, 2);
                assert_eq!(r.seed, 9);
                assert!(r.output.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_requires_exactly_one_source() {
        assert!(parse(&sv(&["run", "--model", "ic"])).is_err());
        assert!(parse(&sv(&["run", "--graph", "a.txt", "--dataset", "web-Google"])).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&sv(&["run", "--dataset", "x", "--k", "not-a-number"])).is_err());
        assert!(parse(&sv(&["run", "--dataset", "x", "--model", "sir"])).is_err());
        assert!(parse(&sv(&["run", "--dataset", "x", "--algorithm", "magic"])).is_err());
        assert!(parse(&sv(&["run", "--dataset"])).is_err(), "dangling flag");
    }

    #[test]
    fn parses_stats_and_compare() {
        let cmd = parse(&sv(&["stats", "--graph", "g.txt", "--rrr-sets", "64"])).unwrap();
        assert_eq!(
            cmd,
            Command::Stats(StatsArgs {
                source: Some(GraphSource::File("g.txt".into())),
                rrr_sets: 64,
                index: None,
                metrics: false,
                describe: false,
                startup_timing: false,
            })
        );
        let cmd = parse(&sv(&["compare", "--dataset", "com-Amazon"])).unwrap();
        assert!(matches!(cmd, Command::Compare(_)));
    }

    #[test]
    fn stats_accepts_an_index_instead_of_a_source() {
        let cmd = parse(&sv(&["stats", "--index", "g.sketch"])).unwrap();
        assert_eq!(
            cmd,
            Command::Stats(StatsArgs {
                source: None,
                rrr_sets: 0,
                index: Some("g.sketch".into()),
                metrics: false,
                describe: false,
                startup_timing: false,
            })
        );
        // With neither index nor source, stats is still an error.
        assert!(parse(&sv(&["stats", "--rrr-sets", "8"])).is_err());
        // A snapshot fixes the graph and the sample, so combining --index
        // with a source or a sample size is rejected, not silently ignored.
        assert!(parse(&sv(&["stats", "--graph", "g.txt", "--index", "g.sketch"])).is_err());
        assert!(parse(&sv(&["stats", "--dataset", "com-DBLP", "--index", "g.sketch"])).is_err());
        assert!(parse(&sv(&["stats", "--index", "g.sketch", "--rrr-sets", "64"])).is_err());
    }

    #[test]
    fn stats_accepts_the_valueless_metrics_flag_anywhere() {
        for argv in [
            sv(&["stats", "--graph", "g.txt", "--metrics"]),
            sv(&["stats", "--metrics", "--graph", "g.txt"]),
        ] {
            match parse(&argv).unwrap() {
                Command::Stats(s) => {
                    assert!(s.metrics);
                    assert_eq!(s.source, Some(GraphSource::File("g.txt".into())));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match parse(&sv(&["stats", "--index", "g.sketch", "--metrics"])).unwrap() {
            Command::Stats(s) => assert!(s.metrics && s.index.is_some()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_startup_timing_requires_an_index() {
        match parse(&sv(&["stats", "--index", "g.sketch", "--startup-timing"])).unwrap() {
            Command::Stats(s) => {
                assert!(s.startup_timing);
                assert_eq!(s.index.as_deref(), Some("g.sketch"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The breakdown measures a snapshot load: no snapshot, nothing to time.
        assert!(parse(&sv(&["stats", "--graph", "g.txt", "--startup-timing"])).is_err());
        assert!(parse(&sv(&["stats", "--startup-timing"])).is_err());
        assert!(parse(&sv(&["stats", "--metrics", "--describe", "--startup-timing"])).is_err());
    }

    #[test]
    fn pool_threads_reflects_the_explicit_flag() {
        let cmd = parse(&sv(&["run", "--dataset", "x", "--threads", "3"])).unwrap();
        assert_eq!(pool_threads(&cmd), Some(3));
        let cmd = parse(&sv(&["query", "--index", "i", "--top-k", "2", "--threads", "2"])).unwrap();
        assert_eq!(pool_threads(&cmd), Some(2));
        let cmd = parse(&sv(&["stats", "--graph", "g.txt"])).unwrap();
        assert_eq!(pool_threads(&cmd), None, "stats leaves the pool at its default");
        assert_eq!(pool_threads(&Command::Help), None);
    }

    #[test]
    fn parses_build_index() {
        let cmd = parse(&sv(&[
            "build-index",
            "--dataset",
            "web-Google",
            "--k",
            "7",
            "--output",
            "g.sketch",
        ]))
        .unwrap();
        match cmd {
            Command::BuildIndex(b) => {
                assert_eq!(b.output, "g.sketch");
                assert_eq!(b.run.k, 7);
                assert_eq!(b.run.source, GraphSource::Dataset("web-Google".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            parse(&sv(&["build-index", "--dataset", "web-Google"])).is_err(),
            "--output is required"
        );
        // An index does not depend on the engine, so build-index takes none.
        let ripples = ["build-index", "--dataset", "x", "--output", "g", "--algorithm", "ripples"];
        assert_eq!(parse(&sv(&ripples)), Err("unknown flag '--algorithm' for build-index".into()));
    }

    #[test]
    fn parses_update_index() {
        let cmd = parse(&sv(&[
            "update-index",
            "--index",
            "g.sketch",
            "--graph",
            "g.txt",
            "--delta",
            "churn.delta",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::UpdateIndex(UpdateIndexArgs {
                index: "g.sketch".into(),
                source: GraphSource::File("g.txt".into()),
                delta: "churn.delta".into(),
                output: None,
                journal: None,
            })
        );
        let cmd = parse(&sv(&[
            "update-index",
            "--index",
            "g.sketch",
            "--dataset",
            "com-DBLP",
            "--delta",
            "churn.delta",
            "--output",
            "g2.sketch",
            "--journal",
            "g.journal",
        ]))
        .unwrap();
        match cmd {
            Command::UpdateIndex(u) => {
                assert_eq!(u.output.as_deref(), Some("g2.sketch"));
                assert_eq!(u.source, GraphSource::Dataset("com-DBLP".into()));
                assert_eq!(u.journal.as_deref(), Some("g.journal"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Every required flag is enforced.
        assert!(parse(&sv(&["update-index", "--graph", "g.txt", "--delta", "d"])).is_err());
        assert!(parse(&sv(&["update-index", "--index", "i", "--delta", "d"])).is_err());
        assert!(parse(&sv(&["update-index", "--index", "i", "--graph", "g.txt"])).is_err());
    }

    #[test]
    fn parses_query_with_every_kind() {
        let cmd = parse(&sv(&[
            "query",
            "--index",
            "g.sketch",
            "--top-k",
            "3,5",
            "--audience",
            "7,8",
            "--spread",
            "1,2,3",
            "--marginal",
            "1,2:9",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query(QueryArgs {
                index: "g.sketch".into(),
                batch: BatchSpec {
                    top_k: vec![3, 5],
                    audience: Some(vec![7, 8]),
                    spread: Some(vec![1, 2, 3]),
                    marginal: Some((vec![1, 2], 9)),
                },
                threads: 2,
                metrics: false,
            })
        );
    }

    #[test]
    fn query_rejects_bad_or_missing_requests() {
        assert!(parse(&sv(&["query", "--top-k", "3"])).is_err(), "a source is required");
        assert!(
            parse(&sv(&["query", "--index", "i"])).is_err(),
            "at least one query kind is required"
        );
        assert!(parse(&sv(&["query", "--index", "i", "--top-k", "x"])).is_err());
        assert!(parse(&sv(&["query", "--index", "i", "--spread", "1,x"])).is_err());
        assert!(parse(&sv(&["query", "--index", "i", "--marginal", "1,2"])).is_err());
        assert!(parse(&sv(&["query", "--index", "i", "--marginal", "1,2:x"])).is_err());
        assert!(
            parse(&sv(&["query", "--index", "i", "--audience", "1", "--spread", "2"])).is_err(),
            "--audience without --top-k is rejected"
        );
        assert!(parse(&sv(&["query", "--index", "i", "--top-k", "3", "--audience", "x"])).is_err());
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(&sv(&[
            "serve",
            "--index",
            "g.sketch",
            "--socket",
            "/tmp/imm.sock",
            "--shards",
            "4",
            "--threads",
            "3",
            "--max-cost",
            "5000",
            "--max-inflight",
            "8",
            "--idle-timeout-ms",
            "4000",
            "--deadline-ms",
            "250",
            "--journal",
            "g.journal",
            "--mmap",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                index: "g.sketch".into(),
                source: None,
                listen: Listen::Unix("/tmp/imm.sock".into()),
                shards: 4,
                threads: 3,
                max_cost: Some(5000),
                max_inflight: 8,
                idle_timeout_ms: Some(4000),
                deadline_ms: Some(250),
                journal: Some("g.journal".into()),
                mmap: true,
            })
        );
        assert_eq!(pool_threads(&cmd), Some(3));

        // A graph source enables rollouts; TCP addresses work too.
        let cmd = parse(&sv(&[
            "serve",
            "--index",
            "g.sketch",
            "--tcp",
            "127.0.0.1:0",
            "--dataset",
            "com-Amazon",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(args) => {
                assert_eq!(args.source, Some(GraphSource::Dataset("com-Amazon".into())));
                assert_eq!(args.listen, Listen::Tcp("127.0.0.1:0".into()));
                assert_eq!(args.shards, 1);
                assert_eq!(args.max_cost, None);
                assert_eq!(args.max_inflight, 64);
                assert_eq!(args.idle_timeout_ms, None, "idle shedding is opt-in");
                assert_eq!(args.deadline_ms, None, "batch deadlines are opt-in");
                assert_eq!(args.journal, None, "journaling is opt-in");
                assert!(!args.mmap, "mapped serving is opt-in");
            }
            other => panic!("expected serve, got {other:?}"),
        }

        // Missing pieces and conflicts are rejected.
        assert!(parse(&sv(&["serve", "--socket", "/tmp/s"])).is_err()); // no index
        assert!(parse(&sv(&["serve", "--index", "g"])).is_err()); // no address
        assert!(parse(&sv(&["serve", "--index", "g", "--socket", "a", "--tcp", "b"])).is_err());
        assert!(parse(&sv(&["serve", "--index", "g", "--socket", "a", "--shards", "0"])).is_err());
        assert!(parse(&sv(&[
            "serve",
            "--index",
            "g",
            "--socket",
            "a",
            "--graph",
            "f",
            "--dataset",
            "d"
        ]))
        .is_err());
        assert!(
            parse(&sv(&["serve", "--index", "g", "--socket", "a", "--max-cost", "lots"])).is_err()
        );
        assert!(parse(&sv(&[
            "serve",
            "--index",
            "g",
            "--socket",
            "a",
            "--idle-timeout-ms",
            "soon"
        ]))
        .is_err());
        assert!(
            parse(&sv(&["serve", "--index", "g", "--socket", "a", "--deadline-ms", "x"])).is_err()
        );
        assert_eq!(
            parse(&sv(&["serve", "--index", "g", "--socket", "a", "--max-inflight", "0"])),
            Err("--max-inflight must be at least 1".to_string()),
            "a zero in-flight bound would refuse every batch"
        );
    }

    #[test]
    fn parses_client_actions_in_fixed_order() {
        let cmd = parse(&sv(&[
            "client",
            "--socket",
            "/tmp/imm.sock",
            "--shutdown",
            "--top-k",
            "2,4",
            "--spread",
            "0,1",
            "--ping",
            "--metrics",
            "--wait-ms",
            "500",
        ]))
        .unwrap();
        let Command::Client(args) = cmd else { panic!("expected client") };
        assert_eq!(args.address, Listen::Unix("/tmp/imm.sock".into()));
        assert_eq!(args.wait_ms, 500);
        assert_eq!(args.retries, 3, "retries default to the policy's");
        assert_eq!(args.retry_backoff_ms, 10);
        assert_eq!(args.request_timeout_ms, None);
        // Regardless of flag order on the line: ping, then the batch, then
        // metrics, with shutdown always last.
        assert_eq!(
            args.actions,
            vec![
                ClientAction::Ping,
                ClientAction::Batch(BatchSpec {
                    top_k: vec![2, 4],
                    audience: None,
                    spread: Some(vec![0, 1]),
                    marginal: None,
                }),
                ClientAction::Metrics,
                ClientAction::Shutdown,
            ]
        );
        // The client rides the daemon's pool, not a local one.
        assert_eq!(pool_threads(&Command::Client(args)), None);

        let cmd = parse(&sv(&[
            "client",
            "--tcp",
            "localhost:7070",
            "--info",
            "--apply-delta",
            "churn.delta",
            "--retries",
            "7",
            "--retry-backoff-ms",
            "25",
            "--request-timeout-ms",
            "2000",
        ]))
        .unwrap();
        let Command::Client(args) = cmd else { panic!("expected client") };
        assert_eq!(
            args.actions,
            vec![ClientAction::Info, ClientAction::ApplyDelta { path: "churn.delta".into() },]
        );
        assert_eq!(args.retries, 7);
        assert_eq!(args.retry_backoff_ms, 25);
        assert_eq!(args.request_timeout_ms, Some(2000));
        assert!(
            parse(&sv(&["client", "--socket", "s", "--ping", "--retries", "many"])).is_err(),
            "a non-numeric retry count is rejected"
        );

        // No action at all, and missing addresses, are rejected.
        assert!(parse(&sv(&["client", "--socket", "/tmp/s"])).is_err());
        assert!(parse(&sv(&["client", "--ping"])).is_err());
        assert!(parse(&sv(&["client", "--socket", "a", "--tcp", "b", "--ping"])).is_err());
    }

    #[test]
    fn every_subcommand_rejects_unknown_repeated_and_valueless_flags() {
        // One valid line per subcommand, each opening with a value flag.
        let valid: [&[&str]; 9] = [
            &["generate", "--output", "g.txt"],
            &["run", "--graph", "g.txt"],
            &["compare", "--graph", "g.txt"],
            &["stats", "--graph", "g.txt"],
            &["build-index", "--output", "g.sketch", "--graph", "g.txt"],
            &["update-index", "--index", "g.sketch", "--graph", "g.txt", "--delta", "d"],
            &["query", "--index", "g.sketch", "--top-k", "2"],
            &["serve", "--index", "g.sketch", "--socket", "s"],
            &["client", "--socket", "s", "--ping"],
        ];
        assert_eq!(valid.map(|argv| argv[0]), GRAMMARS.map(|g| g.0), "one line per grammar");
        for argv in valid {
            let (command, flag) = (argv[0], argv[1]);
            assert!(parse(&sv(argv)).is_ok(), "{argv:?} is valid");
            for (bad, named) in [
                ([argv, &["--thread", "2"]].concat(), "--thread"),
                ([argv, &argv[1..3]].concat(), flag),
                ([argv, &[flag]].concat(), flag),
                ([&argv[..2], &["--seed", "1"]].concat(), flag),
            ] {
                let err = parse(&sv(&bad)).expect_err(&format!("{bad:?} must be rejected"));
                assert!(
                    err.contains(&format!("'{named}'")) && err.contains(command),
                    "error for {bad:?} must name {named} and {command}: {err}"
                );
            }
        }
        // The lines that used to run with a silently ignored flag.
        let typo = ["run", "--graph", "g.txt", "--k", "3", "--thread", "4", "--epsilom", "0.9"];
        assert_eq!(parse(&sv(&typo)), Err("unknown flag '--thread' for run".into()));
        assert!(parse(&sv(&["run", "--graph", "g.txt", "--k", "3", "--k", "9"])).is_err());
        assert!(parse(&sv(&["compare", "--graph", "g.txt", "--output", "out.json"])).is_err());
        // A snapshot is one file: the shard-file flags and subcommand are gone.
        let query = ["query", "--index", "g.sketch", "--top-k", "2"];
        assert_eq!(
            parse(&sv(&[&query[..], &["--shards", "2"]].concat())),
            Err("unknown flag '--shards' for query".into())
        );
        assert_eq!(
            parse(&sv(&["query", "--shard-files", "a"])),
            Err("unknown flag '--shard-files' for query".into())
        );
        assert_eq!(
            parse(&sv(&["split-index", "--index", "g.sketch", "--shards", "2", "--output", "p"])),
            Err("unknown subcommand 'split-index'".into())
        );
    }

    #[test]
    fn usage_synopsis_names_exactly_each_grammar() {
        let synopsis = USAGE.split("USAGE:\n").nth(1).and_then(|s| s.split("\n\n").next());
        let mut named: Vec<(&str, &str)> = Vec::new();
        for line in synopsis.expect("USAGE has a synopsis block").lines() {
            match line.trim_start().strip_prefix("efficient-imm ") {
                Some(rest) => named.push(rest.split_once(' ').unwrap_or((rest, ""))),
                None => named.push((named.last().expect("a command line first").0, line)),
            }
        }
        for Grammar(command, values, switches, _) in GRAMMARS {
            let mut usage: Vec<&str> = named
                .iter()
                .filter(|(c, _)| *c == command)
                .flat_map(|(_, text)| {
                    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                })
                .filter(|word| word.starts_with("--"))
                .collect();
            usage.sort_unstable();
            usage.dedup();
            let mut grammar: Vec<&str> =
                values.split_whitespace().chain(switches.split_whitespace()).collect();
            grammar.sort_unstable();
            assert_eq!(usage, grammar, "USAGE's synopsis of {command} and its grammar differ");
        }
    }

    #[test]
    fn usage_names_the_snapshot_format_this_build_reads() {
        assert!(USAGE.contains(&format!("({})", imm_service::SNAPSHOT_VERSION)));
    }
}
