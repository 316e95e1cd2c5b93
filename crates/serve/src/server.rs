//! The shard-server daemon.
//!
//! One process serves a [`ShardedIndex`] through a [`ShardedEngine`] (a
//! query engine over the base index) behind a coordinator loop:
//!
//! * The **accept loop** (one thread) blocks in `accept` on a unix or TCP
//!   socket — a connection is accepted the moment it arrives — and spawns
//!   one thread per connection. Shutdown wakes it by shutting the
//!   listening socket down, which on Linux — the daemon's target, as it is
//!   the mapped store's — fails the blocked `accept` at once (other
//!   platforms may leave it blocked); it then shuts the read half of every
//!   live connection, so idle reads see EOF at once while in-flight
//!   responses are still written, and joins them.
//! * Each **connection thread** runs a strict request/response loop
//!   over length-prefixed frames. A protocol error (bad magic,
//!   oversized or truncated frame, garbage payload) earns a structured
//!   error response and a dropped connection — never a panic, a hang,
//!   or an unbounded allocation.
//! * **Admission** gates every batch: a bounded in-flight slot per
//!   request, a postings-size cost estimate per query (see
//!   [`crate::admission`]). Claiming a slot is also where the in-flight
//!   high-water mark is recorded.
//! * **Rolling refresh**: `apply_delta` builds the replacement index
//!   off to the side — [`ShardedIndex::rebuilt_with_delta`], the base
//!   index's refresh under the same shard map — stands a new
//!   [`ShardedEngine`] up over it, then swaps one `Arc`. This is the only
//!   way an engine's index ever changes (an engine serves one generation
//!   for life), so the suites that roll deltas in process roll them
//!   exactly like this. Queries that already hold the old state keep
//!   serving on the old generation; the next request sees the new index.
//!   Rollouts serialize behind a mutex; queries never wait on it.
//!
//! The daemon starts no thread beyond the accept loop and the connection
//! threads, and keeps two clocks: a connection's read timeout is its idle
//! timeout (a peer silent that long, between frames or in the middle of
//! one, is dropped), and a batch request checks its deadline between
//! chunks.
//!
//! Remote answers are **byte-identical** to the in-process engine's:
//! the daemon calls the very same [`ShardedEngine`] entry points and the
//! wire codec round-trips `f64`s as raw bits. The socket parity suite
//! pins this across shard counts, including after rolling refreshes.

use crate::admission::{Admission, CostModel};
use crate::metrics as smetrics;
use crate::protocol::{
    self, DeltaOutcome, FrameRead, Rejection, Request, Response, ServeError, ServerInfo,
    DEFAULT_MAX_FRAME_LEN,
};
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_service::snapshot::DeltaJournal;
use imm_service::QueryResponse;
use imm_shard::{ShardedEngine, ShardedIndex};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Where the daemon listens (and, once bound, the resolved address a
/// client should dial — TCP port 0 resolves to the assigned port).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7071` (port 0 picks a free port).
    Tcp(String),
}

impl std::fmt::Display for Listen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
            Listen::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A connected socket of either family.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn connect(address: &Listen) -> io::Result<Stream> {
        match address {
            Listen::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Listen::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }

    /// Connect with a bound on how long the dial itself may take. Unix
    /// sockets connect (or fail) immediately and ignore the timeout; TCP
    /// dials every resolved address with `TcpStream::connect_timeout`.
    pub(crate) fn connect_timeout(address: &Listen, timeout: Duration) -> io::Result<Stream> {
        match address {
            Listen::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Listen::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let mut last =
                    io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
                for resolved in addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(stream) => {
                            stream.set_nodelay(true)?;
                            return Ok(Stream::Tcp(stream));
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(timeout),
            Stream::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(listen: &Listen) -> io::Result<(Listener, Listen)> {
        match listen {
            Listen::Unix(path) => {
                let listener = UnixListener::bind(path)?;
                Ok((Listener::Unix(listener), Listen::Unix(path.clone())))
            }
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let resolved = Listen::Tcp(listener.local_addr()?.to_string());
                Ok((Listener::Tcp(listener), resolved))
            }
        }
    }

    /// A second handle on the listening socket, typed as a stream because
    /// std offers `shutdown(2)` on streams only: on Linux, shutting a
    /// listening socket down fails every `accept` blocked on it.
    fn shutdown_handle(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => Stream::Unix(UnixStream::from(OwnedFd::from(l.try_clone()?))),
            Listener::Tcp(l) => Stream::Tcp(TcpStream::from(OwnedFd::from(l.try_clone()?))),
        })
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }
}

/// Socket write timeout per connection: a peer that stops draining its
/// receive buffer cannot pin a connection thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Back-off after a failed `accept` (out of descriptors, say): no spin, and
/// at most one log line per back-off.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Tuning knobs of one daemon instance. Every connection caps a frame's
/// payload at [`DEFAULT_MAX_FRAME_LEN`] and a socket write at 30 s.
pub struct ServerConfig {
    /// Where to listen.
    pub listen: Listen,
    /// Serving parallelism: batch requests fan across it.
    pub threads: usize,
    /// Per-query cost budget in postings entries (`None` admits all).
    pub budget: Option<u64>,
    /// Bound on concurrently served requests across all connections.
    pub max_inflight: usize,
    /// A connection's read timeout (at least 1 ms). A connection that
    /// sends no frame for this long gets a structured
    /// [`ServeError::IdleTimeout`] goodbye and is closed; one that stalls
    /// this long in the middle of a frame is dropped as truncated
    /// (slow-loris shedding). `None` sets no read timeout: a silent peer
    /// holds its own thread until it closes or the daemon shuts down.
    pub idle_timeout: Option<Duration>,
    /// Execution deadline per batch request: queries that have not
    /// started when it expires answer a structured
    /// [`Rejection::DeadlineExceeded`] instead of running.
    pub batch_deadline: Option<Duration>,
    /// Journal file for `apply_delta` texts (crash safety): every delta
    /// is appended and fsynced *before* the rollout commits, indexed by the
    /// delta-log length of the generation it replaces, so a crash between
    /// accepting a delta and persisting a refreshed snapshot can replay it
    /// on restart (`SketchIndex::recover`). `None` disables journaling.
    pub journal: Option<PathBuf>,
}

impl ServerConfig {
    /// Defaults sized for a small deployment: global-pool parallelism, no
    /// cost budget, 64 in-flight requests, no idle timeout, no deadline.
    pub fn new(listen: Listen) -> Self {
        ServerConfig {
            listen,
            threads: imm_exec::default_threads(),
            budget: None,
            max_inflight: 64,
            idle_timeout: None,
            batch_deadline: None,
            journal: None,
        }
    }
}

/// The engine generation a request serves against: swapped wholesale by
/// a rollout, so a request that cloned the `Arc` keeps a consistent
/// (engine, cost-model) pair for its whole lifetime.
struct EngineState {
    engine: ShardedEngine,
    cost: CostModel,
}

/// What to do with the connection after answering one request.
enum Flow {
    Continue,
    Close,
}

/// Shared daemon state: the swappable engine generation, admission
/// gates, the rollout lock, and the shutdown flag.
pub struct Server {
    state: RwLock<Arc<EngineState>>,
    admission: Admission,
    /// The live graph/weights pair deltas apply to. `None` for a static
    /// index (rollouts answer [`ServeError::NotDynamic`]). The mutex
    /// serializes rollouts; the query path never takes it.
    dynamic: Mutex<Option<(CsrGraph, EdgeWeights)>>,
    rollouts: AtomicU64,
    shutdown: AtomicBool,
    /// The resolved listen address.
    address: Listen,
    /// The listening socket's [shutdown handle](Listener::shutdown_handle):
    /// what wakes the accept loop.
    listening: Stream,
    /// A second handle on each live connection, keyed by connection id, so
    /// shutdown can end the blocked reads of idle ones.
    live: Mutex<HashMap<u64, Stream>>,
    metrics_provider: Box<dyn Fn() -> String + Send + Sync>,
    /// Crash-safety journal for accepted deltas; appends serialize under
    /// the `dynamic` rollout lock (`None` when journaling is off).
    journal: Mutex<Option<DeltaJournal>>,
    threads: usize,
    idle_timeout: Option<Duration>,
    batch_deadline: Option<Duration>,
}

impl Server {
    /// Start the daemon: bind, spawn the accept loop, return a handle with
    /// the resolved address.
    ///
    /// `dynamic` is the graph/weights pair rolling `apply_delta` replays
    /// against (pass `None` to serve statically); `metrics_provider`
    /// renders the process's metrics registry for the `metrics` verb —
    /// the CLI wires `imm_bench::obs::registry_json` here (the provider
    /// lives upstream so this crate stays below the bench layer).
    pub fn start(
        index: Arc<ShardedIndex>,
        dynamic: Option<(CsrGraph, EdgeWeights)>,
        config: ServerConfig,
        metrics_provider: impl Fn() -> String + Send + Sync + 'static,
    ) -> io::Result<ServerHandle> {
        smetrics::register();
        imm_exec::metrics::register();
        let engine = ShardedEngine::new(index);
        let cost = CostModel::from_index(engine.index());
        let journal = match &config.journal {
            Some(path) => Some(DeltaJournal::open(path)?),
            None => None,
        };
        let (listener, address) = Listener::bind(&config.listen)?;
        let server = Arc::new(Server {
            state: RwLock::new(Arc::new(EngineState { engine, cost })),
            admission: Admission::new(config.budget, config.max_inflight),
            dynamic: Mutex::new(dynamic),
            rollouts: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            address,
            listening: listener.shutdown_handle()?,
            live: Mutex::new(HashMap::new()),
            metrics_provider: Box::new(metrics_provider),
            journal: Mutex::new(journal),
            threads: config.threads,
            idle_timeout: config.idle_timeout,
            batch_deadline: config.batch_deadline,
        });

        let accept_server = Arc::clone(&server);
        let accept = thread::Builder::new()
            .name("imm-serve-accept".into())
            .spawn(move || accept_loop(accept_server, listener))?;
        Ok(ServerHandle { accept, server })
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Set the shutdown flag and wake the accept loop by shutting the
    /// listening socket down (no dial, so an unlinked socket file does not
    /// matter).
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = self.listening.shutdown(Shutdown::Read);
    }

    /// The engine generation serving right now. Poisoning is impossible
    /// in practice (writers only swap an `Arc`), but a long-lived daemon
    /// must not compound a panic: recover the inner value instead.
    fn current(&self) -> Arc<EngineState> {
        self.state.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Answer one decoded request.
    fn handle(&self, request: Request) -> (Response, Flow) {
        smetrics::REQUESTS.increment();
        match request {
            Request::Ping => (Response::Pong, Flow::Continue),
            Request::Metrics => (Response::MetricsJson((self.metrics_provider)()), Flow::Continue),
            Request::Info => {
                let state = self.current();
                let index = state.engine.index();
                let postings = index.global_postings().stats();
                (
                    Response::Info(ServerInfo {
                        label: index.meta().label.clone(),
                        theta: index.num_sets() as u64,
                        nodes: index.num_nodes() as u64,
                        shards: index.num_shards() as u32,
                        workers: 0,
                        rollouts: self.rollouts.load(Ordering::Acquire),
                        postings_row_vertices: postings.row_vertices as u64,
                        postings_row_bytes: postings.row_bytes as u64,
                        postings_list_entries: postings.list_entries as u64,
                        postings_list_bytes: postings.list_bytes as u64,
                    }),
                    Flow::Continue,
                )
            }
            Request::Batch(queries) => (self.serve_batch(queries), Flow::Continue),
            Request::ApplyDelta { text } => (self.roll_delta(&text), Flow::Continue),
            Request::Shutdown => {
                self.request_shutdown();
                (Response::ShuttingDown, Flow::Close)
            }
        }
    }

    /// Price, admit, and execute one batch. Admission is per query —
    /// a rejected query occupies its slot in the answers while its
    /// neighbours serve; the in-flight bound sheds the whole request.
    fn serve_batch(&self, queries: Vec<imm_service::Query>) -> Response {
        let _slot = match self.admission.try_acquire() {
            Ok(slot) => slot,
            Err((inflight, limit)) => {
                smetrics::REJECTED_QUEUE_FULL.increment();
                return Response::Error(ServeError::QueueFull { inflight, limit });
            }
        };
        // One generation for the whole batch: a rollout mid-batch must
        // not split it across two indexes.
        let state = self.current();

        let mut outcomes: Vec<Option<Result<QueryResponse, Rejection>>> =
            Vec::with_capacity(queries.len());
        let mut admitted = Vec::new();
        for query in &queries {
            let verdict = state.cost.cost(query).and_then(|c| self.admission.admit(c));
            match verdict {
                Ok(()) => {
                    admitted.push(query.clone());
                    outcomes.push(None); // filled from the executed batch
                }
                Err(rejection) => {
                    match rejection {
                        Rejection::OverBudget { .. } => smetrics::REJECTED_OVER_BUDGET.increment(),
                        Rejection::InvalidVertex { .. } => {
                            smetrics::REJECTED_INVALID_VERTEX.increment()
                        }
                        // Admission never produces a deadline rejection;
                        // those come from `execute_with_deadline`.
                        Rejection::DeadlineExceeded { .. } => {
                            smetrics::DEADLINE_EXCEEDED.increment()
                        }
                    }
                    outcomes.push(Some(Err(rejection)));
                }
            }
        }
        smetrics::QUERIES.add(admitted.len() as u64);
        let mut responses = self.execute_with_deadline(&state, &admitted).into_iter();
        let mut filled = Vec::with_capacity(outcomes.len());
        for slot in outcomes {
            match slot {
                Some(outcome) => filled.push(outcome),
                // The engine answers every admitted query; running dry here
                // would be an engine bug, and a long-lived daemon reports
                // it instead of panicking the connection thread.
                None => match responses.next() {
                    Some(response) => filled.push(response),
                    None => {
                        return Response::Error(ServeError::BadRequest {
                            detail: "internal error: the engine answered fewer queries than \
                                     were admitted"
                                .into(),
                        })
                    }
                },
            }
        }
        Response::Batch(filled)
    }

    /// Execute the admitted queries chunk by chunk, checking the per-batch
    /// deadline before each chunk: queries that have not started when it
    /// expires answer a structured [`Rejection::DeadlineExceeded`] instead
    /// of running. With no deadline the chunk is the whole batch; with one
    /// it is `threads × 4` queries, small enough to bound the overshoot of
    /// the chunk in flight (the engine is not preemptible).
    fn execute_with_deadline(
        &self,
        state: &EngineState,
        admitted: &[imm_service::Query],
    ) -> Vec<Result<QueryResponse, Rejection>> {
        let chunk = match self.batch_deadline {
            None => admitted.len(),
            Some(_) => self.threads.max(1) * 4,
        };
        let started = Instant::now();
        let mut answers = Vec::with_capacity(admitted.len());
        for queries in admitted.chunks(chunk.max(1)) {
            if let Some(limit) = self.batch_deadline {
                let elapsed = started.elapsed();
                if elapsed >= limit {
                    smetrics::DEADLINE_EXCEEDED.add((admitted.len() - answers.len()) as u64);
                    let rejection = Rejection::DeadlineExceeded {
                        elapsed_ms: elapsed.as_millis() as u64,
                        deadline_ms: limit.as_millis() as u64,
                    };
                    answers.resize(admitted.len(), Err(rejection));
                    break;
                }
            }
            answers.extend(state.engine.execute_batch(queries, self.threads).into_iter().map(Ok));
        }
        answers
    }

    /// Parse and apply a delta through a graceful rollout: rebuild the
    /// replacement index off to the side (the live one is untouched),
    /// stand up a fresh engine over it, swap one `Arc`. In-flight batches
    /// finish on the generation they started on; the old engine tears down
    /// when the last of them drops it.
    fn roll_delta(&self, text: &str) -> Response {
        let delta = match GraphDelta::parse_text(text) {
            Ok(delta) => delta,
            Err(e) => return Response::Error(ServeError::Delta { detail: e.to_string() }),
        };
        let mut dynamic = self.dynamic.lock();
        let Some((graph, weights)) = dynamic.as_ref() else {
            return Response::Error(ServeError::NotDynamic);
        };
        // Fault site: a rollout aborted before the rebuild even starts.
        // The old generation keeps serving untouched; a retry is clean.
        if let Err(fault) = imm_fault::fail_point("serve.rollout.begin") {
            return Response::Error(ServeError::Delta { detail: fault.to_string() });
        }
        let current = self.current();
        let started = Instant::now();
        let rebuilt = current.engine.index().rebuilt_with_delta(graph, weights, &delta);
        let (next_index, new_graph, new_weights, stats) = match rebuilt {
            Ok(parts) => parts,
            Err(e) => return Response::Error(ServeError::Delta { detail: e.to_string() }),
        };
        // Fault site: the replacement index is fully rebuilt but not yet
        // committed. Failing here must discard it wholesale — the old
        // generation serves byte-identically and a retry succeeds.
        if let Err(fault) = imm_fault::fail_point("serve.rollout.commit") {
            return Response::Error(ServeError::Delta { detail: fault.to_string() });
        }
        // Journal the accepted delta (fsynced) BEFORE the commit becomes
        // visible: a crash after this point can replay the delta from the
        // journal; a crash before it never claimed the delta was applied.
        if let Some(journal) = self.journal.lock().as_mut() {
            // Indexed by the revision it moves the served generation from.
            let revision = current.engine.index().provenance().map_or(0, |p| p.delta_log.len());
            if let Err(e) = journal.append(revision as u64, text) {
                return Response::Error(ServeError::Delta {
                    detail: format!("delta journal append failed (rollout refused): {e}"),
                });
            }
        }
        let engine = ShardedEngine::new(Arc::new(next_index));
        let cost = CostModel::from_index(engine.index());
        *self.state.write().unwrap_or_else(|e| e.into_inner()) =
            Arc::new(EngineState { engine, cost });
        smetrics::ROLLOUT_LATENCY.record_duration(started.elapsed());
        *dynamic = Some((new_graph, new_weights));
        self.rollouts.fetch_add(1, Ordering::AcqRel);
        smetrics::ROLLOUTS.increment();
        Response::DeltaApplied(DeltaOutcome {
            total_sets: stats.total_sets as u64,
            resampled_sets: stats.resampled_sets as u64,
            inserted_edges: stats.inserted_edges as u64,
            deleted_edges: stats.deleted_edges as u64,
            reweighted_edges: stats.reweighted_edges as u64,
            edges_after: stats.num_edges_after as u64,
        })
    }
}

fn accept_loop(server: Arc<Server>, listener: Listener) {
    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    while !server.shutdown_requested() {
        match listener.accept() {
            Ok(stream) => {
                connections.retain(|c| !c.is_finished());
                smetrics::CONNECTIONS.increment();
                // A connection without a second handle would never see a
                // shutdown (its read may have no timeout), so the drain
                // would wait on it forever: close it instead.
                let handle = match stream.try_clone() {
                    Ok(handle) => handle,
                    Err(e) => {
                        eprintln!("[imm-serve] closing a new connection, cannot clone it: {e}");
                        continue;
                    }
                };
                let id = next_id;
                next_id += 1;
                server.live.lock().insert(id, handle);
                let conn_server = Arc::clone(&server);
                let spawned =
                    thread::Builder::new().name("imm-serve-conn".into()).spawn(move || {
                        serve_connection(&conn_server, stream);
                        conn_server.live.lock().remove(&id);
                    });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(e) => {
                        server.live.lock().remove(&id);
                        eprintln!("[imm-serve] failed to spawn connection thread: {e}");
                    }
                }
            }
            Err(_) if server.shutdown_requested() => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A shutdown during the back-off ends the loop at its next check.
            Err(e) => {
                eprintln!("[imm-serve] accept failed: {e}");
                thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }

    // Drain: an idle connection's blocked read sees EOF at once, a busy one
    // still writes its response; join them all before releasing the socket.
    for handle in server.live.lock().values() {
        let _ = handle.shutdown(Shutdown::Read);
    }
    for connection in connections {
        let _ = connection.join();
    }
    if let Listen::Unix(path) = &server.address {
        let _ = std::fs::remove_file(path);
    }
}

/// Strict request/response loop over one connection. Any protocol error
/// earns a best-effort structured error frame and a dropped connection
/// (after garbage the stream position is untrustworthy). A connection
/// that sends nothing for the configured idle timeout gets a structured
/// [`ServeError::IdleTimeout`] goodbye and a close — a slow-loris peer
/// sheds itself instead of pinning a thread.
fn serve_connection(server: &Server, stream: Stream) {
    // The idle timeout is the read timeout, so it also cuts a stall in the
    // middle of a frame (a structured Truncated error), and it is each
    // frame's deadline: a frame still incomplete one idle timeout after its
    // first byte is cut the same way, however steadily its bytes trickle.
    // `Some(0)` is an error on Unix, hence the 1 ms floor. Shutdown does not
    // wait for it: it ends a blocked read with EOF.
    let idle_timeout = server.idle_timeout.map(|t| t.max(Duration::from_millis(1)));
    if stream.set_read_timeout(idle_timeout).is_err() {
        return;
    }
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    // Under an installed fault plan the socket itself misbehaves:
    // injected read/write errors, short writes, stalls. A no-op wrapper
    // otherwise.
    let mut stream = imm_fault::FaultyIo::new(stream, "serve.conn");
    loop {
        if server.shutdown_requested() {
            return;
        }
        match protocol::read_frame_within(&mut stream, DEFAULT_MAX_FRAME_LEN, idle_timeout) {
            Ok(FrameRead::Eof) => return,
            // Only the idle timeout ends a read this way.
            Ok(FrameRead::Idle) => {
                smetrics::CONN_TIMEOUTS.increment();
                let idle_ms = idle_timeout.unwrap_or_default().as_millis() as u64;
                let goodbye = Response::Error(ServeError::IdleTimeout { idle_ms });
                let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&goodbye));
                return;
            }
            Ok(FrameRead::Frame(payload)) => match protocol::decode_request(&payload) {
                Ok(request) => {
                    let (response, flow) = server.handle(request);
                    let sent =
                        protocol::write_frame(&mut stream, &protocol::encode_response(&response));
                    if sent.is_err() || matches!(flow, Flow::Close) {
                        return;
                    }
                }
                Err(e) => {
                    smetrics::PROTOCOL_ERRORS.increment();
                    let reply = Response::Error(ServeError::BadRequest { detail: e.to_string() });
                    let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&reply));
                    return;
                }
            },
            Err(e) => {
                smetrics::PROTOCOL_ERRORS.increment();
                // Grammar violations earn a structured goodbye; raw
                // transport failures don't — the socket is broken, and the
                // client's own read will report the loss. (This also keeps
                // injected socket faults looking like what they simulate:
                // a lost connection, not a server-side complaint.)
                if !matches!(e, protocol::ProtocolError::Io(_)) {
                    let reply = Response::Error(ServeError::BadRequest { detail: e.to_string() });
                    let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&reply));
                }
                return;
            }
        }
    }
}

/// Handle on a running daemon: the resolved listen address plus
/// stop/join controls.
pub struct ServerHandle {
    accept: thread::JoinHandle<()>,
    server: Arc<Server>,
}

impl ServerHandle {
    /// The address clients should dial (TCP port 0 already resolved).
    pub fn address(&self) -> &Listen {
        &self.server.address
    }

    /// Completed rollouts so far.
    pub fn rollouts(&self) -> u64 {
        self.server.rollouts.load(Ordering::Acquire)
    }

    /// Request shutdown without a client connection. The accept loop wakes
    /// at once — no read timeout is waited out — idle and stalled
    /// connections see EOF, and in-flight responses are still written. The
    /// `shutdown` RPC verb does the same from the wire.
    pub fn stop(&self) {
        self.server.request_shutdown();
    }

    /// Wait for the daemon to exit (all connections drained, unix socket
    /// file removed).
    pub fn join(self) -> thread::Result<()> {
        self.accept.join()
    }
}
