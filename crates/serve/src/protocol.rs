//! The wire format of the serving daemon.
//!
//! # Framing
//!
//! Every message travels as one frame:
//!
//! ```text
//! +------+---------+--------------+------------------+
//! | IMSV | version | len (u32 LE) | payload (len B)  |
//! +------+---------+--------------+------------------+
//!   4 B      1 B        4 B            <= max len
//! ```
//!
//! The decoder is defensive by construction: the magic and version are
//! checked before the length, the length is checked against the
//! decoder's cap **before any allocation** (a hostile prefix cannot
//! drive an out-of-memory), a stream that ends or stalls mid-frame is a
//! structured [`ProtocolError::Truncated`] (never a hang — reads run
//! under the socket's read timeout, and the daemon bounds a whole frame,
//! [`read_frame_within`]), and every payload decode is
//! bounds-checked (element counts are validated against the bytes
//! actually present, audience bitmap members against the declared
//! capacity). Nothing in this module panics on wire input; the
//! frame-corruption suite pins that the way the snapshot corruption
//! suite pins the snapshot decoder.
//!
//! # Byte identity
//!
//! [`QueryResponse`] floats are encoded as raw IEEE-754 bits
//! (`f64::to_bits`) and reconstructed with `f64::from_bits`, so a
//! response decoded from the socket compares `==` (bit-for-bit on the
//! floats) with the in-process engine's answer. The `daemon/unix` and
//! `daemon/tcp` rows of the conformance matrix (`tests/conformance.rs`)
//! hold the daemon to exactly that.

use imm_rrr::BitSet;
use imm_service::{Query, QueryResponse};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Frame magic: the first four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"IMSV";

/// Protocol revision carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frame header length: magic + version + payload length.
pub const FRAME_HEADER_LEN: usize = 9;

/// Default cap on one frame's payload (decoder refuses larger prefixes
/// before allocating).
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 << 20;

/// Cap on a wire audience bitmap's declared capacity: a hostile capacity
/// field cannot make the decoder allocate an arbitrarily large word
/// array (128 Mi vertices ≙ a 16 MiB bitmap, matching the frame cap).
pub const MAX_AUDIENCE_CAPACITY: u64 = 1 << 27;

/// Everything that can go wrong between bytes and messages.
#[derive(Debug)]
pub enum ProtocolError {
    /// The frame does not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The peer speaks a different protocol revision.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: u8,
        /// The version byte in the offending frame.
        theirs: u8,
    },
    /// The length prefix exceeds the decoder's cap (refused before any
    /// allocation).
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The decoder's cap.
        max: u64,
    },
    /// The stream ended (or stalled past the read timeout) mid-frame.
    Truncated {
        /// Which structure was being read.
        context: &'static str,
    },
    /// An opcode or enum tag the decoder does not know.
    UnknownTag {
        /// Which structure was being read.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A structurally invalid payload (bad counts, range violations,
    /// trailing bytes, invalid UTF-8, ...).
    Malformed {
        /// Which structure was being read.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A transport error outside the frame grammar.
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (expected {FRAME_MAGIC:?})")
            }
            ProtocolError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: peer speaks v{theirs}, this build v{ours}")
            }
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::Truncated { context } => {
                write!(f, "stream ended or stalled while reading {context}")
            }
            ProtocolError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} in {context}")
            }
            ProtocolError::Malformed { context, detail } => {
                write!(f, "malformed {context}: {detail}")
            }
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Outcome of reading one frame off a connection.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame's payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The read timeout expired with no frame started — the connection
    /// is idle, not broken. The daemon's read timeout is its idle timeout,
    /// so a daemon connection that reads this is closed.
    Idle,
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// `read_exact` that folds EOF, a stalled read (timeout mid-frame: the
/// half-written-frame case) *and* a short read that returns past
/// `deadline` into [`ProtocolError::Truncated`].
fn read_exact_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
    deadline: Option<Instant>,
) -> Result<(), ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ProtocolError::Truncated { context }),
            Ok(n) => {
                filled += n;
                if filled < buf.len() && deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(ProtocolError::Truncated { context });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => return Err(ProtocolError::Truncated { context }),
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame. Distinguishes clean EOF and idle timeouts *before*
/// the first byte from truncation *after* it; the length prefix is
/// validated against `max_len` before the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<FrameRead, ProtocolError> {
    read_frame_within(r, max_len, None)
}

/// [`read_frame`] with a frame deadline: a frame still incomplete `limit`
/// after its first byte is cut as [`ProtocolError::Truncated`], so a peer
/// that trickles bytes just inside the read timeout cannot hold the reader
/// for as many timeouts as its frame has bytes. The clock is read when the
/// first byte arrives and after a read that leaves the frame short, never
/// after a read that completes a header or payload. The cut comes at the
/// first read that returns past the deadline, so under a read timeout of
/// `limit` a frame holds its reader for less than twice `limit`.
pub fn read_frame_within(
    r: &mut impl Read,
    max_len: usize,
    limit: Option<Duration>,
) -> Result<FrameRead, ProtocolError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // First byte separately: zero bytes read means EOF/idle, not truncation.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => return Ok(FrameRead::Idle),
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let deadline = limit.map(|limit| Instant::now() + limit);
    read_exact_frame(r, &mut header[1..], "frame header", deadline)?;

    let magic = [header[0], header[1], header[2], header[3]];
    if magic != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic { found: magic });
    }
    let version = header[4];
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version });
    }
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > max_len {
        return Err(ProtocolError::FrameTooLarge { len: len as u64, max: max_len as u64 });
    }
    let mut payload = vec![0u8; len];
    read_exact_frame(r, &mut payload, "frame payload", deadline)?;
    Ok(FrameRead::Frame(payload))
}

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > u32::MAX as usize {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = PROTOCOL_VERSION;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Payload primitives.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_u32_list(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Bounds-checked payload reader: every accessor reports which structure
/// it was decoding, element counts are validated against the bytes
/// actually remaining, and [`Reader::finish`] rejects trailing garbage.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtocolError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtocolError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// A list length that must fit in the remaining bytes at
    /// `elem_size` bytes per element — a garbage count can never drive
    /// an allocation past the frame it arrived in.
    fn list_len(
        &mut self,
        elem_size: usize,
        context: &'static str,
    ) -> Result<usize, ProtocolError> {
        let count = self.u32(context)? as usize;
        if count.saturating_mul(elem_size) > self.remaining() {
            return Err(ProtocolError::Malformed {
                context,
                detail: format!(
                    "element count {count} exceeds the {} bytes left in the frame",
                    self.remaining()
                ),
            });
        }
        Ok(count)
    }

    fn u32_list(&mut self, context: &'static str) -> Result<Vec<u32>, ProtocolError> {
        let count = self.list_len(4, context)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32(context)?);
        }
        Ok(out)
    }

    fn str(&mut self, context: &'static str) -> Result<String, ProtocolError> {
        let len = self.list_len(1, context)?;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Malformed {
            context,
            detail: "string is not valid UTF-8".into(),
        })
    }

    fn finish(self, context: &'static str) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::Malformed {
                context,
                detail: format!("{} trailing bytes after the message", self.remaining()),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Query / QueryResponse codecs (bit-exact).

const TAG_TOP_K: u8 = 0x00;
const TAG_SPREAD: u8 = 0x01;
const TAG_MARGINAL: u8 = 0x02;

fn put_query(out: &mut Vec<u8>, query: &Query) {
    match query {
        Query::TopK { k, audience } => {
            put_u8(out, TAG_TOP_K);
            put_u64(out, *k as u64);
            match audience {
                None => put_u8(out, 0),
                Some(a) => {
                    put_u8(out, 1);
                    put_u64(out, a.capacity() as u64);
                    let members: Vec<u32> = a.iter().map(|v| v as u32).collect();
                    put_u32_list(out, &members);
                }
            }
        }
        Query::Spread { seeds } => {
            put_u8(out, TAG_SPREAD);
            put_u32_list(out, seeds);
        }
        Query::Marginal { seeds, candidate } => {
            put_u8(out, TAG_MARGINAL);
            put_u32_list(out, seeds);
            put_u32(out, *candidate);
        }
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<Query, ProtocolError> {
    const CTX: &str = "query";
    match r.u8(CTX)? {
        TAG_TOP_K => {
            let k = r.u64(CTX)? as usize;
            let audience = match r.u8(CTX)? {
                0 => None,
                1 => {
                    let capacity = r.u64(CTX)?;
                    if capacity > MAX_AUDIENCE_CAPACITY {
                        return Err(ProtocolError::Malformed {
                            context: CTX,
                            detail: format!(
                                "audience capacity {capacity} exceeds the \
                                 {MAX_AUDIENCE_CAPACITY} cap"
                            ),
                        });
                    }
                    let members = r.u32_list(CTX)?;
                    if let Some(&bad) = members.iter().find(|&&m| m as u64 >= capacity) {
                        return Err(ProtocolError::Malformed {
                            context: CTX,
                            detail: format!(
                                "audience member {bad} outside the declared capacity {capacity}"
                            ),
                        });
                    }
                    Some(BitSet::from_iter_with_capacity(
                        capacity as usize,
                        members.iter().map(|&m| m as usize),
                    ))
                }
                tag => return Err(ProtocolError::UnknownTag { context: "audience flag", tag }),
            };
            Ok(Query::TopK { k, audience })
        }
        TAG_SPREAD => Ok(Query::Spread { seeds: r.u32_list(CTX)? }),
        TAG_MARGINAL => {
            let seeds = r.u32_list(CTX)?;
            let candidate = r.u32(CTX)?;
            Ok(Query::Marginal { seeds, candidate })
        }
        tag => Err(ProtocolError::UnknownTag { context: CTX, tag }),
    }
}

fn put_query_response(out: &mut Vec<u8>, response: &QueryResponse) {
    match response {
        QueryResponse::TopK { seeds, coverage_fraction, estimated_influence } => {
            put_u8(out, TAG_TOP_K);
            put_u32_list(out, seeds);
            put_f64(out, *coverage_fraction);
            put_f64(out, *estimated_influence);
        }
        QueryResponse::Spread { coverage_fraction, estimate } => {
            put_u8(out, TAG_SPREAD);
            put_f64(out, *coverage_fraction);
            put_f64(out, *estimate);
        }
        QueryResponse::Marginal { gain_fraction, gain } => {
            put_u8(out, TAG_MARGINAL);
            put_f64(out, *gain_fraction);
            put_f64(out, *gain);
        }
    }
}

fn get_query_response(r: &mut Reader<'_>) -> Result<QueryResponse, ProtocolError> {
    const CTX: &str = "query response";
    match r.u8(CTX)? {
        TAG_TOP_K => Ok(QueryResponse::TopK {
            seeds: r.u32_list(CTX)?,
            coverage_fraction: r.f64(CTX)?,
            estimated_influence: r.f64(CTX)?,
        }),
        TAG_SPREAD => {
            Ok(QueryResponse::Spread { coverage_fraction: r.f64(CTX)?, estimate: r.f64(CTX)? })
        }
        TAG_MARGINAL => {
            Ok(QueryResponse::Marginal { gain_fraction: r.f64(CTX)?, gain: r.f64(CTX)? })
        }
        tag => Err(ProtocolError::UnknownTag { context: CTX, tag }),
    }
}

// ---------------------------------------------------------------------------
// Messages.

/// Why the daemon refused one query of a batch (its neighbours keep
/// serving — admission is per query, not per connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The postings-size cost estimate exceeds the configured budget.
    OverBudget {
        /// Estimated postings entries the query would walk.
        estimated_cost: u64,
        /// The server's per-query budget.
        budget: u64,
    },
    /// The query names a vertex outside the served index's vertex space
    /// (the in-process engine would panic; the daemon must not).
    InvalidVertex {
        /// The offending vertex id.
        vertex: u32,
        /// Exclusive upper bound of the vertex space.
        num_nodes: u64,
    },
    /// The batch's execution deadline expired before this query ran; its
    /// admitted neighbours that finished in time still answer. Safe to
    /// retry (against a less loaded server or a larger deadline).
    DeadlineExceeded {
        /// How long the batch had been executing when the query was cut.
        elapsed_ms: u64,
        /// The server's configured per-batch deadline.
        deadline_ms: u64,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::OverBudget { estimated_cost, budget } => write!(
                f,
                "query rejected: estimated cost {estimated_cost} exceeds the budget {budget}"
            ),
            Rejection::InvalidVertex { vertex, num_nodes } => {
                write!(f, "query rejected: vertex {vertex} outside the vertex space {num_nodes}")
            }
            Rejection::DeadlineExceeded { elapsed_ms, deadline_ms } => write!(
                f,
                "query cut by the batch deadline: {elapsed_ms} ms elapsed of the \
                 {deadline_ms} ms budget"
            ),
        }
    }
}

/// A request-level failure reported by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded in-flight queue is full; retry later.
    QueueFull {
        /// Requests currently in flight.
        inflight: u64,
        /// The configured bound.
        limit: u64,
    },
    /// `apply_delta` was asked of a static (provenance-free) index.
    NotDynamic,
    /// The delta failed to parse or apply.
    Delta {
        /// Human-readable cause.
        detail: String,
    },
    /// The request was structurally valid but semantically unusable.
    BadRequest {
        /// Human-readable cause.
        detail: String,
    },
    /// The connection sat idle past the server's idle timeout; the
    /// server closes it after this frame (slow-loris shedding). Clients
    /// reconnect on the next call.
    IdleTimeout {
        /// How long the connection had been idle.
        idle_ms: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { inflight, limit } => {
                write!(f, "server saturated: {inflight} requests in flight (limit {limit})")
            }
            ServeError::NotDynamic => write!(
                f,
                "the served index carries no refreshable sampling provenance; rebuild the snapshot with build-index"
            ),
            ServeError::Delta { detail } => write!(f, "delta failed: {detail}"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::IdleTimeout { idle_ms } => {
                write!(f, "connection idle for {idle_ms} ms; the server is closing it")
            }
        }
    }
}

/// What the daemon reports about itself on the `info` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// The served index's label.
    pub label: String,
    /// Number of indexed RRR sets.
    pub theta: u64,
    /// Vertex-space size.
    pub nodes: u64,
    /// Shard count.
    pub shards: u32,
    /// Always 0 — the pinned shard workers it counted are gone; the field
    /// stays for the wire layout (and the frozen spine reads it).
    pub workers: u32,
    /// Completed `apply_delta` rollouts since startup.
    pub rollouts: u64,
    /// Vertices the global postings — the one structure the generation
    /// serves from, whatever the shard count — store as bit rows.
    pub postings_row_vertices: u64,
    /// Bytes of the global postings' rows and row tables.
    pub postings_row_bytes: u64,
    /// `u32` list entries of the global postings.
    pub postings_list_entries: u64,
    /// Bytes of the global postings' lists and offsets.
    pub postings_list_bytes: u64,
}

/// Outcome of a rolling `apply_delta` (mirrors
/// [`imm_service::RefreshStats`] across the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Sets in the index.
    pub total_sets: u64,
    /// Sets resampled by this rollout.
    pub resampled_sets: u64,
    /// Edge insertions applied.
    pub inserted_edges: u64,
    /// Edge deletions applied.
    pub deleted_edges: u64,
    /// Edge reweights applied.
    pub reweighted_edges: u64,
    /// Edge count of the refreshed graph revision.
    pub edges_after: u64,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// A batch of queries answered in order (a single query is a batch
    /// of one).
    Batch(Vec<Query>),
    /// The live process's `imm-obs` registry as JSON.
    Metrics,
    /// Server identity and shape.
    Info,
    /// Apply a graph delta through a graceful rollout.
    ApplyDelta {
        /// Delta in the `update-index` text format (`+ src dst w`, ...).
        text: String,
    },
    /// Stop accepting connections and exit after draining.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Per-query outcomes, in request order.
    Batch(Vec<Result<QueryResponse, Rejection>>),
    /// Answer to [`Request::Metrics`].
    MetricsJson(String),
    /// Answer to [`Request::Info`].
    Info(ServerInfo),
    /// Answer to [`Request::ApplyDelta`].
    DeltaApplied(DeltaOutcome),
    /// Answer to [`Request::Shutdown`].
    ShuttingDown,
    /// The request failed as a whole.
    Error(ServeError),
}

const OP_PING: u8 = 0x01;
const OP_BATCH: u8 = 0x02;
const OP_METRICS: u8 = 0x03;
const OP_INFO: u8 = 0x04;
const OP_APPLY_DELTA: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;

const OP_PONG: u8 = 0x81;
const OP_BATCH_ANSWERS: u8 = 0x82;
const OP_METRICS_JSON: u8 = 0x83;
const OP_INFO_DATA: u8 = 0x84;
const OP_DELTA_APPLIED: u8 = 0x85;
const OP_SHUTTING_DOWN: u8 = 0x86;
const OP_ERROR: u8 = 0xEE;

const ERR_QUEUE_FULL: u8 = 0x00;
const ERR_NOT_DYNAMIC: u8 = 0x01;
const ERR_DELTA: u8 = 0x02;
const ERR_BAD_REQUEST: u8 = 0x03;
const ERR_IDLE_TIMEOUT: u8 = 0x04;
// 0x05 was ERR_DEGRADED (retired with the scatter pool); do not reuse it.

const REJ_OVER_BUDGET: u8 = 0x00;
const REJ_INVALID_VERTEX: u8 = 0x01;
const REJ_DEADLINE: u8 = 0x02;

/// Encode a request payload (frame it with [`write_frame`]).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::Ping => put_u8(&mut out, OP_PING),
        Request::Batch(queries) => {
            put_u8(&mut out, OP_BATCH);
            put_u32(&mut out, queries.len() as u32);
            for q in queries {
                put_query(&mut out, q);
            }
        }
        Request::Metrics => put_u8(&mut out, OP_METRICS),
        Request::Info => put_u8(&mut out, OP_INFO),
        Request::ApplyDelta { text } => {
            put_u8(&mut out, OP_APPLY_DELTA);
            put_str(&mut out, text);
        }
        Request::Shutdown => put_u8(&mut out, OP_SHUTDOWN),
    }
    out
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    const CTX: &str = "request";
    let mut r = Reader::new(payload);
    let request = match r.u8(CTX)? {
        OP_PING => Request::Ping,
        OP_BATCH => {
            // A query is at least 5 bytes (tag + one u32 field).
            let count = r.list_len(5, "query batch")?;
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                queries.push(get_query(&mut r)?);
            }
            Request::Batch(queries)
        }
        OP_METRICS => Request::Metrics,
        OP_INFO => Request::Info,
        OP_APPLY_DELTA => Request::ApplyDelta { text: r.str("delta text")? },
        OP_SHUTDOWN => Request::Shutdown,
        tag => return Err(ProtocolError::UnknownTag { context: CTX, tag }),
    };
    r.finish(CTX)?;
    Ok(request)
}

fn put_rejection(out: &mut Vec<u8>, rejection: &Rejection) {
    match rejection {
        Rejection::OverBudget { estimated_cost, budget } => {
            put_u8(out, REJ_OVER_BUDGET);
            put_u64(out, *estimated_cost);
            put_u64(out, *budget);
        }
        Rejection::InvalidVertex { vertex, num_nodes } => {
            put_u8(out, REJ_INVALID_VERTEX);
            put_u32(out, *vertex);
            put_u64(out, *num_nodes);
        }
        Rejection::DeadlineExceeded { elapsed_ms, deadline_ms } => {
            put_u8(out, REJ_DEADLINE);
            put_u64(out, *elapsed_ms);
            put_u64(out, *deadline_ms);
        }
    }
}

fn get_rejection(r: &mut Reader<'_>) -> Result<Rejection, ProtocolError> {
    const CTX: &str = "rejection";
    match r.u8(CTX)? {
        REJ_OVER_BUDGET => {
            Ok(Rejection::OverBudget { estimated_cost: r.u64(CTX)?, budget: r.u64(CTX)? })
        }
        REJ_INVALID_VERTEX => {
            Ok(Rejection::InvalidVertex { vertex: r.u32(CTX)?, num_nodes: r.u64(CTX)? })
        }
        REJ_DEADLINE => {
            Ok(Rejection::DeadlineExceeded { elapsed_ms: r.u64(CTX)?, deadline_ms: r.u64(CTX)? })
        }
        tag => Err(ProtocolError::UnknownTag { context: CTX, tag }),
    }
}

fn put_serve_error(out: &mut Vec<u8>, error: &ServeError) {
    match error {
        ServeError::QueueFull { inflight, limit } => {
            put_u8(out, ERR_QUEUE_FULL);
            put_u64(out, *inflight);
            put_u64(out, *limit);
        }
        ServeError::NotDynamic => put_u8(out, ERR_NOT_DYNAMIC),
        ServeError::Delta { detail } => {
            put_u8(out, ERR_DELTA);
            put_str(out, detail);
        }
        ServeError::BadRequest { detail } => {
            put_u8(out, ERR_BAD_REQUEST);
            put_str(out, detail);
        }
        ServeError::IdleTimeout { idle_ms } => {
            put_u8(out, ERR_IDLE_TIMEOUT);
            put_u64(out, *idle_ms);
        }
    }
}

fn get_serve_error(r: &mut Reader<'_>) -> Result<ServeError, ProtocolError> {
    const CTX: &str = "server error";
    match r.u8(CTX)? {
        ERR_QUEUE_FULL => Ok(ServeError::QueueFull { inflight: r.u64(CTX)?, limit: r.u64(CTX)? }),
        ERR_NOT_DYNAMIC => Ok(ServeError::NotDynamic),
        ERR_DELTA => Ok(ServeError::Delta { detail: r.str(CTX)? }),
        ERR_BAD_REQUEST => Ok(ServeError::BadRequest { detail: r.str(CTX)? }),
        ERR_IDLE_TIMEOUT => Ok(ServeError::IdleTimeout { idle_ms: r.u64(CTX)? }),
        tag => Err(ProtocolError::UnknownTag { context: CTX, tag }),
    }
}

/// Encode a response payload (frame it with [`write_frame`]).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::Pong => put_u8(&mut out, OP_PONG),
        Response::Batch(outcomes) => {
            put_u8(&mut out, OP_BATCH_ANSWERS);
            put_u32(&mut out, outcomes.len() as u32);
            for outcome in outcomes {
                match outcome {
                    Ok(response) => {
                        put_u8(&mut out, 0);
                        put_query_response(&mut out, response);
                    }
                    Err(rejection) => {
                        put_u8(&mut out, 1);
                        put_rejection(&mut out, rejection);
                    }
                }
            }
        }
        Response::MetricsJson(json) => {
            put_u8(&mut out, OP_METRICS_JSON);
            put_str(&mut out, json);
        }
        Response::Info(info) => {
            put_u8(&mut out, OP_INFO_DATA);
            put_str(&mut out, &info.label);
            put_u64(&mut out, info.theta);
            put_u64(&mut out, info.nodes);
            put_u32(&mut out, info.shards);
            put_u32(&mut out, info.workers);
            put_u64(&mut out, info.rollouts);
            put_u64(&mut out, info.postings_row_vertices);
            put_u64(&mut out, info.postings_row_bytes);
            put_u64(&mut out, info.postings_list_entries);
            put_u64(&mut out, info.postings_list_bytes);
        }
        Response::DeltaApplied(outcome) => {
            put_u8(&mut out, OP_DELTA_APPLIED);
            put_u64(&mut out, outcome.total_sets);
            put_u64(&mut out, outcome.resampled_sets);
            put_u64(&mut out, outcome.inserted_edges);
            put_u64(&mut out, outcome.deleted_edges);
            put_u64(&mut out, outcome.reweighted_edges);
            put_u64(&mut out, outcome.edges_after);
        }
        Response::ShuttingDown => put_u8(&mut out, OP_SHUTTING_DOWN),
        Response::Error(error) => {
            put_u8(&mut out, OP_ERROR);
            put_serve_error(&mut out, error);
        }
    }
    out
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    const CTX: &str = "response";
    let mut r = Reader::new(payload);
    let response = match r.u8(CTX)? {
        OP_PONG => Response::Pong,
        OP_BATCH_ANSWERS => {
            // An outcome is at least 2 bytes (ok/err flag + a tag).
            let count = r.list_len(2, "batch answers")?;
            let mut outcomes = Vec::with_capacity(count);
            for _ in 0..count {
                outcomes.push(match r.u8("batch outcome flag")? {
                    0 => Ok(get_query_response(&mut r)?),
                    1 => Err(get_rejection(&mut r)?),
                    tag => {
                        return Err(ProtocolError::UnknownTag {
                            context: "batch outcome flag",
                            tag,
                        })
                    }
                });
            }
            Response::Batch(outcomes)
        }
        OP_METRICS_JSON => Response::MetricsJson(r.str("metrics json")?),
        OP_INFO_DATA => Response::Info(ServerInfo {
            label: r.str("server info")?,
            theta: r.u64(CTX)?,
            nodes: r.u64(CTX)?,
            shards: r.u32(CTX)?,
            workers: r.u32(CTX)?,
            rollouts: r.u64(CTX)?,
            postings_row_vertices: r.u64(CTX)?,
            postings_row_bytes: r.u64(CTX)?,
            postings_list_entries: r.u64(CTX)?,
            postings_list_bytes: r.u64(CTX)?,
        }),
        OP_DELTA_APPLIED => Response::DeltaApplied(DeltaOutcome {
            total_sets: r.u64(CTX)?,
            resampled_sets: r.u64(CTX)?,
            inserted_edges: r.u64(CTX)?,
            deleted_edges: r.u64(CTX)?,
            reweighted_edges: r.u64(CTX)?,
            edges_after: r.u64(CTX)?,
        }),
        OP_SHUTTING_DOWN => Response::ShuttingDown,
        OP_ERROR => Response::Error(get_serve_error(&mut r)?),
        tag => return Err(ProtocolError::UnknownTag { context: CTX, tag }),
    };
    r.finish(CTX)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let audience = BitSet::from_iter_with_capacity(40, [1, 7, 39]);
        let requests = [
            Request::Ping,
            Request::Batch(vec![
                Query::top_k(5),
                Query::audience_top_k(3, audience),
                Query::Spread { seeds: vec![1, 2, 3] },
                Query::Marginal { seeds: vec![9], candidate: 4 },
            ]),
            Request::Metrics,
            Request::Info,
            Request::ApplyDelta { text: "+ 1 2 0.5\n".into() },
            Request::Shutdown,
        ];
        for request in requests {
            let decoded = decode_request(&encode_request(&request)).expect("round trip");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn response_round_trip_preserves_f64_bits() {
        let tricky = f64::from_bits(0x7FF0_0000_0000_0001); // a signalling NaN payload
        let responses = [
            Response::Pong,
            Response::Batch(vec![
                Ok(QueryResponse::TopK {
                    seeds: vec![3, 1],
                    coverage_fraction: 0.1 + 0.2, // not representable exactly
                    estimated_influence: tricky,
                }),
                Err(Rejection::OverBudget { estimated_cost: 10, budget: 4 }),
                Err(Rejection::InvalidVertex { vertex: 7, num_nodes: 5 }),
                Err(Rejection::DeadlineExceeded { elapsed_ms: 120, deadline_ms: 100 }),
                Ok(QueryResponse::Spread { coverage_fraction: -0.0, estimate: f64::INFINITY }),
                Ok(QueryResponse::Marginal { gain_fraction: f64::MIN_POSITIVE, gain: 1e-308 }),
            ]),
            Response::MetricsJson("{\"metrics\":[]}".into()),
            Response::Info(ServerInfo {
                label: "fixture".into(),
                theta: 150,
                nodes: 120,
                shards: 4,
                workers: 3,
                rollouts: 2,
                postings_row_vertices: 110,
                postings_row_bytes: 4_400,
                postings_list_entries: 37,
                postings_list_bytes: 1_120,
            }),
            Response::DeltaApplied(DeltaOutcome {
                total_sets: 150,
                resampled_sets: 12,
                inserted_edges: 2,
                deleted_edges: 1,
                reweighted_edges: 1,
                edges_after: 599,
            }),
            Response::ShuttingDown,
            Response::Error(ServeError::QueueFull { inflight: 64, limit: 64 }),
            Response::Error(ServeError::NotDynamic),
            Response::Error(ServeError::Delta { detail: "row 3: bad weight".into() }),
            Response::Error(ServeError::BadRequest { detail: "empty".into() }),
            Response::Error(ServeError::IdleTimeout { idle_ms: 30_000 }),
        ];
        for response in responses {
            let decoded = decode_response(&encode_response(&response)).expect("round trip");
            // `==` on QueryResponse compares floats by value; additionally
            // pin the raw bits for the NaN-payload case.
            match (&decoded, &response) {
                (Response::Batch(a), Response::Batch(b)) => {
                    for (x, y) in a.iter().zip(b.iter()) {
                        match (x, y) {
                            (
                                Ok(QueryResponse::TopK { estimated_influence: ax, .. }),
                                Ok(QueryResponse::TopK { estimated_influence: bx, .. }),
                            ) => assert_eq!(ax.to_bits(), bx.to_bits()),
                            (x, y) => assert_eq!(x, y),
                        }
                    }
                }
                (decoded, response) => assert_eq!(decoded, response),
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = encode_request(&Request::Batch(vec![Query::top_k(3)]));
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("write");
        let mut cursor = io::Cursor::new(wire);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("read") {
            FrameRead::Frame(read_back) => assert_eq!(read_back, payload),
            other => panic!("expected a frame, got {other:?}"),
        }
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("read at eof") {
            FrameRead::Eof => {}
            other => panic!("expected eof, got {other:?}"),
        }
    }
}
