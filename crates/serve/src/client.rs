//! The blocking client of the serving daemon.
//!
//! One [`Client`] talks to one daemon address through a strict
//! request/response exchange per call. The CLI `client` subcommand and the
//! `daemon/unix` and `daemon/tcp` rows of the conformance matrix
//! (`tests/conformance.rs`) speak through it, so its decode path is the
//! same defensive [`protocol`] decoder the server uses — a hostile or
//! broken server cannot make a client panic, hang, or over-allocate.
//!
//! # Failure taxonomy
//!
//! Transport failures are *typed*, because retry policy differs by kind:
//!
//! * [`ClientError::ConnectionLost`] — the connection died mid-exchange
//!   (reset, broken pipe, EOF before the reply, mid-frame truncation).
//!   The request may or may not have executed; only idempotent requests
//!   are safe to retry.
//! * [`ClientError::TimedOut`] — the configured request timeout expired
//!   with no reply. Same retry caveat.
//! * [`ClientError::Server`] — the daemon answered with a structured
//!   error; [`ServeError::QueueFull`] is explicitly retryable and an
//!   [`ServeError::IdleTimeout`] heals on reconnect, the rest are not.
//!
//! The [`RetryPolicy`] encodes that policy: capped exponential backoff
//! with deterministic jitter, a lifetime retry budget, reconnection on
//! lost connections (so a daemon restart is survivable), and retries only
//! for idempotent verbs (`ping`, `batch`, `metrics`, `info` — never
//! `apply_delta` or `shutdown`). With `attempts: 1` the client makes one
//! attempt per call and surfaces the first failure.

use crate::metrics as smetrics;
use crate::protocol::{
    self, DeltaOutcome, FrameRead, ProtocolError, Rejection, Request, Response, ServeError,
    ServerInfo, DEFAULT_MAX_FRAME_LEN,
};
use crate::server::{Listen, Stream};
use imm_service::{Query, QueryResponse};
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

/// The pause between two dials inside the readiness window.
const DIAL_GAP: Duration = Duration::from_millis(1);

/// Bound on one dial (TCP; a unix socket connects or fails at once).
const DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// Cap on one backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Lifetime retry budget across all calls of one client: a flapping daemon
/// degrades to fast failures instead of an unbounded retry storm.
const RETRY_BUDGET: u32 = 64;

/// Seed of the deterministic backoff jitter, so every run of a client
/// replays the same schedule (nonzero: xorshift never leaves 0).
const JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything a call can fail with, client-side.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach the daemon.
    Connect(io::Error),
    /// Transport or framing failure mid-exchange.
    Protocol(ProtocolError),
    /// The connection died mid-exchange (reset, broken pipe, EOF before
    /// the reply): the request may or may not have executed server-side,
    /// so only idempotent requests are safe to retry.
    ConnectionLost {
        /// What the transport reported.
        detail: String,
    },
    /// The request timeout expired with no reply.
    TimedOut {
        /// The timeout that expired.
        waited: Duration,
    },
    /// The daemon reported a request-level error.
    Server(ServeError),
    /// The daemon answered with a verb that does not match the request.
    Unexpected {
        /// What the call was waiting for.
        expected: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "could not connect to the daemon: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ClientError::ConnectionLost { detail } => {
                write!(f, "connection to the daemon lost mid-exchange: {detail}")
            }
            ClientError::TimedOut { waited } => {
                write!(f, "no reply from the daemon within {} ms", waited.as_millis())
            }
            ClientError::Server(e) => write!(f, "the daemon refused the request: {e}"),
            ClientError::Unexpected { expected } => {
                write!(f, "the daemon answered with the wrong verb (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        // Mid-exchange transport deaths and truncation are a lost
        // connection (typed, so retry policy can reason about them);
        // grammar violations stay protocol errors.
        match e {
            ProtocolError::Io(ref io_err) if is_connection_loss(io_err.kind()) => {
                ClientError::ConnectionLost { detail: e.to_string() }
            }
            ProtocolError::Truncated { .. } => {
                ClientError::ConnectionLost { detail: e.to_string() }
            }
            other => ClientError::Protocol(other),
        }
    }
}

/// IO error kinds that mean the peer (or the path to it) is gone, as
/// opposed to a local or semantic failure.
fn is_connection_loss(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
    )
}

/// How a [`Client`] dials, waits and retries. Every dial is bounded by
/// 5 s, one backoff sleep by 500 ms, and a client's lifetime retries by 64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per idempotent call (first try included); 1 retries
    /// nothing.
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Bound on each request/response exchange and socket write; `None`
    /// waits forever.
    pub request_timeout: Option<Duration>,
    /// Readiness window: the client's first dial is retried every
    /// millisecond for this long, for a daemon still binding its socket.
    /// Zero dials once.
    pub wait: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(10),
            request_timeout: Some(Duration::from_secs(30)),
            wait: Duration::ZERO,
        }
    }
}

/// Is this failure worth a retry *for an idempotent request*?
///
/// Lost connections and timeouts leave the request's fate unknown;
/// [`ServeError::QueueFull`] is the daemon explicitly saying "retry me";
/// [`ServeError::IdleTimeout`] is a structured close that a reconnect
/// heals. Everything else (protocol garbage, admission rejections, bad
/// requests) retries the same way it failed, so it is not retried.
fn retryable(error: &ClientError) -> bool {
    matches!(
        error,
        ClientError::Connect(_)
            | ClientError::ConnectionLost { .. }
            | ClientError::TimedOut { .. }
            | ClientError::Server(ServeError::QueueFull { .. })
            | ClientError::Server(ServeError::IdleTimeout { .. })
    )
}

/// Does this failure invalidate the connection (forcing a reconnect on
/// the next attempt)?
fn connection_dead(error: &ClientError) -> bool {
    matches!(
        error,
        ClientError::Connect(_)
            | ClientError::ConnectionLost { .. }
            | ClientError::TimedOut { .. }
            | ClientError::Protocol(_)
            | ClientError::Server(ServeError::IdleTimeout { .. })
    )
}

/// A blocking client of one daemon address. It dials on its first call,
/// redials after a failure that killed the connection (including a daemon
/// restart), retries idempotent verbs under its [`RetryPolicy`], and gives
/// the non-idempotent ones (`apply_delta`, `shutdown`) exactly one attempt —
/// their fate on a lost connection is unknown, and guessing is worse than
/// reporting.
pub struct Client {
    address: Listen,
    policy: RetryPolicy,
    /// Under an installed fault plan the wrapper injects socket faults
    /// client-side too; a transparent no-op otherwise. `None` before the
    /// first dial and after a failure that killed the connection.
    stream: Option<imm_fault::FaultyIo<Stream>>,
    budget_left: u32,
    jitter: u64,
}

impl Client {
    /// A lazy client: the first call dials.
    pub fn new(address: Listen, policy: RetryPolicy) -> Self {
        Client { address, policy, stream: None, budget_left: RETRY_BUDGET, jitter: JITTER_SEED }
    }

    /// Retries left in the lifetime budget.
    pub fn budget_left(&self) -> u32 {
        self.budget_left
    }

    /// The live connection, dialing one if there is none: the first dial
    /// retries every millisecond inside the readiness window, a redial
    /// dials once.
    fn stream(&mut self) -> Result<&mut imm_fault::FaultyIo<Stream>, ClientError> {
        if self.stream.is_none() {
            // The readiness window is spent on the first dial.
            let deadline = Instant::now() + std::mem::take(&mut self.policy.wait);
            let stream = loop {
                match Stream::connect(&self.address, DIAL_TIMEOUT) {
                    Ok(stream) => break stream,
                    Err(e) if Instant::now() >= deadline => return Err(ClientError::Connect(e)),
                    Err(_) => std::thread::sleep(DIAL_GAP),
                }
            };
            let timeout = self.policy.request_timeout;
            stream
                .set_read_timeout(timeout)
                .and_then(|()| stream.set_write_timeout(timeout))
                .map_err(|e| ClientError::Protocol(ProtocolError::Io(e)))?;
            self.stream = Some(imm_fault::FaultyIo::new(stream, "client.conn"));
        }
        Ok(self.stream.as_mut().expect("just dialed"))
    }

    /// One exchange of an encoded request, surfacing a server-reported
    /// error as [`ClientError::Server`].
    fn exchange(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        let waited = self.policy.request_timeout.unwrap_or(Duration::ZERO);
        let stream = self.stream()?;
        protocol::write_frame(stream, frame).map_err(|e| {
            if is_connection_loss(e.kind()) {
                ClientError::ConnectionLost { detail: e.to_string() }
            } else {
                ClientError::Protocol(ProtocolError::Io(e))
            }
        })?;
        match protocol::read_frame(stream, DEFAULT_MAX_FRAME_LEN) {
            Ok(FrameRead::Frame(payload)) => match protocol::decode_response(&payload)? {
                Response::Error(e) => Err(ClientError::Server(e)),
                response => Ok(response),
            },
            // EOF after the request went out: the daemon (or the path to
            // it) died with the exchange open.
            Ok(FrameRead::Eof) => Err(ClientError::ConnectionLost {
                detail: "the daemon closed the connection before replying".into(),
            }),
            // A read timeout with no frame started: the request timeout
            // expired (only reachable when one is set).
            Ok(FrameRead::Idle) => Err(ClientError::TimedOut { waited }),
            Err(e) => Err(e.into()),
        }
    }

    /// Deterministic jittered exponential backoff: `base * 2^(attempt-1)`
    /// capped at [`MAX_BACKOFF`], plus up to half of itself in xorshift
    /// jitter (decorrelates a fleet of clients hammering one daemon).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self.policy.base_backoff.saturating_mul(1u32 << exp);
        let capped = raw.min(MAX_BACKOFF);
        // xorshift64
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let half = capped.as_nanos() as u64 / 2;
        let jitter_ns = if half == 0 { 0 } else { self.jitter % half };
        capped + Duration::from_nanos(jitter_ns)
    }

    /// Send `request` under the policy: an idempotent one retries until it
    /// succeeds, fails unretryably, runs out of attempts or drains the
    /// budget; `apply_delta` and `shutdown` get one attempt.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let frame = protocol::encode_request(request);
        let idempotent = !matches!(request, Request::ApplyDelta { .. } | Request::Shutdown);
        let attempts = if idempotent { self.policy.attempts.max(1) } else { 1 };
        let mut attempt = 1u32;
        loop {
            let error = match self.exchange(&frame) {
                Ok(response) => return Ok(response),
                Err(error) => error,
            };
            if connection_dead(&error) {
                self.stream = None;
            }
            if !retryable(&error) || attempt >= attempts || self.budget_left == 0 {
                return Err(error);
            }
            self.budget_left -= 1;
            smetrics::RETRIES.increment();
            std::thread::sleep(self.backoff(attempt));
            attempt += 1;
        }
    }

    /// Liveness probe (idempotent; retried).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected { expected: "pong" }),
        }
    }

    /// Serve a batch of queries; each answer slot is the engine's
    /// byte-identical response or a structured admission rejection
    /// (idempotent; retried — queries never mutate the served index).
    pub fn batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryResponse, Rejection>>, ClientError> {
        match self.call(&Request::Batch(queries.to_vec()))? {
            Response::Batch(outcomes) => Ok(outcomes),
            _ => Err(ClientError::Unexpected { expected: "batch answers" }),
        }
    }

    /// The daemon's live metrics registry as JSON (idempotent; retried).
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsJson(json) => Ok(json),
            _ => Err(ClientError::Unexpected { expected: "metrics json" }),
        }
    }

    /// Server identity and shape (idempotent; retried).
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.call(&Request::Info)? {
            Response::Info(info) => Ok(info),
            _ => Err(ClientError::Unexpected { expected: "server info" }),
        }
    }

    /// Apply a delta (`update-index` text format) through a graceful
    /// rollout — NOT idempotent (a delta applied twice is a different
    /// index), so exactly one attempt.
    pub fn apply_delta(&mut self, text: &str) -> Result<DeltaOutcome, ClientError> {
        match self.call(&Request::ApplyDelta { text: text.into() })? {
            Response::DeltaApplied(outcome) => Ok(outcome),
            _ => Err(ClientError::Unexpected { expected: "delta outcome" }),
        }
    }

    /// Ask the daemon to drain and exit (one attempt).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected { expected: "shutdown ack" }),
        }
    }
}
