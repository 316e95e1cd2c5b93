//! Blocking client for the serving daemon, plus the retrying client the
//! fault-tolerant callers use.
//!
//! One [`Client`] owns one connection and runs a strict
//! request/response exchange per call. The CLI `client` subcommand, the
//! spine's load generator, and the socket parity suite all speak through
//! this type, so its decode path is the same defensive
//! [`protocol`] decoder the server uses — a hostile or
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
//! [`RetryClient`] encodes that policy: capped exponential backoff with
//! deterministic jitter, a lifetime retry budget, reconnection on lost
//! connections (so a daemon restart is survivable), and retries only
//! for idempotent verbs (`ping`, `batch`, `metrics`, `info` — never
//! `apply_delta` or `shutdown`).

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

/// The pause between two dials of [`Client::connect_with_retry`].
const DIAL_GAP: Duration = Duration::from_millis(1);

/// Everything a call can fail with, client-side.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach the daemon.
    Connect(io::Error),
    /// Transport or framing failure mid-exchange.
    Protocol(ProtocolError),
    /// The daemon closed the connection instead of answering.
    Closed,
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
            ClientError::Closed => write!(f, "the daemon closed the connection"),
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

/// A blocking connection to a serving daemon.
pub struct Client {
    /// Under an installed fault plan the wrapper injects socket faults
    /// client-side too; a transparent no-op otherwise.
    stream: imm_fault::FaultyIo<Stream>,
    request_timeout: Option<Duration>,
}

impl Client {
    /// Connect once.
    pub fn connect(address: &Listen) -> Result<Self, ClientError> {
        let stream = Stream::connect(address).map_err(ClientError::Connect)?;
        Ok(Client {
            stream: imm_fault::FaultyIo::new(stream, "client.conn"),
            request_timeout: None,
        })
    }

    /// Connect with a bound on the dial itself (TCP; unix sockets
    /// connect or fail immediately).
    pub fn connect_timeout(address: &Listen, timeout: Duration) -> Result<Self, ClientError> {
        let stream = Stream::connect_timeout(address, timeout).map_err(ClientError::Connect)?;
        Ok(Client {
            stream: imm_fault::FaultyIo::new(stream, "client.conn"),
            request_timeout: None,
        })
    }

    /// Connect, retrying every millisecond for up to `wait` — the
    /// readiness gate for a daemon that is still binding its socket. The
    /// daemon accepts a connection the moment it arrives, so the gap
    /// between dials is all a readiness gate adds.
    pub fn connect_with_retry(address: &Listen, wait: Duration) -> Result<Self, ClientError> {
        let deadline = Instant::now() + wait;
        loop {
            match Self::connect(address) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(DIAL_GAP),
            }
        }
    }

    /// Bound every subsequent exchange: a reply that takes longer than
    /// `timeout` fails with [`ClientError::TimedOut`] instead of
    /// blocking forever. Also bounds socket writes. `None` restores
    /// fully blocking exchanges.
    pub fn set_request_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        let stream = self.stream.get_ref();
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| ClientError::Protocol(ProtocolError::Io(e)))?;
        self.request_timeout = timeout;
        Ok(())
    }

    /// One raw request/response exchange.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        protocol::write_frame(&mut self.stream, &protocol::encode_request(request)).map_err(
            |e| {
                if is_connection_loss(e.kind()) {
                    ClientError::ConnectionLost { detail: e.to_string() }
                } else {
                    ClientError::Protocol(ProtocolError::Io(e))
                }
            },
        )?;
        match protocol::read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN) {
            Ok(FrameRead::Frame(payload)) => Ok(protocol::decode_response(&payload)?),
            // EOF after the request went out: the daemon (or the path to
            // it) died with the exchange open.
            Ok(FrameRead::Eof) => Err(ClientError::ConnectionLost {
                detail: "the daemon closed the connection before replying".into(),
            }),
            // A read timeout with no frame started: the request timeout
            // expired (only reachable when one is set).
            Ok(FrameRead::Idle) => Err(ClientError::TimedOut {
                waited: self.request_timeout.unwrap_or(Duration::ZERO),
            }),
            Err(e) => Err(e.into()),
        }
    }

    /// Call, surfacing a server-reported error as [`ClientError::Server`].
    fn checked(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.call(request)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            response => Ok(response),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.checked(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected { expected: "pong" }),
        }
    }

    /// Serve a batch of queries; each answer slot is the engine's
    /// byte-identical response or a structured admission rejection.
    pub fn batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryResponse, Rejection>>, ClientError> {
        match self.checked(&Request::Batch(queries.to_vec()))? {
            Response::Batch(outcomes) => Ok(outcomes),
            _ => Err(ClientError::Unexpected { expected: "batch answers" }),
        }
    }

    /// The daemon's live metrics registry as JSON.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        match self.checked(&Request::Metrics)? {
            Response::MetricsJson(json) => Ok(json),
            _ => Err(ClientError::Unexpected { expected: "metrics json" }),
        }
    }

    /// Server identity and shape.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.checked(&Request::Info)? {
            Response::Info(info) => Ok(info),
            _ => Err(ClientError::Unexpected { expected: "server info" }),
        }
    }

    /// Apply a delta (`update-index` text format) through a graceful
    /// rollout.
    pub fn apply_delta(&mut self, text: &str) -> Result<DeltaOutcome, ClientError> {
        match self.checked(&Request::ApplyDelta { text: text.into() })? {
            Response::DeltaApplied(outcome) => Ok(outcome),
            _ => Err(ClientError::Unexpected { expected: "delta outcome" }),
        }
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.checked(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected { expected: "shutdown ack" }),
        }
    }
}

/// Retry policy of a [`RetryClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per idempotent call (first try included).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on one backoff sleep.
    pub max_backoff: Duration,
    /// Lifetime retry budget across all calls of one client: a flapping
    /// daemon degrades to fast failures instead of an unbounded retry
    /// storm.
    pub budget: u32,
    /// Bound on each dial (TCP); `None` dials blocking.
    pub connect_timeout: Option<Duration>,
    /// Bound on each request/response exchange; `None` waits forever.
    pub request_timeout: Option<Duration>,
    /// Seed of the deterministic backoff jitter (so tests and the chaos
    /// harness replay identical schedules).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            budget: 64,
            connect_timeout: Some(Duration::from_secs(5)),
            request_timeout: Some(Duration::from_secs(30)),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
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
            | ClientError::Closed
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
            | ClientError::Closed
            | ClientError::Protocol(_)
            | ClientError::Server(ServeError::IdleTimeout { .. })
    )
}

/// A [`Client`] wrapper that survives transient failure: reconnects on
/// lost connections (including a daemon restart), retries idempotent
/// verbs with capped exponential backoff and deterministic jitter, and
/// spends a bounded lifetime retry budget. Non-idempotent verbs
/// (`apply_delta`, `shutdown`) get exactly one attempt — their fate on
/// a lost connection is unknown, and guessing is worse than reporting.
pub struct RetryClient {
    address: Listen,
    policy: RetryPolicy,
    inner: Option<Client>,
    budget_left: u32,
    jitter: u64,
}

impl RetryClient {
    /// A lazy client: the first call dials.
    pub fn new(address: Listen, policy: RetryPolicy) -> Self {
        let budget_left = policy.budget;
        let jitter = policy.jitter_seed | 1; // xorshift must not start at 0
        RetryClient { address, policy, inner: None, budget_left, jitter }
    }

    /// The address this client dials.
    pub fn address(&self) -> &Listen {
        &self.address
    }

    /// Retries left in the lifetime budget.
    pub fn budget_left(&self) -> u32 {
        self.budget_left
    }

    fn connect(&mut self) -> Result<&mut Client, ClientError> {
        if self.inner.is_none() {
            let mut client = match self.policy.connect_timeout {
                Some(timeout) => Client::connect_timeout(&self.address, timeout)?,
                None => Client::connect(&self.address)?,
            };
            client.set_request_timeout(self.policy.request_timeout)?;
            self.inner = Some(client);
        }
        Ok(self.inner.as_mut().expect("just connected"))
    }

    /// Deterministic jittered exponential backoff: `base * 2^(attempt-1)`
    /// capped at `max_backoff`, plus up to half of itself in xorshift
    /// jitter (decorrelates a fleet of clients hammering one daemon).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self.policy.base_backoff.saturating_mul(1u32 << exp);
        let capped = raw.min(self.policy.max_backoff);
        // xorshift64
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let half = capped.as_nanos() as u64 / 2;
        let jitter_ns = if half == 0 { 0 } else { self.jitter % half };
        capped + Duration::from_nanos(jitter_ns)
    }

    /// Run one idempotent exchange with the full retry loop.
    fn call_idempotent<T>(
        &mut self,
        exchange: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 1u32;
        loop {
            let result = self.connect().and_then(&exchange);
            let error = match result {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            if connection_dead(&error) {
                self.inner = None;
            }
            if !retryable(&error) || attempt >= self.policy.attempts.max(1) || self.budget_left == 0
            {
                return Err(error);
            }
            self.budget_left -= 1;
            smetrics::RETRIES.increment();
            std::thread::sleep(self.backoff(attempt));
            attempt += 1;
        }
    }

    /// Run one non-idempotent exchange: a single attempt, no retry (the
    /// connection is still re-dialed if a previous call left it dead).
    fn call_once<T>(
        &mut self,
        exchange: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let result = self.connect().and_then(exchange);
        if let Err(error) = &result {
            if connection_dead(error) {
                self.inner = None;
            }
        }
        result
    }

    /// Liveness probe (idempotent; retried).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call_idempotent(|c| c.ping())
    }

    /// Serve a batch of queries (idempotent; retried — queries never
    /// mutate the served index).
    pub fn batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryResponse, Rejection>>, ClientError> {
        self.call_idempotent(|c| c.batch(queries))
    }

    /// The daemon's live metrics registry as JSON (idempotent; retried).
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        self.call_idempotent(|c| c.metrics_json())
    }

    /// Server identity and shape (idempotent; retried).
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        self.call_idempotent(|c| c.info())
    }

    /// Apply a delta — NOT idempotent (a delta applied twice is a
    /// different index), so exactly one attempt.
    pub fn apply_delta(&mut self, text: &str) -> Result<DeltaOutcome, ClientError> {
        self.call_once(|c| c.apply_delta(text))
    }

    /// Ask the daemon to drain and exit (one attempt).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call_once(|c| c.shutdown())
    }
}
