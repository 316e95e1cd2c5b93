//! # imm-serve
//!
//! Out-of-process serving: a long-running shard-server daemon speaking a
//! small length-prefixed binary protocol over unix or TCP sockets.
//!
//! `imm-shard` serves queries inside one process; this crate is the
//! step across the process boundary. One server process serves an
//! [`imm_shard::ShardedIndex`] through an [`imm_shard::ShardedEngine`]
//! — the query engine over the base index — behind a coordinator loop
//! that accepts connections, decodes framed requests, and hands them to
//! the engine — the control-plane/data-plane split of a dataplane daemon
//! (`ctl.rs` vs `io.rs`), with the RPC surface as the control plane and
//! the engine as the data plane.
//!
//! * [`protocol`] — the wire format: magic + version + `u32`
//!   length-prefixed frames, a defensive decoder (a hostile length
//!   prefix cannot drive an allocation, a truncated or garbage frame is
//!   a structured [`ProtocolError`], never a panic or a hang), and
//!   bit-exact [`Query`](imm_service::Query) /
//!   [`QueryResponse`](imm_service::QueryResponse) codecs (`f64`s
//!   travel as raw bits), so a remote answer is **byte-identical** to
//!   the in-process engine's, which the `daemon/unix` and `daemon/tcp`
//!   rows of the conformance matrix (`tests/conformance.rs`) pin.
//! * [`admission`] — per-query cost estimates from the global postings'
//!   sizes feeding admission control: over-budget queries get a
//!   structured [`Rejection`] while in-budget
//!   traffic keeps serving, and a bounded in-flight counter sheds whole
//!   requests with a structured queue-full error instead of queueing
//!   without limit.
//! * [`server`] — the daemon: a blocking accept loop + per-connection
//!   threads and no other thread (a connection's read timeout is its idle
//!   timeout, and admission records the in-flight peak as it claims a
//!   slot), a `metrics` RPC verb exposing the live process's `imm-obs`
//!   registry, and graceful `apply_delta` rollout — the replacement index
//!   is refreshed off to the side and swapped in atomically with a new
//!   engine over it, so queries keep serving on the old generation until
//!   the swap.
//! * [`client`] — the one blocking client: it dials lazily, retries
//!   idempotent verbs under a [`RetryPolicy`], and serves the CLI `client`
//!   subcommand and the conformance matrix's daemon rows.

pub mod admission;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use admission::{Admission, CostModel};
pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{
    DeltaOutcome, ProtocolError, Rejection, Request, Response, ServeError, ServerInfo,
    DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{Listen, Server, ServerConfig, ServerHandle};
