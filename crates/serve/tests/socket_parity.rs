//! The daemon's admission and lifecycle contracts. Over-budget queries are
//! rejected with structured costs while their cheap neighbours keep serving
//! byte-identically, a full in-flight queue sheds whole requests, a static
//! daemon refuses rollouts, and on both transports a connection is accepted
//! the moment it arrives and shutdown waits on neither an idle connection
//! nor one stalled inside a frame. Answer parity over unix sockets and TCP,
//! across rollouts, is a row of the conformance matrix
//! (`tests/conformance.rs` at the workspace root).

use imm_diffusion::DiffusionModel;
use imm_graph::{generators, CsrGraph, EdgeWeights};
use imm_serve::protocol::{encode_request, write_frame, FRAME_HEADER_LEN};
use imm_serve::{
    Client, ClientError, CostModel, Listen, Rejection, Request, RetryPolicy, ServeError, Server,
    ServerConfig, ServerHandle,
};
use imm_service::{Query, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const THETA: usize = 150;

fn fixture() -> (CsrGraph, EdgeWeights, SketchIndex) {
    let mut rng = SmallRng::seed_from_u64(0xA5);
    let graph = CsrGraph::from_edge_list(&generators::social_network(120, 5, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0x5EED);
    let index =
        SketchIndex::sample(&graph, &weights, spec, THETA, 2, "socket-parity").expect("sample");
    (graph, weights, index)
}

fn unix_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imm_serve_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// A client that surfaces the first failure of a call.
fn connect(address: &Listen) -> Client {
    Client::new(address.clone(), RetryPolicy { attempts: 1, ..RetryPolicy::default() })
}

fn start(index: &SketchIndex, shards: usize, config: ServerConfig) -> ServerHandle {
    let sharded = ShardedIndex::from_index(index.clone(), shards).expect("shardable");
    Server::start(Arc::new(sharded), None, config, || "{}".into()).expect("server starts")
}

/// Admission control: a budget between the cheap and expensive query
/// costs rejects exactly the expensive ones — with the estimate and the
/// budget in the rejection — while the cheap ones keep serving
/// byte-identically. Invalid vertices are structured rejections too (the
/// in-process engine would panic; the daemon must not).
#[test]
fn over_budget_queries_are_rejected_while_cheap_ones_serve() {
    let (graph, _weights, index) = fixture();
    let sharded = ShardedIndex::from_index(index.clone(), 2).expect("shardable");
    let cost_model = CostModel::from_index(&sharded);

    let cheap = Query::Spread { seeds: vec![0] };
    let expensive = Query::top_k(15);
    let cheap_cost = cost_model.cost(&cheap).expect("priceable");
    let expensive_cost = cost_model.cost(&expensive).expect("priceable");
    assert!(
        cheap_cost < expensive_cost,
        "fixture must separate the costs ({cheap_cost} vs {expensive_cost})"
    );
    let budget = (cheap_cost + expensive_cost) / 2;

    let mut config = ServerConfig::new(Listen::Unix(unix_path("admission.sock")));
    config.budget = Some(budget);
    let handle = start(&index, 2, config);
    let mut client = connect(handle.address());

    let out_of_range = graph.num_nodes() as u32 + 7;
    let batch = vec![cheap.clone(), expensive.clone(), Query::Spread { seeds: vec![out_of_range] }];
    let outcomes = client.batch(&batch).expect("batch call");

    // Slot 0: cheap, admitted, byte-identical to the local engine.
    let local = ShardedEngine::new(Arc::new(sharded));
    let expected = local.execute_batch(std::slice::from_ref(&cheap), 1);
    assert_eq!(outcomes[0].as_ref().expect("cheap query admitted"), &expected[0]);

    // Slot 1: over budget, with the exact estimate echoed back.
    match &outcomes[1] {
        Err(Rejection::OverBudget { estimated_cost, budget: b }) => {
            assert_eq!(*estimated_cost, expensive_cost);
            assert_eq!(*b, budget);
        }
        other => panic!("expected an over-budget rejection, got {other:?}"),
    }

    // Slot 2: invalid vertex, named in the rejection.
    match &outcomes[2] {
        Err(Rejection::InvalidVertex { vertex, num_nodes }) => {
            assert_eq!(*vertex, out_of_range);
            assert_eq!(*num_nodes, graph.num_nodes() as u64);
        }
        other => panic!("expected an invalid-vertex rejection, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");
}

/// A zero-size in-flight queue sheds every batch with a structured
/// queue-full error — and the control verbs (ping, info, shutdown) keep
/// working, so an overloaded daemon stays operable.
#[test]
fn full_inflight_queue_sheds_batches_with_a_structured_error() {
    let (_graph, _weights, index) = fixture();
    let mut config = ServerConfig::new(Listen::Unix(unix_path("queue-full.sock")));
    config.max_inflight = 0;
    let handle = start(&index, 1, config);
    let mut client = connect(handle.address());

    client.ping().expect("control verbs still answer");
    match client.batch(&[Query::top_k(2)]) {
        Err(ClientError::Server(ServeError::QueueFull { limit, .. })) => assert_eq!(limit, 0),
        other => panic!("expected a queue-full error, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");
}

/// A static daemon (no graph/weights pair) answers rollout requests with
/// `not-dynamic`, and garbage delta text is a structured delta error —
/// both leave the daemon serving, and the next valid delta rolls over and
/// has its latency recorded.
#[test]
fn static_daemon_rejects_rollouts_structurally() {
    let (graph, weights, index) = fixture();
    let handle = start(&index, 2, ServerConfig::new(Listen::Unix(unix_path("static.sock"))));
    let mut client = connect(handle.address());

    match client.apply_delta("+ 0 1 0.5\n") {
        Err(ClientError::Server(ServeError::NotDynamic)) => {}
        other => panic!("expected not-dynamic, got {other:?}"),
    }
    client.ping().expect("still serving after the refusal");
    client.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");

    // A dynamic daemon rejects garbage delta text without rolling over.
    let config = ServerConfig::new(Listen::Unix(unix_path("bad-delta.sock")));
    let sharded = ShardedIndex::from_index(index.clone(), 2).expect("shardable");
    let handle = Server::start(Arc::new(sharded), Some((graph, weights)), config, || "{}".into())
        .expect("server starts");
    let mut client = connect(handle.address());
    match client.apply_delta("this is not a delta\n") {
        Err(ClientError::Server(ServeError::Delta { .. })) => {}
        other => panic!("expected a delta error, got {other:?}"),
    }
    assert_eq!(client.info().expect("info").rollouts, 0, "no rollout happened");
    let timed_before = imm_serve::metrics::ROLLOUT_LATENCY.snapshot().count;
    client.apply_delta("+ 3 77 0.8\n").expect("a valid delta rolls over");
    assert_eq!(client.info().expect("info").rollouts, 1);
    if imm_obs::recording_enabled() {
        let timed = imm_serve::metrics::ROLLOUT_LATENCY.snapshot().count;
        assert!(timed > timed_before, "the rollout's latency is recorded");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");
}

/// The metrics verb returns whatever the provider renders — the CLI
/// wires the workspace registry here; the wire just carries it.
#[test]
fn metrics_verb_round_trips_the_provider_payload() {
    let (_graph, _weights, index) = fixture();
    let config = ServerConfig::new(Listen::Unix(unix_path("metrics.sock")));
    let sharded = ShardedIndex::from_index(index.clone(), 1).expect("shardable");
    let handle =
        Server::start(Arc::new(sharded), None, config, || r#"{"registry":{"metrics":[]}}"#.into())
            .expect("server starts");
    let mut client = connect(handle.address());
    assert_eq!(client.metrics_json().expect("metrics"), r#"{"registry":{"metrics":[]}}"#);
    client.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");
}

/// A unix socket called `name` and TCP port 0.
fn both_transports(name: &str) -> [Listen; 2] {
    [Listen::Unix(unix_path(name)), Listen::Tcp("127.0.0.1:0".into())]
}

/// `stop` + `join`, timed. A daemon that has not exited after five seconds
/// fails the test instead of hanging the suite.
fn stop_and_join(handle: ServerHandle) -> Duration {
    let started = Instant::now();
    let (done, exited) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.stop();
        done.send(handle.join().is_ok()).ok();
    });
    let clean = exited.recv_timeout(Duration::from_secs(5)).expect("the daemon exits after stop");
    assert!(clean, "the accept loop exits cleanly");
    started.elapsed()
}

/// Connects are not quantised by a clock: with a daemon left idle for
/// 100 ms, the median of twenty (connect + ping) rounds is a few round
/// trips, not a polling period.
#[test]
fn a_connection_is_accepted_the_moment_it_arrives() {
    let (_, _, index) = fixture();
    for listen in both_transports("accept.sock") {
        let label = listen.to_string();
        let handle = start(&index, 1, ServerConfig::new(listen));
        std::thread::sleep(Duration::from_millis(100));
        let mut rounds: Vec<Duration> = (0..20)
            .map(|_| {
                let started = Instant::now();
                connect(handle.address()).ping().expect("connect + ping");
                started.elapsed()
            })
            .collect();
        rounds.sort_unstable();
        let median = rounds[rounds.len() / 2];
        assert!(median < Duration::from_millis(3), "{label}: median connect + ping {median:?}");
        stop_and_join(handle);
    }
}

/// Shutdown does not wait on a connection's read: with no idle timeout (so
/// no read timeout at all), two idle clients and one that sent a frame
/// header and withholds the payload, `stop` + `join` returns at once.
#[test]
fn shutdown_does_not_wait_for_idle_connections() {
    let (_, _, index) = fixture();
    for listen in both_transports("idle-stop.sock") {
        let label = listen.to_string();
        let handle = start(&index, 1, ServerConfig::new(listen));
        let mut idle: Vec<Client> = (0..2).map(|_| connect(handle.address())).collect();
        for client in &mut idle {
            client.ping().expect("ping");
        }
        let mut stalled: Box<dyn Write> = match handle.address() {
            Listen::Unix(path) => Box::new(UnixStream::connect(path).expect("connect")),
            Listen::Tcp(addr) => Box::new(TcpStream::connect(addr.as_str()).expect("connect")),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).expect("in-memory write");
        stalled.write_all(&wire[..FRAME_HEADER_LEN]).expect("send the header");
        std::thread::sleep(Duration::from_millis(50)); // the daemon blocks in the payload read
        let took = stop_and_join(handle);
        assert!(took < Duration::from_millis(500), "{label}: stop + join took {took:?}");
    }
}

/// Shutdown does not go through the socket's path: it finishes even when
/// the socket file was unlinked under the daemon.
#[test]
fn shutdown_finishes_when_the_socket_file_is_gone() {
    let (_, _, index) = fixture();
    let path = unix_path("unlinked.sock");
    let handle = start(&index, 1, ServerConfig::new(Listen::Unix(path.clone())));
    connect(handle.address()).ping().expect("the daemon serves");
    std::fs::remove_file(&path).expect("unlink the socket file");
    let took = stop_and_join(handle);
    assert!(took < Duration::from_millis(500), "stop + join took {took:?}");
}
