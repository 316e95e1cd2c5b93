//! Daemon-level fault tolerance: idle connections get a structured
//! goodbye, lost connections are typed and survivable through the
//! retrying client (including across a full daemon restart), a failed
//! rollout leaves the old generation serving byte-identically until a
//! retry lands, and a zero batch deadline answers every query with a
//! structured rejection instead of running it.

use imm_diffusion::DiffusionModel;
use imm_fault::FaultConfig;
use imm_graph::{generators, CsrGraph, EdgeWeights, GraphDelta};
use imm_serve::protocol::{encode_request, write_frame, FRAME_HEADER_LEN};
use imm_serve::{
    Client, ClientError, Listen, Rejection, Request, RetryClient, RetryPolicy, ServeError, Server,
    ServerConfig,
};
use imm_service::{DeltaJournal, Query, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture() -> (CsrGraph, EdgeWeights, SketchIndex) {
    let mut rng = SmallRng::seed_from_u64(0xFA);
    let graph = CsrGraph::from_edge_list(&generators::social_network(90, 4, 0.3, &mut rng));
    let weights = EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0xFA17);
    let index =
        SketchIndex::sample(&graph, &weights, spec, 120, 2, "fault-tolerance").expect("sample");
    (graph, weights, index)
}

fn queries(num_nodes: usize) -> Vec<Query> {
    let n = num_nodes as u32;
    vec![
        Query::top_k(5),
        Query::top_k(1),
        Query::Spread { seeds: vec![3, n - 1] },
        Query::Marginal { seeds: vec![7], candidate: 11 },
        Query::top_k(9),
    ]
}

fn unix_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imm_serve_fault_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

fn config(path: PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(Listen::Unix(path));
    config.threads = 2;
    config
}

/// An idle connection is closed with a structured [`ServeError::IdleTimeout`]
/// goodbye (counted in `serve_conn_timeouts`), and the retrying client heals
/// over it by reconnecting. A connection stalled inside a frame is dropped
/// by the same clock, as a truncated frame (counted in
/// `serve_protocol_errors`).
#[test]
fn idle_connections_are_shed_with_a_structured_goodbye() {
    let (_, _, index) = fixture();
    let path = unix_path("idle.sock");
    let mut server_config = config(path);
    server_config.idle_timeout = Some(Duration::from_millis(120));
    let sharded = ShardedIndex::from_index(index, 2).expect("shardable");
    let handle =
        Server::start(Arc::new(sharded), None, server_config, || "{}".into()).expect("server");
    let timeouts_before = imm_serve::metrics::CONN_TIMEOUTS.value();

    // A raw client sees the close as either the goodbye frame or a lost
    // connection (depending on whether its write outruns the reset) —
    // both typed, both retryable, never a hang or a panic.
    let mut raw =
        Client::connect_with_retry(handle.address(), Duration::from_secs(5)).expect("connect");
    raw.ping().expect("a fresh connection serves");
    std::thread::sleep(Duration::from_millis(400));
    match raw.ping() {
        Err(ClientError::Server(ServeError::IdleTimeout { idle_ms })) => {
            assert!(idle_ms >= 120, "reported idle time {idle_ms} ms below the limit")
        }
        Err(ClientError::ConnectionLost { .. }) | Err(ClientError::Closed) => {}
        other => panic!("an idled-out connection must fail typed, got {other:?}"),
    }
    assert!(
        imm_serve::metrics::CONN_TIMEOUTS.value() > timeouts_before,
        "the idle close must be counted in serve_conn_timeouts"
    );

    // A peer that sends a frame header and withholds the payload is cut by
    // the same clock, as a truncated frame.
    let errors_before = imm_serve::metrics::PROTOCOL_ERRORS.value();
    let Listen::Unix(path) = handle.address() else { unreachable!("a unix daemon") };
    let mut stalled = UnixStream::connect(path).expect("connect");
    stalled.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_request(&Request::Ping)).expect("in-memory write");
    stalled.write_all(&wire[..FRAME_HEADER_LEN]).expect("send the header");
    let stalled_at = Instant::now();
    stalled.read_to_end(&mut Vec::new()).expect("the daemon closes the stalled connection");
    assert!(stalled_at.elapsed() >= Duration::from_millis(100), "cut before the idle timeout");
    assert!(
        imm_serve::metrics::PROTOCOL_ERRORS.value() > errors_before,
        "the stalled frame must be counted in serve_protocol_errors"
    );

    // The retrying client eats the same close transparently.
    let mut retry = RetryClient::new(handle.address().clone(), RetryPolicy::default());
    retry.ping().expect("first ping");
    std::thread::sleep(Duration::from_millis(400));
    retry.ping().expect("the retry client must reconnect through an idle close");
    assert!(
        retry.budget_left() < RetryPolicy::default().budget,
        "healing the idle close must spend retry budget"
    );

    retry.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");
}

/// The idle timeout bounds a whole frame, not each read: a peer that
/// declares 64 payload bytes and sends one every 0.6 idle timeouts (so no
/// single read ever times out) is cut as a truncated frame within two idle
/// timeouts of its header, counted in `serve_protocol_errors`.
#[test]
fn a_frame_trickled_inside_the_idle_timeout_is_cut_by_its_deadline() {
    let (_, _, index) = fixture();
    let idle = Duration::from_millis(250);
    let mut server_config = config(unix_path("trickle.sock"));
    server_config.idle_timeout = Some(idle);
    let sharded = ShardedIndex::from_index(index, 2).expect("shardable");
    let handle =
        Server::start(Arc::new(sharded), None, server_config, || "{}".into()).expect("server");
    let errors_before = imm_serve::metrics::PROTOCOL_ERRORS.value();

    let Listen::Unix(path) = handle.address() else { unreachable!("a unix daemon") };
    let mut trickle = UnixStream::connect(path).expect("connect");
    trickle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut wire = Vec::new();
    write_frame(&mut wire, &[0u8; 64]).expect("in-memory write");
    trickle.write_all(&wire[..FRAME_HEADER_LEN]).expect("send the header");
    let sent_at = Instant::now();
    let mut writer = trickle.try_clone().expect("a second handle");
    let payload = wire[FRAME_HEADER_LEN..].to_vec();
    let dribble = std::thread::spawn(move || {
        for byte in payload {
            std::thread::sleep(idle * 3 / 5);
            if writer.write_all(&[byte]).is_err() {
                return;
            }
        }
    });
    // EOF, or a reset if the close raced a byte; a timeout is not a close.
    let closed = trickle.read_to_end(&mut Vec::new());
    let waited = sent_at.elapsed();
    assert!(
        closed.as_ref().map_or_else(|e| e.kind() == std::io::ErrorKind::ConnectionReset, |_| true),
        "the daemon must close the trickling connection, got {closed:?} after {waited:?}"
    );
    assert!(waited < 2 * idle, "a trickled frame held its connection for {waited:?}");
    assert!(
        imm_serve::metrics::PROTOCOL_ERRORS.value() > errors_before,
        "the cut frame must be counted in serve_protocol_errors"
    );
    dribble.join().expect("the dribbling writer stops at the close");

    handle.stop();
    handle.join().expect("accept loop exits");
}

/// A full daemon restart: the retrying client types the dead socket as a
/// lost connection, redials, and the same battery serves byte-identically
/// from the reborn daemon.
#[test]
fn the_retry_client_survives_a_daemon_restart() {
    let (_, _, index) = fixture();
    let path = unix_path("restart.sock");
    let sharded = ShardedIndex::from_index(index.clone(), 2).expect("shardable");
    let handle = Server::start(Arc::new(sharded), None, config(path.clone()), || "{}".into())
        .expect("server");

    let local = ShardedEngine::new(Arc::new(
        ShardedIndex::from_index(index.clone(), 2).expect("shardable"),
    ));
    let battery = queries(index.num_nodes());
    let expected = local.execute_batch(&battery, 2);

    let mut retry = RetryClient::new(handle.address().clone(), RetryPolicy::default());
    let first = retry.batch(&battery).expect("batch against the first daemon");
    for (got, want) in first.iter().zip(expected.iter()) {
        assert_eq!(got.as_ref().expect("admitted"), want);
    }

    // Kill the daemon; the client's pooled connection is now a corpse.
    retry.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");

    // A call against the corpse with no daemon behind it fails typed —
    // lost connection or connect error — after the retry loop drains.
    let mut against_corpse = retry;
    match against_corpse.ping() {
        Err(ClientError::Connect(_)) | Err(ClientError::ConnectionLost { .. }) => {}
        other => panic!("a dead daemon must fail typed, got {other:?}"),
    }

    // Rebirth on the same address: the same client heals by redialing.
    std::fs::remove_file(&path).ok();
    let sharded = ShardedIndex::from_index(index.clone(), 2).expect("shardable");
    let handle =
        Server::start(Arc::new(sharded), None, config(path), || "{}".into()).expect("reborn");
    let again = against_corpse.batch(&battery).expect("batch against the reborn daemon");
    for (i, (got, want)) in again.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got.as_ref().expect("admitted"), want, "query {i} diverged after restart");
    }

    against_corpse.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");
}

/// A fault injected mid-rollout (before the rebuild, then again between
/// the rebuild and the swap) refuses the delta with a structured error,
/// the **old** generation keeps serving byte-identically, and the retry
/// goes through — after which only the new generation answers, and the
/// journal holds exactly the one accepted delta.
#[test]
fn failed_rollouts_keep_the_old_generation_until_a_retry_lands() {
    let (graph, weights, index) = fixture();
    let path = unix_path("rollout.sock");
    let journal_path = unix_path("rollout.journal");
    let mut server_config = config(path);
    server_config.journal = Some(journal_path.clone());
    let sharded = ShardedIndex::from_index(index.clone(), 2).expect("shardable");
    let handle = Server::start(
        Arc::new(sharded),
        Some((graph.clone(), weights.clone())),
        server_config,
        || "{}".into(),
    )
    .expect("server");

    let local = ShardedEngine::new(Arc::new(
        ShardedIndex::from_index(index.clone(), 2).expect("shardable"),
    ));
    let battery = queries(index.num_nodes());
    let delta = GraphDelta::new().insert(3, 40, 0.7).insert(80, 9, 0.5);

    imm_fault::with_plan(FaultConfig { fail_first: 1, ..FaultConfig::seeded(17) }, |_| {
        let mut client =
            Client::connect_with_retry(handle.address(), Duration::from_secs(5)).expect("connect");

        // Attempt 1 dies before the rebuild; attempt 2 dies after the
        // rebuild but before the swap. Both refuse with a structured
        // error and leave the old generation serving byte-identically.
        for attempt in 1..=2 {
            match client.apply_delta(&delta.to_text()) {
                Err(ClientError::Server(ServeError::Delta { detail })) => {
                    assert!(
                        detail.contains("injected fault"),
                        "attempt {attempt}: unexpected refusal: {detail}"
                    )
                }
                other => panic!("attempt {attempt} must refuse with a Delta error, got {other:?}"),
            }
            assert_eq!(client.info().expect("info").rollouts, 0, "attempt {attempt}");
            let answers = client.batch(&battery).expect("old generation serves");
            for (i, (got, want)) in
                answers.iter().zip(local.execute_batch(&battery, 2).iter()).enumerate()
            {
                assert_eq!(
                    got.as_ref().expect("admitted"),
                    want,
                    "attempt {attempt}: query {i} diverged from the old generation"
                );
            }
            assert!(
                DeltaJournal::read_entries(&journal_path).expect("journal reads").is_empty(),
                "attempt {attempt}: a refused rollout must not be journaled"
            );
        }

        // The retry lands: both fail points have spent their budget.
        client.apply_delta(&delta.to_text()).expect("third attempt commits");
        assert_eq!(client.info().expect("info").rollouts, 1);
        let (next, _, _, _) =
            local.index().rebuilt_with_delta(&graph, &weights, &delta).expect("local refresh");
        let local = ShardedEngine::new(Arc::new(next));
        let answers = client.batch(&battery).expect("new generation serves");
        for (i, (got, want)) in
            answers.iter().zip(local.execute_batch(&battery, 2).iter()).enumerate()
        {
            assert_eq!(
                got.as_ref().expect("admitted"),
                want,
                "query {i} diverged from the new generation"
            );
        }
        let entries = DeltaJournal::read_entries(&journal_path).expect("journal reads");
        assert_eq!(entries.len(), 1, "exactly the accepted delta is journaled");
        assert_eq!(entries[0].applied_index, 0);
        assert_eq!(entries[0].text, delta.to_text());

        client.shutdown().expect("shutdown");
    });
    handle.join().expect("accept loop exits");
    std::fs::remove_file(&journal_path).ok();
}

/// A zero batch deadline turns every admitted query into a structured
/// [`Rejection::DeadlineExceeded`]; a generous one changes nothing.
#[test]
fn batch_deadlines_cut_queries_with_structured_rejections() {
    let (_, _, index) = fixture();
    let battery = queries(index.num_nodes());

    let path = unix_path("deadline-zero.sock");
    let mut strict = config(path);
    strict.batch_deadline = Some(Duration::ZERO);
    let sharded = ShardedIndex::from_index(index.clone(), 2).expect("shardable");
    let handle = Server::start(Arc::new(sharded), None, strict, || "{}".into()).expect("server");
    let before = imm_serve::metrics::DEADLINE_EXCEEDED.value();
    let mut client =
        Client::connect_with_retry(handle.address(), Duration::from_secs(5)).expect("connect");
    let answers = client.batch(&battery).expect("the batch itself is answered");
    assert_eq!(answers.len(), battery.len());
    for (i, answer) in answers.iter().enumerate() {
        match answer {
            Err(Rejection::DeadlineExceeded { deadline_ms, .. }) => assert_eq!(*deadline_ms, 0),
            other => panic!("query {i} must be cut by the zero deadline, got {other:?}"),
        }
    }
    assert!(
        imm_serve::metrics::DEADLINE_EXCEEDED.value() >= before + battery.len() as u64,
        "every cut query must be counted"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");

    let path = unix_path("deadline-lax.sock");
    let mut lax = config(path);
    lax.batch_deadline = Some(Duration::from_secs(30));
    let sharded = ShardedIndex::from_index(index.clone(), 2).expect("shardable");
    let handle = Server::start(Arc::new(sharded), None, lax, || "{}".into()).expect("server");
    let local =
        ShardedEngine::new(Arc::new(ShardedIndex::from_index(index, 2).expect("shardable")));
    let mut client =
        Client::connect_with_retry(handle.address(), Duration::from_secs(5)).expect("connect");
    let answers = client.batch(&battery).expect("batch");
    for (i, (got, want)) in answers.iter().zip(local.execute_batch(&battery, 2).iter()).enumerate()
    {
        assert_eq!(
            got.as_ref().expect("admitted"),
            want,
            "query {i} diverged under a generous deadline"
        );
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("accept loop exits");
}
