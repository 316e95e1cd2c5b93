//! Deterministic chaos: the full daemon/client stack runs under seeded
//! fault plans that corrupt, shorten, and kill socket IO on both sides
//! of the connection, and every batch the retrying client survives must
//! be **byte-identical** to the in-process oracle's answer — anything
//! else must surface as a *typed* client error. No panic, no hang, no
//! silently wrong answer, at any seed.
//!
//! The seed grid is `FAULT_SEED_COUNT` (default 4); CI pins it so the
//! sweep is reproducible. The same seed replays the same injected
//! schedule, which is what makes a chaos failure debuggable.

use imm_diffusion::DiffusionModel;
use imm_fault::FaultConfig;
use imm_serve::{Client, ClientError, Listen, RetryPolicy, Server, ServerConfig};
use imm_service::{Query, SampleSpec, SketchIndex};
use imm_shard::{ShardedEngine, ShardedIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How many seeds the grid sweeps (`FAULT_SEED_COUNT`, default 4).
fn seed_count() -> u64 {
    std::env::var("FAULT_SEED_COUNT").ok().and_then(|raw| raw.parse().ok()).unwrap_or(4)
}

fn fixture() -> (Arc<ShardedIndex>, Vec<Query>) {
    let mut rng = SmallRng::seed_from_u64(0xC4A0);
    let graph = imm_graph::CsrGraph::from_edge_list(&imm_graph::generators::social_network(
        80, 4, 0.3, &mut rng,
    ));
    let weights = imm_graph::EdgeWeights::constant(&graph, 0.2);
    let spec = SampleSpec::new(DiffusionModel::IndependentCascade, 0xC4A05);
    let index = SketchIndex::sample(&graph, &weights, spec, 96, 2, "chaos").expect("sample");
    let sharded = Arc::new(ShardedIndex::from_index(index, 2).expect("shard"));
    let battery = vec![
        Query::top_k(4),
        Query::top_k(1),
        Query::Spread { seeds: vec![2, 79] },
        Query::Marginal { seeds: vec![5], candidate: 9 },
    ];
    (sharded, battery)
}

fn unix_path(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("imm_fault_chaos");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("chaos-{}-{seed}.sock", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// Every failure the chaos run is allowed to end a call with: the typed
/// transport deaths, the typed timeout, and structured server errors.
/// A protocol error would mean injected garbage *decoded* — corruption.
fn is_structured(error: &ClientError) -> bool {
    matches!(
        error,
        ClientError::Connect(_)
            | ClientError::ConnectionLost { .. }
            | ClientError::TimedOut { .. }
            | ClientError::Server(_)
    )
}

#[test]
fn seeded_connection_chaos_never_corrupts_a_served_answer() {
    let (sharded, battery) = fixture();
    let oracle = ShardedEngine::new(Arc::clone(&sharded));
    let expected = oracle.execute_batch(&battery, 2);

    let mut total_injected = 0u64;
    let mut total_served = 0u64;
    for seed in 0..seed_count() {
        let config = ServerConfig::new(Listen::Unix(unix_path(seed)));

        let chaos = FaultConfig { io_error: 0.06, io_partial: 0.15, ..FaultConfig::seeded(seed) };
        let (injected, served) = imm_fault::with_plan(chaos, |plan| {
            let handle = Server::start(Arc::clone(&sharded), None, config, || "{}".into())
                .expect("the daemon must start under chaos");
            let policy = RetryPolicy {
                attempts: 8,
                base_backoff: Duration::from_millis(2),
                request_timeout: Some(Duration::from_secs(5)),
                ..RetryPolicy::default()
            };
            let mut client = Client::new(handle.address().clone(), policy);

            let mut served = 0u64;
            for round in 0..10 {
                match client.batch(&battery) {
                    Ok(outcomes) => {
                        let answers: Vec<_> = outcomes
                            .into_iter()
                            .map(|o| o.expect("no admission control is configured"))
                            .collect();
                        assert_eq!(
                            answers, expected,
                            "seed {seed} round {round}: a batch that survived chaos \
                             must be byte-identical to the oracle"
                        );
                        served += 1;
                    }
                    Err(error) => assert!(
                        is_structured(&error),
                        "seed {seed} round {round}: chaos must surface as a typed \
                         error, got: {error}"
                    ),
                }
            }
            drop(client);
            handle.stop();
            handle.join().expect("the accept loop must not panic under chaos");
            (plan.injected(), served)
        });
        total_injected += injected;
        total_served += served;
    }
    assert!(total_injected > 0, "the grid must inject at least one fault");
    assert!(total_served > 0, "the retrying client must get some batches through");
}

/// Under an all-zero plan the same stack serves the same battery with zero
/// injected faults and zero retries — the hooks inject nothing unless a rate
/// arms them. Run through `with_plan` so the chaos grid above, which arms
/// the process-global plan on a parallel test thread, cannot leak into it.
#[test]
fn a_disarmed_stack_serves_cleanly() {
    let (sharded, battery) = fixture();
    let oracle = ShardedEngine::new(Arc::clone(&sharded));
    let expected = oracle.execute_batch(&battery, 2);

    let config = ServerConfig::new(Listen::Unix(unix_path(u64::MAX)));
    imm_fault::with_plan(FaultConfig::default(), |plan| {
        let handle = Server::start(Arc::clone(&sharded), None, config, || "{}".into())
            .expect("the daemon must start");
        let mut client = Client::new(handle.address().clone(), RetryPolicy::default());
        let budget_before = client.budget_left();
        for _ in 0..3 {
            let answers: Vec<_> = client
                .batch(&battery)
                .expect("a clean stack must serve")
                .into_iter()
                .map(|o| o.expect("no admission control is configured"))
                .collect();
            assert_eq!(answers, expected);
        }
        assert_eq!(client.budget_left(), budget_before, "no retries on a clean stack");
        drop(client);
        handle.stop();
        handle.join().expect("clean shutdown");
        assert_eq!(plan.injected(), 0);
    });
}
