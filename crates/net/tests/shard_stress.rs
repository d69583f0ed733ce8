//! Lifecycle stress over the network stack with a *sharded* broker:
//! loopback engine servers push `InvalidateNotice` frames while sweeps
//! and strict-mode searches run concurrently on other threads.
//!
//! The contract under test: whatever interleaving the scheduler picks,
//! a `StaleMode::Error` execution either answers completely from a
//! fresh plan or fails with the typed `StalePlanError` — it never
//! silently serves results from a plan the registry has moved past,
//! and no shard's lifecycle traffic can wedge queries on another.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy, StaleMode};
use seu_net::{register_and_subscribe, EngineServer, RemoteEngine};
use seu_text::Analyzer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    SearchEngine::new(b.build())
}

/// Deterministic per-(server, round) collection variant so pushes keep
/// changing the fingerprint.
fn variant(server: usize, round: usize) -> SearchEngine {
    let texts = [
        format!("relational databases round {round} server {server}"),
        format!("query optimization pass {} of run {server}", round % 5),
        format!("distributed transaction log entry {}", round * 7 + server),
    ];
    engine(&[&texts[0], &texts[1], &texts[2]])
}

const LOCALS: &[(&str, &[&str])] = &[
    ("local-news", &["mushroom foraging in autumn forests"]),
    ("local-img", &["neural networks for image recognition"]),
    ("local-db", &["indexing structures for text retrieval"]),
];

#[test]
fn sharded_broker_survives_push_invalidation_storm() {
    let broker = Arc::new(
        Broker::builder(SubrangeEstimator::paper_six_subrange())
            .shards(4)
            .build(),
    );
    for (name, texts) in LOCALS {
        broker.register(name, engine(texts));
    }

    let servers: Vec<Arc<EngineServer>> = (0..3)
        .map(|i| {
            Arc::new(EngineServer::bind(format!("srv-{i}"), variant(i, 0), "127.0.0.1:0").unwrap())
        })
        .collect();
    let mut subscriptions = Vec::new();
    for server in &servers {
        let (name, sub) =
            register_and_subscribe(&broker, RemoteEngine::new(server.addr()).unwrap()).unwrap();
        assert_eq!(name, server.name());
        subscriptions.push(sub);
    }

    let pushes = seu_obs::counter("broker_push_invalidations_total");
    let pushes_before = pushes.get();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Mutators: each server replaces its collection repeatedly,
        // pushing an InvalidateNotice to the subscribed broker.
        for (i, server) in servers.iter().enumerate() {
            let server = Arc::clone(server);
            scope.spawn(move || {
                for round in 1..=40usize {
                    assert_eq!(server.replace_engine(variant(i, round)), 1);
                    if round % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }

        // Sweeper: staleness sweeps race the pushes; both paths refresh
        // and both bump shard epochs.
        {
            let broker = Arc::clone(&broker);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    broker.refresh_if_stale();
                    assert!(broker.refresh_representative("local-news"));
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }

        // Strict searchers: every outcome must be a complete answer or
        // the typed stale-plan error. An incomplete Ok, a panic, or a
        // wedged search all fail the test.
        let mut searchers = Vec::new();
        for t in 0..2usize {
            let broker = Arc::clone(&broker);
            searchers.push(scope.spawn(move || {
                let mut stale_seen = 0usize;
                let mut last_epoch = 0u64;
                for k in 0..80usize {
                    let query =
                        ["relational databases", "neural networks", "mushroom soup"][(t + k) % 3];
                    let req = SearchRequest::new(query)
                        .threshold(0.0)
                        .policy(SelectionPolicy::All)
                        .stale_mode(StaleMode::Error);
                    let plan = broker.plan(&req, None);
                    // Every tenth round, advance the registry between
                    // plan and execute on purpose: the strict path MUST
                    // surface the typed error, deterministically.
                    let forced = k % 10 == 9;
                    if forced {
                        assert!(broker.refresh_representative("local-db"));
                    }
                    match broker.execute_plan(&req, &plan) {
                        Ok(resp) => {
                            assert!(!forced, "stale plan executed silently");
                            assert!(resp.is_complete(), "{:?}", resp.per_engine_stats)
                        }
                        Err(e) => {
                            assert!(
                                e.registry_epoch > e.plan_epoch,
                                "stale error without an epoch advance: {e}"
                            );
                            stale_seen += 1;
                        }
                    }
                    let epoch = broker.registry_epoch();
                    assert!(epoch >= last_epoch, "epoch regressed");
                    last_epoch = epoch;
                }
                stale_seen
            }));
        }

        let stale_total: usize = searchers.into_iter().map(|h| h.join().unwrap()).sum();
        // Eight forced races per searcher, plus however many the
        // scheduler produced on its own.
        assert!(stale_total >= 16, "only {stale_total} stale errors seen");
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesce: wait for in-flight pushes to land, then drain staleness.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        broker.refresh_if_stale();
        let snap = broker.registry_snapshot();
        if snap.statuses.iter().all(|s| !s.stale) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(pushes.get() > pushes_before, "no push ever arrived");

    let snap = broker.registry_snapshot();
    assert_eq!(snap.statuses.len(), LOCALS.len() + servers.len());
    assert!(
        snap.statuses.iter().all(|s| !s.stale),
        "{:?}",
        snap.statuses
    );
    assert_eq!(snap.epoch, snap.shard_epochs.iter().sum::<u64>());

    // The quiescent broker answers completely and matches a fresh local
    // broker over the servers' final collections.
    let req = SearchRequest::new("relational databases")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    let resp = broker.execute(&req);
    assert!(resp.is_complete(), "{:?}", resp.per_engine_stats);

    for sub in subscriptions {
        sub.close();
    }
    for server in &servers {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.subscriber_count() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.subscriber_count(), 0, "{}", server.name());
    }
}
