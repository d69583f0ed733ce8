//! Loopback integration: real engine servers on ephemeral ports, a
//! broker mixing local and remote engines, push invalidation, and the
//! HTTP admin server — all over 127.0.0.1.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy};
use seu_net::{register_and_subscribe, AdminServer, EngineServer, RemoteEngine};
use seu_obs::json;
use seu_text::Analyzer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    SearchEngine::new(b.build())
}

const DB0: &[&str] = &[
    "relational databases and query optimization",
    "transaction processing in distributed databases",
    "indexing structures for text retrieval",
];
const DB1: &[&str] = &[
    "neural networks for image recognition",
    "training deep networks with gradient descent",
    "databases of labelled images",
];
const DB2: &[&str] = &[
    "mushroom foraging in autumn forests",
    "soup recipes with wild mushrooms",
    "identifying poisonous mushrooms",
];

const QUERIES: &[&str] = &[
    "query optimization in databases",
    "deep neural networks",
    "wild mushroom soup",
    "distributed transaction processing",
    "unrelated zebra hovercraft",
];

fn broker() -> Broker<SubrangeEstimator> {
    Broker::new(SubrangeEstimator::paper_six_subrange())
}

/// The acceptance bar for the transport: a broker reaching two of its
/// three engines over TCP produces byte-identical estimates, selections,
/// and merged results to a broker holding all three in process.
#[test]
fn mixed_broker_is_byte_identical_to_all_local() {
    let local = broker();
    local.register("db0", engine(DB0));
    local.register("db1", engine(DB1));
    local.register("db2", engine(DB2));

    let s1 = EngineServer::bind("db1", engine(DB1), "127.0.0.1:0").unwrap();
    let s2 = EngineServer::bind("db2", engine(DB2), "127.0.0.1:0").unwrap();
    let mixed = broker();
    mixed.register("db0", engine(DB0));
    for server in [&s1, &s2] {
        let name = mixed
            .register_remote(Arc::new(RemoteEngine::new(server.addr()).unwrap()))
            .unwrap();
        assert_eq!(name, server.name());
    }

    for &query in QUERIES {
        for policy in [
            SelectionPolicy::All,
            SelectionPolicy::EstimatedUseful,
            SelectionPolicy::TopK(2),
        ] {
            let request = SearchRequest::new(query)
                .threshold(0.05)
                .policy(policy)
                .with_estimates(true);
            let want = local.execute(&request);
            let got = mixed.execute(&request);

            assert_eq!(want.estimates.len(), got.estimates.len(), "{query}");
            for (w, g) in want.estimates.iter().zip(&got.estimates) {
                assert_eq!(w.engine, g.engine);
                assert_eq!(
                    w.usefulness.no_doc.to_bits(),
                    g.usefulness.no_doc.to_bits(),
                    "NoDoc for {} on {query:?}",
                    w.engine
                );
                assert_eq!(
                    w.usefulness.avg_sim.to_bits(),
                    g.usefulness.avg_sim.to_bits(),
                    "AvgSim for {} on {query:?}",
                    w.engine
                );
            }
            assert_eq!(want.selected(), got.selected(), "{query} {policy:?}");
            assert_eq!(want.hits.len(), got.hits.len(), "{query} {policy:?}");
            for (w, g) in want.hits.iter().zip(&got.hits) {
                assert_eq!((&w.engine, &w.doc), (&g.engine, &g.doc), "{query}");
                assert_eq!(w.sim.to_bits(), g.sim.to_bits(), "{query} {}", w.doc);
            }
            assert!(got.is_complete(), "{query}: {:?}", got.per_engine_stats);
        }
    }
}

/// A collection change on the engine side must reach the broker as a
/// *pushed* invalidation — observable as a refreshed representative and
/// a `broker_push_invalidations_total` increment, with no staleness
/// sweep (`refresh_if_stale`) in sight.
#[test]
fn push_invalidation_refreshes_the_broker_without_a_sweep() {
    let server = EngineServer::bind("news", engine(DB0), "127.0.0.1:0").unwrap();
    let broker = Arc::new(broker());
    let pushes = seu_obs::counter("broker_push_invalidations_total");
    let refreshes = seu_obs::counter("broker_representative_refreshes_total");
    let (pushes_before, refreshes_before) = (pushes.get(), refreshes.get());

    let (name, subscription) =
        register_and_subscribe(&broker, RemoteEngine::new(server.addr()).unwrap()).unwrap();
    assert_eq!(name, "news");
    assert_eq!(server.subscriber_count(), 1);
    let epoch_before = broker.engine_statuses()[0].epoch;

    let notified = server.replace_engine(engine(DB2));
    assert_eq!(notified, 1);

    // The push arrives on the subscription's reader thread; give it a
    // bounded moment rather than sweeping.
    let deadline = Instant::now() + Duration::from_secs(5);
    while broker.engine_statuses()[0].epoch == epoch_before {
        assert!(
            Instant::now() < deadline,
            "push invalidation never reached the broker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let status = broker.engine_statuses().remove(0);
    assert!(!status.stale, "push refresh must leave the entry fresh");
    assert!(pushes.get() > pushes_before, "push counter must move");
    assert!(refreshes.get() > refreshes_before, "refetch is a refresh");

    // After the push, estimates match a local broker over the *new*
    // collection — the representative really was refetched.
    let reference = broker_with("news", engine(DB2));
    let request = SearchRequest::new("wild mushroom soup")
        .threshold(0.05)
        .policy(SelectionPolicy::All)
        .with_estimates(true);
    let want = reference.execute(&request);
    let got = broker.execute(&request);
    assert_eq!(want.estimates.len(), got.estimates.len());
    for (w, g) in want.estimates.iter().zip(&got.estimates) {
        assert_eq!(w.usefulness.no_doc.to_bits(), g.usefulness.no_doc.to_bits());
        assert_eq!(
            w.usefulness.avg_sim.to_bits(),
            g.usefulness.avg_sim.to_bits()
        );
    }

    subscription.close();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.subscriber_count() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.subscriber_count(), 0);
}

/// The query cache must never serve a response cached before a pushed
/// `InvalidateNotice`. The push refreshes the representative through
/// the subscription's reader thread, which bumps the registry epoch —
/// and the epoch lives in every cache key, so the warm entry simply
/// stops matching.
#[test]
fn cache_hit_is_never_served_across_a_pushed_invalidation() {
    use seu_metasearch::CacheTier;

    let server = EngineServer::bind("news", engine(DB0), "127.0.0.1:0").unwrap();
    let broker = Arc::new(broker());
    let (_, subscription) =
        register_and_subscribe(&broker, RemoteEngine::new(server.addr()).unwrap()).unwrap();

    let request = SearchRequest::new("query optimization in databases")
        .threshold(0.05)
        .policy(SelectionPolicy::All)
        .with_estimates(true);
    let warm = broker.execute(&request);
    assert!(!warm.hits.is_empty(), "old collection must answer");
    assert_eq!(
        broker.execute(&request).served_from,
        Some(CacheTier::Results),
        "repeat must be served from the results tier"
    );

    let epoch_before = broker.registry_epoch();
    assert_eq!(server.replace_engine(engine(DB2)), 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while broker.registry_epoch() == epoch_before {
        assert!(
            Instant::now() < deadline,
            "push invalidation never reached the broker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The entry cached at the old epoch is unreachable: the response is
    // cold and matches a local broker over the *new* collection bit for
    // bit (the old hits are gone).
    let after = broker.execute(&request);
    assert_eq!(
        after.served_from, None,
        "stale response served across a pushed invalidation"
    );
    let reference = broker_with("news", engine(DB2)).execute(&request);
    assert_eq!(after.hits.len(), reference.hits.len());
    for (w, g) in reference.hits.iter().zip(&after.hits) {
        assert_eq!((&w.engine, &w.doc), (&g.engine, &g.doc));
        assert_eq!(w.sim.to_bits(), g.sim.to_bits());
    }
    for (w, g) in reference.estimates.iter().zip(&after.estimates) {
        assert_eq!(w.usefulness.no_doc.to_bits(), g.usefulness.no_doc.to_bits());
    }

    // And the cache re-warms at the post-push epoch.
    assert_eq!(
        broker.execute(&request).served_from,
        Some(CacheTier::Results)
    );

    subscription.close();
}

fn broker_with(name: &str, e: SearchEngine) -> Broker<SubrangeEstimator> {
    let b = broker();
    b.register(name, e);
    b
}

/// Plain-text HTTP client good enough for testing our own server.
fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn http_post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn admin_server_serves_health_engines_search_and_metrics() {
    let remote = EngineServer::bind("db2", engine(DB2), "127.0.0.1:0").unwrap();
    let b = Arc::new(broker());
    b.register("db0", engine(DB0));
    b.register_remote(Arc::new(RemoteEngine::new(remote.addr()).unwrap()))
        .unwrap();
    let admin = AdminServer::bind(b.clone(), "127.0.0.1:0").unwrap();

    let (status, body) = http_get(admin.addr(), "/healthz");
    assert!(status.contains("200"), "{status}");
    let health = json::parse(&body).expect("healthz JSON parses");
    assert_eq!(
        health.get("status").and_then(json::Json::as_str),
        Some("ok")
    );
    assert_eq!(
        health.get("engines").and_then(json::Json::as_num),
        Some(2.0)
    );
    assert!(
        health.get("shards").and_then(json::Json::as_num).unwrap() >= 1.0,
        "{body}"
    );
    assert!(
        health
            .get("registry_epoch")
            .and_then(json::Json::as_num)
            .is_some(),
        "{body}"
    );

    let (status, body) = http_get(admin.addr(), "/engines");
    assert!(status.contains("200"), "{status}");
    let engines = json::parse(&body).expect("engines JSON parses");
    let rows = engines.as_arr().expect("array");
    assert_eq!(rows.len(), 2);
    let remote_row = rows
        .iter()
        .find(|r| r.get("name").and_then(json::Json::as_str) == Some("db2"))
        .expect("remote row");
    assert_eq!(remote_row.get("remote"), Some(&json::Json::Bool(true)));
    assert_eq!(
        remote_row.get("endpoint").and_then(json::Json::as_str),
        Some(remote.addr().to_string().as_str())
    );

    let (status, body) = http_post(
        admin.addr(),
        "/search",
        "{\"query\": \"wild mushroom soup\", \"threshold\": 0.05, \"all\": true}",
    );
    assert!(status.contains("200"), "{status}: {body}");
    let response = json::parse(&body).expect("search JSON parses");
    let hits = response.get("hits").and_then(json::Json::as_arr).unwrap();
    assert!(!hits.is_empty(), "{body}");
    assert!(hits
        .iter()
        .all(|h| h.get("engine").and_then(json::Json::as_str) == Some("db2")));
    let estimates = response
        .get("estimates")
        .and_then(json::Json::as_arr)
        .unwrap();
    // db0 holds none of the query's terms: it has no row.
    assert_eq!(estimates.len(), 1);

    let (status, _) = http_get(admin.addr(), "/nope");
    assert!(status.contains("404"), "{status}");
    let (status, body) = http_post(admin.addr(), "/search", "{\"threshold\": 1}");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("query"), "{body}");

    let (status, body) = http_get(admin.addr(), "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        body.contains("# TYPE broker_queries_total counter"),
        "{body}"
    );
    assert!(body.contains("net_http_requests_total"), "{body}");
}

/// `GET /metrics` must stay valid Prometheus exposition while searches
/// are executing — the scrape path shares no locks with dispatch.
#[test]
fn metrics_scrape_is_valid_while_searches_are_in_flight() {
    let remote = EngineServer::bind("db1", engine(DB1), "127.0.0.1:0").unwrap();
    let b = Arc::new(broker());
    b.register("db0", engine(DB0));
    b.register_remote(Arc::new(RemoteEngine::new(remote.addr()).unwrap()))
        .unwrap();
    let admin = AdminServer::bind(b.clone(), "127.0.0.1:0").unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let searcher = {
        let (b, stop) = (Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut queries = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let request = SearchRequest::new("deep neural networks for databases")
                    .threshold(0.05)
                    .policy(SelectionPolicy::All);
                let response = b.execute(&request);
                assert!(response.is_complete());
                queries += 1;
            }
            queries
        })
    };

    for _ in 0..5 {
        let (status, body) = http_get(admin.addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        for line in body.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "unparseable exposition line: {line}"
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let queries = searcher.join().unwrap();
    assert!(queries > 0, "searches must actually have been in flight");
}
