//! Golden bytes of a `POST /search` reply body for one fixed
//! [`SearchResponse`]: hits, estimates that are exactly `(0, 0)` (what
//! Prop. 1 guarantees for an engine sharing no query term) beside
//! non-zero ones, a failed engine with its typed error, and
//! `served_from` both ways. The reply writer may get faster; these bytes
//! may not change.

use seu_metasearch::{
    CacheStats, CacheTier, DispatchOutcome, EngineDispatchStats, EngineEstimate, EngineStatus,
    MergedHit, RegistrySnapshot, SearchRequest, SearchResponse, SharedResponse, TransportError,
    TransportErrorKind, Usefulness,
};
use seu_net::{AdminServer, BrokerAdmin};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Answers every search with the same response; a query of `"cached"`
/// gets it stamped as served from the cache.
struct Fixed;

fn fixed_response(cached: bool) -> SearchResponse {
    let estimate = |engine: &str, no_doc: f64, avg_sim: f64| EngineEstimate {
        engine: engine.to_string(),
        usefulness: Usefulness { no_doc, avg_sim },
    };
    SearchResponse {
        hits: vec![
            MergedHit {
                engine: "pantry".to_string(),
                doc: "soups/mushroom \"velouté\".txt".to_string(),
                sim: 0.8125,
            },
            MergedHit {
                engine: "библиотека".to_string(),
                doc: "a\\b\tc".to_string(),
                sim: 0.30000000000000004,
            },
            MergedHit {
                engine: "pantry".to_string(),
                doc: "zero".to_string(),
                sim: 0.0,
            },
        ],
        estimates: vec![
            estimate("pantry", 2.75, 0.5625),
            estimate("idle-0", 0.0, 0.0),
            estimate("библиотека", 1e-7, 0.30000000000000004),
            estimate("idle-1", 0.0, 0.0),
            estimate("odd", -0.0, f64::NAN),
            estimate("far", 1e21, 12345.678),
        ],
        per_engine_stats: vec![
            EngineDispatchStats {
                engine: "pantry".to_string(),
                hits: 2,
                seconds: 0.000125,
                outcome: DispatchOutcome::Completed,
                error: None,
            },
            EngineDispatchStats {
                engine: "библиотека".to_string(),
                hits: 0,
                seconds: 0.0,
                outcome: DispatchOutcome::Failed,
                error: Some(TransportError {
                    kind: TransportErrorKind::Refused,
                    detail: "connect 127.0.0.1:9: \"refused\"\n".to_string(),
                }),
            },
            EngineDispatchStats {
                engine: "far".to_string(),
                hits: 0,
                seconds: 0.0,
                outcome: DispatchOutcome::TimedOut,
                error: Some(TransportError {
                    kind: TransportErrorKind::Timeout,
                    detail: "no reply in 250ms".to_string(),
                }),
            },
        ],
        trace: None,
        served_from: cached.then_some(CacheTier::Results),
    }
}

impl BrokerAdmin for Fixed {
    fn engine_statuses(&self) -> Vec<EngineStatus> {
        Vec::new()
    }

    fn search(&self, request: &SearchRequest) -> SharedResponse {
        fixed_response(request.query == "cached").into()
    }

    fn registry_snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            statuses: Vec::new(),
            epoch: 0,
            shard_epochs: Vec::new(),
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

fn post_search(addr: SocketAddr, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!(
        "POST /search HTTP/1.1\r\nHost: golden\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").expect("reply has a head");
    (head.to_string(), body.to_string())
}

const GOLDEN_EXECUTED: &str = concat!(
    r#"{"hits":[{"engine":"pantry","doc":"soups/mushroom \"velouté\".txt","sim":0.8125},"#,
    r#"{"engine":"библиотека","doc":"a\\b\tc","sim":0.30000000000000004},"#,
    r#"{"engine":"pantry","doc":"zero","sim":0.0}],"#,
    r#""estimates":[{"engine":"pantry","no_doc":2.75,"avg_sim":0.5625},"#,
    r#"{"engine":"idle-0","no_doc":0.0,"avg_sim":0.0},"#,
    r#"{"engine":"библиотека","no_doc":1e-7,"avg_sim":0.30000000000000004},"#,
    r#"{"engine":"idle-1","no_doc":0.0,"avg_sim":0.0},"#,
    r#"{"engine":"odd","no_doc":-0.0,"avg_sim":null},"#,
    r#"{"engine":"far","no_doc":1e21,"avg_sim":12345.678}],"#,
    r#""per_engine":[{"engine":"pantry","hits":2,"seconds":0.000125,"outcome":"completed","error":null},"#,
    r#"{"engine":"библиотека","hits":0,"seconds":0.0,"outcome":"failed","error":"refused: connect 127.0.0.1:9: \"refused\"\n"},"#,
    r#"{"engine":"far","hits":0,"seconds":0.0,"outcome":"timed_out","error":"timeout: no reply in 250ms"}],"#,
    r#""served_from":null}"#,
);

#[test]
fn search_reply_is_the_golden_bytes_executed_and_cached() {
    let admin = AdminServer::bind(Arc::new(Fixed), "127.0.0.1:0").unwrap();

    let (head, body) = post_search(admin.addr(), r#"{"query": "soup"}"#);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(
        head.contains(&format!("Content-Length: {}", body.len())),
        "{head}"
    );
    assert!(head.contains("Connection: close"), "{head}");
    assert_eq!(body, GOLDEN_EXECUTED);

    let (_, cached) = post_search(admin.addr(), r#"{"query": "cached"}"#);
    let golden_cached =
        GOLDEN_EXECUTED.replace(r#""served_from":null}"#, r#""served_from":"results"}"#);
    assert_eq!(cached, golden_cached);

    // The same response, twice over one server: a reused buffer or
    // thread must not leak one reply into the next.
    let (_, again) = post_search(admin.addr(), r#"{"query": "soup"}"#);
    assert_eq!(again, GOLDEN_EXECUTED);
    admin.shutdown();
}
