//! A cache-on broker behind the HTTP door: the reply a cache hit is
//! served from (the answer's rows, rendered once at insert) carries the
//! bytes the cold execution's reply did, and both are `search_json` of
//! the same request executed with the cache bypassed — only
//! `served_from` tells them apart. An `explain` request is never cached
//! and carries its trace in the reply's tail.
//!
//! The engines are remote doubles that answer with fixed hits and a
//! fixed `seconds`, so three executions of one query are byte-identical
//! where an in-process engine's wall clock would differ.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    Broker, CacheMode, EngineRecord, Pending, RemoteHit, RemoteTransport, Representative,
    SearchReply, SearchRequest, SelectionPolicy, TransportError,
};
use seu_net::AdminServer;
use seu_obs::json::{self, Json};
use seu_text::Analyzer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// A remote engine holding `docs`, whose every search answers `hits`
/// in `seconds`.
#[derive(Debug)]
struct Canned {
    record: Arc<EngineRecord>,
    hits: Vec<(&'static str, f64)>,
    seconds: f64,
}

impl Canned {
    fn new(name: &str, docs: &[&str], hits: Vec<(&'static str, f64)>, seconds: f64) -> Canned {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, text) in docs.iter().enumerate() {
            b.add_document(&format!("doc{i}"), text);
        }
        let engine = SearchEngine::new(b.build());
        let repr = Representative::build(engine.collection());
        Canned {
            record: Arc::new(EngineRecord::of_engine(name, &engine, repr)),
            hits,
            seconds,
        }
    }

    fn hits(&self) -> Vec<RemoteHit> {
        let hit = |&(doc, sim): &(&str, f64)| RemoteHit {
            doc: doc.to_string(),
            sim,
        };
        self.hits.iter().map(hit).collect()
    }
}

impl RemoteTransport for Canned {
    fn endpoint(&self) -> String {
        format!("canned:{}", self.record.name)
    }

    fn search(
        &self,
        _: &str,
        _: f64,
        _: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        Ok((self.hits(), Vec::new()))
    }

    fn begin_search(
        &self,
        _: &str,
        _: f64,
        _: Option<&seu_obs::TraceContext>,
    ) -> Box<dyn Pending<SearchReply>> {
        Box::new(Ok::<_, TransportError>(SearchReply {
            hits: self.hits(),
            spans: Vec::new(),
            seconds: self.seconds,
        }))
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("a search never asks the oracle")
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        Ok(Arc::clone(&self.record))
    }
}

fn post_search(addr: SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!(
        "POST /search HTTP/1.1\r\nHost: cached\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").expect("reply has a head");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(
        head.contains(&format!("Content-Length: {}\r\n", body.len())),
        "{head}"
    );
    body.to_string()
}

#[test]
fn a_cached_reply_is_the_cold_reply_and_an_explained_one_is_never_cached() {
    let broker = Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()));
    let pantry = Canned::new(
        "pantry",
        &["mushroom soup with cream", "tomato soup and basil"],
        vec![("soups/mushroom \"velouté\".txt", 0.8125), ("tomato", 0.25)],
        0.000125,
    );
    let library = Canned::new(
        "библиотека",
        &["a history of soup kitchens"],
        vec![("a\\b\tc", 0.30000000000000004)],
        1.5e-5,
    );
    broker.register_remote(Arc::new(pantry)).unwrap();
    broker.register_remote(Arc::new(library)).unwrap();
    let admin = AdminServer::bind(broker.clone(), "127.0.0.1:0").unwrap();
    let books = || {
        let s = broker.cache_stats().expect("the cache is on by default");
        (s.entries, s.hits, s.misses)
    };

    let query = r#"{"query":"soup","all":true}"#;
    let cold = post_search(admin.addr(), query);
    assert!(cold.ends_with(r#","served_from":null}"#), "{cold}");
    assert_eq!(books(), (1, 0, 1));
    let cached = post_search(admin.addr(), query);
    assert_eq!(books(), (1, 1, 1));
    assert_eq!(
        cached,
        cold.replace(r#""served_from":null}"#, r#""served_from":"results"}"#)
    );

    // The request the door made, executed with the cache bypassed.
    let req = SearchRequest::new("soup")
        .policy(SelectionPolicy::All)
        .with_estimates(true);
    let bypassed = broker.execute(&req.clone().cache(CacheMode::Bypass));
    assert_eq!(bypassed.hits.len(), 3);
    assert_eq!(seu_net::http::search_json(&bypassed), cold);
    // And in process, the hit the door was served from.
    assert_eq!(seu_net::http::search_json(&broker.execute(&req)), cached);
    assert_eq!(books(), (1, 2, 1));

    // An explained request runs cold every time, is not kept, and
    // carries its own trace after the rows the cold reply carried.
    let rows = cold.strip_suffix(r#","served_from":null}"#).unwrap();
    let explain = r#"{"query":"soup","all":true,"explain":true}"#;
    let mut trace_ids = Vec::new();
    for _ in 0..2 {
        let explained = post_search(admin.addr(), explain);
        let tail = explained
            .strip_prefix(rows)
            .unwrap_or_else(|| panic!("{explained}"));
        assert!(
            tail.starts_with(r#","served_from":null,"trace":{"#),
            "{tail}"
        );
        let reply = json::parse(&explained).unwrap();
        let trace = reply.get("trace").unwrap();
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name") == Some(&Json::Str("dispatch".into()))));
        trace_ids.push(trace.get("trace_id").cloned().unwrap());
    }
    assert_ne!(trace_ids[0], trace_ids[1]);
    assert_eq!(
        books(),
        (1, 2, 1),
        "explain neither reads nor fills the cache"
    );
    admin.shutdown();
}
