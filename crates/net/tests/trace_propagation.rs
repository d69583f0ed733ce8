//! End-to-end trace propagation over the wire: an explained search
//! against a broker mixing local and remote engines must produce one
//! connected span tree whose remote-engine spans were authored on the
//! server side and carry the same trace id.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy};
use seu_net::{EngineServer, RemoteEngine};
use seu_text::Analyzer;
use std::collections::HashSet;
use std::sync::Arc;

fn engine(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    SearchEngine::new(b.build())
}

const DB0: &[&str] = &[
    "relational databases and query optimization",
    "indexing structures for text retrieval",
];
const DB1: &[&str] = &[
    "neural networks for image recognition",
    "databases of labelled images",
];
const DB2: &[&str] = &[
    "mushroom foraging in autumn forests",
    "identifying poisonous mushrooms in databases",
];

fn broker() -> Broker<SubrangeEstimator> {
    Broker::new(SubrangeEstimator::paper_six_subrange())
}

/// The tentpole acceptance test: one explained request through a mixed
/// local/remote broker yields a single connected span tree, and every
/// server-authored remote span carries the request's trace id.
#[test]
fn explained_mixed_search_yields_one_connected_trace() {
    let s1 = EngineServer::bind("db1", engine(DB1), "127.0.0.1:0").unwrap();
    let s2 = EngineServer::bind("db2", engine(DB2), "127.0.0.1:0").unwrap();
    let b = broker();
    b.register("db0", engine(DB0));
    for server in [&s1, &s2] {
        b.register_remote(Arc::new(RemoteEngine::new(server.addr()).unwrap()))
            .unwrap();
    }

    let request = SearchRequest::new("databases")
        .threshold(0.01)
        .policy(SelectionPolicy::All)
        .explain(true);
    let response = b.execute(&request);
    assert!(response.is_complete(), "{:?}", response.per_engine_stats);

    let trace = response.trace.as_ref().expect("explain returns a trace");
    assert!(trace.sampled, "explain forces sampling");

    // One connected tree: every span's parent is another span in the
    // trace (or the root), reachable from the root.
    let ids: HashSet<u64> = trace
        .spans
        .iter()
        .map(|s| s.id.0)
        .chain(std::iter::once(trace.root_span.0))
        .collect();
    for span in &trace.spans {
        if span.id == trace.root_span {
            continue;
        }
        assert!(
            ids.contains(&span.parent.0),
            "orphan span {:?} (parent {:016x})",
            span.name,
            span.parent.0
        );
    }

    // The remote engines' spans were authored server-side and shipped
    // back: same trace id end-to-end, parented under their dispatch
    // spans.
    let remote_spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "remote_search")
        .collect();
    assert_eq!(remote_spans.len(), 2, "one span per remote engine");
    let mut engines_seen = HashSet::new();
    for span in &remote_spans {
        let attr = |k: &str| {
            span.attrs
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(
            attr("trace_id"),
            Some(trace.trace_id.to_hex().as_str()),
            "remote span must carry the caller's trace id"
        );
        engines_seen.insert(attr("engine").unwrap_or_default().to_string());
        let parent = trace
            .spans
            .iter()
            .find(|s| s.id == span.parent)
            .expect("remote span parents into the caller's tree");
        assert!(
            parent.name.starts_with("dispatch:"),
            "remote span hangs under its dispatch span, not {:?}",
            parent.name
        );
    }
    assert_eq!(
        engines_seen,
        HashSet::from(["db1".to_string(), "db2".to_string()])
    );

    // The local engine's dispatch span exists too — same tree.
    assert!(
        trace.spans.iter().any(|s| s.name == "dispatch:db0"),
        "local dispatch span present"
    );

    // And the trace is retained in the store, addressable by id.
    let stored = seu_obs::tracer()
        .store()
        .get(trace.trace_id)
        .expect("explained trace retained in the store");
    assert_eq!(stored.trace_id, trace.trace_id);
}
