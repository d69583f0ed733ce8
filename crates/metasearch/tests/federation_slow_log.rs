//! A slow federated request is logged like a slow broker request: the
//! front door finishes through the broker's own request epilogue, so
//! `seu front-door --slow-ms / --trace-out` writes one `slow_query` line
//! per over-budget request, and an unsampled slow trace is kept with
//! coarse `dispatch:<engine>` spans back-filled from the stats rows.
//!
//! Its own binary: the tracer (sample rate, slow threshold, slow-log
//! sink, trace store) is process-global.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{EngineSource, FrontDoor, FrontDoorConfig, LocalReplica};
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy};
use seu_obs::json::{self, Json};
use seu_text::Analyzer;
use std::sync::Arc;
use std::time::Duration;

const TEXTS: &[(&str, &[&str])] = &[
    ("pantry", &["mushroom soup with cream", "tomato soup"]),
    ("bakery", &["sourdough bread at home", "bread and soup"]),
    ("papers", &["query optimization in databases"]),
    (
        "forest",
        &["forest walks", "mushroom hunting in the forest"],
    ),
];

fn engine(docs: &[&str]) -> Arc<SearchEngine> {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    Arc::new(SearchEngine::new(b.build()))
}

#[test]
fn a_slow_federated_search_writes_one_slow_query_line() {
    let fd = FrontDoor::new(FrontDoorConfig::default());
    for id in ["replica-0", "replica-1", "replica-2"] {
        let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
        fd.add_replica(id, Arc::new(LocalReplica::new(Arc::new(broker))));
    }
    for (name, docs) in TEXTS {
        fd.register_engine(name, EngineSource::Local(engine(docs)))
            .expect("register");
    }

    let log = std::env::temp_dir().join(format!("seu-fed-slow-{}.log", std::process::id()));
    let tracer = seu_obs::tracer();
    tracer.set_sample_rate(0);
    tracer.set_slow_threshold(Duration::from_nanos(1));
    tracer.set_slow_log_file(Some(std::fs::File::create(&log).expect("slow log")));
    tracer.store().clear();

    let req = SearchRequest::new("mushroom soup")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    let resp = fd.execute(&req);
    tracer.set_slow_log_file(None);
    let text = std::fs::read_to_string(&log).expect("read slow log");
    std::fs::remove_file(&log).ok();

    assert!(resp.trace.is_none(), "no explain, no trace in the reply");
    let stats = &resp.per_engine_stats;
    assert!(
        stats.len() >= 2,
        "the query reaches several engines: {stats:?}"
    );
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one slow_query line: {text}");
    let line = json::parse(lines[0]).expect("the line is JSON");
    let field = |key| line.get(key).unwrap_or_else(|| panic!("{key} in {text}"));
    assert_eq!(field("event").as_str(), Some("slow_query"));
    assert_eq!(field("query").as_str(), Some("mushroom soup"));
    assert_eq!(field("hits").as_num(), Some(resp.hits.len() as f64));
    let rows = field("engines").as_arr().expect("engines array");
    let logged: Vec<(&str, f64)> = rows
        .iter()
        .map(|r| {
            let engine = r.get("engine").and_then(Json::as_str).expect("engine");
            (engine, r.get("hits").and_then(Json::as_num).expect("hits"))
        })
        .collect();
    let want: Vec<(&str, f64)> = stats
        .iter()
        .map(|s| (s.engine.as_str(), s.hits as f64))
        .collect();
    assert_eq!(logged, want, "one engines row per stats row");

    // Unsampled but slow: the trace is kept, with one synthesized
    // `dispatch:<engine>` span per stats row under its root.
    let kept = tracer.store().recent();
    assert_eq!(kept.len(), 1, "one trace retained");
    let trace = &kept[0];
    assert!(trace.slow && !trace.sampled);
    assert_eq!(trace.name, "federated_search");
    assert_eq!(
        field("trace_id").as_str(),
        Some(trace.trace_id.to_hex().as_str())
    );
    let spans: Vec<&str> = trace.spans[1..].iter().map(|s| s.name.as_str()).collect();
    let want: Vec<String> = stats
        .iter()
        .map(|s| format!("dispatch:{}", s.engine))
        .collect();
    assert_eq!(spans, want, "back-filled spans");
    assert!(trace.spans[1..].iter().all(|s| s.parent == trace.root_span));
}
