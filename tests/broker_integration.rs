//! Broker integration: representatives crossing a (simulated) network
//! boundary, quantized registration, policy behaviour, and agreement
//! between selective search and broadcast search.

use seu::corpus::queries::query_text;
use seu::metasearch::{Broker, EngineRecord};
use seu::prelude::*;
use seu_net::wire::{record_from_bytes, record_to_bytes};
use std::path::PathBuf;
use std::sync::Arc;

/// A store-backed broker over D1–D3, and the store's directory, removed
/// with it.
struct ThreeEngines {
    broker: Broker<SubrangeEstimator>,
    dir: PathBuf,
}

impl std::ops::Deref for ThreeEngines {
    type Target = Broker<SubrangeEstimator>;

    fn deref(&self) -> &Self::Target {
        &self.broker
    }
}

impl Drop for ThreeEngines {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn three_engine_broker(tag: &str) -> ThreeEngines {
    let ds = seu::corpus::paper_datasets(7);
    let dir = std::env::temp_dir().join(format!("seu-three-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The store serves every representative in its canonical form, the
    // paper's one-byte quantization.
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .store(&dir)
        .expect("open store")
        .build();

    // D1 and D3 register normally; D2 ships its record as bytes.
    broker.register("D1", SearchEngine::new(ds.d1.clone()));

    let d2 = Arc::new(SearchEngine::new(ds.d2.clone()));
    let record = EngineRecord::of_engine("D2", &d2, Representative::build(d2.collection()));
    let shipped = record_from_bytes(&record_to_bytes(&record)).expect("intact");
    broker
        .install_snapshot(Arc::new(shipped), Some(d2), None)
        .expect("consistent snapshot");

    broker.register("D3", SearchEngine::new(ds.d3.clone()));

    ThreeEngines { broker, dir }
}

#[test]
fn selective_search_finds_what_broadcast_finds() {
    let broker = three_engine_broker("selective");
    let ds = seu::corpus::paper_datasets(7);
    let mut total_hits = 0usize;
    let mut lost = 0usize;
    for tokens in ds.queries.iter().take(150) {
        let text = query_text(tokens);
        let all = broker.search(&text, 0.2, SelectionPolicy::All);
        let selected = broker.search(&text, 0.2, SelectionPolicy::EstimatedUseful);
        total_hits += all.len();
        // Selective search may only lose hits from unselected engines.
        for h in &all {
            if !selected.contains(h) {
                lost += 1;
            }
        }
        // And must never invent hits.
        for h in &selected {
            assert!(all.contains(h), "invented hit {h:?}");
        }
    }
    // The estimator's misses cost at most a small fraction of all hits.
    assert!(
        (lost as f64) < 0.05 * total_hits.max(1) as f64,
        "lost {lost} of {total_hits}"
    );
}

#[test]
fn policies_are_consistent() {
    let broker = three_engine_broker("policies");
    let query = "tp0x120 tp0x37";
    let useful = broker.select(query, 0.1, SelectionPolicy::EstimatedUseful);
    let top1 = broker.select(query, 0.1, SelectionPolicy::TopK(1));
    let all = broker.select(query, 0.1, SelectionPolicy::All);
    assert_eq!(all.len(), 3);
    assert!(useful.len() <= all.len());
    assert_eq!(top1.len(), 1);
    if !useful.is_empty() {
        // The top-1 engine must be one of the useful ones.
        assert!(useful.contains(&top1[0]));
    }
}

#[test]
fn estimates_are_reported_for_every_engine() {
    let broker = three_engine_broker("estimates");
    let est = broker.estimate_all("bg100 bg200", 0.1);
    assert_eq!(est.len(), 3);
    let names: Vec<&str> = est.iter().map(|e| e.engine.as_str()).collect();
    assert_eq!(names, ["D1", "D2", "D3"]);
}

#[test]
fn quantized_registration_still_selects_sensibly() {
    let broker = three_engine_broker("quantized");
    let ds = seu::corpus::paper_datasets(7);
    // D3 spans topics 27..53; strongly topical D3 queries should select
    // D3 and not D1/D2 (topics 0..3).
    fn topic_of(term: &str) -> Option<usize> {
        term.strip_prefix("tp")?.split('x').next()?.parse().ok()
    }
    let mut d3_selected = 0;
    let mut agree = 0;
    let mut queries_tried = 0;
    for tokens in ds.queries.iter().filter(|q| {
        q.len() >= 2
            && q.iter()
                .all(|t| topic_of(t).is_some_and(|k| (27..53).contains(&k)))
    }) {
        let text = query_text(tokens);
        let sel = broker.select(&text, 0.1, SelectionPolicy::EstimatedUseful);
        let oracle = broker.oracle_select(&text, 0.1);
        queries_tried += 1;
        if sel.contains(&"D3".to_string()) {
            d3_selected += 1;
        }
        if sel == oracle {
            agree += 1;
        }
        // D3-only topical terms cannot appear in D1 (topic 0) or D2
        // (topics 1-2), so neither may ever be selected.
        assert!(!sel.contains(&"D1".to_string()), "{text}");
        assert!(!sel.contains(&"D2".to_string()), "{text}");
    }
    assert!(
        queries_tried > 10,
        "workload should contain D3-topical queries"
    );
    // Selection through a quantized representative still agrees with the
    // oracle almost always, and D3 does get selected when warranted.
    assert!(
        agree * 10 >= queries_tried * 9,
        "oracle agreement {agree}/{queries_tried}"
    );
    assert!(d3_selected > 0);
}
