//! Integration: who runs a plan's in-process searches. A plan over a
//! few local engines is searched by the calling thread and touches no
//! worker; a larger one goes to the pool in batches and answers as the
//! caller alone would. (The timeout budget on the caller is held by
//! `pipeline.rs`'s and the broker's zero-budget tests, whose plans are
//! small.)

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, SearchRequest, SearchResponse, SelectionPolicy};
use seu_text::Analyzer;

/// `n_engines` three-document engines behind two workers, asked for
/// everything; the response and the most jobs the pool ran at once.
fn search_all(n_engines: usize) -> (SearchResponse, u64) {
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .worker_threads(2)
        .build();
    for e in 0..n_engines {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for d in 0..3 {
            b.add_document(&format!("doc{d}"), &format!("shared topic words {d}"));
        }
        broker.register(&format!("engine{e:03}"), SearchEngine::new(b.build()));
    }
    let req = SearchRequest::new("shared topic")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    let resp = broker.execute(&req);
    assert!(resp.is_complete());
    (resp, broker.pool_stats().1)
}

#[test]
fn a_small_local_plan_is_searched_by_the_caller() {
    let (resp, peak) = search_all(12);
    assert_eq!(resp.hits.len(), 36);
    assert_eq!(peak, 0, "a 12-engine plan went to the pool");
}

#[test]
fn the_pool_answers_like_the_caller_alone() {
    // 100 engines over 2 workers: two batches.
    let (resp, peak) = search_all(100);
    assert!((1..=2).contains(&peak), "pool ran {peak} batches at once");
    // Rows come back in plan (registration) order whoever ran them.
    let rows = resp.per_engine_stats.iter().map(|s| s.engine.clone());
    assert!(rows.eq((0..100).map(|e| format!("engine{e:03}"))));
    assert!(resp.per_engine_stats.iter().all(|s| s.hits == 3));
    // The first twelve engines' hits are the twelve-engine broker's.
    let (reference, _) = search_all(12);
    for (a, b) in resp.hits.iter().zip(&reference.hits) {
        assert_eq!((&a.engine, &a.doc), (&b.engine, &b.doc));
        assert_eq!(a.sim.to_bits(), b.sim.to_bits());
    }
}
