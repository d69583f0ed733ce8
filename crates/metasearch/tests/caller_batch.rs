//! Integration: who runs a plan's in-process searches. The calling
//! thread searches them all, however many there are; a large plan
//! answers as a small one does, and a deadline
//! that has passed stops it before its first search. The suite reads
//! the process-global `engine_searches_total`, so its tests take turns.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, DispatchOutcome, SearchRequest, SearchResponse, SelectionPolicy};
use seu_text::Analyzer;
use std::sync::Mutex;
use std::time::Duration;

/// Held by every test: nothing else in the process searches while one
/// counts.
static TURN: Mutex<()> = Mutex::new(());

/// `n_engines` three-document engines, asked for everything under
/// `timeout`; the response and the engine searches the request made.
fn search_all(n_engines: usize, timeout: Option<Duration>) -> (SearchResponse, u64) {
    let _turn = TURN.lock().unwrap_or_else(|p| p.into_inner());
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for e in 0..n_engines {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for d in 0..3 {
            b.add_document(&format!("doc{d}"), &format!("shared topic words {d}"));
        }
        broker.register(&format!("engine{e:03}"), SearchEngine::new(b.build()));
    }
    let mut req = SearchRequest::new("shared topic")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    if let Some(t) = timeout {
        req = req.timeout(t);
    }
    let searches = seu_obs::counter("engine_searches_total");
    let before = searches.get();
    let resp = broker.execute(&req);
    // Nothing may still be searching on another thread: wait a moment
    // before reading the count.
    std::thread::sleep(Duration::from_millis(20));
    (resp, searches.get() - before)
}

#[test]
fn a_small_local_plan_is_searched_by_the_caller() {
    let (resp, searches) = search_all(12, None);
    assert!(resp.is_complete());
    assert_eq!(resp.hits.len(), 36);
    assert_eq!(searches, 12);
}

#[test]
fn a_100_engine_plan_is_searched_by_the_caller() {
    let (resp, searches) = search_all(100, None);
    assert!(resp.is_complete());
    assert_eq!(searches, 100);
    // Rows come back in plan (registration) order.
    let rows = resp.per_engine_stats.iter().map(|s| s.engine.clone());
    assert!(rows.eq((0..100).map(|e| format!("engine{e:03}"))));
    assert!(resp.per_engine_stats.iter().all(|s| s.hits == 3));
    // The first twelve engines' hits are the twelve-engine broker's.
    let (reference, _) = search_all(12, None);
    for (a, b) in resp.hits.iter().zip(&reference.hits) {
        assert_eq!((&a.engine, &a.doc), (&b.engine, &b.doc));
        assert_eq!(a.sim.to_bits(), b.sim.to_bits());
    }
}

#[test]
fn a_large_plan_past_its_deadline_searches_nothing() {
    let (resp, searches) = search_all(100, Some(Duration::ZERO));
    assert!(resp.hits.is_empty());
    assert_eq!(resp.per_engine_stats.len(), 100);
    assert!(resp
        .per_engine_stats
        .iter()
        .all(|s| s.outcome == DispatchOutcome::TimedOut && s.hits == 0));
    assert_eq!(searches, 0, "a late plan was searched");
}
