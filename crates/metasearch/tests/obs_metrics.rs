//! Integration: a full broker round trip populates the expected metric
//! series in the global registry.
//!
//! The test reads counter values before and after (rather than clearing
//! the registry) because instrument handles are cached per process — a
//! cleared registry would silently orphan them for every later test in
//! the binary.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, SelectionPolicy};
use seu_text::Analyzer;

fn engine(docs: &[(&str, &str)]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (name, text) in docs {
        b.add_document(name, text);
    }
    SearchEngine::new(b.build())
}

#[test]
fn broker_search_populates_expected_metrics() {
    let before = seu_obs::global().snapshot();

    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    broker.register(
        "cooking",
        engine(&[
            ("d0", "mushroom soup with cream and chives"),
            ("d1", "grilled cheese sandwich with tomato"),
        ]),
    );
    broker.register(
        "astronomy",
        engine(&[
            ("d2", "telescope mirror grinding at home"),
            ("d3", "neutron star merger lights the sky"),
        ]),
    );
    let selected = broker.select("mushroom soup", 0.1, SelectionPolicy::EstimatedUseful);
    assert_eq!(selected, vec!["cooking".to_string()]);
    let hits = broker.search("mushroom soup", 0.1, SelectionPolicy::EstimatedUseful);
    assert!(!hits.is_empty());

    let after = seu_obs::global().snapshot();
    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };

    assert_eq!(delta("broker_queries_total"), 1);
    assert_eq!(delta("broker_selects_total"), 1);
    // select() and search() each size up every registered engine.
    assert_eq!(delta("broker_engines_considered_total"), 4);
    assert!(delta("broker_engines_selected_total") >= 2);
    assert!(delta("broker_merge_hits_total") >= 1);
    // One subrange estimate per (cold call, engine that contains a query
    // term): select() plans a row for both engines but consults only
    // "cooking" — the registry's term postings place neither word in
    // "astronomy", whose row is (0, 0) by construction — and search()
    // plans the same way again: the query cache holds finished answers,
    // not plans.
    assert!(delta("estimator_subrange_invocations_total") >= 1);
    // The cache hit therefore comes from repeating the search, which is
    // served the answer the first one left (taken after `after`, so the
    // exact counts above stay those of one select and one search).
    let repeat = broker.search("mushroom soup", 0.1, SelectionPolicy::EstimatedUseful);
    assert_eq!(repeat, hits);
    let cache_hits = |snap: &seu_obs::Snapshot| snap.counters["broker_cache_hits_total"];
    assert!(cache_hits(&seu_obs::global().snapshot()) > cache_hits(&after));
    assert!(delta("estimator_poly_expansions_total") >= 1);
    assert!(delta("engine_searches_total") >= 1);
    assert!(delta("engine_docs_scored_total") >= 1);

    let count = |snap: &seu_obs::Snapshot, name: &str| {
        snap.histograms.get(name).map(|h| h.count).unwrap_or(0)
    };
    for hist in [
        "broker_query_latency_seconds",
        "broker_select_latency_seconds",
        "broker_merge_result_size",
    ] {
        assert!(
            count(&after, hist) > count(&before, hist),
            "{hist} got no observation"
        );
        let h = &after.histograms[hist];
        assert!(h.p50.is_some(), "{hist} has no quantiles");
    }
}

#[test]
fn lifecycle_metrics_track_refreshes_and_stale_plans() {
    let before = seu_obs::global().snapshot();

    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    broker.register(
        "cooking",
        engine(&[("d0", "mushroom soup with cream and chives")]),
    );

    // Gauges sum across live brokers (other tests run in parallel), so
    // assert on this broker's own contribution being included: the
    // registry gauge moved up by at least this broker's one engine.
    let gauge =
        |snap: &seu_obs::Snapshot, name: &str| snap.gauges.get(name).copied().unwrap_or(0.0);
    let mid = seu_obs::global().snapshot();
    assert!(
        gauge(&mid, "broker_registry_engines") >= gauge(&before, "broker_registry_engines"),
        "registry gauge went backwards across a registration"
    );
    assert!(gauge(&mid, "broker_representative_bytes_resident") > 0.0);

    let plan = broker.plan(&seu_metasearch::SearchRequest::new("soup"), None);
    assert!(broker.refresh_representative("cooking"));
    assert!(broker.try_reestimate(&plan, 0.1, None).is_err());

    let after = seu_obs::global().snapshot();
    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    assert!(delta("broker_representative_refreshes_total") >= 1);
    assert!(delta("broker_stale_plans_total") >= 1);
}
