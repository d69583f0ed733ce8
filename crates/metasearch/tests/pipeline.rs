//! Integration: the SearchRequest pipeline against the pre-pipeline
//! semantics, the dispatch concurrency bound, and the analysis-once
//! guarantee.

use seu_core::{SubrangeEstimator, Usefulness, UsefulnessEstimator};
use seu_corpus::many_databases;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{
    merge_results, Broker, MergedHit, Representative, SearchRequest, SelectionPolicy,
};
use seu_text::Analyzer;

fn tiny_engine(topic: &str, n_docs: usize) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for i in 0..n_docs {
        b.add_document(
            &format!("{topic}-{i}"),
            &format!("{topic} document number {i}"),
        );
    }
    SearchEngine::new(b.build())
}

/// Dispatch across 64 engines never runs more searches at once than the
/// configured worker count.
#[test]
fn dispatch_respects_the_worker_bound() {
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .worker_threads(4)
        .build();
    for i in 0..64 {
        broker.register(&format!("engine{i}"), tiny_engine("shared topic words", 3));
    }
    let resp = broker.execute(
        &SearchRequest::new("shared topic")
            .threshold(0.0)
            .policy(SelectionPolicy::All),
    );
    assert_eq!(resp.per_engine_stats.len(), 64);
    assert!(resp.is_complete());
    let (threads, peak) = broker.pool_stats();
    assert_eq!(threads, 4);
    assert!(peak >= 1, "dispatch never ran?");
    assert!(
        peak <= 4,
        "peak concurrency {peak} exceeded the 4-worker bound"
    );
}

/// `execute` reproduces the pre-pipeline semantics exactly on the paper's
/// 53-database workload: same estimates, same selection, same merged
/// hits — bit for bit, because the shared analysis path builds the same
/// query vectors `query_from_text` would.
#[test]
fn execute_matches_legacy_semantics_on_the_paper_workload() {
    let dbs = many_databases(7, 6);
    assert_eq!(dbs.len(), 53);

    let estimator = SubrangeEstimator::paper_six_subrange();
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    let mut reference: Vec<(String, SearchEngine)> = Vec::new();
    for (name, collection) in dbs {
        let engine = SearchEngine::new(collection);
        reference.push((name.clone(), engine.clone()));
        broker.register(&name, engine);
    }

    for (query_text, threshold) in [
        ("topic00 topic00term1 topic00term2", 0.2),
        ("topic05term1 topic12term1", 0.1),
        ("topic25term0 background words", 0.05),
        ("completely unknown zebra terms", 0.1),
    ] {
        // Independent reference: per-engine analysis, estimation,
        // selection, retrieval, merge — the seed broker's code path.
        let mut estimates: Vec<Usefulness> = Vec::new();
        for (_, engine) in &reference {
            let repr = Representative::build(engine.collection());
            let query = engine.collection().query_from_text(query_text);
            estimates.push(estimator.estimate(&repr, &query, threshold));
        }
        let selected = SelectionPolicy::EstimatedUseful.select(&estimates);
        let per_engine: Vec<Vec<MergedHit>> = selected
            .iter()
            .map(|&i| {
                let (name, engine) = &reference[i];
                let query = engine.collection().query_from_text(query_text);
                engine
                    .search_threshold(&query, threshold)
                    .into_iter()
                    .map(|h| MergedHit {
                        engine: name.clone(),
                        doc: engine.collection().doc(h.doc).name.clone(),
                        sim: h.sim,
                    })
                    .collect()
            })
            .collect();
        let expected = merge_results(per_engine);

        let req = SearchRequest::new(query_text)
            .threshold(threshold)
            .with_estimates(true);
        let resp = broker.execute(&req);
        assert_eq!(
            resp.estimates
                .iter()
                .map(|e| e.usefulness)
                .collect::<Vec<_>>(),
            estimates,
            "estimates diverged for {query_text:?}"
        );
        assert_eq!(
            resp.selected(),
            selected
                .iter()
                .map(|&i| reference[i].0.clone())
                .collect::<Vec<_>>(),
            "selection diverged for {query_text:?}"
        );
        assert_eq!(resp.hits, expected, "hits diverged for {query_text:?}");
        // The wrappers ride the same pipeline.
        assert_eq!(
            broker.search(query_text, threshold, SelectionPolicy::EstimatedUseful),
            expected
        );
    }
}

/// One query is analyzed once, no matter how many engines are registered.
#[test]
fn query_analysis_runs_once_per_request() {
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for i in 0..16 {
        broker.register(&format!("engine{i}"), tiny_engine("analysis topic", 2));
    }

    let analyses = |snap: &seu_obs::Snapshot| {
        snap.counters
            .get("broker_query_analyses_total")
            .copied()
            .unwrap_or(0)
    };

    let before = seu_obs::global().snapshot();
    let _ = broker.execute(&SearchRequest::new("analysis topic").policy(SelectionPolicy::All));
    let after = seu_obs::global().snapshot();
    assert_eq!(
        analyses(&after) - analyses(&before),
        1,
        "16 same-config engines should share one analysis pass"
    );

    // The legacy wrappers inherit the guarantee: one pass per call. The
    // query cache holds finished answers only, so select() plans for
    // itself and search() — a threshold and policy the execute above
    // did not answer — plans again.
    let before = seu_obs::global().snapshot();
    let _ = broker.select("analysis topic", 0.1, SelectionPolicy::EstimatedUseful);
    let _ = broker.search("analysis topic", 0.1, SelectionPolicy::EstimatedUseful);
    let after = seu_obs::global().snapshot();
    assert_eq!(analyses(&after) - analyses(&before), 2);

    // Forcing the cold path restores one analysis pass per request.
    let before = seu_obs::global().snapshot();
    let _ = broker.execute(
        &SearchRequest::new("analysis topic")
            .threshold(0.1)
            .cache(seu_metasearch::CacheMode::Bypass),
    );
    let after = seu_obs::global().snapshot();
    assert_eq!(analyses(&after) - analyses(&before), 1);
}

/// Failure and timeout accounting surfaces in the metrics the response
/// reports.
#[test]
fn timeout_budget_is_counted() {
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    broker.register("solo", tiny_engine("timeout topic", 4));

    let timeouts = |snap: &seu_obs::Snapshot| {
        snap.counters
            .get("broker_engine_timeouts_total")
            .copied()
            .unwrap_or(0)
    };

    let before = seu_obs::global().snapshot();
    let resp = broker.execute(
        &SearchRequest::new("timeout topic")
            .threshold(0.0)
            .policy(SelectionPolicy::All)
            .timeout(std::time::Duration::ZERO),
    );
    let after = seu_obs::global().snapshot();
    assert!(resp.hits.is_empty());
    assert!(!resp.is_complete());
    assert_eq!(timeouts(&after) - timeouts(&before), 1);
}
