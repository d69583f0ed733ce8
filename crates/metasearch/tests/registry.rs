//! Representative-lifecycle integration tests: staleness detection,
//! refresh-then-plan (the term-map regression), and epoch-mismatch
//! handling for outstanding plans.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy, StaleMode};
use seu_text::Analyzer;

fn engine_from(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("doc{i}"), t);
    }
    SearchEngine::new(b.build())
}

fn broker() -> Broker<SubrangeEstimator> {
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    b.register(
        "cooking",
        engine_from(&["mushroom soup with cream", "baking sourdough bread"]),
    );
    b.register(
        "databases",
        engine_from(&["relational databases and query planning"]),
    );
    b
}

/// The headline regression: an engine re-indexes and gains terms its
/// representative has never seen. Before the refresh those terms are
/// invisible to planning (dropped from query translation); after a
/// `refresh_if_stale` sweep they must reach the global vocabulary, the
/// rebuilt term map, the estimates, and the merged hits.
#[test]
fn new_terms_become_visible_after_refresh() {
    let b = broker();
    assert_eq!(b.is_stale("cooking"), Some(false));

    // The cooking engine re-indexes remotely: same engine name, one new
    // document whose vocabulary ("porcini", "risotto") postdates
    // registration.
    assert!(b.replace_engine(
        "cooking",
        engine_from(&[
            "mushroom soup with cream",
            "baking sourdough bread",
            "porcini risotto with parmesan",
        ]),
    ));
    assert_eq!(b.is_stale("cooking"), Some(true));
    assert_eq!(b.is_stale("databases"), Some(false));
    assert_eq!(b.is_stale("nope"), None);

    // Stale: the new terms translate to nothing, so the engine looks
    // useless for them and contributes no hits.
    let req = SearchRequest::new("porcini risotto")
        .threshold(0.1)
        .policy(SelectionPolicy::EstimatedUseful)
        .with_estimates(true);
    let resp = b.execute(&req);
    assert!(resp.hits.is_empty(), "{:?}", resp.hits);
    // An engine without a row (the stale one among them) estimates 0.
    let est = |resp: &seu_metasearch::SearchResponse, name: &str| {
        resp.estimates
            .iter()
            .find(|e| e.engine == name)
            .map_or(0.0, |e| e.usefulness.no_doc)
    };
    assert_eq!(est(&resp, "cooking"), 0.0);

    // The sweep refreshes exactly the stale engine.
    let refreshed = b.refresh_if_stale();
    assert_eq!(refreshed, vec!["cooking".to_string()]);
    assert_eq!(b.is_stale("cooking"), Some(false));
    // Idempotent: nothing left to refresh.
    assert!(b.refresh_if_stale().is_empty());

    // Fresh: the new terms estimate non-zero and the new document is
    // retrievable through the broker.
    let resp = b.execute(&req);
    assert!(est(&resp, "cooking") > 0.0);
    assert!(resp.hits.iter().any(|h| h.doc == "doc2"), "{:?}", resp.hits);
}

/// `refresh_representative` alone (no sweep) must also rebuild the term
/// map — replacing the representative without it was the original bug.
#[test]
fn explicit_refresh_rebuilds_term_map() {
    let b = broker();
    assert!(b.replace_engine(
        "cooking",
        engine_from(&["mushroom soup", "porcini everywhere"]),
    ));
    let stale = b.plan(&SearchRequest::new("porcini").threshold(0.05), None);
    assert!(stale.selected_names().is_empty(), "{stale:?}");

    assert!(b.refresh_representative("cooking"));
    let fresh = b.plan(&SearchRequest::new("porcini").threshold(0.05), None);
    assert_eq!(fresh.selected_names(), vec!["cooking".to_string()]);
}

#[test]
fn epoch_mismatch_is_detected_and_typed() {
    let b = broker();
    let plan = b.plan(
        &SearchRequest::new("soup").policy(SelectionPolicy::All),
        None,
    );
    let epoch_before = b.registry_epoch();
    assert_eq!(plan.epoch, epoch_before);

    // Nothing changed: strict re-estimation succeeds.
    assert!(b.try_reestimate(&plan, 0.1, None).is_ok());

    // A refresh bumps the registry: the outstanding plan is stale.
    assert!(b.refresh_representative("cooking"));
    assert_eq!(b.registry_epoch(), epoch_before + 1);
    let err = b.try_reestimate(&plan, 0.1, None).unwrap_err();
    assert_eq!(err.plan_epoch, epoch_before);
    assert_eq!(err.registry_epoch, epoch_before + 1);

    // The lenient path replans transparently and matches fresh estimates.
    assert_eq!(b.reestimate(&plan, 0.1), b.estimate_all("soup", 0.1));
}

#[test]
fn execute_plan_honors_stale_mode() {
    let b = broker();
    let req = SearchRequest::new("soup").threshold(0.1);
    let plan = b.plan(&req, None);

    // Fresh plan: both modes execute.
    assert!(b.execute_plan(&req, &plan).is_ok());
    assert!(b
        .execute_plan(&req.clone().stale_mode(StaleMode::Error), &plan)
        .is_ok());

    assert!(b.refresh_representative("cooking"));

    // Stale + strict: typed error, no dispatch.
    let err = b
        .execute_plan(&req.clone().stale_mode(StaleMode::Error), &plan)
        .unwrap_err();
    assert!(err.registry_epoch > err.plan_epoch, "{err}");

    // Stale + default: replans and answers like a fresh execute.
    let resp = b.execute_plan(&req, &plan).expect("replan");
    assert_eq!(resp.hits, b.execute(&req).hits);
}

#[test]
fn engine_statuses_track_epochs() {
    let b = broker();
    let statuses = b.engine_statuses();
    assert_eq!(statuses.len(), 2);
    assert!(statuses.iter().all(|s| s.epoch == 0 && !s.stale));
    assert!(statuses
        .iter()
        .all(|s| s.repr_terms > 0 && s.repr_bytes > 0));

    assert!(b.refresh_representative("cooking"));
    let statuses = b.engine_statuses();
    let by = |name: &str| statuses.iter().find(|s| s.name == name).unwrap();
    assert_eq!(by("cooking").epoch, 1);
    assert_eq!(by("databases").epoch, 0);
}

/// Regression: `replace_engine` swaps the collection without rebuilding
/// the term map, so a plan made *after* the swap (epoch-fresh, nothing
/// to replan) used to translate query terms through a map whose local
/// ids could be out of range in the new, smaller vocabulary — an index
/// panic inside query weighting. Planning must detect the misaligned
/// map and sideline the entry (no query vector is consistent with both
/// the old representative and the new collection) until a refresh
/// reconciles them.
#[test]
fn plan_survives_replacement_with_smaller_vocabulary() {
    let b = broker();
    // The replacement has a far smaller vocabulary than the original,
    // so old local term ids point past the new doc_freq table.
    assert!(b.replace_engine("cooking", engine_from(&["soup"])));

    let req = SearchRequest::new("mushroom soup with cream sourdough")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    let resp = b.execute(&req); // must not panic
    assert!(resp.is_complete(), "{:?}", resp.per_engine_stats);
    // Mid-propagation the entry contributes nothing — not a panic, not
    // an estimate derived from mismatched term ids.
    assert!(
        resp.hits.iter().all(|h| h.engine != "cooking"),
        "{:?}",
        resp.hits
    );

    // After the sweep reconciles map and collection, the replacement's
    // surviving document is retrievable again.
    assert_eq!(b.refresh_if_stale(), vec!["cooking".to_string()]);
    let fresh = b.execute(&req);
    assert!(
        fresh.hits.iter().any(|h| h.engine == "cooking"),
        "{:?}",
        fresh.hits
    );
}

/// `registry_snapshot` must capture each shard's statuses and epoch
/// under one lock acquisition. The invariant — per shard, epoch equals
/// registrations plus the sum of entry epochs — only survives
/// concurrent mutation if the cut is consistent; re-locking per engine
/// would tear it.
#[test]
fn registry_snapshot_is_consistent_epoch_cut() {
    use std::sync::Arc;

    let b = Arc::new(
        Broker::builder(SubrangeEstimator::paper_six_subrange())
            .shards(4)
            .build(),
    );
    let names: Vec<String> = (0..16).map(|i| format!("db-{i}")).collect();
    for name in &names {
        b.register(name, engine_from(&["alpha beta gamma", "delta epsilon"]));
    }

    std::thread::scope(|scope| {
        for t in 0..3usize {
            let b = Arc::clone(&b);
            let names = &names;
            scope.spawn(move || {
                for k in 0..80 {
                    let name = &names[(t * 31 + k * 7) % names.len()];
                    if k % 3 == 0 {
                        assert!(b.replace_engine(name, engine_from(&["zeta eta theta"])));
                    } else {
                        assert!(b.refresh_representative(name));
                    }
                }
            });
        }
        let b = Arc::clone(&b);
        scope.spawn(move || {
            let mut last_epoch = 0;
            for _ in 0..300 {
                let snap = b.registry_snapshot();
                assert!(snap.epoch >= last_epoch, "epoch regressed");
                last_epoch = snap.epoch;
                assert_eq!(snap.epoch, snap.shard_epochs.iter().sum::<u64>());
                for (i, &shard_epoch) in snap.shard_epochs.iter().enumerate() {
                    let in_shard: Vec<_> = snap.statuses.iter().filter(|s| s.shard == i).collect();
                    let expected =
                        in_shard.len() as u64 + in_shard.iter().map(|s| s.epoch).sum::<u64>();
                    assert_eq!(
                        shard_epoch,
                        expected,
                        "shard {i}: torn status snapshot ({} entries)",
                        in_shard.len()
                    );
                }
            }
        });
    });

    // Statuses keep exact registration order even across shards.
    let snap = b.registry_snapshot();
    let status_names: Vec<_> = snap.statuses.iter().map(|s| s.name.clone()).collect();
    assert_eq!(status_names, names);
    assert_eq!(b.engine_statuses(), snap.statuses);
}

/// Shipped representatives carry no content hash, so staleness for them
/// is judged on totals; an update with matching totals stays fresh.
#[test]
fn shipped_representative_staleness_uses_totals() {
    let engine = engine_from(&["mushroom soup with cream"]);
    let repr = seu_repr::Representative::build(engine.collection());
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    b.register_with_representative("cooking", engine, repr);
    assert_eq!(b.is_stale("cooking"), Some(false));

    // A snapshot with a different document count is visibly stale.
    assert!(b.replace_engine(
        "cooking",
        engine_from(&["mushroom soup with cream", "second course"]),
    ));
    assert_eq!(b.is_stale("cooking"), Some(true));
    assert_eq!(b.refresh_if_stale(), vec!["cooking".to_string()]);
    assert_eq!(b.is_stale("cooking"), Some(false));
}
