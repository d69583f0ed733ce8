//! Representative-lifecycle integration tests: staleness detection,
//! refresh-then-plan (the term-map regression), and epoch-mismatch
//! handling for outstanding plans.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    Broker, EngineRecord, RemoteHit, RemoteTransport, Representative, SearchRequest,
    SelectionPolicy, StaleMode, StoreErrorKind, TransportError, TransportErrorKind,
};
use seu_text::Analyzer;
use std::sync::{Arc, Mutex};

/// The record an engine ships.
fn record_of(name: &str, engine: &SearchEngine) -> EngineRecord {
    EngineRecord::of_engine(name, engine, Representative::build(engine.collection()))
}

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

/// The collection before and after an equal-shape word swap: the same
/// document name, length, term ids and weights, and raw bytes of the
/// same length — only the word behind term id 1 differs.
const BEFORE_SWAP: &[&str] = &["mushroom soup with cream"];
const AFTER_SWAP: &[&str] = &["mushroom stew with cream"];

/// `got` answers both swapped words exactly as `want` does: the same
/// hits, similarities and estimates, compared through `f64::to_bits`.
/// `want` only ever saw the collection after the swap, so "stew" finds
/// its one document and "soup" finds nothing.
fn assert_answers_like(want: &Broker<SubrangeEstimator>, got: &Broker<SubrangeEstimator>) {
    for (text, found) in [("stew", 1), ("soup", 0)] {
        let req = SearchRequest::new(text)
            .threshold(0.1)
            .policy(SelectionPolicy::All)
            .with_estimates(true);
        let (want, got) = (want.execute(&req), got.execute(&req));
        assert_eq!(want.hits.len(), found, "{text}: {:?}", want.hits);
        let hits = |r: &seu_metasearch::SearchResponse| -> Vec<(String, String, u64)> {
            let hit =
                |h: &seu_metasearch::MergedHit| (h.engine.clone(), h.doc.clone(), h.sim.to_bits());
            r.hits.iter().map(hit).collect()
        };
        assert_eq!(hits(&got), hits(&want), "{text}: hits");
        let estimates = |r: &seu_metasearch::SearchResponse| -> Vec<(String, u64, u64)> {
            let bits = |e: &seu_metasearch::EngineEstimate| {
                let u = e.usefulness;
                (e.engine.clone(), u.no_doc.to_bits(), u.avg_sim.to_bits())
            };
            r.estimates.iter().map(bits).collect()
        };
        assert_eq!(estimates(&got), estimates(&want), "{text}: estimates");
    }
}

/// A word swap that keeps every count and every weight is still new
/// content: the entry goes stale, the sweep rebuilds it, and the broker
/// then answers like one that never saw the old words.
#[test]
fn equal_shape_word_swap_is_stale_and_swept() {
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    b.register("cooking", engine_from(BEFORE_SWAP));
    assert!(b.replace_engine("cooking", engine_from(AFTER_SWAP)));
    assert_eq!(b.is_stale("cooking"), Some(true));
    assert_eq!(b.refresh_if_stale(), vec!["cooking".to_string()]);
    assert_eq!(b.is_stale("cooking"), Some(false));

    let fresh = Broker::new(SubrangeEstimator::paper_six_subrange());
    fresh.register("cooking", engine_from(AFTER_SWAP));
    assert_answers_like(&fresh, &b);
}

/// An engine in another process, simulated in this one: it answers
/// searches and snapshots from whatever collection it holds now.
#[derive(Debug)]
struct Swappable {
    engine: Mutex<Arc<SearchEngine>>,
}

impl Swappable {
    fn over(texts: &[&str]) -> Arc<Swappable> {
        let engine = Arc::new(engine_from(texts));
        Arc::new(Swappable {
            engine: Mutex::new(engine),
        })
    }

    fn engine(&self) -> Arc<SearchEngine> {
        self.engine.lock().unwrap().clone()
    }
}

impl RemoteTransport for Swappable {
    fn endpoint(&self) -> String {
        "swappable://cooking".to_string()
    }

    fn search(
        &self,
        query_text: &str,
        threshold: f64,
        _ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        let engine = self.engine();
        let collection = engine.collection();
        let query = collection.query_from_text(query_text);
        let hit = |h: seu_engine::SearchHit| RemoteHit {
            doc: collection.doc(h.doc).name.clone(),
            sim: h.sim,
        };
        let hits = engine.search_threshold(&query, threshold);
        Ok((hits.into_iter().map(hit).collect(), Vec::new()))
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("no oracle is asked")
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        Ok(Arc::new(record_of("cooking", &self.engine())))
    }
}

/// The push half of the same swap: the engine re-indexes and announces
/// its new fingerprint, and the notice must refetch the snapshot rather
/// than be taken for a redelivery of the one the broker holds.
#[test]
fn equal_shape_word_swap_is_pushed_and_refetched() {
    let wire = Swappable::over(BEFORE_SWAP);
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    assert_eq!(b.register_remote(wire.clone()).as_deref(), Ok("cooking"));

    let swapped = Arc::new(engine_from(AFTER_SWAP));
    *wire.engine.lock().unwrap() = swapped.clone();
    let epoch = b.registry_epoch();
    assert_eq!(
        b.apply_invalidation("cooking", swapped.fingerprint()),
        Ok(true)
    );
    assert_eq!(b.registry_epoch(), epoch + 1, "the notice must refetch");
    assert_eq!(b.is_stale("cooking"), Some(false));

    let fresh = Broker::new(SubrangeEstimator::paper_six_subrange());
    let fresh_wire = Swappable::over(AFTER_SWAP);
    assert_eq!(fresh.register_remote(fresh_wire).as_deref(), Ok("cooking"));
    assert_answers_like(&fresh, &b);
}

/// An engine whose fingerprint counts one document more than its
/// representative does. Under tf-idf the count weights every query term, so
/// a broker planning with it live would disagree with the same engine
/// restored from a store, which plans with the fingerprint's count.
#[derive(Debug)]
struct Miscounted(Arc<EngineRecord>);

impl RemoteTransport for Miscounted {
    fn endpoint(&self) -> String {
        "miscounted://tfidf".to_string()
    }

    fn search(
        &self,
        _: &str,
        _: f64,
        _: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        unreachable!("a refused engine is never searched")
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("no oracle is asked")
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        Ok(self.0.clone())
    }
}

#[test]
fn a_snapshot_counting_other_documents_than_its_fingerprint_is_refused() {
    let mut builder =
        CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTfIdf);
    // No term in every document: each keeps a nonzero idf weight, so
    // the snapshot is consistent but for its count.
    builder.add_document("d0", "mushroom soup with cream");
    builder.add_document("d1", "grilled cheese and tomato");
    let engine = SearchEngine::new(builder.build());
    let mut snapshot = record_of("tfidf", &engine);
    assert!(snapshot.is_consistent());
    snapshot.fingerprint.n_docs += 1;
    let snapshot = Arc::new(snapshot);

    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    let installed = b.install_snapshot(snapshot.clone(), None, None);
    assert_eq!(
        installed.map_err(|e| e.kind),
        Err(TransportErrorKind::Protocol)
    );
    let registered = b.register_remote(Arc::new(Miscounted(snapshot)));
    assert_eq!(
        registered.map_err(|e| e.kind),
        Err(TransportErrorKind::Protocol)
    );
    assert!(b.is_empty());
}

#[test]
fn a_store_attached_broker_registers_a_term_no_document_weighs() {
    let mut builder =
        CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTfIdf);
    // `soup` is in every document, so tf-idf weighs it zero and the
    // representative's row for it has `p = 0`: the record is consistent
    // all the same, and ships.
    builder.add_document("d0", "mushroom soup with cream");
    builder.add_document("d1", "tomato soup and bread");
    let engine = SearchEngine::new(builder.build());
    assert!(record_of("tfidf", &engine).is_consistent());

    let dir = std::env::temp_dir().join(format!("seu-registry-tfidf-{}", std::process::id()));
    let store_broker = || {
        Broker::builder(SubrangeEstimator::paper_six_subrange())
            .store(&dir)
            .expect("open store")
            .build()
    };
    let live = store_broker();
    live.register("tfidf", engine);
    live.snapshot_registry().expect("snapshot");
    let restored = store_broker();
    assert_eq!(restored.restore().expect("restore"), 1);
    for query in ["mushroom soup", "tomato bread", "soup"] {
        let a = live.estimate_all(query, 0.1);
        let b = restored.estimate_all(query, 0.1);
        assert_eq!(a.len(), 1);
        assert_eq!(
            a[0].usefulness.no_doc.to_bits(),
            b[0].usefulness.no_doc.to_bits(),
            "{query}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An engine in another process that answers under whatever name it
/// holds now: a different engine server started later on the same
/// endpoint looks exactly like this.
#[derive(Debug)]
struct Renaming {
    name: Mutex<&'static str>,
    engine: Mutex<Arc<SearchEngine>>,
}

impl RemoteTransport for Renaming {
    fn endpoint(&self) -> String {
        "renaming://alpha".to_string()
    }

    fn search(
        &self,
        _: &str,
        _: f64,
        _: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        unreachable!("no request is dispatched")
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("no oracle is asked")
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        let name = *self.name.lock().unwrap();
        Ok(Arc::new(record_of(name, &self.engine.lock().unwrap())))
    }
}

/// A refetch that comes back under another name is refused, by a sweep
/// and by a push notice alike: the entry keeps the record it had and
/// stays stale, rather than holding a record no replica would install.
#[test]
fn a_refetch_under_another_name_is_refused_and_leaves_the_entry_stale() {
    let wire = Arc::new(Renaming {
        name: Mutex::new("alpha"),
        engine: Mutex::new(Arc::new(engine_from(BEFORE_SWAP))),
    });
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    assert_eq!(b.register_remote(wire.clone()).as_deref(), Ok("alpha"));
    let soup = |b: &Broker<SubrangeEstimator>| b.estimate_all("soup", 0.1)[0].usefulness;
    let held = soup(&b);
    assert!(held.no_doc > 0.0);

    *wire.name.lock().unwrap() = "beta";
    let swapped = Arc::new(engine_from(AFTER_SWAP));
    *wire.engine.lock().unwrap() = swapped.clone();
    let epoch = b.registry_epoch();
    assert_eq!(
        b.apply_invalidation("alpha", swapped.fingerprint())
            .map_err(|e| e.kind),
        Err(TransportErrorKind::Protocol)
    );
    assert_eq!(b.is_stale("alpha"), Some(true));
    assert!(!b.refresh_representative("alpha"));
    assert_eq!(b.is_stale("alpha"), Some(true));
    assert_eq!(b.registry_epoch(), epoch);
    assert_eq!(b.engine_names(), vec!["alpha".to_string()]);
    assert_eq!(soup(&b), held, "the entry keeps alpha's record");
}

/// Every store format writes an engine name behind a `u16` length. A
/// store-attached broker keeps a longer name in memory, and the next
/// snapshot reports that the store could not hold it.
#[test]
fn a_store_attached_broker_keeps_a_name_the_store_cannot_write_in_memory() {
    let dir = std::env::temp_dir().join(format!("seu-registry-long-name-{}", std::process::id()));
    let b = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .store(&dir)
        .expect("open store")
        .build();
    let name = "n".repeat(70_000);
    b.register(&name, engine_from(&["mushroom soup with cream"]));
    assert_eq!(b.engine_names(), vec![name]);
    assert_eq!(b.estimate_all("mushroom soup", 0.1).len(), 1);
    assert_eq!(
        b.snapshot_registry().map_err(|e| e.kind),
        Err(StoreErrorKind::Invalid)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A name is one entry. A second registration under a held name, local
/// or shipped, is refused and changes nothing: one entry, one row, one
/// hit, and a removal leaves none behind.
#[test]
fn a_second_registration_under_a_held_name_is_refused() {
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    b.register("a", engine_from(&["mushroom soup with cream"]));
    let epoch = b.registry_epoch();
    b.register("a", engine_from(&["mushroom soup with cream"]));
    b.register_shared("a", Arc::new(engine_from(&["grilled cheese"])));
    let twin = Arc::new(Renaming {
        name: Mutex::new("a"),
        engine: Mutex::new(Arc::new(engine_from(&["mushroom soup"]))),
    });
    assert_eq!(
        b.register_remote(twin).map_err(|e| e.kind),
        Err(TransportErrorKind::Refused)
    );
    let engine = Arc::new(engine_from(&["mushroom soup"]));
    let shipped = Arc::new(record_of("a", &engine));
    assert_eq!(
        b.install_snapshot(shipped.clone(), Some(engine), None)
            .map_err(|e| e.kind),
        Err(TransportErrorKind::Refused)
    );
    assert_eq!(
        b.install_snapshot(shipped, None, Some("nowhere:0".into()))
            .map_err(|e| e.kind),
        Err(TransportErrorKind::Refused)
    );
    assert_eq!(b.engine_names(), ["a"]);
    assert_eq!(b.registry_epoch(), epoch, "a refusal moves no epoch");
    let req = SearchRequest::new("mushroom soup")
        .threshold(0.1)
        .policy(SelectionPolicy::EstimatedUseful)
        .with_estimates(true);
    let resp = b.execute(&req);
    let hits: Vec<_> = resp
        .hits
        .iter()
        .map(|h| (h.engine.as_str(), h.doc.as_str()))
        .collect();
    assert_eq!(hits, [("a", "doc0")]);
    let rows: Vec<_> = resp.estimates.iter().map(|e| e.engine.as_str()).collect();
    assert_eq!(rows, ["a"]);
    assert!(b.deregister("a"));
    assert!(b.is_empty());
    assert_eq!(b.is_stale("a"), None);
    assert!(!b.deregister("a"));
}

/// A manifest that names one engine twice describes no registry a broker
/// could have held: the restore refuses it as corrupt and registers
/// nothing.
#[test]
fn a_manifest_that_repeats_a_name_is_refused() {
    let dir = std::env::temp_dir().join(format!("seu-registry-twice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = || {
        Broker::builder(SubrangeEstimator::paper_six_subrange())
            .shards(4)
            .store(&dir)
            .expect("open store")
            .build()
    };
    let live = stored();
    live.register("a", engine_from(&["mushroom soup with cream"]));
    live.register("b", engine_from(&["relational databases"]));
    live.snapshot_registry().expect("snapshot");
    drop(live);
    {
        use seu_metasearch::ReprStore;
        let store = seu_metasearch::open_tiered(&dir, 0).expect("open store");
        let mut manifest = store.manifest();
        manifest.entries[1].name = "a".to_string();
        store.commit(&manifest).expect("commit");
    }
    let restored = stored();
    assert_eq!(
        restored.restore().map_err(|e| e.kind),
        Err(StoreErrorKind::Corrupt)
    );
    assert!(restored.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// An export refetches a remote engine's record with the check a refresh
/// makes: a transport that now answers under another name is a protocol
/// error, not a record shipped under the wrong name.
#[test]
fn an_export_under_another_name_is_refused() {
    let wire = Arc::new(Renaming {
        name: Mutex::new("alpha"),
        engine: Mutex::new(Arc::new(engine_from(BEFORE_SWAP))),
    });
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    assert_eq!(b.register_remote(wire.clone()).as_deref(), Ok("alpha"));
    let exported = b.export_snapshot("alpha").expect("export");
    assert_eq!(exported.name, "alpha");
    *wire.name.lock().unwrap() = "beta";
    assert_eq!(
        b.export_snapshot("alpha")
            .map(|r| r.name.clone())
            .map_err(|e| e.kind),
        Err(TransportErrorKind::Protocol)
    );
}
