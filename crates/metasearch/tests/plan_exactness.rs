//! Plan exactness: whatever route the planner takes from the query text
//! to an engine's query vector, row `i` of a plan must carry exactly the
//! vector the engine's own collection would build from the text
//! ([`Collection::query_from_text`](seu_engine::Collection::query_from_text))
//! and exactly the estimate the broker's estimator gives for that vector
//! against the representative the broker holds — compared through
//! `f64::to_bits`, over a flat and a 4-shard registry.
//!
//! The registry mixes every kind of entry a plan can meet: in-process
//! engines under three analyzer configurations, engines behind a
//! transport, entries installed or restored detached and hydrated from a
//! store, engines re-attached with the same and with other content, a
//! shipped representative, an engine swapped for identical content, and
//! one replaced but not refreshed — which contributes the empty query
//! until a refresh reconciles it.
//!
//! This file was written against, and passes at, the commit before the
//! planner started reading per-shard postings instead of per-engine term
//! maps; it is the evidence that the two routes agree.

use seu_core::{SubrangeEstimator, UsefulnessEstimator};
use seu_engine::{CollectionBuilder, Query, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    Broker, EngineSnapshot, RemoteHit, RemoteTransport, Representative, SearchRequest,
    SelectionPolicy, TransportError,
};
use seu_store::{codec, EngineRecord};
use seu_text::{Analyzer, AnalyzerConfig};
use std::path::PathBuf;
use std::sync::Arc;

type TestBroker = Broker<SubrangeEstimator>;

/// The paper's pipeline: stopwords out, no stemming.
const DEFAULT: AnalyzerConfig = AnalyzerConfig {
    remove_stopwords: true,
    stem: false,
};
const STEMMED: AnalyzerConfig = AnalyzerConfig {
    remove_stopwords: true,
    stem: true,
};
const RAW: AnalyzerConfig = AnalyzerConfig {
    remove_stopwords: false,
    stem: false,
};

fn engine_with(config: AnalyzerConfig, docs: &[&str]) -> Arc<SearchEngine> {
    let mut b = CollectionBuilder::new(Analyzer::new(config), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    Arc::new(SearchEngine::new(b.build()))
}

/// A fresh engine over the same documents (the broker's calls take
/// engines by value).
fn owned(engine: &SearchEngine) -> SearchEngine {
    SearchEngine::new(engine.collection().clone())
}

/// An engine behind a transport; planning only ever asks it for its
/// snapshot.
#[derive(Debug)]
struct Wire {
    name: &'static str,
    engine: Arc<SearchEngine>,
}

impl RemoteTransport for Wire {
    fn endpoint(&self) -> String {
        format!("wire://{}", self.name)
    }

    fn search(
        &self,
        _query_text: &str,
        _threshold: f64,
        _ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        unreachable!("planning never dispatches")
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("planning never asks the oracle")
    }

    fn fetch_snapshot(&self) -> Result<EngineSnapshot, TransportError> {
        Ok(EngineSnapshot::of_engine(self.name, &self.engine))
    }
}

/// What row `name` of every plan must be.
struct Expected {
    name: &'static str,
    /// The engine whose own `query_from_text` the row's query must equal;
    /// `None` for the replaced-not-refreshed entry, whose row carries
    /// the empty query.
    speaks: Option<Arc<SearchEngine>>,
    /// The representative the broker holds for it.
    repr: Representative,
}

fn row(name: &'static str, engine: &Arc<SearchEngine>, repr: Representative) -> Expected {
    Expected {
        name,
        speaks: Some(engine.clone()),
        repr,
    }
}

fn built(engine: &SearchEngine) -> Representative {
    Representative::build(engine.collection())
}

/// What a store-attached broker installs for `repr`: the quantized
/// round-trip of its record.
fn canonical(name: &str, engine: &SearchEngine, repr: &Representative) -> Representative {
    let c = engine.collection();
    let record = EngineRecord {
        name: name.to_string(),
        analyzer: c.analyzer_config(),
        scheme: c.scheme(),
        fingerprint: engine.fingerprint(),
        doc_freq: Arc::new(c.vocab().iter().map(|(id, _)| c.doc_freq(id)).collect()),
        vocab: Arc::new(c.vocab().clone()),
        repr: Arc::new(repr.clone()),
    };
    (*codec::roundtrip(&record).repr).clone()
}

const QUERIES: &[&str] = &[
    "",
    "soup",
    "mushroom soup",
    "soup soup mushroom cream",
    "index",
    "indexes",
    "indexes scanning tables",
    "the soup of the day",
    "query index optimizer",
    "porcini risotto",
    "gradient network frame socket",
    "zebra xylophone",
    "scanning scanned scans the forest walks",
    "walk forest bread",
];

const THRESHOLDS: &[f64] = &[0.0, 0.1, 0.3];

fn assert_exact(broker: &TestBroker, expected: &[Expected], ctx: &str) {
    let estimator = SubrangeEstimator::paper_six_subrange();
    let names: Vec<&str> = expected.iter().map(|e| e.name).collect();
    for text in QUERIES {
        for &threshold in THRESHOLDS {
            let req = SearchRequest::new(*text)
                .threshold(threshold)
                .policy(SelectionPolicy::All);
            let plan = broker.plan(&req, None);
            let planned: Vec<&str> = plan.engines().iter().map(|e| e.name.as_str()).collect();
            assert_eq!(planned, names, "{ctx}: row order for {text:?}");
            for (got, want) in plan.engines().iter().zip(expected) {
                let query = match &want.speaks {
                    Some(engine) => engine.collection().query_from_text(text),
                    None => Query::new([]),
                };
                assert_eq!(
                    got.query(),
                    &query,
                    "{ctx}: query of {} for {text:?}",
                    want.name
                );
                let bits = |q: &Query| -> Vec<u64> {
                    q.terms().iter().map(|&(_, w)| w.to_bits()).collect()
                };
                assert_eq!(
                    bits(got.query()),
                    bits(&query),
                    "{ctx}: weights of {} for {text:?}",
                    want.name
                );
                let usefulness = estimator.estimate(&want.repr, &query, threshold);
                assert_eq!(
                    (
                        got.usefulness.no_doc.to_bits(),
                        got.usefulness.avg_sim.to_bits()
                    ),
                    (usefulness.no_doc.to_bits(), usefulness.avg_sim.to_bits()),
                    "{ctx}: estimate of {} for {text:?} at {threshold}: {:?} vs {:?}",
                    want.name,
                    got.usefulness,
                    usefulness
                );
            }
            // The estimate list is the same rows under another name.
            let estimates = plan.estimates();
            assert_eq!(estimates.len(), expected.len());
            for (e, p) in estimates.iter().zip(plan.engines()) {
                assert_eq!(e.engine, p.name);
                assert_eq!(e.usefulness.no_doc.to_bits(), p.usefulness.no_doc.to_bits());
            }
        }
    }
}

const COOKING: &[&str] = &[
    "mushroom soup with cream",
    "baking sourdough bread",
    "soup of the day",
];
const DATABASES: &[&str] = &[
    "relational databases and query planning",
    "an index speeds the query optimizer",
    "indexes and scanning of tables",
];
const STEMMING: &[&str] = &[
    "indexes scanning tables",
    "scanned forests and walks",
    "the soups of the day",
];
const VERBATIM: &[&str] = &[
    "the soup of the day",
    "the index of the tables",
    "walks in the forest",
];
const NETWORK: &[&str] = &[
    "network gradient descent",
    "gradient estimate variance",
    "network socket frame",
];
const NETWORK_STEMMED: &[&str] = &["sockets framing networks", "gradients descending"];
const FOREST_1: &[&str] = &["bread soup mushroom", "mushroom forest walk"];
const FOREST_2: &[&str] = &["bread soup mushroom", "porcini risotto", "forest walk"];

/// Every kind of entry a store-less broker can hold, checked after each
/// lifecycle step that changes what a plan reads.
fn storeless(shards: usize) {
    let ctx = |step: &str| format!("{shards} shard(s), no store, {step}");
    let b: TestBroker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .build();

    let cooking = engine_with(DEFAULT, COOKING);
    let databases = engine_with(DEFAULT, DATABASES);
    let stemming = engine_with(STEMMED, STEMMING);
    let verbatim = engine_with(RAW, VERBATIM);
    let network = engine_with(DEFAULT, NETWORK);
    let network_stemmed = engine_with(STEMMED, NETWORK_STEMMED);
    let forest_1 = engine_with(DEFAULT, FOREST_1);
    let forest_2 = engine_with(DEFAULT, FOREST_2);

    b.register("cooking", owned(&cooking));
    b.register_shared("databases", databases.clone());
    b.register("stemming", owned(&stemming));
    b.register("verbatim", owned(&verbatim));
    let wire = |name: &'static str, engine: &Arc<SearchEngine>| {
        Arc::new(Wire {
            name,
            engine: engine.clone(),
        })
    };
    assert_eq!(
        b.register_remote(wire("network", &network)).as_deref(),
        Ok("network")
    );
    assert_eq!(
        b.register_remote(wire("network-stemmed", &network_stemmed))
            .as_deref(),
        Ok("network-stemmed")
    );
    b.register("swapped", owned(&forest_1));
    b.register("twin", owned(&forest_1));
    b.register("refreshed", owned(&forest_1));
    let shipped = Representative::from_bytes(built(&forest_2).to_bytes()).expect("round trip");
    b.register_with_representative("shipped", owned(&forest_2), shipped.clone());
    assert_eq!(
        b.install_snapshot(
            EngineSnapshot::of_engine("installed", &stemming),
            None,
            Some("wire://installed".to_string()),
        )
        .as_deref(),
        Ok("installed")
    );
    assert_eq!(
        b.install_snapshot(
            EngineSnapshot::of_engine("installed-live", &verbatim),
            Some(verbatim.clone()),
            None,
        )
        .as_deref(),
        Ok("installed-live")
    );

    let mut expected = vec![
        row("cooking", &cooking, built(&cooking)),
        row("databases", &databases, built(&databases)),
        row("stemming", &stemming, built(&stemming)),
        row("verbatim", &verbatim, built(&verbatim)),
        row("network", &network, built(&network)),
        row("network-stemmed", &network_stemmed, built(&network_stemmed)),
        row("swapped", &forest_1, built(&forest_1)),
        row("twin", &forest_1, built(&forest_1)),
        row("refreshed", &forest_1, built(&forest_1)),
        row("shipped", &forest_2, shipped),
        row("installed", &stemming, built(&stemming)),
        row("installed-live", &verbatim, built(&verbatim)),
    ];
    assert_exact(&b, &expected, &ctx("registered"));

    // Replaced, not refreshed: the representative still describes the
    // old collection, so the row is the empty query until a refresh.
    assert!(b.replace_engine("swapped", owned(&forest_2)));
    expected[6].speaks = None;
    // Replaced by identical content: nothing to reconcile.
    assert!(b.replace_engine("twin", owned(&forest_1)));
    // Replaced and refreshed: the new collection's terms are planned.
    assert!(b.replace_engine("refreshed", owned(&forest_2)));
    assert!(b.refresh_representative("refreshed"));
    expected[8] = row("refreshed", &forest_2, built(&forest_2));
    assert_exact(&b, &expected, &ctx("replaced"));

    // Removing a first, a middle and a last entry shifts the others.
    for name in ["cooking", "network", "installed-live"] {
        assert!(b.deregister(name));
        expected.retain(|e| e.name != name);
        assert_exact(&b, &expected, &ctx(&format!("deregistered {name}")));
    }

    // An update of a representative keeps the row's query.
    let quantized = Representative::from_bytes(built(&databases).to_bytes()).expect("round trip");
    assert!(b.update_representative("databases", quantized.clone()));
    expected[0] = row("databases", &databases, quantized);
    // The sweep reconciles the sidelined entry.
    assert_eq!(b.refresh_if_stale(), vec!["swapped".to_string()]);
    let at = expected.iter().position(|e| e.name == "swapped").unwrap();
    expected[at] = row("swapped", &forest_2, built(&forest_2));
    // A registration after removals lands behind everything else.
    b.register("cooking", owned(&cooking));
    expected.push(row("cooking", &cooking, built(&cooking)));
    assert_exact(&b, &expected, &ctx("swept"));
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("seu-plan-exactness-{}-{tag}", std::process::id()))
}

fn store_broker(dir: &PathBuf, shards: usize) -> TestBroker {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(dir)
        .expect("open store")
        .build()
}

/// Written through a store at `shards_in`, restored at `shards_out`:
/// detached entries hydrate on the first plan and are re-attached one by
/// one.
fn restored(shards_in: usize, shards_out: usize) {
    let ctx = |step: &str| format!("{shards_in} -> {shards_out} shard(s), store, {step}");
    let dir = tmp_dir(&format!("{shards_in}-{shards_out}"));
    let _ = std::fs::remove_dir_all(&dir);

    let cooking = engine_with(DEFAULT, COOKING);
    let databases = engine_with(DEFAULT, DATABASES);
    let stemming = engine_with(STEMMED, STEMMING);
    let verbatim = engine_with(RAW, VERBATIM);
    let network = engine_with(DEFAULT, NETWORK);
    let forest_1 = engine_with(DEFAULT, FOREST_1);
    let forest_2 = engine_with(DEFAULT, FOREST_2);
    let wire = Arc::new(Wire {
        name: "network",
        engine: network.clone(),
    });

    let live = store_broker(&dir, shards_in);
    live.register("cooking", owned(&cooking));
    live.register("databases", owned(&databases));
    live.register("stemming", owned(&stemming));
    live.register("verbatim", owned(&verbatim));
    assert_eq!(live.register_remote(wire.clone()).as_deref(), Ok("network"));
    live.register("forest", owned(&forest_1));
    live.register("grove", owned(&forest_1));
    let stored = |name: &'static str, engine: &Arc<SearchEngine>| {
        row(name, engine, canonical(name, engine, &built(engine)))
    };
    let mut expected = vec![
        stored("cooking", &cooking),
        stored("databases", &databases),
        stored("stemming", &stemming),
        stored("verbatim", &verbatim),
        stored("network", &network),
        stored("forest", &forest_1),
        stored("grove", &forest_1),
    ];
    assert_exact(&live, &expected, &ctx("live"));
    live.snapshot_registry().expect("snapshot");

    // Every entry comes back detached and cold; the first plan hydrates.
    let b = store_broker(&dir, shards_out);
    assert_eq!(b.restore().expect("restore"), expected.len());
    assert_exact(&b, &expected, &ctx("restored"));
    assert_eq!(b.hydrate(), 0, "the first plan hydrated everything");

    // Same content: the hydrated representative and term translation
    // are kept.
    assert!(b.attach_engine("cooking", owned(&cooking)));
    assert_eq!(b.attach_remote(wire), Ok(true));
    assert_exact(&b, &expected, &ctx("attached same"));

    // Other content: rebuilt from the live collection, through the store.
    assert!(b.attach_engine("forest", owned(&forest_2)));
    expected[5] = stored("forest", &forest_2);
    // A restored entry replaced by other content is sidelined like any
    // other, by the same content it plans at once.
    assert!(b.replace_engine("grove", owned(&forest_2)));
    expected[6].speaks = None;
    assert!(b.replace_engine("databases", owned(&databases)));
    assert_exact(&b, &expected, &ctx("attached other"));

    assert_eq!(b.refresh_if_stale(), vec!["grove".to_string()]);
    expected[6] = stored("grove", &forest_2);
    assert!(b.deregister("stemming"));
    expected.remove(2);
    assert_exact(&b, &expected, &ctx("swept"));

    drop(b);
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plans_without_a_store_are_exact_flat_and_sharded() {
    storeless(1);
    storeless(4);
}

#[test]
fn plans_over_restored_entries_are_exact_flat_and_sharded() {
    restored(1, 4);
    restored(4, 1);
    restored(4, 4);
}
