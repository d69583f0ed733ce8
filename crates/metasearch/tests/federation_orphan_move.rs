//! Moves that cannot take the usual way. An engine whose every holder is
//! dead still moves: with no live holder to export its record from, the
//! front door sends the new holder the engine's source alone, and the
//! replica registers it as it does at registration. A move that no new
//! holder accepts leaves the engine where it was, never on no replica.
//! Either way the answers stay bit-identical to a flat broker's.
//!
//! A tf-idf engine with a term in every document is in the corpus on
//! purpose: tf-idf weighs that term zero, so its representative's row
//! for it is empty. Its record ships all the same, with that row, and a
//! join moves it from its live holder like any other engine.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{
    EngineSource, FrontDoor, FrontDoorConfig, InstallSpec, LocalReplica, ReplicaClient,
    SubsetAnswer, SubsetResults,
};
use seu_metasearch::{
    Broker, EngineEstimate, EngineRecord, Pending, SearchRequest, SearchResponse, SelectionPolicy,
    TransportError, TransportErrorKind,
};
use seu_text::Analyzer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const TEXTS: &[(&str, WeightingScheme, &[&str])] = &[
    (
        "tfidf",
        WeightingScheme::CosineTfIdf,
        &["mushroom soup with cream", "tomato soup and bread"],
    ),
    (
        "pantry",
        WeightingScheme::CosineTf,
        &["mushroom soup", "cream of tomato"],
    ),
    (
        "bakery",
        WeightingScheme::CosineTf,
        &["sourdough bread", "bread and soup"],
    ),
    (
        "forest",
        WeightingScheme::CosineTf,
        &["forest mushroom hunting", "forest walks"],
    ),
    (
        "papers",
        WeightingScheme::CosineTf,
        &["query optimization in databases"],
    ),
];

fn corpus() -> Vec<(&'static str, Arc<SearchEngine>)> {
    let engine = |scheme, docs: &[&str]| {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), scheme);
        for (i, d) in docs.iter().enumerate() {
            b.add_document(&format!("d{i}"), d);
        }
        Arc::new(SearchEngine::new(b.build()))
    };
    let build = |&(name, scheme, docs): &(&'static str, WeightingScheme, &[&str])| {
        (name, engine(scheme, docs))
    };
    TEXTS.iter().map(build).collect()
}

/// An in-process replica that refuses every call once killed, and
/// every install if built refusing them.
struct Killable {
    inner: LocalReplica,
    dead: AtomicBool,
    refuses_installs: bool,
}

impl Killable {
    fn new() -> Arc<Killable> {
        Killable::with(false)
    }

    fn refusing_installs() -> Arc<Killable> {
        Killable::with(true)
    }

    fn with(refuses_installs: bool) -> Arc<Killable> {
        let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
        Arc::new(Killable {
            inner: LocalReplica::new(Arc::new(broker)),
            dead: AtomicBool::new(false),
            refuses_installs,
        })
    }

    fn check(&self) -> Result<(), TransportError> {
        if self.dead.load(Ordering::SeqCst) {
            let why = "replica killed by test";
            return Err(TransportError::new(TransportErrorKind::Refused, why));
        }
        Ok(())
    }
}

impl ReplicaClient for Killable {
    fn ping(&self) -> Result<(), TransportError> {
        self.check()
    }

    fn search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<SubsetResults, TransportError> {
        self.check()?;
        self.inner.search_subset(query, threshold, engines)
    }

    fn begin_plan_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
        policy: Option<SelectionPolicy>,
    ) -> Box<dyn Pending<SubsetAnswer>> {
        match self.check() {
            Ok(()) => self
                .inner
                .begin_plan_subset(query, threshold, engines, policy),
            Err(e) => Box::new(Err(e)),
        }
    }

    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError> {
        self.check()?;
        if self.refuses_installs {
            let why = format!("replica refuses to install {:?}", spec.name);
            return Err(TransportError::new(TransportErrorKind::Protocol, why));
        }
        self.inner.install(spec)
    }

    fn remove_engine(&self, name: &str) -> Result<bool, TransportError> {
        self.check()?;
        self.inner.remove_engine(name)
    }

    fn export_engine(&self, name: &str) -> Result<Arc<EngineRecord>, TransportError> {
        self.check()?;
        self.inner.export_engine(name)
    }
}

fn assert_identical(control: &SearchResponse, fed: &SearchResponse, ctx: &str) {
    let estimates = |r: &SearchResponse| -> Vec<(String, u64, u64)> {
        let rows = r.estimates.iter();
        let bits = |e: &EngineEstimate| {
            let u = e.usefulness;
            (e.engine.clone(), u.no_doc.to_bits(), u.avg_sim.to_bits())
        };
        rows.map(bits).collect()
    };
    assert_eq!(estimates(control), estimates(fed), "{ctx}: estimates");
    let hits = |r: &SearchResponse| -> Vec<(String, String, u64)> {
        let rows = r.hits.iter();
        rows.map(|h| (h.engine.clone(), h.doc.clone(), h.sim.to_bits()))
            .collect()
    };
    assert_eq!(hits(control), hits(fed), "{ctx}: hits");
    let invoked = |r: &SearchResponse| -> Vec<(String, usize)> {
        let rows = r.per_engine_stats.iter();
        rows.map(|s| (s.engine.clone(), s.hits)).collect()
    };
    assert_eq!(invoked(control), invoked(fed), "{ctx}: invocation");
}

#[test]
fn an_engine_with_no_live_holder_moves_by_its_source() {
    let corpus = corpus();
    let control = Broker::new(SubrangeEstimator::paper_six_subrange());
    let fd = FrontDoor::new(FrontDoorConfig::default());
    let replicas: Vec<(String, Arc<Killable>)> = (0..3)
        .map(|i| (format!("replica-{i}"), Killable::new()))
        .collect();
    for (id, replica) in &replicas {
        fd.add_replica(id, replica.clone());
    }
    for (name, engine) in &corpus {
        control.register_shared(name, engine.clone());
        fd.register_engine(name, EngineSource::Local(engine.clone()))
            .expect("register");
    }

    // Kill both holders of the tf-idf engine, then take them off the
    // ring one by one: the first leave moves it to the survivor, which
    // no dead holder can export to.
    let placements = fd.placements();
    let holders = &placements.iter().find(|(e, _)| e == "tfidf").unwrap().1;
    assert_eq!(holders.len(), 2);
    let (dead, live): (Vec<_>, Vec<_>) = replicas.iter().partition(|(id, _)| holders.contains(id));
    let survivor = &live[0].0;
    for (_, replica) in &dead {
        replica.dead.store(true, Ordering::SeqCst);
    }
    let report = fd.remove_replica(&dead[0].0).expect("known id");
    let orphan_moves: Vec<_> = report.moves.iter().filter(|m| m.from.is_none()).collect();
    assert!(
        orphan_moves.iter().any(|m| m.engine == "tfidf"),
        "the tf-idf engine moves: {report:?}"
    );
    for m in &orphan_moves {
        assert_eq!(&m.to, survivor, "{report:?}");
        assert!(!m.shipped_snapshot, "no live exporter, no record: {m:?}");
    }
    // The only errors are the dead replicas refusing their calls.
    for (engine, error) in &report.errors {
        assert_eq!(error.kind, TransportErrorKind::Refused, "{engine}: {error}");
    }
    let report = fd.remove_replica(&dead[1].0).expect("known id");
    assert!(report.moves.is_empty(), "{report:?}");

    for (engine, holders) in fd.placements() {
        assert_eq!(holders, vec![survivor.clone()], "{engine}");
    }
    let policies = [
        SelectionPolicy::All,
        SelectionPolicy::EstimatedUseful,
        SelectionPolicy::TopK(2),
    ];
    for query in ["soup", "mushroom soup", "tomato bread", "forest databases"] {
        for policy in policies {
            let req = SearchRequest::new(query)
                .threshold(0.0)
                .policy(policy)
                .with_estimates(true);
            let (fed, report) = fd.execute_with_report(&req);
            let ctx = format!("{query:?} {policy:?}");
            assert!(
                report.failures.is_empty() && report.unresolved.is_empty(),
                "{ctx}: {report:?}"
            );
            assert_identical(&control.execute(&req), &fed, &ctx);
        }
    }
}

/// Every answer of `fd` over `queries`, under `All`, against `control`'s.
fn assert_all_identical(control: &Broker<SubrangeEstimator>, fd: &FrontDoor, queries: &[&str]) {
    for &query in queries {
        let req = SearchRequest::new(query)
            .threshold(0.0)
            .policy(SelectionPolicy::All)
            .with_estimates(true);
        let (fed, report) = fd.execute_with_report(&req);
        assert!(report.unresolved.is_empty(), "{query:?}: {report:?}");
        assert_identical(&control.execute(&req), &fed, query);
    }
}

#[test]
fn a_join_moves_a_tfidf_engine_by_its_record() {
    // A join exports each moving engine's record from its live holder:
    // the tf-idf record, with its row for a term no document weighs,
    // installs on the new holder like every other.
    let corpus = corpus();
    let control = Broker::new(SubrangeEstimator::paper_six_subrange());
    let fd = FrontDoor::new(FrontDoorConfig::default());
    fd.add_replica("replica-0", Killable::new());
    for (name, engine) in &corpus {
        control.register_shared(name, engine.clone());
        fd.register_engine(name, EngineSource::Local(engine.clone()))
            .expect("register");
    }
    let report = fd
        .add_replica("replica-1", Killable::new())
        .expect("new id");
    assert!(report.errors.is_empty(), "{report:?}");
    let tfidf = report.moves.iter().find(|m| m.engine == "tfidf");
    let tfidf = tfidf.unwrap_or_else(|| panic!("the tf-idf engine moves: {report:?}"));
    assert_eq!(tfidf.from.as_deref(), Some("replica-0"), "{tfidf:?}");
    assert!(tfidf.shipped_snapshot, "{tfidf:?}");
    for (engine, holders) in fd.placements() {
        assert_eq!(holders.len(), 2, "{engine}: {holders:?}");
    }
    assert_all_identical(&control, &fd, &["soup", "mushroom soup", "tomato bread"]);
}

#[test]
fn a_move_no_new_holder_accepts_keeps_the_engine_where_it_was() {
    // A join exports each moving engine's record from its live holder;
    // the new holders refuse every install, so no engine can move, and
    // each must stay put.
    let corpus = corpus();
    let control = Broker::new(SubrangeEstimator::paper_six_subrange());
    let fd = FrontDoor::new(FrontDoorConfig::default());
    fd.add_replica("replica-0", Killable::new());
    let tfidf = &corpus[0].1;
    let names: Vec<String> = (0..8).map(|i| format!("tfidf-{i}")).collect();
    for name in &names {
        control.register_shared(name, tfidf.clone());
        fd.register_engine(name, EngineSource::Local(tfidf.clone()))
            .expect("register");
    }
    for id in ["replica-1", "replica-2"] {
        let report = fd
            .add_replica(id, Killable::refusing_installs())
            .expect("new id");
        for (engine, error) in &report.errors {
            assert_eq!(
                error.kind,
                TransportErrorKind::Protocol,
                "{engine}: {error}"
            );
        }
    }
    let placements = fd.placements();
    assert!(
        placements.iter().all(|(_, holders)| !holders.is_empty()),
        "an engine lost its last holder: {placements:?}"
    );
    assert_all_identical(&control, &fd, &["soup", "mushroom soup", "tomato bread"]);
}
