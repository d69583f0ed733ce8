//! The front door's placement ledger: where every engine sits, and what
//! each membership change moved, removed and refused, on a fixed corpus
//! and three in-process replicas.
//!
//! A registration and a rebalance place engines through the same step,
//! so this pins both by value: the holders after each event, every
//! `Move` (its source, its target, whether a record was shipped), every
//! removal and every refusal, and the `federation_rebalance*` counters,
//! which count rebalances and their moves but never a registration. A
//! registration that every candidate refuses leaves nothing behind. Its
//! own binary, since it reads process-global counters.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{
    EngineSource, FrontDoor, FrontDoorConfig, LocalReplica, RebalanceReport,
};
use seu_metasearch::{Broker, TransportErrorKind};
use seu_text::Analyzer;
use std::sync::Arc;

const TEXTS: &[(&str, &[&str])] = &[
    ("pantry", &["mushroom soup with cream", "tomato soup"]),
    ("bakery", &["sourdough bread at home", "rye bread"]),
    ("papers", &["query optimization in databases"]),
    (
        "forest",
        &["forest walks", "mushroom hunting in the forest"],
    ),
    ("network", &["socket frames on the network"]),
    ("ranking", &["cosine rank merge", "rank by estimate"]),
];

fn engine(docs: &[&str]) -> Arc<SearchEngine> {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    Arc::new(SearchEngine::new(b.build()))
}

fn replica() -> Arc<LocalReplica> {
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    Arc::new(LocalReplica::new(Arc::new(broker)))
}

/// `(rebalances, moves)` so far.
fn counters() -> (u64, u64) {
    let get = |name| seu_obs::counter(name).get();
    (
        get("federation_rebalances_total"),
        get("federation_rebalance_moves_total"),
    )
}

fn owned(rows: &[(&str, &[&str])]) -> Vec<(String, Vec<String>)> {
    let row =
        |&(e, h): &(&str, &[&str])| (e.to_string(), h.iter().map(|s| s.to_string()).collect());
    rows.iter().map(row).collect()
}

/// A report as `(moves, removals, errors)`: a move is
/// `engine from→to shipped`, a removal `engine@replica`, an error
/// `engine: kind`.
fn ledger(report: &RebalanceReport) -> (Vec<String>, Vec<String>, Vec<String>) {
    let moves = report.moves.iter().map(|m| {
        let from = m.from.as_deref().unwrap_or("-");
        format!("{} {from}->{} {}", m.engine, m.to, m.shipped_snapshot)
    });
    let removals = report.removals.iter().map(|(e, r)| format!("{e}@{r}"));
    let errors = report
        .errors
        .iter()
        .map(|(e, err)| format!("{e}: {:?}", err.kind));
    (moves.collect(), removals.collect(), errors.collect())
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn registration_join_leave_and_refusal_are_pinned() {
    let fd = FrontDoor::new(FrontDoorConfig::default());
    let start = counters();

    // Two founding replicas: each join rebalances an empty ledger.
    for id in ["replica-0", "replica-1"] {
        let report = fd.add_replica(id, replica()).expect("new id");
        assert_eq!(ledger(&report), (vec![], vec![], vec![]), "{id} joins");
    }
    assert_eq!(counters(), (start.0 + 2, start.1));

    // Registration: on the first two candidates, which with two
    // replicas is both. No rebalance is counted.
    for (name, docs) in &TEXTS[..4] {
        fd.register_engine(name, EngineSource::Local(engine(docs)))
            .expect("register");
    }
    assert_eq!(
        fd.placements(),
        owned(&[
            ("pantry", &["replica-0", "replica-1"]),
            ("bakery", &["replica-1", "replica-0"]),
            ("papers", &["replica-0", "replica-1"]),
            ("forest", &["replica-1", "replica-0"]),
        ])
    );
    assert_eq!(counters(), (start.0 + 2, start.1));

    // A join: the engines whose chain now holds the joiner are shipped
    // to it from a live holder, and leave the holder it displaced.
    let report = fd.add_replica("replica-2", replica()).expect("new id");
    let (moves, removals, errors) = ledger(&report);
    let want = [
        "pantry replica-0->replica-2 true",
        "bakery replica-1->replica-2 true",
        "forest replica-1->replica-2 true",
    ];
    assert_eq!(moves, strings(&want), "join moves");
    let want = ["pantry@replica-1", "bakery@replica-0", "forest@replica-0"];
    assert_eq!(removals, strings(&want), "join removals");
    assert_eq!(errors, strings(&[]), "join errors");
    assert_eq!(counters(), (start.0 + 3, start.1 + 3));

    // A registration on three replicas: its first two candidates.
    for (name, docs) in &TEXTS[4..] {
        fd.register_engine(name, EngineSource::Local(engine(docs)))
            .expect("register");
    }
    assert_eq!(
        fd.placements(),
        owned(&[
            ("pantry", &["replica-0", "replica-2"]),
            ("bakery", &["replica-1", "replica-2"]),
            ("papers", &["replica-0", "replica-1"]),
            ("forest", &["replica-2", "replica-1"]),
            ("network", &["replica-2", "replica-1"]),
            ("ranking", &["replica-0", "replica-2"]),
        ])
    );
    assert_eq!(counters(), (start.0 + 3, start.1 + 3));

    // A leave: the leaver's engines are exported from it while it is
    // still reachable and installed on the survivor that replaces it.
    let report = fd.remove_replica("replica-0").expect("known id");
    let (moves, removals, errors) = ledger(&report);
    let want = [
        "pantry replica-0->replica-1 true",
        "papers replica-0->replica-2 true",
        "ranking replica-0->replica-1 true",
    ];
    assert_eq!(moves, strings(&want), "leave moves");
    let want = ["pantry@replica-0", "papers@replica-0", "ranking@replica-0"];
    assert_eq!(removals, strings(&want), "leave removals");
    assert_eq!(errors, strings(&[]), "leave errors");
    assert_eq!(counters(), (start.0 + 4, start.1 + 6));
    let settled = owned(&[
        ("pantry", &["replica-2", "replica-1"]),
        ("bakery", &["replica-1", "replica-2"]),
        ("papers", &["replica-1", "replica-2"]),
        ("forest", &["replica-2", "replica-1"]),
        ("network", &["replica-2", "replica-1"]),
        ("ranking", &["replica-2", "replica-1"]),
    ]);
    assert_eq!(fd.placements(), settled);

    // A registration every candidate refuses: an in-process replica
    // cannot dial an endpoint. The first refusal comes back, and the
    // ledger is as it was.
    let source = EngineSource::Remote {
        endpoint: "127.0.0.1:9".to_string(),
    };
    let refused = fd.register_engine("elsewhere", source).unwrap_err();
    assert_eq!(refused.kind, TransportErrorKind::Protocol);
    assert!(refused.detail.contains("cannot dial"), "{refused}");
    assert_eq!(fd.len(), TEXTS.len());
    assert_eq!(fd.placements(), settled);
    assert_eq!(counters(), (start.0 + 4, start.1 + 6));
}
