//! A replica install is all or nothing over the wire too. An order
//! that ships an engine's snapshot with an endpoint nobody listens on
//! is refused, and the refusal leaves the replica holding nothing: a
//! detached leftover would answer the front door's retry with `Ok`
//! (the name is already held) and fail every search of it. The same
//! snapshot with the live endpoint then installs an engine whose search
//! through the replica completes.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{EngineSource, InstallSpec, ReplicaClient};
use seu_metasearch::{Broker, DispatchOutcome, EngineRecord, Representative};
use seu_net::{EngineServer, RemoteReplica, ReplicaServer};
use seu_text::Analyzer;
use std::net::TcpListener;
use std::sync::Arc;

fn cookbook() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom soup with cream");
    b.add_document("d1", "grilled cheese with tomato soup");
    SearchEngine::new(b.build())
}

/// An address that refuses connections: bound, then released.
fn nobody_listens() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding");
    listener.local_addr().expect("local addr").to_string()
}

fn order(snapshot: &Arc<EngineRecord>, endpoint: String) -> InstallSpec {
    InstallSpec {
        name: "cook".into(),
        source: Some(EngineSource::Remote { endpoint }),
        snapshot: Some(snapshot.clone()),
    }
}

#[test]
fn a_refused_install_leaves_nothing_and_a_good_one_searches() {
    let cook = cookbook();
    let snapshot = Arc::new(EngineRecord::of_engine(
        "cook",
        &cook,
        Representative::build(cook.collection()),
    ));
    let engine = EngineServer::bind("cook", cookbook(), "127.0.0.1:0").expect("binding engine");
    let broker = Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()));
    let server = ReplicaServer::bind("r0", broker.clone(), "127.0.0.1:0").expect("binding");
    let replica = RemoteReplica::new(server.addr()).expect("resolving replica");

    // Twice: the second is the front door's retry, which must not find a
    // leftover to call its own.
    let dead = order(&snapshot, nobody_listens());
    for attempt in ["first", "retry"] {
        let refused = replica.install(&dead);
        assert!(refused.is_err(), "{attempt}: {refused:?}");
        let held = broker.engine_names();
        assert!(held.is_empty(), "{attempt}: the replica holds {held:?}");
    }

    replica
        .install(&order(&snapshot, engine.addr().to_string()))
        .expect("installing with the live endpoint");
    assert_eq!(broker.engine_names(), ["cook"]);
    let searched = replica
        .search_subset("mushroom soup", 0.1, &["cook".to_string()])
        .expect("searching through the replica");
    let outcomes: Vec<DispatchOutcome> = searched.stats.iter().map(|s| s.outcome).collect();
    assert_eq!(outcomes, [DispatchOutcome::Completed], "{searched:?}");
    assert!(!searched.hits.is_empty(), "{searched:?}");
}
