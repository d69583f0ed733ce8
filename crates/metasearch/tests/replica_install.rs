//! The in-process replica obeys the same install table as the wire
//! one: an order whose snapshot names another engine is refused as
//! `Protocol` and leaves the replica holding nothing, and so is an
//! order it cannot carry out (an endpoint it cannot dial, or nothing
//! to install).

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{EngineSource, InstallSpec, LocalReplica, ReplicaClient};
use seu_metasearch::{Broker, EngineRecord, Representative, TransportErrorKind};
use seu_text::Analyzer;
use std::sync::Arc;

fn engine(text: &str) -> Arc<SearchEngine> {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", text);
    Arc::new(SearchEngine::new(b.build()))
}

fn replica() -> LocalReplica {
    LocalReplica::new(Arc::new(Broker::new(
        SubrangeEstimator::paper_six_subrange(),
    )))
}

fn assert_refused(replica: &LocalReplica, spec: InstallSpec, what: &str) {
    match replica.install(&spec) {
        Err(e) => assert_eq!(e.kind, TransportErrorKind::Protocol, "{what}: {e}"),
        Ok(()) => panic!("{what}: installed {:?}", replica.broker().engine_names()),
    }
    let held = replica.broker().engine_names();
    assert!(held.is_empty(), "{what}: the replica holds {held:?}");
}

#[test]
fn a_snapshot_named_otherwise_is_refused_and_leaves_nothing() {
    let other = engine("grilled cheese with tomato soup");
    let repr = Representative::build(other.collection());
    let snapshot = Arc::new(EngineRecord::of_engine("other", &other, repr));
    let replica = replica();
    let spec = |source| InstallSpec {
        name: "cook".into(),
        source,
        snapshot: Some(snapshot.clone()),
    };
    assert_refused(&replica, spec(None), "detached");
    let endpoint = "127.0.0.1:9".to_string();
    let remote = Some(EngineSource::Remote { endpoint });
    assert_refused(&replica, spec(remote), "with an endpoint");
    assert_refused(&replica, spec(Some(EngineSource::Local(other))), "live");
}

#[test]
fn an_order_the_replica_cannot_carry_out_is_refused() {
    let replica = replica();
    let endpoint = "127.0.0.1:9".to_string();
    let dial_only = InstallSpec {
        name: "cook".into(),
        source: Some(EngineSource::Remote { endpoint }),
        snapshot: None,
    };
    assert_refused(&replica, dial_only, "endpoint alone");
    let nothing = InstallSpec {
        name: "cook".into(),
        source: None,
        snapshot: None,
    };
    assert_refused(&replica, nothing, "neither");

    let cook = engine("mushroom soup with cream");
    let live = InstallSpec {
        name: "cook".into(),
        source: Some(EngineSource::Local(cook)),
        snapshot: None,
    };
    replica.install(&live).expect("installing a live engine");
    replica.install(&live).expect("a held name is a no-op");
    assert_eq!(replica.broker().engine_names(), ["cook"]);
}
