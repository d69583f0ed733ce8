//! One round per request: a front door asks each replica once, whatever
//! the policy.
//!
//! A replica estimates its engines, applies the request's policy to
//! their rows and searches its picks in the one call. A policy that
//! decides each engine from its own estimate (`All`, `EstimatedUseful`,
//! `MinNoDoc`) picks there exactly what it picks globally. `TopK` ranks
//! engines against each other, and a replica's own top k holds every
//! globally chosen engine it was asked about, so it needs no second
//! round either.
//!
//! Counted, not timed: every request must cost exactly one
//! `federation_replica_calls_total` per replica that is primary for an
//! engine, and every answer must be bit-identical (`f64::to_bits`) to a
//! flat broker's over the same engine servers.
//!
//! The file holds one test on purpose: the counter is process-global,
//! and a test binary of its own keeps other tests' calls out of it.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{EngineSource, FrontDoor, FrontDoorConfig};
use seu_metasearch::{Broker, SearchRequest, SearchResponse, SelectionPolicy};
use seu_net::{EngineServer, RemoteEngine, RemoteReplica, ReplicaServer};
use seu_text::Analyzer;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

const DBS: [&[&str]; 6] = [
    &[
        "relational databases and query optimization",
        "transaction processing in distributed databases",
        "indexing structures for text retrieval",
    ],
    &[
        "neural networks for image recognition",
        "training deep networks with gradient descent",
        "databases of labelled images",
    ],
    &[
        "mushroom foraging in autumn forests",
        "soup recipes with wild mushrooms",
        "identifying poisonous mushrooms",
    ],
    &[
        "sourdough bread at home",
        "databases of bread and soup recipes",
    ],
    &[
        "query processing over text databases",
        "estimating the usefulness of search engines",
        "metasearch brokers select useful engines",
    ],
    &[
        "forest ecology and autumn leaves",
        "deep forests of mushrooms",
    ],
];

const QUERIES: &[&str] = &[
    "databases",
    "query optimization in databases",
    "wild mushroom soup",
    "deep neural networks",
    "search engines usefulness",
    "unrelated zebra hovercraft",
];

const POLICIES: &[SelectionPolicy] = &[
    SelectionPolicy::All,
    SelectionPolicy::EstimatedUseful,
    SelectionPolicy::MinNoDoc(0.5),
    SelectionPolicy::TopK(3),
];

fn engine(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    SearchEngine::new(b.build())
}

fn broker() -> Arc<Broker<SubrangeEstimator>> {
    Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()))
}

fn assert_identical(control: &SearchResponse, fed: &SearchResponse, ctx: &str) {
    assert!(fed.is_complete(), "{ctx}: {:?}", fed.per_engine_stats);
    let ests = |r: &SearchResponse| -> Vec<(String, u64, u64)> {
        let rows = r.estimates.iter();
        let bits = |e: &seu_metasearch::EngineEstimate| {
            let u = e.usefulness;
            (e.engine.clone(), u.no_doc.to_bits(), u.avg_sim.to_bits())
        };
        rows.map(bits).collect()
    };
    assert_eq!(ests(control), ests(fed), "{ctx}: estimates");
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
fn a_request_costs_one_call_per_replica_topk_included() {
    let calls = seu_obs::counter("federation_replica_calls_total");
    let servers: Vec<EngineServer> = DBS
        .iter()
        .enumerate()
        .map(|(i, texts)| EngineServer::bind(format!("db{i}"), engine(texts), "127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .unwrap();

    let control = broker();
    for server in &servers {
        let transport = Arc::new(RemoteEngine::new(server.addr()).unwrap());
        control.register_remote(transport).unwrap();
    }

    let door = FrontDoor::new(FrontDoorConfig::default());
    let replicas: Vec<ReplicaServer> = ["r0", "r1"]
        .into_iter()
        .map(|id| ReplicaServer::bind(id, broker(), "127.0.0.1:0").unwrap())
        .collect();
    for replica in &replicas {
        let client = RemoteReplica::new(replica.addr()).unwrap();
        door.add_replica(replica.id(), Arc::new(client));
    }
    for server in &servers {
        let endpoint = server.addr().to_string();
        let source = EngineSource::Remote { endpoint };
        door.register_engine(server.name(), source).unwrap();
    }
    let primary: HashMap<String, String> = door
        .placements()
        .into_iter()
        .map(|(engine, holders)| (engine, holders[0].clone()))
        .collect();
    let primaries = primary.values().collect::<BTreeSet<_>>().len();
    assert_eq!(primaries, 2, "both replicas must be primary for something");

    for &policy in POLICIES {
        let mut selected_somewhere = false;
        for &query in QUERIES {
            let ctx = format!("{policy:?}, {query:?}");
            let req = SearchRequest::new(query)
                .threshold(0.1)
                .policy(policy)
                .with_estimates(true);
            let before = calls.get();
            let (fed, report) = door.execute_with_report(&req);
            let made = calls.get() - before;
            assert!(report.failures.is_empty(), "{ctx}: {report:?}");
            assert_identical(&control.execute(&req), &fed, &ctx);

            assert_eq!(made as usize, primaries, "{ctx}: calls");
            selected_somewhere |= !fed.per_engine_stats.is_empty();
        }
        assert!(selected_somewhere, "{policy:?} never picked an engine");
    }
}
