//! Heap allocations of an unsampled federated request, counted on the
//! calling thread by a counting global allocator (its own test binary,
//! since the allocator, the tracer and the counters are process-wide).
//!
//! The front door asks each replica once, and an unsampled request
//! records no span, so asking one more replica must cost the same
//! fixed number of allocations whatever the replica is called: the
//! group of engines it is asked about, their names, the replica's own
//! plan and its answer. A span name formatted before the sampling check
//! would add one allocation more per replica asked.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{EngineSource, FrontDoor, FrontDoorConfig, LocalReplica};
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy};
use seu_text::Analyzer;
use std::sync::Arc;
use std::time::Duration;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The fresh allocations `f` makes on this thread (a buffer that grows
/// is not counted again).
fn allocations(f: impl FnOnce()) -> u64 {
    counting_alloc::counted(f).1.allocs
}

/// Allocations the front door makes per replica it asks, beyond what
/// the request costs anyway.
const PER_REPLICA: u64 = 49;

fn engine() -> Arc<SearchEngine> {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom soup with cream");
    b.add_document("d1", "tomato soup");
    Arc::new(SearchEngine::new(b.build()))
}

fn front_door(replicas: usize) -> FrontDoor {
    let fd = FrontDoor::new(FrontDoorConfig::default());
    for i in 0..replicas {
        let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
        fd.add_replica(
            &format!("replica-{i}"),
            Arc::new(LocalReplica::new(Arc::new(broker))),
        );
    }
    fd
}

/// Engine names, one placed first on each of `replicas` replicas, so
/// every replica is asked about exactly one engine.
fn one_engine_each(replicas: usize) -> Vec<String> {
    let probe = front_door(replicas);
    let engine = engine();
    for e in 0..64 {
        probe
            .register_engine(
                &format!("e{e:02}"),
                EngineSource::Local(Arc::clone(&engine)),
            )
            .expect("register");
    }
    let mut names: Vec<(String, String)> = Vec::new();
    for (name, holders) in probe.placements() {
        if !names.iter().any(|(_, primary)| *primary == holders[0]) {
            names.push((name, holders[0].clone()));
        }
    }
    assert_eq!(names.len(), replicas, "a primary on every replica");
    names.into_iter().map(|(name, _)| name).collect()
}

/// The allocations of one unsampled request to a front door over
/// `replicas` in-process replicas, one engine on each, and the
/// replicas it asked.
fn one_request(replicas: usize) -> (u64, u64) {
    let fd = front_door(replicas);
    let engine = engine();
    for name in one_engine_each(replicas) {
        fd.register_engine(&name, EngineSource::Local(Arc::clone(&engine)))
            .expect("register");
    }
    let req = SearchRequest::new("soup")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    // The first request registers what a process registers once.
    let warm = fd.execute(&req);
    assert_eq!(warm.per_engine_stats.len(), replicas);
    let calls = seu_obs::counter("federation_replica_calls_total");
    let before = calls.get();
    let n = allocations(|| {
        let resp = fd.execute(&req);
        assert_eq!(resp.hits.len(), 2 * replicas);
    });
    (n, calls.get() - before)
}

#[test]
fn each_replica_asked_costs_the_same_allocations_and_no_span_name() {
    let tracer = seu_obs::tracer();
    tracer.set_sample_rate(0);
    tracer.set_slow_threshold(Duration::ZERO);
    let (base, asked) = one_request(1);
    assert_eq!(asked, 1);
    // Up to three replicas: a table of four entries would grow once
    // more, and cost one allocation that is not the replicas'.
    for replicas in 2..=3 {
        let (n, asked) = one_request(replicas);
        assert_eq!(asked, replicas as u64, "every replica is asked");
        assert_eq!(
            n - base,
            (asked - 1) * PER_REPLICA,
            "{replicas} replicas: {n} allocations, one replica: {base}"
        );
    }
}
