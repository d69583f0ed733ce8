//! Heap allocations of a search answered through the door's
//! [`BrokerAdmin::search`], counted on the calling thread by a counting
//! global allocator (its own test binary, since the allocator is
//! process-wide).
//!
//! A cache hit hands out the cached answer by reference, so it costs the
//! same number of allocations whatever the answer holds. A miss inserts
//! the very answer it returns, its reply rows rendered into one buffer,
//! so the insert adds no allocation per row. An answer that was copied
//! row by row would cost at least two allocations more per hit (its
//! engine and document names).

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, CacheMode, CacheTier, SearchRequest, SelectionPolicy};
use seu_net::BrokerAdmin;
use seu_text::Analyzer;
use std::time::Duration;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The fresh allocations `f` makes on this thread (a buffer that grows
/// or shrinks is not counted again).
fn allocations(f: impl FnOnce()) -> u64 {
    counting_alloc::counted(f).1.allocs
}

/// A cache-on broker over one engine whose `rows` documents all match
/// `soup`, and the request the door would make of it.
fn broker_answering(rows: usize) -> (Broker<SubrangeEstimator>, SearchRequest) {
    // No trace is sampled or slow, so none is kept: only the answer's
    // own allocations are counted.
    seu_obs::tracer().set_sample_rate(0);
    seu_obs::tracer().set_slow_threshold(Duration::ZERO);
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for i in 0..rows {
        b.add_document(&format!("pantry/doc-{i:05}.txt"), "mushroom soup");
    }
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    broker.register("pantry", SearchEngine::new(b.build()));
    let req = SearchRequest::new("soup")
        .policy(SelectionPolicy::All)
        .with_estimates(true);
    assert_eq!(
        broker
            .execute(&req.clone().cache(CacheMode::Bypass))
            .hits
            .len(),
        rows
    );
    (broker, req)
}

/// What one cache hit through the door allocates.
fn hit_allocations(rows: usize) -> u64 {
    let (broker, req) = broker_answering(rows);
    for _ in 0..2 {
        // A miss that fills the cache, then a hit.
        let _ = BrokerAdmin::search(&broker, &req);
    }
    allocations(|| {
        let reply = BrokerAdmin::search(&broker, &req);
        assert_eq!(reply.served_from, Some(CacheTier::Results));
    })
}

/// What inserting a missed answer allocates: a miss that fills the
/// cache, less the same miss that does not.
fn insert_allocations(rows: usize) -> u64 {
    let (broker, req) = broker_answering(rows);
    let (read_only, read_write) = (req.clone().cache(CacheMode::ReadOnly), req);
    let _ = BrokerAdmin::search(&broker, &read_only);
    let without = allocations(|| {
        let reply = BrokerAdmin::search(&broker, &read_only);
        assert_eq!(reply.served_from, None);
    });
    let with = allocations(|| {
        let reply = BrokerAdmin::search(&broker, &read_write);
        assert_eq!(reply.served_from, None);
    });
    assert_eq!(broker.cache_stats().unwrap().entries, 1);
    with - without
}

#[test]
fn a_cache_hit_allocates_the_same_whatever_its_answer_holds() {
    let counts: Vec<(usize, u64)> = [1, 10, 100, 1_000]
        .into_iter()
        .map(|rows| (rows, hit_allocations(rows)))
        .collect();
    assert!(
        counts.iter().all(|&(_, n)| n == counts[0].1),
        "(hits, allocations) of one cache hit: {counts:?}"
    );
    // The trace's `Arc` and the lookup key's copy of the query.
    assert_eq!(counts[0].1, 2, "allocations of one cache hit");
}

#[test]
fn inserting_an_answer_adds_no_allocation_per_row() {
    let counts: Vec<(usize, u64)> = [1, 10, 100, 1_000]
        .into_iter()
        .map(|rows| (rows, insert_allocations(rows)))
        .collect();
    assert!(
        counts.iter().all(|&(_, n)| n == counts[0].1),
        "(hits, allocations) of one insert: {counts:?}"
    );
    // The rendered rows and the shard's own bookkeeping: the entry is
    // filed under the lookup's key, its query not copied again.
    assert_eq!(counts[0].1, 3, "allocations of one insert");
}
