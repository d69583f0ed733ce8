//! One panic rule for registry sweeps, flat or sharded: a sweep of a
//! shard runs under `catch_unwind`, so a panic while refreshing one of
//! its entries loses that shard's results and nothing else. It never
//! escapes `refresh_if_stale`, the other shards' refreshes land, and the
//! broker goes on serving.
//!
//! The panic comes from a remote transport whose `fetch_snapshot`
//! panics; beside it sits a healthy remote engine, and both are stale.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, Fingerprint, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    shard_for, Broker, EngineRecord, RemoteHit, RemoteTransport, Representative, SearchRequest,
    SelectionPolicy, TransportError, TransportErrorKind,
};
use seu_text::Analyzer;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// What a [`Flaky`] transport's `fetch_snapshot` does.
const SERVE: u8 = 0;
const REFUSE: u8 = 1;
const PANIC: u8 = 2;

/// A remote engine held in-process whose snapshot fetch can be told to
/// serve, refuse or panic. Its searches always answer.
#[derive(Debug)]
struct Flaky {
    name: String,
    engine: SearchEngine,
    fetch: AtomicU8,
}

impl Flaky {
    fn new(name: &str) -> Arc<Flaky> {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", &format!("shared words of {name}"));
        Arc::new(Flaky {
            name: name.to_string(),
            engine: SearchEngine::new(b.build()),
            fetch: AtomicU8::new(SERVE),
        })
    }

    fn set(&self, mode: u8) {
        self.fetch.store(mode, Ordering::SeqCst);
    }
}

impl RemoteTransport for Flaky {
    fn endpoint(&self) -> String {
        format!("flaky://{}", self.name)
    }

    fn search(
        &self,
        query_text: &str,
        threshold: f64,
        _ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        let collection = self.engine.collection();
        let query = collection.query_from_text(query_text);
        let hits = self.engine.search_threshold(&query, threshold);
        let hit = |h: seu_engine::SearchHit| RemoteHit {
            doc: collection.doc(h.doc).name.clone(),
            sim: h.sim,
        };
        Ok((hits.into_iter().map(hit).collect(), Vec::new()))
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("a sweep never asks the oracle")
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        match self.fetch.load(Ordering::SeqCst) {
            SERVE => {
                let repr = Representative::build(self.engine.collection());
                Ok(Arc::new(EngineRecord::of_engine(
                    &self.name,
                    &self.engine,
                    repr,
                )))
            }
            REFUSE => Err(TransportError::new(
                TransportErrorKind::Refused,
                "refusing for now",
            )),
            _ => panic!("{}: snapshot fetch exploded", self.name),
        }
    }
}

/// The healthy engine's name, and a name for the panicking one that
/// lands in another shard of four.
fn names() -> (String, String) {
    let good = "healthy".to_string();
    let bad = (0..)
        .map(|i| format!("exploding-{i}"))
        .find(|bad| shard_for(bad, 4) != shard_for(&good, 4))
        .unwrap();
    (good, bad)
}

/// A broker of `shards` shards holding both engines, both stale: their
/// last refetch was refused. From now on the healthy one serves its
/// snapshot and the other one panics.
fn stale_pair(shards: usize) -> (Broker<SubrangeEstimator>, String, String) {
    let (good, bad) = names();
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .build();
    let (healthy, exploding) = (Flaky::new(&good), Flaky::new(&bad));
    broker.register_remote(healthy.clone()).unwrap();
    broker.register_remote(exploding.clone()).unwrap();
    let moved = Fingerprint {
        n_docs: u64::MAX,
        raw_bytes: 1,
        hash: 2,
    };
    healthy.set(REFUSE);
    exploding.set(REFUSE);
    for name in [&good, &bad] {
        assert!(broker.apply_invalidation(name, moved).is_err());
        assert_eq!(broker.is_stale(name), Some(true));
    }
    healthy.set(SERVE);
    exploding.set(PANIC);
    (broker, good, bad)
}

/// Every engine answers a query every engine holds.
fn serves_both(broker: &Broker<SubrangeEstimator>) {
    let resp = broker.execute(
        &SearchRequest::new("shared words")
            .threshold(0.0)
            .policy(SelectionPolicy::All),
    );
    assert!(resp.is_complete(), "{resp:?}");
    assert_eq!(resp.hits.len(), 2, "{resp:?}");
}

#[test]
fn a_panicking_shard_loses_only_its_own_refreshes() {
    let (broker, good, bad) = stale_pair(4);
    assert_eq!(broker.refresh_if_stale(), vec![good.clone()]);
    assert_eq!(broker.is_stale(&good), Some(false));
    assert_eq!(broker.is_stale(&bad), Some(true));
    serves_both(&broker);
}

#[test]
fn a_panic_in_a_flat_sweep_does_not_escape() {
    let (broker, _, bad) = stale_pair(1);
    let refreshed = broker.refresh_if_stale();
    assert!(!refreshed.contains(&bad), "{refreshed:?}");
    assert_eq!(broker.is_stale(&bad), Some(true));
    serves_both(&broker);
}
