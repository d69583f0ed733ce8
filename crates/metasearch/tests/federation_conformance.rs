//! Federation conformance: a front-door over broker replicas must be
//! **bit-identical** to a single flat broker.
//!
//! Same bar as `shard_conformance.rs`, one tier up: estimates are
//! floating-point and selection tie-breaks on registration order, so a
//! federated layout that perturbed estimate values, estimate order, or
//! selection order would silently change answers. The harness builds a
//! seeded corpus once, registers the same shared engines with a flat
//! control broker and with front-doors over 1, 2, and 4 in-process
//! replicas, and asserts `est_NoDoc` / `est_AvgSim`, the invoked
//! engine set, and merged hits equal via `f64::to_bits` — before and
//! after mid-run replica joins and leaves (whose rebalances ship
//! engine records between replicas), and across a replica
//! failure served by ring-successor failover.

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

const SEED: u64 = 0x5EED_000A;

/// xorshift64* — tiny, seedable, and stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const WORDS: &[&str] = &[
    "database",
    "query",
    "index",
    "vector",
    "soup",
    "mushroom",
    "bread",
    "forest",
    "network",
    "gradient",
    "retrieval",
    "estimate",
    "shard",
    "broker",
    "epoch",
    "cosine",
    "term",
    "weight",
    "merge",
    "select",
    "remote",
    "socket",
    "frame",
    "cache",
    "latency",
    "recall",
    "corpus",
    "token",
    "stem",
    "rank",
];

fn doc_text(rng: &mut Rng) -> String {
    let len = 4 + rng.below(6);
    (0..len)
        .map(|_| WORDS[rng.below(WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

fn engine_of(docs: &[String]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    SearchEngine::new(b.build())
}

/// The seeded corpus: shared engine handles, so the control broker and
/// every replica register the *same* collection objects.
fn corpus(seed: u64, n_engines: usize) -> Vec<(String, Arc<SearchEngine>)> {
    let mut rng = Rng::new(seed);
    (0..n_engines)
        .map(|i| {
            let docs: Vec<String> = (0..2 + rng.below(4)).map(|_| doc_text(&mut rng)).collect();
            (format!("engine-{i:03}"), Arc::new(engine_of(&docs)))
        })
        .collect()
}

fn queries(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x9E37_79B9);
    (0..n)
        .map(|_| {
            let len = 1 + rng.below(3);
            (0..len)
                .map(|_| WORDS[rng.below(WORDS.len())])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn control_broker(corpus: &[(String, Arc<SearchEngine>)]) -> Broker<SubrangeEstimator> {
    let b = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (name, engine) in corpus {
        b.register_shared(name, engine.clone());
    }
    b
}

fn replica() -> Arc<dyn ReplicaClient> {
    Arc::new(LocalReplica::new(Arc::new(Broker::new(
        SubrangeEstimator::paper_six_subrange(),
    ))))
}

fn front_door(corpus: &[(String, Arc<SearchEngine>)], replicas: usize) -> FrontDoor {
    let fd = FrontDoor::new(FrontDoorConfig::default());
    for i in 0..replicas {
        fd.add_replica(&format!("replica-{i}"), replica());
    }
    for (name, engine) in corpus {
        fd.register_engine(name, EngineSource::Local(engine.clone()))
            .expect("register on front door");
    }
    fd
}

const POLICIES: &[SelectionPolicy] = &[
    SelectionPolicy::All,
    SelectionPolicy::EstimatedUseful,
    SelectionPolicy::TopK(3),
];

fn assert_estimates_identical(control: &[EngineEstimate], fed: &[EngineEstimate], ctx: &str) {
    assert_eq!(control.len(), fed.len(), "{ctx}: estimate count");
    for (c, f) in control.iter().zip(fed) {
        assert_eq!(c.engine, f.engine, "{ctx}: estimate order");
        assert_eq!(
            c.usefulness.no_doc.to_bits(),
            f.usefulness.no_doc.to_bits(),
            "{ctx}: est_NoDoc for {} ({} vs {})",
            c.engine,
            c.usefulness.no_doc,
            f.usefulness.no_doc,
        );
        assert_eq!(
            c.usefulness.avg_sim.to_bits(),
            f.usefulness.avg_sim.to_bits(),
            "{ctx}: est_AvgSim for {} ({} vs {})",
            c.engine,
            c.usefulness.avg_sim,
            f.usefulness.avg_sim,
        );
    }
}

fn assert_responses_identical(control: &SearchResponse, fed: &SearchResponse, ctx: &str) {
    assert_estimates_identical(&control.estimates, &fed.estimates, ctx);
    let invoked = |r: &SearchResponse| -> Vec<String> {
        r.per_engine_stats
            .iter()
            .map(|s| s.engine.clone())
            .collect()
    };
    assert_eq!(invoked(control), invoked(fed), "{ctx}: invocation set");
    assert_eq!(control.hits.len(), fed.hits.len(), "{ctx}: hit count");
    for (c, f) in control.hits.iter().zip(&fed.hits) {
        assert_eq!((&c.engine, &c.doc), (&f.engine, &f.doc), "{ctx}: hit order");
        assert_eq!(
            c.sim.to_bits(),
            f.sim.to_bits(),
            "{ctx}: sim for {}/{} ({} vs {})",
            c.engine,
            c.doc,
            c.sim,
            f.sim,
        );
    }
}

/// Drives the full (query, policy, threshold) matrix over the control
/// broker and the front-door, asserting bit-identical estimates,
/// invocation sets, and merged hits.
fn assert_conformance(control: &Broker<SubrangeEstimator>, fd: &FrontDoor, label: &str) {
    for query in queries(SEED, 10) {
        for &policy in POLICIES {
            for threshold in [0.0, 0.1, 0.25] {
                let req = SearchRequest::new(&query)
                    .threshold(threshold)
                    .policy(policy)
                    .with_estimates(true);
                let ctx = format!(
                    "{label}, replicas={}, query={query:?}, policy={policy:?}, t={threshold}",
                    fd.replica_count()
                );
                let (fed, report) = fd.execute_with_report(&req);
                assert!(
                    report.failures.is_empty() && report.unresolved.is_empty(),
                    "{ctx}: unexpected degradation: {report:?}"
                );
                assert_responses_identical(&control.execute(&req), &fed, &ctx);
            }
        }
    }
}

#[test]
fn federated_is_bit_identical_across_replica_counts() {
    let corpus = corpus(SEED, 24);
    let control = control_broker(&corpus);
    for replicas in [1, 2, 4] {
        let fd = front_door(&corpus, replicas);
        assert_eq!(fd.replica_count(), replicas);
        assert_eq!(fd.len(), corpus.len());
        // With replication 2, every engine is on min(2, replicas)
        // distinct replicas.
        let want = 2usize.min(replicas);
        for (engine, holders) in fd.placements() {
            assert_eq!(holders.len(), want, "{engine} holders: {holders:?}");
        }
        assert_conformance(&control, &fd, "steady-state");
    }
}

#[test]
fn join_and_leave_rebalance_preserves_bit_identity() {
    let corpus = corpus(SEED ^ 0xBEEF, 18);
    let control = control_broker(&corpus);
    let fd = front_door(&corpus, 2);
    assert_conformance(&control, &fd, "before-join");

    // A third replica joins mid-run: the rebalance ships snapshots for
    // every engine whose candidate chain now includes it.
    let report = fd.add_replica("replica-2", replica()).expect("new id");
    assert!(report.is_clean(), "join rebalance errored: {report:?}");
    assert!(
        report.moves.iter().all(|m| m.shipped_snapshot),
        "joins must hydrate via shipped snapshots: {report:?}"
    );
    assert!(
        !report.moves.is_empty(),
        "a three-replica ring must place something on the joiner"
    );
    assert_conformance(&control, &fd, "after-join");

    // A founding replica leaves: its engines move to the survivors
    // (exported from the leaver while it is still reachable).
    let report = fd.remove_replica("replica-0").expect("known id");
    assert!(report.is_clean(), "leave rebalance errored: {report:?}");
    assert_eq!(fd.replica_count(), 2);
    for (engine, holders) in fd.placements() {
        assert_eq!(
            holders.len(),
            2,
            "{engine} holders after leave: {holders:?}"
        );
        assert!(
            !holders.contains(&"replica-0".to_string()),
            "{engine} still placed on the departed replica"
        );
    }
    assert_conformance(&control, &fd, "after-leave");
}

/// A replica client that can be killed mid-run: every call after
/// `kill()` fails with a typed transport error.
struct KillableReplica {
    inner: Arc<dyn ReplicaClient>,
    dead: AtomicBool,
}

impl KillableReplica {
    fn new(inner: Arc<dyn ReplicaClient>) -> Arc<KillableReplica> {
        Arc::new(KillableReplica {
            inner,
            dead: AtomicBool::new(false),
        })
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    fn check(&self) -> Result<(), TransportError> {
        if self.dead.load(Ordering::SeqCst) {
            Err(TransportError::new(
                TransportErrorKind::Refused,
                "replica killed by test",
            ))
        } else {
            Ok(())
        }
    }
}

impl ReplicaClient for KillableReplica {
    fn ping(&self) -> Result<(), TransportError> {
        self.check()?;
        self.inner.ping()
    }

    fn estimate_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<Vec<EngineEstimate>, TransportError> {
        self.check()?;
        self.inner.estimate_subset(query, threshold, engines)
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
            Err(e) => Box::new(Err::<SubsetAnswer, _>(e)),
        }
    }

    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError> {
        self.check()?;
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

#[test]
fn failover_to_the_standby_is_bit_identical() {
    let corpus = corpus(SEED ^ 0xFA11, 16);
    let control = control_broker(&corpus);
    let fd = FrontDoor::new(FrontDoorConfig::default());
    let killable = KillableReplica::new(replica());
    fd.add_replica("replica-0", killable.clone());
    fd.add_replica("replica-1", replica());
    fd.add_replica("replica-2", replica());
    for (name, engine) in &corpus {
        fd.register_engine(name, EngineSource::Local(engine.clone()))
            .expect("register on front door");
    }
    assert_conformance(&control, &fd, "before-kill");

    // replica-0 dies. Its engines' standbys (replication 2) hold live
    // copies, so every answer must stay bit-identical — degraded in the
    // report, not in the response.
    killable.kill();
    let req = SearchRequest::new("database retrieval index")
        .threshold(0.0)
        .policy(SelectionPolicy::All)
        .with_estimates(true);
    let (fed, report) = fd.execute_with_report(&req);
    assert!(
        report.failures.iter().all(|f| f.replica == "replica-0"),
        "only the killed replica may fail: {report:?}"
    );
    assert!(
        report.unresolved.is_empty(),
        "replication 2 must leave nothing unresolved: {report:?}"
    );
    if !report.failures.is_empty() {
        assert!(report.failovers > 0, "failed engines must fail over");
    }
    assert_responses_identical(&control.execute(&req), &fed, "after-kill");

    // The whole matrix, degraded: bit-identity holds for every cell.
    for query in queries(SEED ^ 0xFA11, 6) {
        for &policy in POLICIES {
            let req = SearchRequest::new(&query)
                .threshold(0.1)
                .policy(policy)
                .with_estimates(true);
            let (fed, report) = fd.execute_with_report(&req);
            assert!(report.unresolved.is_empty(), "unresolved: {report:?}");
            assert_responses_identical(
                &control.execute(&req),
                &fed,
                &format!("after-kill, query={query:?}, policy={policy:?}"),
            );
        }
    }
}
