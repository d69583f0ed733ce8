//! Shard conformance: a sharded registry must be **bit-identical** to
//! the flat one.
//!
//! Estimates are floating-point and the selection policies tie-break on
//! registration order, so "roughly equal" is not good enough — a shard
//! layout that perturbed estimate order or presentation order would
//! silently change selections. The harness builds identical seeded
//! corpora, runs flat vs sharded brokers (shards ∈ {1, 4, 16}) over
//! local engines and loopback-TCP remote engines, and asserts
//! `est_NoDoc` / `est_AvgSim`, selections, and merged hits equal via
//! `f64::to_bits` — the same bar PR 4's loopback suite set for
//! remote-vs-local.
//!
//! The second half is a deterministic multi-threaded stress driver:
//! seeded per-thread op sequences interleave register / replace /
//! refresh / search / invalidate across shards while observers assert
//! registry-epoch monotonicity, the per-shard epoch-cut invariant, and
//! that searches keep completing throughout.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, Fingerprint, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, MergedHit, QueryPlan, SearchRequest, SelectionPolicy, StaleMode};
use seu_net::{EngineServer, RemoteEngine};
use seu_text::Analyzer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SEED: u64 = 0x5EED_0005;

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

/// The seeded corpus: `(engine name, documents)` pairs, identical for
/// every broker built from the same seed.
fn corpus(seed: u64, n_engines: usize) -> Vec<(String, Vec<String>)> {
    let mut rng = Rng::new(seed);
    (0..n_engines)
        .map(|i| {
            let docs = (0..2 + rng.below(4)).map(|_| doc_text(&mut rng)).collect();
            (format!("engine-{i:03}"), docs)
        })
        .collect()
}

fn engine_of(docs: &[String]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    SearchEngine::new(b.build())
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

fn broker(shards: usize) -> Broker<SubrangeEstimator> {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .build()
}

fn local_broker(corpus: &[(String, Vec<String>)], shards: usize) -> Broker<SubrangeEstimator> {
    let b = broker(shards);
    for (name, docs) in corpus {
        b.register(name, engine_of(docs));
    }
    b
}

/// Plans must agree bit for bit: engine order, `est_NoDoc`,
/// `est_AvgSim`, and the selected invocation set.
fn assert_plans_identical(flat: &QueryPlan, sharded: &QueryPlan, ctx: &str) {
    let fe = flat.estimates();
    let se = sharded.estimates();
    assert_eq!(fe.len(), se.len(), "{ctx}: estimate count");
    for (f, s) in fe.iter().zip(&se) {
        assert_eq!(f.engine, s.engine, "{ctx}: estimate order");
        assert_eq!(
            f.usefulness.no_doc.to_bits(),
            s.usefulness.no_doc.to_bits(),
            "{ctx}: est_NoDoc for {} ({} vs {})",
            f.engine,
            f.usefulness.no_doc,
            s.usefulness.no_doc,
        );
        assert_eq!(
            f.usefulness.avg_sim.to_bits(),
            s.usefulness.avg_sim.to_bits(),
            "{ctx}: est_AvgSim for {} ({} vs {})",
            f.engine,
            f.usefulness.avg_sim,
            s.usefulness.avg_sim,
        );
    }
    assert_eq!(
        flat.selected_names(),
        sharded.selected_names(),
        "{ctx}: selection"
    );
}

fn assert_hits_identical(flat: &[MergedHit], sharded: &[MergedHit], ctx: &str) {
    assert_eq!(flat.len(), sharded.len(), "{ctx}: hit count");
    for (f, s) in flat.iter().zip(sharded) {
        assert_eq!((&f.engine, &f.doc), (&s.engine, &s.doc), "{ctx}: hit order");
        assert_eq!(
            f.sim.to_bits(),
            s.sim.to_bits(),
            "{ctx}: sim for {}/{} ({} vs {})",
            f.engine,
            f.doc,
            f.sim,
            s.sim,
        );
    }
}

const POLICIES: &[SelectionPolicy] = &[
    SelectionPolicy::All,
    SelectionPolicy::EstimatedUseful,
    SelectionPolicy::TopK(3),
];

/// Drives the full query matrix over a flat broker and a sharded one,
/// asserting bit-identical plans and merged hits for every (query,
/// policy, threshold) cell.
fn assert_conformance(
    flat: &Broker<SubrangeEstimator>,
    sharded: &Broker<SubrangeEstimator>,
    label: &str,
) {
    for query in queries(SEED, 12) {
        for &policy in POLICIES {
            for threshold in [0.0, 0.1, 0.25] {
                let req = SearchRequest::new(&query)
                    .threshold(threshold)
                    .policy(policy);
                let ctx = format!(
                    "{label}, shards={}, query={query:?}, policy={policy:?}, t={threshold}",
                    sharded.shards()
                );
                assert_plans_identical(&flat.plan(&req, None), &sharded.plan(&req, None), &ctx);
                assert_hits_identical(&flat.execute(&req).hits, &sharded.execute(&req).hits, &ctx);
            }
        }
    }
}

#[test]
fn sharded_broker_is_bit_identical_to_flat_local() {
    let corpus = corpus(SEED, 24);
    let flat = local_broker(&corpus, 1);
    for shards in [1, 4, 16] {
        let sharded = local_broker(&corpus, shards);
        assert_eq!(sharded.shards(), shards);
        assert_conformance(&flat, &sharded, "local");
    }
}

#[test]
fn sharded_broker_is_bit_identical_to_flat_remote() {
    let corpus = corpus(SEED ^ 0xBEEF, 12);
    // Every third engine is served over loopback TCP; one server set is
    // shared by every broker under test.
    let servers: Vec<EngineServer> = corpus
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, (name, docs))| {
            EngineServer::bind(name, engine_of(docs), "127.0.0.1:0").expect("bind loopback")
        })
        .collect();
    let mixed = |shards: usize| {
        let b = broker(shards);
        let mut remote = servers.iter();
        for (i, (name, docs)) in corpus.iter().enumerate() {
            if i % 3 == 0 {
                let server = remote.next().expect("one server per remote slot");
                let client = RemoteEngine::new(server.addr()).expect("resolve loopback");
                let registered = b
                    .register_remote(Arc::new(client))
                    .expect("register remote");
                assert_eq!(&registered, name);
            } else {
                b.register(name, engine_of(docs));
            }
        }
        b
    };

    let flat_mixed = mixed(1);
    // The sharded mixed broker must match the flat mixed broker bit for
    // bit — and both must match the all-local flat broker, extending
    // PR 4's remote-equivalence guarantee across shard layouts.
    let all_local = local_broker(&corpus, 1);
    for shards in [4, 16] {
        let sharded_mixed = mixed(shards);
        assert_conformance(&flat_mixed, &sharded_mixed, "remote-mixed");
        assert_conformance(&all_local, &sharded_mixed, "remote-vs-local");
    }
}

/// The deterministic stress driver: seeded per-thread op sequences
/// interleave lifecycle events and queries across every shard at once.
/// The interleaving is scheduler-dependent; each thread's own op
/// sequence is not.
#[test]
fn stress_interleaves_lifecycle_across_shards() {
    const BASES: usize = 24;
    const SHARDS: usize = 8;
    let corpus = corpus(SEED ^ 0x57E5, BASES);
    let b = Arc::new({
        let b = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .shards(SHARDS)
            .build();
        for (name, docs) in &corpus {
            b.register(name, engine_of(docs));
        }
        b
    });
    let registered_extra = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // Mutators: replace / refresh / invalidate / sweep / register.
        for t in 0..3u64 {
            let b = Arc::clone(&b);
            let corpus = &corpus;
            let registered_extra = Arc::clone(&registered_extra);
            scope.spawn(move || {
                let mut rng = Rng::new(SEED ^ (0xA000 + t));
                for k in 0..120 {
                    let base = &corpus[rng.below(BASES)].0;
                    match rng.below(10) {
                        0..=2 => {
                            let mut rng2 = Rng::new(rng.next());
                            let docs: Vec<String> = (0..2 + rng2.below(3))
                                .map(|_| doc_text(&mut rng2))
                                .collect();
                            assert!(b.replace_engine(base, engine_of(&docs)));
                        }
                        3..=4 => {
                            assert!(b.refresh_representative(base));
                        }
                        5 => {
                            // A bogus fingerprint never matches the entry's
                            // provenance, so this forces a refresh through
                            // the push-invalidation path.
                            let bogus = Fingerprint {
                                n_docs: u64::MAX,
                                raw_bytes: rng.next(),
                                hash: rng.next(),
                            };
                            assert_eq!(b.apply_invalidation(base, bogus), Ok(true));
                        }
                        6..=7 => {
                            let _ = b.refresh_if_stale();
                        }
                        _ => {
                            let mut rng2 = Rng::new(rng.next());
                            let docs: Vec<String> = (0..2).map(|_| doc_text(&mut rng2)).collect();
                            b.register(&format!("extra-t{t}-{k}"), engine_of(&docs));
                            registered_extra.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
        // Searchers: the broker must keep answering while every shard
        // churns. Local engines cannot fail or time out (no budget is
        // set), so anything other than a complete response means a
        // search was lost.
        for t in 0..2u64 {
            let b = Arc::clone(&b);
            scope.spawn(move || {
                let mut rng = Rng::new(SEED ^ (0xB000 + t));
                for _ in 0..60 {
                    let query = format!(
                        "{} {}",
                        WORDS[rng.below(WORDS.len())],
                        WORDS[rng.below(WORDS.len())]
                    );
                    let req = SearchRequest::new(&query)
                        .threshold(0.05)
                        .policy(SelectionPolicy::EstimatedUseful);
                    let resp = b.execute(&req);
                    assert!(resp.is_complete(), "dispatch degraded: {resp:?}");
                    // Held plans must either execute or fail with the
                    // *typed* staleness error — never a wrong answer and
                    // never a lost search.
                    let plan = b.plan(&req, None);
                    match b.execute_plan(&req.clone().stale_mode(StaleMode::Error), &plan) {
                        Ok(resp) => assert!(resp.is_complete()),
                        Err(e) => assert!(
                            e.registry_epoch > e.plan_epoch,
                            "stale error must carry a newer registry epoch: {e}"
                        ),
                    }
                }
            });
        }
        // Observer: the derived global epoch is monotonic, and every
        // snapshot is a consistent per-shard cut — within one shard,
        // epoch == registrations + the entries' own epochs.
        {
            let b = Arc::clone(&b);
            scope.spawn(move || {
                let mut last = 0u64;
                for _ in 0..200 {
                    let epoch = b.registry_epoch();
                    assert!(
                        epoch >= last,
                        "registry epoch went backwards: {last} -> {epoch}"
                    );
                    last = epoch;
                    let snap = b.registry_snapshot();
                    for (i, &shard_epoch) in snap.shard_epochs.iter().enumerate() {
                        let in_shard: Vec<_> =
                            snap.statuses.iter().filter(|s| s.shard == i).collect();
                        let expect =
                            in_shard.len() as u64 + in_shard.iter().map(|s| s.epoch).sum::<u64>();
                        assert_eq!(
                            shard_epoch,
                            expect,
                            "torn snapshot of shard {i}: epoch {shard_epoch}, \
                             {} entries summing to {expect}",
                            in_shard.len()
                        );
                    }
                }
            });
        }
    });

    // Quiesced: a sweep converges, the registry holds every engine, and
    // the broker still answers.
    while !b.refresh_if_stale().is_empty() {}
    let snap = b.registry_snapshot();
    assert_eq!(
        snap.statuses.len(),
        BASES + registered_extra.load(Ordering::SeqCst)
    );
    assert!(snap.statuses.iter().all(|s| !s.stale));
    assert_eq!(snap.epoch, b.registry_epoch());
    let resp = b.execute(
        &SearchRequest::new("database query")
            .threshold(0.0)
            .policy(SelectionPolicy::All),
    );
    assert!(
        resp.is_complete(),
        "dispatch degraded after stress: {resp:?}"
    );
}
