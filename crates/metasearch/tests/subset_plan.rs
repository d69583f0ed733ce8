//! A replica plans what it is asked: `estimate_subset` works out the
//! named engines' rows and no others, `search_subset` works out no
//! estimate at all — and what either returns is, bit for bit, what the
//! full plan would have given.
//!
//! The suite reads the process-global
//! `estimator_subrange_invocations_total`, so it is a test binary of its
//! own with a single test: nothing else in the process consults the
//! estimator while it counts.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{LocalReplica, ReplicaClient};
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy, TransportErrorKind};
use seu_text::Analyzer;
use std::sync::Arc;

/// xorshift64* — tiny, seedable, and stable across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The vocabulary of `federation_conformance.rs`'s corpus, and its
/// shape: a dozen small engines over thirty words, so that any query
/// word occurs in some engines and not in others.
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

fn words(rng: &mut Rng, n: usize) -> String {
    let picked: Vec<&str> = (0..n).map(|_| WORDS[rng.below(WORDS.len())]).collect();
    picked.join(" ")
}

fn corpus(rng: &mut Rng, n_engines: usize) -> Vec<(String, Arc<SearchEngine>)> {
    (0..n_engines)
        .map(|i| {
            let mut b =
                CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
            for d in 0..2 + rng.below(4) {
                let len = 4 + rng.below(6);
                b.add_document(&format!("d{d}"), &words(rng, len));
            }
            (
                format!("engine-{i:03}"),
                Arc::new(SearchEngine::new(b.build())),
            )
        })
        .collect()
}

const THRESHOLD: f64 = 0.05;

#[test]
fn a_replica_plans_the_engines_it_is_asked_about_and_no_others() {
    let mut rng = Rng(0x5EED_0014);
    let corpus = corpus(&mut rng, 12);
    let queries: Vec<String> = (0..12)
        .map(|_| {
            let len = 1 + rng.below(3);
            words(&mut rng, len)
        })
        .collect();
    let broker = Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()));
    for (name, engine) in &corpus {
        broker.register_shared(name, engine.clone());
    }
    let replica = LocalReplica::new(broker.clone());
    let name = |i: usize| corpus[i].0.clone();
    let subsets: Vec<Vec<usize>> = vec![
        vec![],
        vec![7],
        (0..12).step_by(2).collect(),
        (0..6).collect(),
        (0..12).rev().collect(),
        vec![3, 11, 4],
    ];
    let consulted = seu_obs::counter("estimator_subrange_invocations_total");
    // Named engines that held a query term, and that held none.
    let mut swept = (0, 0);

    for query in &queries {
        let all = broker.estimate_all(query, THRESHOLD);
        for subset in &subsets {
            let names: Vec<String> = subset.iter().map(|&i| name(i)).collect();
            let holds_a_term = |&i: &usize| {
                let collection = corpus[i].1.collection();
                !collection.query_from_text(query).is_empty()
            };
            let holding = subset.iter().filter(|&i| holds_a_term(i)).count() as u64;
            swept = (swept.0 + holding, swept.1 + subset.len() as u64 - holding);

            // Estimates: the matching rows of the full plan, bit for
            // bit, in request order — for one consultation per named
            // engine that holds a query term.
            let before = consulted.get();
            let estimates = replica.estimate_subset(query, THRESHOLD, &names).unwrap();
            assert_eq!(consulted.get() - before, holding, "{query:?} {subset:?}");
            assert_eq!(estimates.len(), subset.len());
            for (estimate, &i) in estimates.iter().zip(subset) {
                assert_eq!(estimate.engine, all[i].engine);
                let (got, want) = (estimate.usefulness, all[i].usefulness);
                assert_eq!(got.no_doc.to_bits(), want.no_doc.to_bits(), "{query:?}");
                assert_eq!(got.avg_sim.to_bits(), want.avg_sim.to_bits(), "{query:?}");
            }

            // Search: no consultation at all, and the hits and
            // per-engine counts the fully estimated plan gives for the
            // same invocation set.
            let before = consulted.get();
            let searched = replica.search_subset(query, THRESHOLD, &names).unwrap();
            assert_eq!(consulted.get(), before, "a search estimates nothing");
            let request = SearchRequest::new(query.as_str())
                .threshold(THRESHOLD)
                .policy(SelectionPolicy::All);
            let mut plan = broker.plan(&request, None);
            plan.selected = subset.clone();
            let executed = broker.execute_plan(&request, &plan).unwrap();
            assert_eq!(searched.hits, executed.hits, "{query:?} {subset:?}");
            let counts = |stats: &[seu_metasearch::EngineDispatchStats]| -> Vec<(String, usize)> {
                stats.iter().map(|s| (s.engine.clone(), s.hits)).collect()
            };
            assert_eq!(
                counts(&searched.stats),
                counts(&executed.per_engine_stats),
                "{query:?} {subset:?}"
            );
        }
    }

    assert!(swept.0 > 50 && swept.1 > 50, "a lopsided sweep: {swept:?}");

    // A name the replica does not hold is still the typed refusal.
    let unknown = [name(0), "engine-nope".to_string()];
    for refusal in [
        replica
            .estimate_subset("database", THRESHOLD, &unknown)
            .map(|_| ()),
        replica
            .search_subset("database", THRESHOLD, &unknown)
            .map(|_| ()),
    ] {
        let refusal = refusal.unwrap_err();
        assert_eq!(refusal.kind, TransportErrorKind::Protocol, "{refusal}");
        assert!(refusal.detail.contains("engine-nope"), "{refusal}");
    }
}
