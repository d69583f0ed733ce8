//! One pooled client shared by more callers than its pool can carry at
//! once (8 connections × 32 pipelined calls = 256): the callers queue
//! on the least-loaded connection instead of dialing past the cap, and
//! every answer is the in-process engine's to the bit.
//!
//! The file holds one test on purpose: it reads the process-global
//! `net_client_connects_total`, and a test binary of its own keeps
//! other tests' dials out of that count (as a case of `loopback.rs` it
//! failed 5 runs of 15 with "9 dials").

use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::RemoteTransport;
use seu_net::{EngineServer, RemoteEngine};
use seu_text::Analyzer;
use std::sync::Barrier;

const CALLERS: usize = 300;
const POOL_CONNECTIONS: u64 = 8;
const THRESHOLD: f64 = 0.05;

const QUERIES: &[&str] = &[
    "wild mushroom soup",
    "identifying mushrooms",
    "query optimization in databases",
    "unrelated zebra hovercraft",
];

fn engine() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom foraging in autumn forests");
    b.add_document("d1", "soup recipes with wild mushrooms");
    b.add_document("d2", "relational databases and query optimization");
    SearchEngine::new(b.build())
}

fn connects() -> u64 {
    seu_obs::global()
        .snapshot()
        .counters
        .get("net_client_connects_total")
        .copied()
        .unwrap_or(0)
}

#[test]
fn one_pooled_client_carries_more_callers_than_its_pipeline_slots() {
    let local = engine();
    let want: Vec<[u64; 3]> = QUERIES
        .iter()
        .map(|q| {
            let t = local.true_usefulness(&local.collection().query_from_text(q), THRESHOLD);
            [t.no_doc, t.avg_sim.to_bits(), t.max_sim.to_bits()]
        })
        .collect();
    assert!(want.iter().any(|w| w[0] > 0), "every query is empty");

    let server = EngineServer::bind("pantry", engine(), "127.0.0.1:0").unwrap();
    let client = RemoteEngine::new(server.addr()).unwrap();
    let dialed = connects();
    // The barrier puts all callers on the pool at once.
    let start = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            let (client, start, want) = (client.clone(), &start, &want);
            scope.spawn(move || {
                start.wait();
                for (query, want) in QUERIES.iter().zip(want) {
                    let t = client
                        .true_usefulness(query, THRESHOLD)
                        .unwrap_or_else(|e| panic!("{query}: {e}"));
                    let got = [t.no_doc, t.avg_sim.to_bits(), t.max_sim.to_bits()];
                    assert_eq!(&got, want, "{query}");
                }
            });
        }
    });
    let grew = connects() - dialed;
    assert!(
        (1..=POOL_CONNECTIONS).contains(&grew),
        "{grew} dials for a pool capped at {POOL_CONNECTIONS}"
    );
}
