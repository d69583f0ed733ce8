//! Rows only where a query term is. An engine that holds no query term
//! has the constant 1 as its generating function (paper Prop. 1), so
//! every estimator gives it `(0, 0)` and a search of it finds nothing.
//! A plan therefore lists, in registration order, exactly the engines
//! whose own translation of the query is non-empty, and dispatch never
//! asks any other engine — while the broker still counts every engine
//! it considered, `estimate_all` still answers for every engine, and
//! every hit is bit for bit what searching every engine gives.
//!
//! Checked over a flat and a 4-shard registry. The suite reads the
//! process-global `broker_*` counters, so it is a test binary of its
//! own, and its tests take turns.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    merge_results, Broker, EngineRecord, MergedHit, Pending, RemoteHit, RemoteTransport,
    Representative, SearchReply, SearchRequest, SelectionPolicy, TransportError,
};
use seu_text::Analyzer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Held by every test: nothing else in the process plans while one
/// counts.
static TURN: Mutex<()> = Mutex::new(());

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

/// Thirty words over sixteen small engines: an engine holds a given
/// word about half the time, so every query meets engines that hold one
/// of its terms and engines that hold none.
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

const ENGINES: usize = 16;
const THRESHOLD: f64 = 0.05;

fn words(rng: &mut Rng, n: usize) -> String {
    let picked: Vec<&str> = (0..n).map(|_| WORDS[rng.below(WORDS.len())]).collect();
    picked.join(" ")
}

fn corpus(rng: &mut Rng) -> Vec<(String, Arc<SearchEngine>)> {
    (0..ENGINES)
        .map(|i| {
            let mut b =
                CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
            for d in 0..2 + rng.below(3) {
                let len = 3 + rng.below(5);
                b.add_document(&format!("d{d}"), &words(rng, len));
            }
            (
                format!("engine-{i:02}"),
                Arc::new(SearchEngine::new(b.build())),
            )
        })
        .collect()
}

/// Queries of one to three corpus words, and two nobody holds.
fn queries(rng: &mut Rng) -> Vec<String> {
    let mut queries: Vec<String> = (0..24)
        .map(|_| {
            let len = 1 + rng.below(3);
            words(rng, len)
        })
        .collect();
    queries.push("zebra".to_string());
    queries.push("zebra xylophone soup".to_string());
    queries
}

/// The engines whose own collection translates `query` to a non-empty
/// vector, in registration order.
fn holding(corpus: &[(String, Arc<SearchEngine>)], query: &str) -> Vec<String> {
    let holds = |(_, engine): &&(String, Arc<SearchEngine>)| {
        !engine.collection().query_from_text(query).is_empty()
    };
    corpus
        .iter()
        .filter(holds)
        .map(|(n, _)| n.clone())
        .collect()
}

/// Every engine searched with its own query, merged: what any selection
/// that reaches every engine holding a query term must answer.
fn searched(
    corpus: &[(String, Arc<SearchEngine>)],
    names: &[String],
    query: &str,
) -> Vec<MergedHit> {
    let of = |(name, engine): &(String, Arc<SearchEngine>)| -> Vec<MergedHit> {
        let collection = engine.collection();
        let hits = engine.search_threshold(&collection.query_from_text(query), THRESHOLD);
        let hit = |h: seu_engine::SearchHit| MergedHit {
            engine: name.clone(),
            doc: collection.doc(h.doc).name.clone(),
            sim: h.sim,
        };
        hits.into_iter().map(hit).collect()
    };
    let wanted = corpus.iter().filter(|(n, _)| names.contains(n));
    merge_results(wanted.map(of).collect())
}

fn hit_bits(hits: &[MergedHit]) -> Vec<(String, String, u64)> {
    let bits = |h: &MergedHit| (h.engine.clone(), h.doc.clone(), h.sim.to_bits());
    hits.iter().map(bits).collect()
}

fn broker(shards: usize) -> Broker<SubrangeEstimator> {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .cache_bytes(0)
        .build()
}

fn plans_list_the_engines_holding_a_query_term(shards: usize) {
    let mut rng = Rng(0x1D1E_0030);
    let corpus = corpus(&mut rng);
    let b = broker(shards);
    for (name, engine) in &corpus {
        b.register_shared(name, engine.clone());
    }
    let considered = seu_obs::counter("broker_engines_considered_total");
    let consulted = seu_obs::counter("broker_estimates_total");
    let (mut rows, mut idle) = (0, 0);

    for query in queries(&mut rng) {
        let ctx = format!("{shards} shard(s), {query:?}");
        let want = holding(&corpus, &query);
        let all = b.estimate_all(&query, THRESHOLD);
        let req = SearchRequest::new(query.as_str())
            .threshold(THRESHOLD)
            .policy(SelectionPolicy::All);

        // The rows: the engines holding a query term, registration order,
        // each estimated as `estimate_all` estimates it.
        let plan = b.plan(&req, None);
        let planned: Vec<&str> = plan.engines().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(planned, want, "{ctx}: plan rows");
        for row in plan.engines() {
            let full = all.iter().find(|e| e.engine == row.name).unwrap();
            let bits = |u: seu_metasearch::Usefulness| (u.no_doc.to_bits(), u.avg_sim.to_bits());
            assert_eq!(
                bits(row.usefulness),
                bits(full.usefulness),
                "{ctx}: {}",
                row.name
            );
        }

        // `estimate_all` still answers for every engine, in registration
        // order, and `(0, 0)` for an engine holding no query term.
        let names: Vec<&str> = all.iter().map(|e| e.engine.as_str()).collect();
        let registered: Vec<&str> = corpus.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, registered, "{ctx}: estimate_all");
        for e in all.iter().filter(|e| !want.contains(&e.engine)) {
            assert_eq!(e.usefulness.no_doc, 0.0, "{ctx}: {}", e.engine);
            assert_eq!(e.usefulness.avg_sim, 0.0, "{ctx}: {}", e.engine);
        }

        // Every engine is considered; only the rows are estimated.
        let before = (considered.get(), consulted.get());
        let resp = b.execute(&req.clone().with_estimates(true));
        let grown = (considered.get() - before.0, consulted.get() - before.1);
        assert_eq!(
            grown,
            (ENGINES as u64, want.len() as u64),
            "{ctx}: counters"
        );
        let estimated: Vec<&str> = resp.estimates.iter().map(|e| e.engine.as_str()).collect();
        assert_eq!(estimated, want, "{ctx}: response estimates");

        rows += want.len();
        idle += ENGINES - want.len();
    }
    assert!(
        rows > 100 && idle > 100,
        "a lopsided sweep: {rows} rows, {idle} idle"
    );
}

#[test]
fn plans_list_the_engines_holding_a_query_term_flat_and_sharded() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    plans_list_the_engines_holding_a_query_term(1);
    plans_list_the_engines_holding_a_query_term(4);
}

/// An engine behind a transport that counts the searches it is asked.
#[derive(Debug)]
struct Counting {
    name: String,
    engine: Arc<SearchEngine>,
    searches: AtomicUsize,
}

impl RemoteTransport for Counting {
    fn endpoint(&self) -> String {
        format!("counting://{}", self.name)
    }

    fn search(
        &self,
        query_text: &str,
        threshold: f64,
        _ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        let collection = self.engine.collection();
        let query = collection.query_from_text(query_text);
        let hit = |h: seu_engine::SearchHit| RemoteHit {
            doc: collection.doc(h.doc).name.clone(),
            sim: h.sim,
        };
        let hits = self.engine.search_threshold(&query, threshold);
        Ok((hits.into_iter().map(hit).collect(), Vec::new()))
    }

    fn begin_search(
        &self,
        query_text: &str,
        threshold: f64,
        ctx: Option<&seu_obs::TraceContext>,
    ) -> Box<dyn Pending<SearchReply>> {
        self.searches.fetch_add(1, Ordering::SeqCst);
        let reply = self.search(query_text, threshold, ctx);
        Box::new(reply.map(|(hits, spans)| SearchReply {
            hits,
            spans,
            seconds: 0.0,
        }))
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("dispatch never asks the oracle")
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        let repr = Representative::build(self.engine.collection());
        Ok(Arc::new(EngineRecord::of_engine(
            &self.name,
            &self.engine,
            repr,
        )))
    }
}

fn dispatch_asks_only_the_engines_holding_a_query_term(shards: usize) {
    let mut rng = Rng(0x1D1E_0030);
    let corpus = corpus(&mut rng);
    let b = broker(shards);
    let doubles: Vec<Arc<Counting>> = corpus
        .iter()
        .map(|(name, engine)| {
            Arc::new(Counting {
                name: name.clone(),
                engine: engine.clone(),
                searches: AtomicUsize::new(0),
            })
        })
        .collect();
    for double in &doubles {
        b.register_remote(double.clone()).unwrap();
    }
    let everyone: Vec<String> = corpus.iter().map(|(n, _)| n.clone()).collect();

    for query in queries(&mut rng) {
        let want = holding(&corpus, &query);
        for policy in [SelectionPolicy::All, SelectionPolicy::TopK(3)] {
            let ctx = format!("{shards} shard(s), {policy:?}, {query:?}");
            let req = SearchRequest::new(query.as_str())
                .threshold(THRESHOLD)
                .policy(policy);
            let before: Vec<usize> = doubles
                .iter()
                .map(|d| d.searches.load(Ordering::SeqCst))
                .collect();
            let selected = b.plan(&req, None).selected_names();
            let resp = b.execute(&req);
            assert!(resp.is_complete(), "{ctx}");
            for (double, before) in doubles.iter().zip(before) {
                let asked = double.searches.load(Ordering::SeqCst) - before;
                if !want.contains(&double.name) {
                    assert_eq!(asked, 0, "{ctx}: {} holds no query term", double.name);
                }
            }
            // All reaches every engine holding a query term: its hits are
            // every engine's own search, merged. TopK's are those of the
            // engines it chose, each holding a query term.
            let reference = match policy {
                SelectionPolicy::All => searched(&corpus, &everyone, &query),
                _ => {
                    assert!(
                        selected.iter().all(|n| want.contains(n)),
                        "{ctx}: {selected:?}"
                    );
                    searched(&corpus, &selected, &query)
                }
            };
            assert_eq!(hit_bits(&resp.hits), hit_bits(&reference), "{ctx}: hits");
        }
    }
}

#[test]
fn dispatch_asks_only_the_engines_holding_a_query_term_flat_and_sharded() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    dispatch_asks_only_the_engines_holding_a_query_term(1);
    dispatch_asks_only_the_engines_holding_a_query_term(4);
}
