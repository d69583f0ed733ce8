//! Ask once, wait once — proven without a clock. Each tier of the
//! federated path begins all its calls before it awaits any: the fake
//! peers here refuse to answer until *every* one of them holds its
//! request, so a caller that asks them one after another (or through
//! fewer workers than there are peers) never gets a first answer and
//! runs into its call timeout instead.
//!
//! - a broker with a one-thread pool over four gated engine servers
//!   answers completely: dispatch asked all four from its own thread;
//! - a front-door over two gated replica servers answers completely, in
//!   its estimate phase and in its search phase;
//! - an engine that does not answer costs a request its timeout budget
//!   and nothing else: the others' hits are kept, the connection serves
//!   the next request, and the reply that comes too late is counted, not
//!   delivered.

use seu_core::{SubrangeEstimator, Usefulness};
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{EngineSource, FrontDoor, FrontDoorConfig};
use seu_metasearch::{
    Broker, DispatchOutcome, EngineDispatchStats, EngineSnapshot, MergedHit, RemoteHit,
    SearchRequest, SelectionPolicy,
};
use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::Message;
use seu_net::{EngineServer, RemoteEngine, RemoteEngineConfig, RemoteReplica};
use seu_text::Analyzer;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

fn engine(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    SearchEngine::new(b.build())
}

const DBS: [&[&str]; 4] = [
    &[
        "relational databases and query optimization",
        "indexing text",
    ],
    &["neural networks for images", "databases of labelled images"],
    &[
        "mushroom foraging in autumn",
        "poisonous mushrooms in databases",
    ],
    &["sourdough bread at home", "databases of bread recipes"],
];

/// What a fake peer does before it answers a request: wait for its
/// fellows, or for the test's word.
type Hold = Arc<dyn Fn() + Send + Sync>;

/// A peer that echoes correlation ids — so the client multiplexes on it
/// — and answers each frame with `answer(request)`, one connection a
/// thread. Returns its address and how many connections it accepted.
fn fake_server(
    name: String,
    answer: impl Fn(Message) -> Message + Send + Sync + 'static,
) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = accepted.clone();
    let answer = Arc::new(answer);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            count.fetch_add(1, Ordering::SeqCst);
            let (name, answer) = (name.clone(), answer.clone());
            std::thread::spawn(move || {
                while let Ok(frame) = read_frame(&mut stream) {
                    let reply = match Message::decode(frame.kind, &frame.payload) {
                        Ok(Message::Hello { .. }) => Message::HelloAck { name: name.clone() },
                        Ok(Message::Ping) => Message::Pong,
                        Ok(request) => answer(request),
                        Err(_) => return,
                    };
                    let (kind, payload) = reply.encode();
                    if write_frame_corr(&mut stream, frame.corr, kind, &payload).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, accepted)
}

/// An engine server over `texts` that `hold`s before answering a search.
fn gated_engine(name: &str, texts: &[&str], hold: Hold) -> (SocketAddr, Arc<AtomicUsize>) {
    let served = engine(texts);
    let snapshot = EngineSnapshot::of_engine(name, &served);
    let search = move |query: &str, threshold: f64| -> Vec<RemoteHit> {
        let c = served.collection();
        let hits = served.search_threshold(&c.query_from_text(query), threshold);
        let hit = |h: seu_engine::SearchHit| RemoteHit {
            doc: c.doc(h.doc).name.clone(),
            sim: h.sim,
        };
        hits.into_iter().map(hit).collect()
    };
    fake_server(name.to_string(), move |request| match request {
        Message::GetRepresentative => Message::Representative {
            snapshot: snapshot.clone(),
        },
        Message::SearchDocs { query, threshold } => {
            hold();
            Message::SearchResults {
                hits: search(&query, threshold),
            }
        }
        Message::TracedSearchDocs {
            query, threshold, ..
        } => {
            hold();
            Message::TracedSearchResults {
                hits: search(&query, threshold),
                spans: Vec::new(),
            }
        }
        other => Message::Error {
            detail: format!("unexpected request {other:?}"),
        },
    })
}

/// A short call timeout: a caller that does wait for one peer before it
/// asks the next fails this suite in seconds, not in the default five
/// per call.
fn remote(addr: SocketAddr) -> Arc<RemoteEngine> {
    let config = RemoteEngineConfig {
        call_timeout: Duration::from_secs(2),
        ..RemoteEngineConfig::default()
    };
    Arc::new(RemoteEngine::with_config(addr, config).unwrap())
}

#[test]
fn dispatch_asks_every_remote_engine_before_it_waits_for_one() {
    let together = Arc::new(Barrier::new(DBS.len()));
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .worker_threads(1)
        .build();
    for (i, texts) in DBS.iter().enumerate() {
        let together = together.clone();
        let hold: Hold = Arc::new(move || {
            together.wait();
        });
        let (addr, _) = gated_engine(&format!("db{i}"), texts, hold);
        broker.register_remote(remote(addr)).unwrap();
    }
    let request = SearchRequest::new("databases")
        .threshold(0.01)
        .policy(SelectionPolicy::All);
    let response = broker.execute(&request);
    assert!(response.is_complete(), "{:?}", response.per_engine_stats);
    assert_eq!(response.per_engine_stats.len(), DBS.len());
    for i in 0..DBS.len() {
        let from = format!("db{i}");
        assert!(response.hits.iter().any(|h| h.engine == from), "{from}");
    }
}

/// A replica server that answers for whatever engines it is asked
/// about — every estimate useful, one hit an engine — once `hold` lets
/// it.
fn gated_replica(id: &str, hold: Hold) -> SocketAddr {
    let answer = move |request| match request {
        Message::InstallEngine { name, .. } => Message::InstallAck { name },
        Message::ReplicaPlan {
            engines, policy, ..
        } => {
            hold();
            let useful = Usefulness {
                no_doc: 1.0,
                avg_sim: 0.5,
            };
            // Every engine is useful, so any policy picks them all.
            let picked = if policy.is_some() { &engines[..] } else { &[] };
            let hit = |engine: &String| MergedHit {
                engine: engine.clone(),
                doc: "d0".to_string(),
                sim: 0.5,
            };
            let stats = |engine: &String| EngineDispatchStats {
                engine: engine.clone(),
                hits: 1,
                seconds: 0.0,
                outcome: DispatchOutcome::Completed,
                error: None,
            };
            Message::ReplicaPlanResults {
                usefulness: vec![useful; engines.len()],
                hits: picked.iter().map(hit).collect(),
                stats: picked.iter().map(stats).collect(),
            }
        }
        Message::ReplicaSearch { engines, .. } => {
            hold();
            let hit = |engine: &String| MergedHit {
                engine: engine.clone(),
                doc: "d0".to_string(),
                sim: 0.5,
            };
            let stats = |engine: &String| EngineDispatchStats {
                engine: engine.clone(),
                hits: 1,
                seconds: 0.0,
                outcome: DispatchOutcome::Completed,
                error: None,
            };
            Message::ReplicaSearchResults {
                hits: engines.iter().map(hit).collect(),
                stats: engines.iter().map(stats).collect(),
            }
        }
        other => Message::Error {
            detail: format!("unexpected request {other:?}"),
        },
    };
    fake_server(id.to_string(), answer).0
}

#[test]
fn the_front_door_asks_every_replica_before_it_waits_for_one() {
    // One barrier serves both phases: it resets once both have passed.
    let together = Arc::new(Barrier::new(2));
    let door = FrontDoor::new(FrontDoorConfig::default());
    for id in ["r0", "r1"] {
        let together = together.clone();
        let hold: Hold = Arc::new(move || {
            together.wait();
        });
        let client = RemoteReplica::new(gated_replica(id, hold)).unwrap();
        door.add_replica(id, Arc::new(client));
    }
    let names: Vec<String> = (0..8).map(|i| format!("e{i}")).collect();
    for name in &names {
        let nowhere = EngineSource::Remote {
            endpoint: "127.0.0.1:1".to_string(),
        };
        door.register_engine(name, nowhere).unwrap();
    }
    let primaries: std::collections::BTreeSet<String> = door
        .placements()
        .into_iter()
        .map(|(_, holders)| holders[0].clone())
        .collect();
    assert_eq!(primaries.len(), 2, "both replicas are asked in each phase");

    let request = SearchRequest::new("anything")
        .threshold(0.1)
        .policy(SelectionPolicy::All);
    let (response, report) = door.execute_with_report(&request);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.failovers, 0);
    assert!(response.is_complete(), "{:?}", response.per_engine_stats);
    let mut answered: Vec<String> = response.hits.into_iter().map(|h| h.engine).collect();
    answered.sort();
    assert_eq!(answered, names);
}

#[test]
fn a_silent_engine_costs_the_budget_and_its_late_reply_reaches_no_caller() {
    let late_replies = seu_obs::counter("net_client_late_replies_total");
    // Closed until the test says otherwise: the engine holds its reply.
    let latch = Arc::new((Mutex::new(false), Condvar::new()));
    let hold: Hold = {
        let latch = latch.clone();
        Arc::new(move || {
            let (open, cv) = &*latch;
            let _open = cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap();
        })
    };
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    // The silent engine is collected first: the two behind it must not
    // inherit its wait.
    let (silent, connections) = gated_engine("silent", DBS[0], hold);
    broker.register_remote(remote(silent)).unwrap();
    let servers: Vec<EngineServer> = (1..3)
        .map(|i| EngineServer::bind(format!("db{i}"), engine(DBS[i]), "127.0.0.1:0").unwrap())
        .collect();
    for server in &servers {
        broker.register_remote(remote(server.addr())).unwrap();
    }

    let request = SearchRequest::new("databases")
        .threshold(0.01)
        .policy(SelectionPolicy::All)
        .timeout(Duration::from_millis(80));
    let before = late_replies.get();
    let start = Instant::now();
    let response = broker.execute(&request);
    let took = start.elapsed();
    assert!(took >= Duration::from_millis(80), "{took:?}");
    assert!(took < Duration::from_secs(1), "{took:?}");
    let outcome_of =
        |response: &seu_metasearch::SearchResponse| -> Vec<(String, DispatchOutcome, usize)> {
            let stats = response.per_engine_stats.iter();
            stats
                .map(|s| (s.engine.clone(), s.outcome, s.hits))
                .collect()
        };
    assert_eq!(
        outcome_of(&response),
        [
            ("silent".to_string(), DispatchOutcome::TimedOut, 0),
            ("db1".to_string(), DispatchOutcome::Completed, 1),
            ("db2".to_string(), DispatchOutcome::Completed, 1),
        ]
    );
    assert_eq!(response.hits.len(), 2);

    // The reply comes after all, and the connection it came on is as good
    // as new: the next request reads the late reply, which waits for
    // nobody and is counted, on its way to its own.
    {
        let (open, cv) = &*latch;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
    let response = broker.execute(&request);
    assert!(response.is_complete(), "{:?}", response.per_engine_stats);
    assert_eq!(response.hits.len(), 3);
    assert_eq!(connections.load(Ordering::SeqCst), 1, "no redial");
    assert_eq!(late_replies.get(), before + 1, "one late reply");
}
