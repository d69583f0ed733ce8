//! A replica's capacity is its server's worker count: bound with one
//! worker it answers one request at a time however many arrive
//! pipelined, every reply still reaches the caller that asked for it,
//! and pings — answered by the loop, not a worker — never queue.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::federation::{LocalReplica, ReplicaClient};
use seu_metasearch::{
    Broker, EngineRecord, RemoteHit, RemoteTransport, Representative, TransportError,
};
use seu_net::{RemoteReplica, ReplicaServer, ServerConfig};
use seu_text::Analyzer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CALLERS: usize = 4;
const PATIENCE: Duration = Duration::from_secs(10);

fn engine(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    SearchEngine::new(b.build())
}

/// A remote engine whose `search` announces itself and then blocks
/// until the test releases it, counting how many run at once.
#[derive(Debug)]
struct GatedEngine {
    snapshot: Arc<EngineRecord>,
    running: AtomicUsize,
    high_water: AtomicUsize,
    entered: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl RemoteTransport for GatedEngine {
    fn endpoint(&self) -> String {
        "gated:0".to_string()
    }

    fn search(
        &self,
        _query_text: &str,
        _threshold: f64,
        _ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.high_water.fetch_max(now, Ordering::SeqCst);
        self.entered.lock().unwrap().send(()).unwrap();
        let released = self.release.lock().unwrap().recv_timeout(PATIENCE);
        self.running.fetch_sub(1, Ordering::SeqCst);
        released.expect("the test releases every search");
        Ok((Vec::new(), Vec::new()))
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("the replica never asks the oracle")
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        Ok(self.snapshot.clone())
    }
}

#[test]
fn one_worker_serves_one_request_at_a_time() {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let gated = Arc::new(GatedEngine {
        snapshot: {
            let served = engine(&["soup recipes with wild mushrooms"]);
            let repr = Representative::build(served.collection());
            Arc::new(EngineRecord::of_engine("gated", &served, repr))
        },
        running: AtomicUsize::new(0),
        high_water: AtomicUsize::new(0),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    });
    let broker = Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()));
    broker.register(
        "db",
        engine(&[
            "relational databases and query optimization",
            "transaction processing in distributed databases",
        ]),
    );
    broker.register(
        "pantry",
        engine(&["mushroom foraging in autumn forests", "wild mushroom soup"]),
    );
    broker.register_remote(gated.clone()).unwrap();

    let server = ReplicaServer::bind_with(
        "r0",
        broker.clone(),
        "127.0.0.1:0",
        ServerConfig { workers: 1 },
    )
    .unwrap();
    let client = RemoteReplica::new(server.addr()).unwrap();
    let names: Vec<String> = ["db", "pantry", "gated"].map(String::from).to_vec();

    // Concurrent estimates through clones of one client: each caller
    // gets the answer to its own query, bit-identical to the
    // in-process replica's.
    let local = LocalReplica::new(broker);
    let queries = [
        "query optimization in databases",
        "wild mushroom soup",
        "distributed transaction processing",
        "mushroom databases",
    ];
    std::thread::scope(|scope| {
        for query in &queries[..CALLERS] {
            let (client, names, local) = (client.clone(), &names, &local);
            scope.spawn(move || {
                for _ in 0..8 {
                    let wire = client.estimate_subset(query, 0.1, names).unwrap();
                    let direct = local.estimate_subset(query, 0.1, names).unwrap();
                    assert_eq!(wire.len(), direct.len());
                    for (w, d) in wire.iter().zip(&direct) {
                        assert_eq!(w.engine, d.engine);
                        assert_eq!(
                            (
                                w.usefulness.no_doc.to_bits(),
                                w.usefulness.avg_sim.to_bits()
                            ),
                            (
                                d.usefulness.no_doc.to_bits(),
                                d.usefulness.avg_sim.to_bits()
                            ),
                            "{query:?} on {}",
                            w.engine
                        );
                    }
                }
            });
        }
    });

    // Concurrent searches of the gated engine: the one worker holds the
    // first while the rest queue behind it.
    std::thread::scope(|scope| {
        let gated_only = &names[2..];
        for _ in 0..CALLERS {
            let client = client.clone();
            scope.spawn(move || client.search_subset("soup", 0.1, gated_only).unwrap());
        }
        entered.recv_timeout(PATIENCE).expect("a search starts");
        // The worker is now parked inside `search`; the loop itself
        // still answers pings.
        client.ping().expect("ping while the only worker is busy");
        // A failing wait, not a pause: a second worker would announce
        // itself here, and on a correct server nothing can.
        assert!(
            entered.recv_timeout(Duration::from_millis(200)).is_err(),
            "a second search started while the only worker was busy"
        );
        for served in 1..=CALLERS {
            assert_eq!(gated.running.load(Ordering::SeqCst), 1);
            release.send(()).unwrap();
            if served < CALLERS {
                entered
                    .recv_timeout(PATIENCE)
                    .expect("the next search starts");
            }
        }
    });
    assert_eq!(gated.high_water.load(Ordering::SeqCst), 1);
}
