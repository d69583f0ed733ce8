//! No thread is born to answer one request: the HTTP door's loop hands
//! each whole request to the most recently parked worker of its worker
//! set, so the workers it starts number at most the connections open at
//! once — counted, not timed — and a request costs the loop at most two
//! wake-ups (accept, then read).
//!
//! The file holds one test on purpose: it reads the process-global
//! `net_server_workers_started_total`, `net_server_workers_live` and
//! `net_server_loop_wakeups_total`, and a test binary of its own keeps
//! other tests' servers out of them. At the spawn-per-connection door
//! the park stack replaced, part (a) read 300 threads for 300 requests.

use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{
    CacheStats, EngineStatus, RegistrySnapshot, RemoteTransport, SearchRequest, SearchResponse,
    SharedResponse,
};
use seu_net::{AdminServer, BrokerAdmin, EngineServer, RemoteEngine, ServerConfig};
use seu_text::Analyzer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The worker set's expiry constant (`PARK_EXPIRY` in `server.rs`).
const PARK_EXPIRY: Duration = Duration::from_secs(1);

/// A broker that answers every search with an empty response, except:
/// `"boom"` panics, and `"wait"` tells the test it has arrived and then
/// blocks until the test lets it go.
struct Scripted {
    arrived: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl BrokerAdmin for Scripted {
    fn engine_statuses(&self) -> Vec<EngineStatus> {
        Vec::new()
    }

    fn search(&self, request: &SearchRequest) -> SharedResponse {
        match request.query.as_str() {
            "boom" => panic!("scripted: this search panics"),
            "wait" => {
                self.arrived.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            _ => {}
        }
        SearchResponse {
            hits: Vec::new(),
            estimates: Vec::new(),
            per_engine_stats: Vec::new(),
            trace: None,
            served_from: None,
        }
        .into()
    }

    fn registry_snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            statuses: Vec::new(),
            epoch: 0,
            shard_epochs: Vec::new(),
        }
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

struct Script {
    broker: Arc<Scripted>,
    arrived: Receiver<()>,
    release: Sender<()>,
}

fn scripted() -> Script {
    let (arrived_tx, arrived) = channel();
    let (release, release_rx) = channel();
    Script {
        broker: Arc::new(Scripted {
            arrived: Mutex::new(arrived_tx),
            release: Mutex::new(release_rx),
        }),
        arrived,
        release,
    }
}

fn started() -> u64 {
    seu_obs::counter("net_server_workers_started_total").get()
}

fn live() -> f64 {
    seu_obs::gauge("net_server_workers_live").get()
}

fn wakeups() -> u64 {
    seu_obs::counter("net_server_loop_wakeups_total").get()
}

/// Polls until `done` holds; panics with `what` once `limit` has passed.
fn eventually(limit: Duration, what: &str, done: impl Fn() -> bool) {
    let since = Instant::now();
    while !done() {
        assert!(since.elapsed() < limit, "not within {limit:?}: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn send_search(stream: &mut TcpStream, query: &str) {
    let body = format!("{{\"query\":\"{query}\"}}");
    let request = format!(
        "POST /search HTTP/1.1\r\nHost: warm\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
}

/// Reads to end of stream, as the benchmark's client does: returning
/// means the server has closed, which its worker does only after
/// parking.
fn read_reply(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

fn search(addr: SocketAddr, query: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    send_search(&mut stream, query);
    read_reply(&mut stream)
}

fn assert_ok(reply: &str) {
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply:?}");
    assert!(reply.ends_with("\"served_from\":null}"), "{reply:?}");
}

/// (a) One client, one connection at a time: one worker, ever, and at
/// most two loop wake-ups a request — one to accept it, one to read it.
fn sequential_requests_start_one_worker(addr: SocketAddr) {
    let (before, woken) = (started(), wakeups());
    for _ in 0..300 {
        assert_ok(&search(addr, "soup"));
    }
    let per_request = (wakeups() - woken) as f64 / 300.0;
    assert_eq!(
        started() - before,
        1,
        "300 sequential requests must be served by the worker the first one started"
    );
    assert_eq!(live(), 1.0, "that worker is parked, not gone");
    assert!(
        per_request <= 2.0,
        "300 sequential requests woke the loop {per_request} times each"
    );
}

/// (b) Four closed-loop clients: never more than four connections open,
/// so never more than four workers — one of which (a) left parked.
fn closed_loop_clients_start_no_more_workers_than_clients(addr: SocketAddr) {
    let before = started();
    let go = Arc::new(Barrier::new(4));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                go.wait();
                for _ in 0..200 {
                    assert_ok(&search(addr, "soup"));
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let grown = started() - before;
    assert!(grown <= 4, "4 closed-loop clients started {grown} workers");
    assert!(live() <= 4.0, "{} workers alive for 4 clients", live());
}

/// (c) Thirty-two connections open at once: at most thirty-two workers,
/// and once idle for the expiry every one of them has left.
fn a_burst_starts_no_more_workers_than_connections_and_they_expire(addr: SocketAddr) {
    let before = started();
    let mut burst: Vec<TcpStream> = (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for stream in &mut burst {
        send_search(stream, "soup");
    }
    for stream in &mut burst {
        assert_ok(&read_reply(stream));
    }
    let grown = started() - before;
    assert!(grown <= 32, "32 connections started {grown} workers");
    assert!(live() <= 32.0, "{} workers alive", live());
    assert!(live() >= 1.0, "the burst's workers are parked, not gone");
    eventually(
        PARK_EXPIRY + Duration::from_secs(4),
        "every idle worker has left",
        || live() == 0.0,
    );
    // The stack is empty now, so the next request starts a worker.
    let before = started();
    assert_ok(&search(addr, "soup"));
    assert_eq!(started() - before, 1);
}

/// (d) A search that panics costs its own connection only: the client
/// sees a close, and the worker that caught the panic parks and serves
/// the next requests.
fn a_panicking_search_costs_one_connection(addr: SocketAddr) {
    assert_ok(&search(addr, "soup"));
    let (live_before, before) = (live(), started());
    let reply = search(addr, "boom");
    assert_eq!(reply, "", "a panicked handler answers with a plain close");
    assert_ok(&search(addr, "soup"));
    assert_ok(&search(addr, "soup"));
    assert_eq!(started() - before, 0, "the panic cost no worker");
    assert_eq!(live(), live_before);
}

/// (e) `shutdown` with no request in flight leaves nothing holding the
/// broker: its strong count is back at the caller's own.
fn shutdown_joins_what_is_parked() {
    let script = scripted();
    let ours = Arc::strong_count(&script.broker);
    let admin = AdminServer::bind(script.broker.clone(), "127.0.0.1:0").unwrap();
    let mut burst: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(admin.addr()).unwrap())
        .collect();
    for stream in &mut burst {
        send_search(stream, "soup");
    }
    for stream in &mut burst {
        assert_ok(&read_reply(stream));
    }
    assert!(live() >= 1.0);
    assert!(Arc::strong_count(&script.broker) > ours);
    admin.shutdown();
    assert_eq!(
        Arc::strong_count(&script.broker),
        ours,
        "a parked worker outlived shutdown"
    );
    assert_eq!(live(), 0.0);
}

/// (f) A worker serving a request when `shutdown` is called is not
/// waited for; it finishes its reply and exits instead of parking.
fn a_busy_worker_finishes_its_request_and_exits() {
    let script = scripted();
    let ours = Arc::strong_count(&script.broker);
    let admin = AdminServer::bind(script.broker.clone(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(admin.addr()).unwrap();
    send_search(&mut stream, "wait");
    script.arrived.recv().unwrap();
    admin.shutdown();
    assert_eq!(
        live(),
        1.0,
        "shutdown does not wait for a request in flight"
    );
    script.release.send(()).unwrap();
    assert_ok(&read_reply(&mut stream));
    // Parked, it would hold the broker for the whole expiry; exiting
    // takes no time.
    eventually(
        PARK_EXPIRY / 2,
        "the busy worker let go of the broker",
        || live() == 0.0 && Arc::strong_count(&script.broker) == ours,
    );
}

/// (g) Only the door's uncapped set expires: a frame service's cap
/// already bounds its threads, so two `GetRepresentative` calls further
/// apart than the expiry are answered by the one worker the first
/// started.
fn a_capped_set_keeps_its_workers() {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom soup");
    let before = started();
    let server = EngineServer::bind_with(
        "pantry",
        SearchEngine::new(b.build()),
        "127.0.0.1:0",
        ServerConfig { workers: 1 },
    )
    .unwrap();
    let client = RemoteEngine::new(server.addr()).unwrap();
    client.fetch_snapshot().unwrap();
    std::thread::sleep(PARK_EXPIRY + Duration::from_millis(200));
    client.fetch_snapshot().unwrap();
    assert_eq!(
        started() - before,
        1,
        "a capped set started a worker again past the door's expiry"
    );
    drop(client);
    server.shutdown();
    assert_eq!(live(), 0.0);
}

#[test]
fn the_door_reuses_its_warmest_worker() {
    assert_eq!(live(), 0.0);
    let script = scripted();
    let admin = AdminServer::bind(script.broker.clone(), "127.0.0.1:0").unwrap();
    sequential_requests_start_one_worker(admin.addr());
    closed_loop_clients_start_no_more_workers_than_clients(admin.addr());
    a_burst_starts_no_more_workers_than_connections_and_they_expire(admin.addr());
    a_panicking_search_costs_one_connection(admin.addr());
    admin.shutdown();
    assert_eq!(live(), 0.0);
    shutdown_joins_what_is_parked();
    a_busy_worker_finishes_its_request_and_exits();
    a_capped_set_keeps_its_workers();
}
