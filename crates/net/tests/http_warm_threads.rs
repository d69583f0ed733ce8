//! No thread is born to answer one request: the HTTP door hands each
//! connection to its most recently parked thread, so the threads it
//! starts number at most the connections open at once — counted, not
//! timed.
//!
//! The file holds one test on purpose: it reads the process-global
//! `net_http_threads_started_total` and `net_http_threads_live`, and a
//! test binary of its own keeps other tests' admin servers out of them.
//! At the spawn-per-connection door this replaces, part (a) reads 300
//! threads for 300 requests.

use seu_metasearch::{CacheStats, EngineStatus, RegistrySnapshot, SearchRequest, SearchResponse};
use seu_net::{AdminServer, BrokerAdmin};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The door's expiry constant (`PARK_EXPIRY` in `http.rs`).
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

    fn search(&self, request: &SearchRequest) -> SearchResponse {
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
    seu_obs::counter("net_http_threads_started_total").get()
}

fn live() -> f64 {
    seu_obs::gauge("net_http_threads_live").get()
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
/// means the server has closed, which it does only after parking.
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

/// (a) One client, one connection at a time: one thread, ever.
fn sequential_requests_start_one_thread(addr: SocketAddr) {
    let before = started();
    for _ in 0..300 {
        assert_ok(&search(addr, "soup"));
    }
    assert_eq!(
        started() - before,
        1,
        "300 sequential requests must be served by the thread the first one started"
    );
    assert_eq!(live(), 1.0, "that thread is parked, not gone");
}

/// (b) Four closed-loop clients: never more than four connections open,
/// so never more than four threads — one of which (a) left parked.
fn closed_loop_clients_start_no_more_threads_than_clients(addr: SocketAddr) {
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
    assert!(grown <= 4, "4 closed-loop clients started {grown} threads");
    assert!(live() <= 4.0, "{} threads alive for 4 clients", live());
}

/// (c) Thirty-two connections open at once: at most thirty-two threads,
/// and once idle for the expiry every one of them has left.
fn a_burst_starts_no_more_threads_than_connections_and_they_expire(addr: SocketAddr) {
    let before = started();
    let mut burst: Vec<TcpStream> = (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for stream in &mut burst {
        send_search(stream, "soup");
    }
    for stream in &mut burst {
        assert_ok(&read_reply(stream));
    }
    let grown = started() - before;
    assert!(grown <= 32, "32 connections started {grown} threads");
    assert!(live() <= 32.0, "{} threads alive", live());
    assert!(live() >= 1.0, "the burst's threads are parked, not gone");
    eventually(
        PARK_EXPIRY + Duration::from_secs(4),
        "every idle connection thread has left",
        || live() == 0.0,
    );
    // The stack is empty now, so the next request starts a thread.
    let before = started();
    assert_ok(&search(addr, "soup"));
    assert_eq!(started() - before, 1);
}

/// (d) A search that panics costs its own connection only: the client
/// sees a close, the thread is counted out, the next request is served.
fn a_panicking_search_costs_one_connection(addr: SocketAddr) {
    assert_ok(&search(addr, "soup"));
    let live_before = live();
    let reply = search(addr, "boom");
    assert_eq!(reply, "", "a panicked handler answers with a plain close");
    // The socket closes while the thread is still unwinding.
    eventually(
        Duration::from_secs(5),
        "the panicked thread is counted out",
        || live() == live_before - 1.0,
    );
    assert_ok(&search(addr, "soup"));
    assert_ok(&search(addr, "soup"));
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
        "a parked connection thread outlived shutdown"
    );
    assert_eq!(live(), 0.0);
}

/// (f) A thread serving a request when `shutdown` is called is not
/// waited for; it finishes its reply and exits instead of parking.
fn a_busy_thread_finishes_its_request_and_exits() {
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
        "the busy thread let go of the broker",
        || live() == 0.0 && Arc::strong_count(&script.broker) == ours,
    );
}

#[test]
fn the_door_reuses_its_warmest_thread() {
    assert_eq!(live(), 0.0);
    let script = scripted();
    let admin = AdminServer::bind(script.broker.clone(), "127.0.0.1:0").unwrap();
    sequential_requests_start_one_thread(admin.addr());
    closed_loop_clients_start_no_more_threads_than_clients(admin.addr());
    a_burst_starts_no_more_threads_than_connections_and_they_expire(admin.addr());
    a_panicking_search_costs_one_connection(admin.addr());
    admin.shutdown();
    assert_eq!(live(), 0.0);
    shutdown_joins_what_is_parked();
    a_busy_thread_finishes_its_request_and_exits();
}
