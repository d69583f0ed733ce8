//! A minimal HTTP/1.1 admin server over a broker: Prometheus exposition,
//! health, engine inventory, and search.
//!
//! Hand-rolled on `std::net` (the workspace vendors no HTTP stack), and
//! deliberately small: one request per connection (`Connection: close`),
//! capped header and body sizes, six routes:
//!
//! | route | reply |
//! |-------|-------|
//! | `GET /metrics` | the process-global [`seu_obs`] registry in Prometheus text exposition |
//! | `GET /healthz` | JSON health: registry epoch, shard count, engine count, query-cache stats |
//! | `GET /engines` | JSON array of the broker's [`EngineStatus`] rows |
//! | `POST /search` | executes a JSON search request against the broker |
//! | `GET /traces` | JSON array of retained trace summaries, newest first |
//! | `GET /traces/<id>` | one retained trace as a full span tree (16-hex trace id) |
//!
//! `POST /search` takes `{"query": "...", "threshold": 0.2, "top_k": 10,
//! "all": true, "explain": true, "cache": "read_write"}` (only `query`
//! required; `all` selects every engine instead of the estimated-useful
//! policy; `cache` is one of `"read_write"`, `"read_only"`, `"bypass"`)
//! and answers with merged hits, per-engine estimates, per-engine
//! dispatch stats — including the typed transport error when a remote
//! engine failed — and `"served_from"` (`"results"` when the query
//! cache served the whole answer, `null` for an execution that planned
//! and dispatched). With `explain` the request is force-sampled and the
//! reply carries the complete span tree inline under `"trace"`.
//!
//! The server is decoupled from the broker's estimator type through the
//! object-safe [`BrokerAdmin`] trait, blanket-implemented for every
//! `Broker<E>`.
//!
//! **What blocks where.** The acceptor thread blocks in `accept`. A
//! connection thread serves one request with blocking reads and writes
//! under the 10 s socket deadlines, then *parks*: it pushes its own slot
//! on a stack and waits on its own park token for at most a second,
//! after which it takes itself off the stack and exits.
//!
//! **Who wakes whom.** The acceptor pops the *most recently* parked
//! thread, leaves the connection in that thread's slot and unparks it,
//! and no other; with none parked it starts a thread whose first job is
//! the connection, so threads started ≤ connections open at once. Last
//! in, first out, because that thread's stack, allocator cache and
//! estimator scratch are still in the processor's cache; a shared
//! channel or condvar wakes waiters in queue order, the coldest first,
//! and that, not pooling, cost `registry_10k` its tail when a pool was
//! tried. A thread parks *before* it closes the socket it served: the
//! client reads to end of stream before it connects again, so by then
//! its thread is on the stack. `shutdown` ends the acceptor, which
//! takes the stack, wakes and joins the threads that were on it; a
//! thread serving at that moment exits after its reply, not parking.

use crate::metrics::{metrics, HttpThreadLive};
use parking_lot::Mutex;
use seu_core::UsefulnessEstimator;
use seu_metasearch::{
    Broker, CacheMode, CacheStats, EngineStatus, RegistrySnapshot, SearchRequest, SearchResponse,
    SelectionPolicy,
};
use seu_obs::json::{self, Json};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) accepted.
const MAX_HEAD_BYTES: usize = 8 << 10;
/// Largest request body accepted: the same 32 MiB cap the binary frame
/// layer enforces, checked against the declared `Content-Length`
/// *before* any buffer is allocated, so a liar header costs nothing.
const MAX_BODY_BYTES: usize = crate::frame::MAX_FRAME_BYTES;
/// Most that is read and dropped after a refusal, from a peer that
/// went on sending past the point where it was refused.
const MAX_DRAIN_BYTES: u64 = 1 << 20;
/// How long that peer must stay silent for the door to take it that
/// everything it sent has arrived.
const REFUSAL_LINGER: Duration = Duration::from_millis(100);
/// Socket deadline for reading a request and writing its response.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a parked connection thread waits for its next connection
/// before it takes itself off the stack and exits.
const PARK_EXPIRY: Duration = Duration::from_secs(1);

/// The slice of a broker the admin server needs, object-safe so one
/// server type works over any estimator. Blanket-implemented for every
/// [`Broker`].
pub trait BrokerAdmin: Send + Sync {
    /// Registry inventory, in registration order.
    fn engine_statuses(&self) -> Vec<EngineStatus>;
    /// Plans, selects, dispatches, and merges one request.
    fn search(&self, request: &SearchRequest) -> SearchResponse;
    /// A consistent epoch cut of the registry, for health reporting.
    fn registry_snapshot(&self) -> RegistrySnapshot;
    /// A point-in-time view of the query cache, `None` when the broker
    /// runs without one (for the `/healthz` `cache` block).
    fn cache_stats(&self) -> Option<CacheStats>;
}

impl<E: UsefulnessEstimator + Send + Sync> BrokerAdmin for Broker<E> {
    fn engine_statuses(&self) -> Vec<EngineStatus> {
        Broker::engine_statuses(self)
    }

    fn search(&self, request: &SearchRequest) -> SearchResponse {
        self.execute(request)
    }

    fn registry_snapshot(&self) -> RegistrySnapshot {
        Broker::registry_snapshot(self)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Broker::cache_stats(self)
    }
}

/// A connection thread's own slot: its next stream, left by the acceptor.
type Slot = Arc<Mutex<Option<TcpStream>>>;

/// What the acceptor and the connection threads share.
#[derive(Debug, Default)]
struct Door {
    shutting_down: AtomicBool,
    /// The parked threads and their slots, most recently parked last.
    parked: Mutex<Vec<(Thread, Slot)>>,
}

impl Door {
    /// The acceptor's loop, then its half of `stop`.
    fn accept(self: Arc<Door>, listener: TcpListener, broker: Arc<dyn BrokerAdmin>) {
        let mut started: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let mut parked = self.parked.lock();
            if let Some((thread, slot)) = parked.pop() {
                *slot.lock() = Some(stream);
                drop(parked);
                thread.unpark();
                continue;
            }
            drop(parked);
            let (door, broker) = (Arc::clone(&self), Arc::clone(&broker));
            started.retain(|thread| !thread.is_finished());
            started.extend(
                std::thread::Builder::new()
                    .name("seu-http-conn".to_string())
                    .spawn(move || door.serve_connections(stream, &*broker)),
            );
        }
        let parked = std::mem::take(&mut *self.parked.lock());
        for thread in started {
            if parked.iter().any(|p| p.0.id() == thread.thread().id()) {
                thread.thread().unpark();
                let _ = thread.join();
            }
        }
    }

    /// A connection thread: serve, park, close the served socket, wait.
    fn serve_connections(&self, first: TcpStream, broker: &dyn BrokerAdmin) {
        let _live = HttpThreadLive::start();
        let slot: Slot = Arc::new(Mutex::new(Some(first)));
        while let Some(mut stream) = self.next_stream(&slot) {
            let _ = serve_one(&mut stream, broker);
            let mut parked = self.parked.lock();
            if self.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            parked.push((std::thread::current(), Arc::clone(&slot)));
            // `parked` unlocks, then `stream` closes: parked first.
        }
    }

    /// The stream left in `slot`; `None` when the thread is to exit.
    fn next_stream(&self, slot: &Slot) -> Option<TcpStream> {
        let parked_at = Instant::now();
        loop {
            let mut parked = self.parked.lock();
            if let Some(stream) = slot.lock().take() {
                return Some(stream);
            }
            // Off the stack with nothing in the slot is `stop`'s doing.
            let at = parked.iter().rposition(|p| Arc::ptr_eq(&p.1, slot))?;
            let Some(left) = PARK_EXPIRY.checked_sub(parked_at.elapsed()) else {
                parked.remove(at);
                return None;
            };
            drop(parked);
            std::thread::park_timeout(left);
        }
    }
}

/// The admin/metrics HTTP server; serving stops when dropped.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    door: Arc<Door>,
    accept_thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `broker`.
    pub fn bind(
        broker: Arc<dyn BrokerAdmin>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let door = Arc::<Door>::default();
        let accepting = Arc::clone(&door);
        let accept_thread = std::thread::Builder::new()
            .name("seu-net-http".to_string())
            .spawn(move || accepting.accept(listener, broker))?;
        Ok(AdminServer {
            addr,
            door,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting; joins the accept thread and every parked thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.door.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Why [`read_request`] produced no request.
enum ReadError {
    /// Malformed, truncated, or over the head cap → `400`.
    Invalid,
    /// Declared `Content-Length` over [`MAX_BODY_BYTES`] → `413`. The
    /// body is never allocated or read.
    BodyTooLarge,
}

/// Reads one HTTP request within the caps. The socket is read a block
/// at a time — a head is about a hundred bytes and every read is a
/// system call — so whatever of the body arrived with the head is taken
/// from the same block.
fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut block = [0u8; 1024];
    let head_end = loop {
        // A terminator may straddle two blocks: look again from three
        // bytes before the new ones.
        let from = buf.len().saturating_sub(3);
        match stream.read(&mut block) {
            Ok(n) if n > 0 => buf.extend_from_slice(&block[..n]),
            _ => return Err(ReadError::Invalid),
        }
        if let Some(at) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ReadError::Invalid);
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(ReadError::Invalid);
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().ok_or(ReadError::Invalid)?.split_whitespace();
    let method = request_line.next().ok_or(ReadError::Invalid)?.to_string();
    let path = request_line.next().ok_or(ReadError::Invalid)?.to_string();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| ReadError::Invalid)?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = buf.split_off(head_end);
    let arrived = body.len().min(content_length);
    body.resize(content_length, 0);
    stream
        .read_exact(&mut body[arrived..])
        .map_err(|_| ReadError::Invalid)?;
    Ok(Request { method, path, body })
}

/// Writes the response. Head and body leave in one system call when the
/// socket takes them (the client then wakes once, not once for each),
/// and the body, which can be hundreds of kilobytes, is not copied.
fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

fn serve_one(stream: &mut TcpStream, broker: &dyn BrokerAdmin) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    let request = match read_request(stream) {
        Ok(request) => request,
        Err(refusal) => {
            let (status, body) = match refusal {
                ReadError::Invalid => ("400 Bad Request", "bad request\n".to_string()),
                ReadError::BodyTooLarge => (
                    "413 Payload Too Large",
                    format!("body exceeds {MAX_BODY_BYTES} bytes\n"),
                ),
            };
            respond(stream, status, "text/plain", &body)?;
            // A close over bytes nobody read goes out as a reset, which
            // can destroy the refusal before the peer reads it: read what
            // it sent and is still sending until it ends, goes silent or
            // reaches the cap. No `shutdown(Write)` here: end of stream
            // comes with the close, after this thread has parked.
            let _ = stream.set_read_timeout(Some(REFUSAL_LINGER));
            let _ = std::io::copy(&mut (&*stream).take(MAX_DRAIN_BYTES), &mut std::io::sink());
            return Ok(());
        }
    };
    metrics().http_requests.inc();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => {
            let exposition = seu_obs::global().snapshot().to_prometheus();
            respond(
                stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &exposition,
            )
        }
        ("GET", "/healthz") => respond(
            stream,
            "200 OK",
            "application/json",
            &healthz_json(&broker.registry_snapshot(), broker.cache_stats().as_ref()),
        ),
        ("GET", "/traces") => respond(stream, "200 OK", "application/json", &traces_json()),
        ("GET", path) if path.starts_with("/traces/") => {
            match lookup_trace(&path["/traces/".len()..]) {
                Some(body) => respond(stream, "200 OK", "application/json", &body),
                None => respond(
                    stream,
                    "404 Not Found",
                    "application/json",
                    "{\"error\":\"no such trace\"}",
                ),
            }
        }
        ("GET", "/engines") => respond(
            stream,
            "200 OK",
            "application/json",
            &engines_json(&broker.engine_statuses()),
        ),
        ("POST", "/search") => match parse_search(&request.body) {
            Ok(req) => {
                let response = broker.search(&req);
                respond(
                    stream,
                    "200 OK",
                    "application/json",
                    &search_json(&response),
                )
            }
            Err(detail) => {
                let mut body = String::from("{\"error\":");
                json::write_escaped(&mut body, &detail);
                body.push('}');
                respond(stream, "400 Bad Request", "application/json", &body)
            }
        },
        ("GET" | "POST", _) => respond(stream, "404 Not Found", "text/plain", "not found\n"),
        _ => respond(
            stream,
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        ),
    }
}

fn parse_search(body: &[u8]) -> Result<SearchRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = json::parse(text)?;
    let query = value
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field \"query\"".to_string())?;
    let mut request = SearchRequest::new(query).with_estimates(true);
    if let Some(t) = value.get("threshold").and_then(Json::as_num) {
        request = request.threshold(t);
    }
    if let Some(k) = value.get("top_k").and_then(Json::as_num) {
        request = request.top_k(k as usize);
    }
    if value.get("all") == Some(&Json::Bool(true)) {
        request = request.policy(SelectionPolicy::All);
    }
    if value.get("explain") == Some(&Json::Bool(true)) {
        request = request.explain(true);
    }
    if let Some(mode) = value.get("cache").and_then(Json::as_str) {
        request = request.cache(match mode {
            "read_write" => CacheMode::ReadWrite,
            "read_only" => CacheMode::ReadOnly,
            "bypass" => CacheMode::Bypass,
            other => return Err(format!("unknown cache mode {other:?}")),
        });
    }
    Ok(request)
}

fn healthz_json(snapshot: &RegistrySnapshot, cache: Option<&CacheStats>) -> String {
    let mut out = format!(
        "{{\"status\":\"ok\",\"registry_epoch\":{},\"shards\":{},\"engines\":{},\"cache\":",
        snapshot.epoch,
        snapshot.shard_epochs.len(),
        snapshot.statuses.len()
    );
    match cache {
        Some(c) => {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "{{\"policy\":\"{}\",\"budget_bytes\":{},\"bytes_resident\":{},\
                     \"entries\":{},\"hits\":{},\"misses\":{},\"stale_evictions\":{}}}",
                    c.policy,
                    c.budget_bytes,
                    c.bytes_resident,
                    c.entries,
                    c.hits,
                    c.misses,
                    c.stale_evictions
                ),
            );
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

fn traces_json() -> String {
    let mut out = String::from("[");
    for (i, trace) in seu_obs::tracer().store().recent().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&trace.summary_json());
    }
    out.push(']');
    out
}

fn lookup_trace(hex: &str) -> Option<String> {
    let id = seu_obs::TraceId::from_hex(hex)?;
    let trace = seu_obs::tracer().store().get(id)?;
    Some(trace.to_json())
}

fn engines_json(statuses: &[EngineStatus]) -> String {
    let mut out = String::from("[");
    for (i, s) in statuses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_escaped(&mut out, &s.name);
        out.push_str(&format!(
            ",\"epoch\":{},\"stale\":{},\"repr_terms\":{},\"repr_bytes\":{},\"remote\":{},\"detached\":{},\"shard\":{}",
            s.epoch, s.stale, s.repr_terms, s.repr_bytes, s.remote, s.detached, s.shard
        ));
        out.push_str(",\"endpoint\":");
        match &s.endpoint {
            Some(e) => json::write_escaped(&mut out, e),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    out
}

fn search_json(response: &SearchResponse) -> String {
    let rows = response.hits.len() + response.estimates.len() + response.per_engine_stats.len();
    let mut out = String::with_capacity(256 + 64 * rows);
    out.push_str("{\"hits\":[");
    for (i, h) in response.hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"engine\":");
        json::write_escaped(&mut out, &h.engine);
        out.push_str(",\"doc\":");
        json::write_escaped(&mut out, &h.doc);
        out.push_str(",\"sim\":");
        json::write_num(&mut out, h.sim);
        out.push('}');
    }
    out.push_str("],\"estimates\":[");
    for (i, e) in response.estimates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"engine\":");
        json::write_escaped(&mut out, &e.engine);
        out.push_str(",\"no_doc\":");
        json::write_num(&mut out, e.usefulness.no_doc);
        out.push_str(",\"avg_sim\":");
        json::write_num(&mut out, e.usefulness.avg_sim);
        out.push('}');
    }
    out.push_str("],\"per_engine\":[");
    for (i, s) in response.per_engine_stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"engine\":");
        json::write_escaped(&mut out, &s.engine);
        out.push_str(&format!(",\"hits\":{},\"seconds\":", s.hits));
        json::write_num(&mut out, s.seconds);
        out.push_str(",\"outcome\":");
        let outcome = match s.outcome {
            seu_metasearch::DispatchOutcome::Completed => "completed",
            seu_metasearch::DispatchOutcome::Failed => "failed",
            seu_metasearch::DispatchOutcome::TimedOut => "timed_out",
        };
        json::write_escaped(&mut out, outcome);
        out.push_str(",\"error\":");
        match &s.error {
            Some(e) => json::write_escaped(&mut out, &e.to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("],\"served_from\":");
    match response.served_from {
        Some(tier) => json::write_escaped(&mut out, tier.name()),
        None => out.push_str("null"),
    }
    if let Some(trace) = &response.trace {
        out.push_str(",\"trace\":");
        trace.write_json(&mut out);
    }
    out.push('}');
    out
}
