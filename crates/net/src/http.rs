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
//! required; `all` selects every engine holding a query term instead of
//! the estimated-useful policy; `cache` is one of `"read_write"`,
//! `"read_only"`, `"bypass"`; a field present with another type is a
//! `400` naming it) and answers with merged hits, the
//! estimates of the engines that hold a query term (every other
//! engine's is `(0, 0)`, paper Prop. 1, and is left out), dispatch stats
//! per engine searched — including the typed transport error when a
//! remote engine failed — and `"served_from"` (`"results"` when the
//! query cache served the whole answer, `null` for an execution that
//! planned and dispatched). With `explain` the request is force-sampled and the
//! reply carries the complete span tree inline under `"trace"`.
//!
//! **A search reply is written in three parts**, in one vectored write:
//! the head, the answer's rows (`{"hits":…,"estimates":…,"per_engine":…`,
//! as [`seu_metasearch::write_rows`] renders them), and the request's own
//! tail (`served_from`, the trace, the closing brace). [`BrokerAdmin::search`]
//! answers with a [`SharedResponse`]; the query cache renders an
//! answer's rows once, when it keeps the answer, so a hit's rows are
//! written as they were kept, neither copied nor rendered again. An
//! answer no cache holds is rendered for its one reply. Head and tail
//! share one small buffer. [`search_json`] writes the same bytes into
//! one `String`.
//!
//! The server reaches a broker through the object-safe [`BrokerAdmin`]
//! trait, which [`Broker`] and the federation's front door implement.
//!
//! **What blocks where.** Nothing here waits for a client: the server is
//! the crate's event loop ([`crate::server`]) over an HTTP listener. The
//! loop thread accepts, reads each connection into its buffer and runs
//! `parse_request` over what has arrived, and a client that sends no
//! whole request by the loop's idle deadline is closed. A worker of the
//! loop's worker set blocks only writing the reply and, after a refusal,
//! reading what the peer is still sending.
//!
//! **Who wakes whom.** When a request is whole, or refused, the loop
//! takes its connection out of its table and wakes the most recently
//! parked worker with it — or, with none parked, starts one, so workers
//! started ≤ connections open at once. The worker routes and writes,
//! parks, and only then closes the socket: the client reads to end of
//! stream before it connects again, so by then the worker is back on the
//! stack. No reply crosses back to the loop. `shutdown` stops the loop,
//! which wakes and joins the parked workers; a worker answering at that
//! moment exits after its reply, not parking.

use crate::metrics::metrics;
use crate::server::{LoopServer, Service, REQUEST_IDLE_TIMEOUT};
use seu_metasearch::{
    Broker, CacheMode, CacheStats, CacheTier, EngineStatus, RegistrySnapshot, SearchRequest,
    SearchResponse, SelectionPolicy, SharedResponse,
};
use seu_obs::json::{self, Json};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

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

/// The slice of a broker the admin server needs, object-safe so one
/// server type serves a [`Broker`] and a federation's front door alike.
pub trait BrokerAdmin: Send + Sync {
    /// Registry inventory, in registration order.
    fn engine_statuses(&self) -> Vec<EngineStatus>;
    /// Plans, selects, dispatches, and merges one request — or serves
    /// it from a query cache, handing out the cached answer itself.
    fn search(&self, request: &SearchRequest) -> SharedResponse;
    /// A consistent epoch cut of the registry, for health reporting.
    fn registry_snapshot(&self) -> RegistrySnapshot;
    /// A point-in-time view of the query cache, `None` when the broker
    /// runs without one (for the `/healthz` `cache` block).
    fn cache_stats(&self) -> Option<CacheStats>;
}

impl BrokerAdmin for Broker {
    fn engine_statuses(&self) -> Vec<EngineStatus> {
        Broker::engine_statuses(self)
    }

    fn search(&self, request: &SearchRequest) -> SharedResponse {
        self.execute_shared(request)
    }

    fn registry_snapshot(&self) -> RegistrySnapshot {
        Broker::registry_snapshot(self)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Broker::cache_stats(self)
    }
}

/// The admin/metrics HTTP server: the crate's event loop over an HTTP
/// listener. Serving stops when dropped.
pub struct AdminServer {
    server: LoopServer,
}

impl AdminServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `broker`.
    pub fn bind(
        broker: Arc<dyn BrokerAdmin>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<AdminServer> {
        // No cap: a connection carries one request, so the workers number
        // at most the connections open at once.
        let server = LoopServer::start(Service::Http(broker), addr, usize::MAX)?;
        Ok(AdminServer { server })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops accepting; joins the loop and every parked worker.
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

impl std::fmt::Debug for AdminServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminServer")
            .field("addr", &self.addr())
            .finish()
    }
}

/// One request, read whole off its connection.
pub(crate) struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Why [`parse_request`] produced no request.
pub(crate) enum Refusal {
    /// Malformed, cut short, over the head cap, or framed other than by
    /// one `Content-Length` of digits → `400`.
    Invalid,
    /// Declared `Content-Length` over [`MAX_BODY_BYTES`] → `413`. The
    /// body is never buffered.
    BodyTooLarge,
}

/// The request at the front of `buf`, what refuses it, or `None` until
/// more has arrived: a head within [`MAX_HEAD_BYTES`] and then the body
/// its `Content-Length` declares.
pub(crate) fn parse_request(buf: &[u8]) -> Option<Result<Request, Refusal>> {
    let scanned = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let Some(at) = scanned.windows(4).position(|w| w == b"\r\n\r\n") else {
        return (buf.len() >= MAX_HEAD_BYTES).then_some(Err(Refusal::Invalid));
    };
    let (head, rest) = buf.split_at(at + 4);
    let whole = |(method, path, length): (String, String, usize)| {
        let body = rest.get(..length)?.to_vec();
        Some(Request { method, path, body })
    };
    parse_head(head).map(whole).transpose()
}

/// The method, the path and the body's length from a request head.
fn parse_head(head: &[u8]) -> Result<(String, String, usize), Refusal> {
    let head = String::from_utf8_lossy(head);
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().ok_or(Refusal::Invalid)?.split_whitespace();
    let method = request_line.next().ok_or(Refusal::Invalid)?.to_string();
    let path = request_line.next().ok_or(Refusal::Invalid)?.to_string();
    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        // A body in a transfer coding the door does not decode has no
        // length it could trust, whatever else the head says (RFC 9112
        // §6.1): refused, never framed by the `Content-Length` beside it.
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(Refusal::Invalid);
        }
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT` (RFC 9110 §8.6): no sign, no space inside.
            let value = value.trim();
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(Refusal::Invalid);
            }
            let length: usize = value.parse().map_err(|_| Refusal::Invalid)?;
            // Two lengths that disagree leave the framing unknowable
            // (RFC 9112 §6.3): refuse now, rather than wait for a body
            // one of them promised or answer the other.
            if content_length.is_some_and(|first| first != length) {
                return Err(Refusal::Invalid);
            }
            content_length = Some(length);
        }
    }
    let length = content_length.unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(Refusal::BodyTooLarge);
    }
    Ok((method, path, length))
}

/// Appends a response head for a body of `len` bytes to `out`.
fn write_head(out: &mut String, status: &str, content_type: &str, len: usize) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n"
    );
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
    let mut head = String::with_capacity(128);
    write_head(&mut head, status, content_type, body.len());
    write_parts(stream, [head.as_bytes(), body.as_bytes()])
}

/// Writes a search reply in three parts and one vectored write: the
/// head, the answer's rows (rendered once and shared, by the query
/// cache when it holds the answer), and this request's own tail. Head
/// and tail share one small buffer; the rows are not copied.
fn respond_search(stream: &mut TcpStream, reply: &SharedResponse) -> std::io::Result<()> {
    let rows = reply.answer.rows();
    let mut buf = String::with_capacity(192);
    write_tail(&mut buf, reply.served_from, reply.trace.as_deref());
    let tail_len = buf.len();
    write_head(
        &mut buf,
        "200 OK",
        "application/json",
        rows.len() + tail_len,
    );
    let (tail, head) = buf.split_at(tail_len);
    write_parts(stream, [head.as_bytes(), rows.as_bytes(), tail.as_bytes()])
}

/// Writes every part in order, in as few system calls as the socket
/// allows, then flushes.
fn write_parts<const N: usize>(stream: &mut TcpStream, parts: [&[u8]; N]) -> std::io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut rest = &mut slices[..];
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

/// Answers what the loop read off `stream`: routes a request and writes
/// its reply, or writes a refusal. The worker closes the connection.
pub(crate) fn answer(
    stream: &mut TcpStream,
    request: Result<Request, Refusal>,
    broker: &dyn BrokerAdmin,
) {
    // The loop read the request; the reply is written blocking, under
    // the loop's own idle deadline.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(REQUEST_IDLE_TIMEOUT));
    let _ = match request {
        Ok(request) => route(stream, &request, broker),
        Err(refusal) => refuse(stream, refusal),
    };
}

/// Writes a refusal, then reads what the peer sent past it.
fn refuse(stream: &mut TcpStream, refusal: Refusal) -> std::io::Result<()> {
    let (status, body) = match refusal {
        Refusal::Invalid => ("400 Bad Request", "bad request\n".to_string()),
        Refusal::BodyTooLarge => (
            "413 Payload Too Large",
            format!("body exceeds {MAX_BODY_BYTES} bytes\n"),
        ),
    };
    respond(stream, status, "text/plain", &body)?;
    // A close over bytes nobody read goes out as a reset, which can
    // destroy the refusal before the peer reads it: read what it sent and
    // is still sending until it ends, goes silent or reaches the cap. No
    // `shutdown(Write)` here: end of stream comes with the close, after
    // the worker has parked.
    stream.set_read_timeout(Some(REFUSAL_LINGER))?;
    std::io::copy(&mut (&*stream).take(MAX_DRAIN_BYTES), &mut std::io::sink())?;
    Ok(())
}

fn route(
    stream: &mut TcpStream,
    request: &Request,
    broker: &dyn BrokerAdmin,
) -> std::io::Result<()> {
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
            Ok(req) => respond_search(stream, &broker.search(&req)),
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

/// A `POST /search` body as a request. Only `query` is required; a
/// field that is present must have its type (`threshold` a finite
/// number, `top_k` a non-negative integer, `all` and `explain` booleans,
/// `cache` a mode's name), or the request is refused naming it — never
/// served as if the field were absent.
fn parse_search(body: &[u8]) -> Result<SearchRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = json::parse(text)?;
    let query = value
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field \"query\"".to_string())?;
    let mut request = SearchRequest::new(query).with_estimates(true);
    let finite = |v: &Json| v.as_num().filter(|t| t.is_finite());
    if let Some(t) = field(&value, "threshold", "a finite number", finite)? {
        request = request.threshold(t);
    }
    // Every integer up to 2^53 is exact in a JSON number read as f64.
    let count = |v: &Json| {
        let k = v.as_num()?;
        (k.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&k)).then_some(k as usize)
    };
    if let Some(k) = field(&value, "top_k", "a non-negative integer", count)? {
        request = request.top_k(k);
    }
    if field(&value, "all", "a boolean", Json::as_bool)? == Some(true) {
        request = request.policy(SelectionPolicy::All);
    }
    if field(&value, "explain", "a boolean", Json::as_bool)? == Some(true) {
        request = request.explain(true);
    }
    let mode = |v: &Json| match v.as_str()? {
        "read_write" => Some(CacheMode::ReadWrite),
        "read_only" => Some(CacheMode::ReadOnly),
        "bypass" => Some(CacheMode::Bypass),
        _ => None,
    };
    let modes = "one of \"read_write\", \"read_only\", \"bypass\"";
    if let Some(mode) = field(&value, "cache", modes, mode)? {
        request = request.cache(mode);
    }
    Ok(request)
}

/// Field `name` of a request body as `read` takes it: `None` when it is
/// absent, and an error naming it and its `kind` when `read` refuses it.
fn field<T>(
    body: &Json,
    name: &str,
    kind: &str,
    read: impl FnOnce(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    body.get(name)
        .map(|v| read(v).ok_or_else(|| format!("field {name:?} must be {kind}")))
        .transpose()
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
        out.push_str(",\"epoch\":");
        json::write_u64(&mut out, s.epoch);
        out.push_str(",\"stale\":");
        out.push_str(bool_json(s.stale));
        out.push_str(",\"repr_terms\":");
        json::write_u64(&mut out, s.repr_terms as u64);
        out.push_str(",\"repr_bytes\":");
        json::write_u64(&mut out, s.repr_bytes);
        out.push_str(",\"remote\":");
        out.push_str(bool_json(s.remote));
        out.push_str(",\"detached\":");
        out.push_str(bool_json(s.detached));
        out.push_str(",\"shard\":");
        json::write_u64(&mut out, s.shard as u64);
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

fn bool_json(value: bool) -> &'static str {
    if value {
        "true"
    } else {
        "false"
    }
}

/// The body of a `POST /search` reply: the rows as
/// [`seu_metasearch::write_rows`] writes them, then the tail. Written
/// into one buffer, numbers included; the door itself writes the rows an
/// answer keeps and only renders the tail.
pub fn search_json(response: &SearchResponse) -> String {
    let rows = response.hits.len() + response.estimates.len() + response.per_engine_stats.len();
    let mut out = String::with_capacity(256 + 64 * rows);
    seu_metasearch::write_rows(
        &mut out,
        &response.hits,
        &response.estimates,
        &response.per_engine_stats,
    );
    write_tail(&mut out, response.served_from, response.trace.as_deref());
    out
}

/// The tail of a `POST /search` reply body, after its rows:
/// `served_from`, the trace of an explained request, the closing brace.
fn write_tail(
    out: &mut String,
    served_from: Option<CacheTier>,
    trace: Option<&seu_obs::FinishedTrace>,
) {
    out.push_str(",\"served_from\":");
    match served_from {
        Some(tier) => json::write_escaped(out, tier.name()),
        None => out.push_str("null"),
    }
    if let Some(trace) = trace {
        out.push_str(",\"trace\":");
        trace.write_json(out);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_fields_of_their_types_are_taken() {
        let req = parse_search(
            br#"{"query":"soup","threshold":0.9,"top_k":3,"all":true,"explain":false,"cache":"bypass"}"#,
        )
        .unwrap();
        assert_eq!(req.query, "soup");
        assert_eq!(req.threshold, 0.9);
        assert_eq!(req.top_k, Some(3));
        assert_eq!(req.policy, SelectionPolicy::All);
        assert!(!req.explain && req.with_estimates);
        assert_eq!(req.cache, CacheMode::Bypass);

        let req =
            parse_search(br#"{"query":"soup","top_k":0,"all":false,"threshold":-0.5}"#).unwrap();
        assert_eq!(req.top_k, Some(0));
        assert_eq!(req.threshold, -0.5);
        assert_eq!(req.policy, SelectionPolicy::EstimatedUseful);
        let req = parse_search(br#"{"query":"soup"}"#).unwrap();
        assert_eq!((req.threshold, req.top_k), (0.0, None));
    }

    /// A field of the wrong type is refused, naming the field: served,
    /// each of these would run as though the field were absent, or
    /// misread (`-3` as 0 hits, `1.7` as 1).
    #[test]
    fn a_search_field_of_another_type_is_refused_by_name() {
        for (body, field) in [
            (r#"{"query":"soup","threshold":"0.9"}"#, "threshold"),
            (r#"{"query":"soup","threshold":null}"#, "threshold"),
            (r#"{"query":"soup","threshold":1e999}"#, "threshold"),
            (r#"{"query":"soup","top_k":-3}"#, "top_k"),
            (r#"{"query":"soup","top_k":1.7}"#, "top_k"),
            (r#"{"query":"soup","top_k":"1"}"#, "top_k"),
            (r#"{"query":"soup","top_k":1e300}"#, "top_k"),
            (r#"{"query":"soup","all":"true"}"#, "all"),
            (r#"{"query":"soup","all":1}"#, "all"),
            (r#"{"query":"soup","explain":"yes"}"#, "explain"),
            (r#"{"query":"soup","cache":"sometimes"}"#, "cache"),
            (r#"{"query":"soup","cache":false}"#, "cache"),
        ] {
            let refusal = parse_search(body.as_bytes()).expect_err(body);
            assert!(
                refusal.starts_with(&format!("field {field:?} must be ")),
                "{body}: {refusal}"
            );
        }
    }

    /// `engines_json` writes its numbers and flags without `fmt`; the
    /// bytes are those the `format!`-per-row writer produced.
    #[test]
    fn engines_json_matches_the_formatted_rows() {
        let status = |name: &str, shard, epoch, flags: bool, endpoint: Option<&str>| EngineStatus {
            name: name.to_string(),
            shard,
            epoch,
            stale: flags,
            repr_terms: 40_321,
            repr_bytes: u64::MAX,
            remote: !flags,
            detached: flags,
            endpoint: endpoint.map(str::to_string),
        };
        let statuses = [
            status("pantry", 0, 0, false, None),
            status(
                "библиотека \"b\"",
                7,
                1_234_567_890_123,
                true,
                Some("127.0.0.1:9"),
            ),
        ];
        let mut reference = String::from("[");
        for (i, s) in statuses.iter().enumerate() {
            if i > 0 {
                reference.push(',');
            }
            reference.push_str("{\"name\":");
            json::write_escaped(&mut reference, &s.name);
            reference.push_str(&format!(
                ",\"epoch\":{},\"stale\":{},\"repr_terms\":{},\"repr_bytes\":{},\"remote\":{},\"detached\":{},\"shard\":{}",
                s.epoch, s.stale, s.repr_terms, s.repr_bytes, s.remote, s.detached, s.shard
            ));
            reference.push_str(",\"endpoint\":");
            match &s.endpoint {
                Some(e) => json::write_escaped(&mut reference, e),
                None => reference.push_str("null"),
            }
            reference.push('}');
        }
        reference.push(']');
        assert_eq!(engines_json(&statuses), reference);
        assert_eq!(engines_json(&[]), "[]");
    }
}
