//! The calling side of the wire: the one pooled, multiplexed frame
//! client, and [`RemoteEngine`], which wraps it to implement
//! [`RemoteTransport`] so a broker can register an engine living in
//! another process with `Broker::register_remote`. The federation
//! [`RemoteReplica`](crate::RemoteReplica) wraps the same client.
//!
//! The client keeps a small **connection pool** shared by every clone
//! of the same handle. Each pooled connection is multiplexed:
//! requests are stamped with a fresh correlation id, a dedicated reader
//! thread routes reply frames back to their callers by id, and many
//! calls are in flight on one socket at once (up to a pipeline depth
//! per connection; more connections are dialed on demand up to the pool
//! cap). Per-request deadlines are enforced by the waiting caller — a
//! condvar wait bounded by [`RemoteEngineConfig::call_timeout`] — not
//! by socket-level read timeouts, so one slow request never delays the
//! replies interleaved behind it.
//!
//! Peers that do not echo correlation ids (handshake ack comes back
//! with `corr = 0`) are served **sequentially**: one exchange at a time
//! per connection, replies matched positionally. That keeps old-style
//! single-frame servers and test fakes working unchanged.
//!
//! Dialing resolves every address the name maps to and tries each in
//! order (IPv4/IPv6 dual-stack hosts fall through to the next address
//! on connect failure). Retries are bounded and **transient-only**:
//! refused connections and connections lost mid-exchange are retried
//! with exponential backoff capped at [`RemoteEngine::max_backoff`];
//! deadline misses, protocol violations, and remote-reported errors are
//! not (a timeout retried is a deadline doubled, and a protocol error
//! will not get better by asking again). A call that fails with a lost
//! connection on a *reused* pooled connection is transparently retried
//! once on a freshly dialed one — a stale pooled socket is a fact of
//! pooling, not a remote failure — before the retry policy is charged.

use crate::frame::{check_outbound, io_error, read_frame, write_frame_corr};
use crate::metrics::metrics;
use crate::wire::Message;
use seu_engine::{Fingerprint, TrueUsefulness};
use seu_metasearch::{
    EngineSnapshot, RemoteHit, RemoteTransport, TransportError, TransportErrorKind,
};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// In-flight requests one multiplexed connection carries before the
/// pool prefers dialing another.
const PIPELINE_DEPTH: usize = 32;

/// Default pool size per remote engine.
const DEFAULT_MAX_CONNS: usize = 8;

/// Default ceiling on the exponential retry backoff.
const DEFAULT_MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Timeouts and retry policy for a [`RemoteEngine`].
#[derive(Debug, Clone, Copy)]
pub struct RemoteEngineConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Per-call deadline from sending the request to seeing its reply.
    pub call_timeout: Duration,
    /// Additional attempts after a transient failure (refused or
    /// connection lost — never timeouts or protocol errors).
    pub retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry,
    /// capped at [`RemoteEngine::max_backoff`].
    pub backoff: Duration,
}

impl Default for RemoteEngineConfig {
    fn default() -> Self {
        RemoteEngineConfig {
            connect_timeout: Duration::from_secs(1),
            call_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

/// The growth `backoff * 2^attempt`, saturating, clamped to `cap`.
fn backoff_delay(base: Duration, attempt: u32, cap: Duration) -> Duration {
    base.saturating_mul(2u32.saturating_pow(attempt)).min(cap)
}

/// A slot one waiting caller watches: `None` until the reader thread
/// (or a connection-death sweep) fills it.
type ReplySlot = Option<Result<Message, TransportError>>;

/// One pooled connection: a locked writer half, a reader thread routing
/// replies into `pending` by correlation id, and bookkeeping for the
/// pool's load balancing.
struct Conn {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, ReplySlot>>,
    cv: Condvar,
    /// Whether the peer echoes correlation ids (negotiated at
    /// handshake; anything else answers with id 0).
    mux: bool,
    /// Serializes exchanges on non-mux connections (one in flight).
    serial: Mutex<()>,
    alive: AtomicBool,
    in_flight: AtomicUsize,
}

impl Conn {
    fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        if let Ok(w) = self.writer.lock() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The one framed-protocol client: a connection pool that sends a
/// request and returns its reply under its timeouts and retry policy.
/// [`RemoteEngine`] and [`RemoteReplica`](crate::RemoteReplica) are
/// typed wrappers sharing one of these across their clones.
pub(crate) struct MuxClient {
    addrs: Vec<SocketAddr>,
    config: RemoteEngineConfig,
    max_backoff: Duration,
    max_conns: usize,
    next_corr: AtomicU64,
    conns: Mutex<Vec<Arc<Conn>>>,
}

impl MuxClient {
    fn new(addrs: Vec<SocketAddr>, config: RemoteEngineConfig) -> MuxClient {
        MuxClient {
            addrs,
            config,
            max_backoff: DEFAULT_MAX_BACKOFF,
            max_conns: DEFAULT_MAX_CONNS,
            next_corr: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        }
    }

    /// Resolves `addr` (every address it maps to is kept; connects fall
    /// through the list in order). No connection is made until the
    /// first call.
    pub(crate) fn resolve(
        addr: impl ToSocketAddrs,
        config: RemoteEngineConfig,
    ) -> Result<Arc<MuxClient>, TransportError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| io_error(&e, "resolving address"))?
            .collect();
        if addrs.is_empty() {
            return Err(TransportError::new(
                TransportErrorKind::Refused,
                "address resolved to nothing",
            ));
        }
        Ok(Arc::new(MuxClient::new(addrs, config)))
    }

    /// The first resolved address, for reports and error messages.
    pub(crate) fn endpoint(&self) -> String {
        self.addrs[0].to_string()
    }

    /// A client with the same addresses and settings, `f` applied, and
    /// a fresh (empty) pool.
    fn tweaked(&self, f: impl FnOnce(&mut MuxClient)) -> Arc<MuxClient> {
        let mut client = MuxClient::new(self.addrs.clone(), self.config);
        client.max_backoff = self.max_backoff;
        client.max_conns = self.max_conns;
        f(&mut client);
        Arc::new(client)
    }

    /// Connects to the first address that answers, falling through the
    /// rest of the resolved set on failure.
    fn connect_any(&self) -> Result<TcpStream, TransportError> {
        let mut last: Option<TransportError> = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(io_error(&e, &format!("connecting to {addr}"))),
            }
        }
        Err(last.unwrap_or_else(|| {
            TransportError::new(TransportErrorKind::Refused, "address resolved to nothing")
        }))
    }

    /// Connects, configures the socket, and completes the Hello
    /// handshake. Returns the stream, the peer's advertised name, and
    /// whether it echoes correlation ids (we send a nonzero id on
    /// Hello; a multiplex-capable server echoes it on the ack).
    fn handshake(&self, subscribe: bool) -> Result<(TcpStream, String, bool), TransportError> {
        let mut stream = self.connect_any()?;
        stream
            .set_read_timeout(Some(self.config.call_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.config.call_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| io_error(&e, "configuring socket"))?;
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (kind, payload) = Message::Hello { subscribe }.encode();
        write_frame_corr(&mut stream, corr, kind, &payload)?;
        let ack = read_frame(&mut stream)?;
        match Message::decode(ack.kind, &ack.payload)? {
            Message::HelloAck { name } => Ok((stream, name, ack.corr == corr)),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// Dials, handshakes, and spawns the reader thread for a new pooled
    /// connection.
    fn dial(&self) -> Result<Arc<Conn>, TransportError> {
        let (stream, _, mux) = self.handshake(false)?;
        // The reader thread blocks until a frame arrives; deadlines are
        // enforced by the waiting callers instead.
        stream
            .set_read_timeout(None)
            .map_err(|e| io_error(&e, "configuring socket"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| io_error(&e, "cloning pooled stream"))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            mux,
            serial: Mutex::new(()),
            alive: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
        });
        let for_reader = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("seu-net-reader".to_string())
            .spawn(move || reader_loop(for_reader, read_half))
            .map_err(|e| io_error(&e, "spawning reader thread"))?;
        metrics().client_connects.inc();
        Ok(conn)
    }

    /// Picks a connection for one call: a multiplexed connection with
    /// spare pipeline depth, an idle sequential one, a freshly dialed
    /// one while under the cap, or (saturated) the least loaded. The
    /// returned flag says whether the connection was dialed for this
    /// call — reused connections get one transparent redial on a lost
    /// connection, fresh ones do not.
    fn acquire(&self) -> Result<(Arc<Conn>, bool), TransportError> {
        let mut conns = lock_unpoisoned(&self.conns);
        conns.retain(|c| c.alive.load(Ordering::Acquire));
        let mut best: Option<&Arc<Conn>> = None;
        for c in conns.iter().filter(|c| c.mux) {
            let load = c.in_flight.load(Ordering::Relaxed);
            if load < PIPELINE_DEPTH
                && best.is_none_or(|b| load < b.in_flight.load(Ordering::Relaxed))
            {
                best = Some(c);
            }
        }
        if let Some(c) = best {
            return Ok((Arc::clone(c), false));
        }
        if let Some(c) = conns
            .iter()
            .find(|c| !c.mux && c.in_flight.load(Ordering::Relaxed) == 0)
        {
            return Ok((Arc::clone(c), false));
        }
        if conns.len() < self.max_conns {
            let conn = self.dial()?;
            conns.push(Arc::clone(&conn));
            return Ok((conn, true));
        }
        let c = conns
            .iter()
            .min_by_key(|c| c.in_flight.load(Ordering::Relaxed))
            .expect("pool cap is at least one");
        Ok((Arc::clone(c), false))
    }

    /// Dials a replacement connection and registers it with the pool
    /// (the stale-connection retry path).
    fn redial(&self) -> Result<Arc<Conn>, TransportError> {
        let conn = self.dial()?;
        lock_unpoisoned(&self.conns).push(Arc::clone(&conn));
        Ok(conn)
    }

    /// Sends `request` on `conn` and waits for its reply, bounded by
    /// the call timeout.
    fn exchange(&self, conn: &Conn, request: &Message) -> Result<Message, TransportError> {
        let (kind, payload) = request.encode();
        // Refused before the socket is touched: the connection and the
        // calls pipelined on it are none the worse.
        check_outbound(kind, &payload)?;
        // Non-mux peers match replies positionally: hold the exchange
        // serial for the whole send-and-wait.
        let _serial = if conn.mux {
            None
        } else {
            Some(lock_unpoisoned(&conn.serial))
        };
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&conn.pending).insert(corr, None);
        let sent = {
            let mut writer = lock_unpoisoned(&conn.writer);
            write_frame_corr(&mut *writer, corr, kind, &payload)
        };
        if let Err(e) = sent {
            lock_unpoisoned(&conn.pending).remove(&corr);
            // A partial frame may be on the wire; nothing after it can
            // be trusted.
            conn.kill();
            return Err(e);
        }
        if !conn.alive.load(Ordering::Acquire) {
            // The reader may have swept `pending` before our slot
            // existed; do not wait a full timeout to learn that.
            lock_unpoisoned(&conn.pending).remove(&corr);
            return Err(TransportError::new(
                TransportErrorKind::ConnectionLost,
                "connection died before the request was sent",
            ));
        }
        let deadline = Instant::now() + self.config.call_timeout;
        let mut pending = lock_unpoisoned(&conn.pending);
        loop {
            if let Some(result) = pending.get_mut(&corr).and_then(|slot| slot.take()) {
                pending.remove(&corr);
                return result;
            }
            let now = Instant::now();
            if now >= deadline {
                pending.remove(&corr);
                drop(pending);
                if !conn.mux {
                    // A sequential peer still owes a reply; the stream
                    // is desynchronized for any future exchange.
                    conn.kill();
                }
                return Err(TransportError::new(
                    TransportErrorKind::Timeout,
                    format!(
                        "no reply within {:?} (corr {corr})",
                        self.config.call_timeout
                    ),
                ));
            }
            pending = match conn.cv.wait_timeout(pending, deadline - now) {
                Ok((guard, _)) => guard,
                Err(e) => e.into_inner().0,
            };
        }
    }

    /// [`MuxClient::exchange`] with the connection's load accounted.
    fn exchange_counted(&self, conn: &Conn, request: &Message) -> Result<Message, TransportError> {
        conn.in_flight.fetch_add(1, Ordering::Relaxed);
        let reply = self.exchange(conn, request);
        conn.in_flight.fetch_sub(1, Ordering::Relaxed);
        reply
    }

    /// One attempt: acquire a pooled connection and exchange on it. A
    /// lost connection on a *reused* pooled socket is retried once on a
    /// fresh dial before surfacing. A remote-reported error comes back
    /// typed.
    fn call_once(&self, request: &Message) -> Result<Message, TransportError> {
        let (conn, fresh) = self.acquire()?;
        let reply = match self.exchange_counted(&conn, request) {
            Err(e) if !fresh && e.kind == TransportErrorKind::ConnectionLost => {
                let conn = self.redial()?;
                self.exchange_counted(&conn, request)?
            }
            other => other?,
        };
        match reply {
            Message::Error { detail } => {
                Err(TransportError::new(TransportErrorKind::Remote, detail))
            }
            other => Ok(other),
        }
    }

    /// Sends `request` with the configured retry policy, recording
    /// latency and failure metrics. The latency histogram times each
    /// attempt individually — backoff sleeps are not wire time.
    pub(crate) fn call(&self, request: &Message) -> Result<Message, TransportError> {
        let m = metrics();
        let mut attempt = 0;
        let result = loop {
            let timer = m.rpc_latency.start_timer();
            let outcome = self.call_once(request);
            timer.stop();
            match outcome {
                Ok(reply) => break Ok(reply),
                Err(e) => {
                    let transient = matches!(
                        e.kind,
                        TransportErrorKind::Refused | TransportErrorKind::ConnectionLost
                    );
                    if !transient || attempt >= self.config.retries {
                        break Err(e);
                    }
                    m.client_retries.inc();
                    std::thread::sleep(backoff_delay(
                        self.config.backoff,
                        attempt,
                        self.max_backoff,
                    ));
                    attempt += 1;
                }
            }
        };
        if let Err(e) = &result {
            if e.kind == TransportErrorKind::Timeout {
                m.client_timeouts.inc();
            } else {
                m.client_failures.inc();
            }
        }
        result
    }

    /// Liveness probe: a full request/reply round trip on a pooled
    /// connection.
    pub(crate) fn ping(&self) -> Result<(), TransportError> {
        match self.call(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        // Shut the sockets down so the detached reader threads see EOF
        // and exit rather than blocking forever on their cloned halves.
        for conn in lock_unpoisoned(&self.conns).iter() {
            conn.kill();
        }
    }
}

impl std::fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxClient")
            .field("addrs", &self.addrs)
            .field("max_conns", &self.max_conns)
            .finish()
    }
}

/// Routes reply frames to their waiting callers until the connection
/// dies, then fails every still-pending request with the death reason.
fn reader_loop(conn: Arc<Conn>, stream: TcpStream) {
    // One `read` fetches a whole reply (or several pipelined ones)
    // instead of one for the header and one for the payload.
    let mut stream = BufReader::with_capacity(16 * 1024, stream);
    loop {
        match read_frame(&mut stream) {
            Ok(frame) => {
                let result = Message::decode(frame.kind, &frame.payload);
                let fatal_decode = result.is_err();
                {
                    let mut pending = lock_unpoisoned(&conn.pending);
                    let target = if pending.contains_key(&frame.corr) {
                        Some(frame.corr)
                    } else if !conn.mux && pending.len() == 1 {
                        // Sequential peers do not echo ids: the single
                        // outstanding request owns every reply.
                        pending.keys().next().copied()
                    } else {
                        None
                    };
                    match target {
                        Some(corr) => {
                            pending.insert(corr, Some(result));
                        }
                        None => metrics().client_late_replies.inc(),
                    }
                }
                conn.cv.notify_all();
                if fatal_decode {
                    // Framing survived but the payload is garbage; the
                    // stream can no longer be trusted.
                    conn.kill();
                    return;
                }
            }
            Err(e) => {
                conn.alive.store(false, Ordering::Release);
                {
                    let mut pending = lock_unpoisoned(&conn.pending);
                    for slot in pending.values_mut() {
                        if slot.is_none() {
                            *slot = Some(Err(e.clone()));
                        }
                    }
                }
                conn.cv.notify_all();
                return;
            }
        }
    }
}

/// A TCP client for one [`EngineServer`](crate::EngineServer), usable as
/// the transport behind a broker's remote engine registration. Clones
/// share one connection pool.
#[derive(Debug, Clone)]
pub struct RemoteEngine {
    client: Arc<MuxClient>,
    /// Set once a peer rejects the traced search kind; shared across
    /// clones so the whole broker stops re-probing a legacy engine.
    peer_lacks_tracing: Arc<AtomicBool>,
    /// Ditto for the batched estimate kind.
    peer_lacks_batch: Arc<AtomicBool>,
}

impl RemoteEngine {
    /// Creates a client for the engine at `addr` with default timeouts.
    /// Resolution happens here; no connection is made until the first
    /// call.
    pub fn new(addr: impl ToSocketAddrs) -> Result<RemoteEngine, TransportError> {
        RemoteEngine::with_config(addr, RemoteEngineConfig::default())
    }

    /// Creates a client with explicit timeouts and retry policy. Every
    /// address `addr` resolves to is kept; connects fall through the
    /// list in order.
    pub fn with_config(
        addr: impl ToSocketAddrs,
        config: RemoteEngineConfig,
    ) -> Result<RemoteEngine, TransportError> {
        Ok(RemoteEngine {
            client: MuxClient::resolve(addr, config)?,
            peer_lacks_tracing: Arc::new(AtomicBool::new(false)),
            peer_lacks_batch: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Caps the exponential retry backoff (default 2 s): with `n`
    /// retries configured, the worst-case sleep is `min(backoff * 2^n,
    /// cap)` per retry rather than an unbounded doubling.
    pub fn max_backoff(mut self, cap: Duration) -> RemoteEngine {
        self.client = self.client.tweaked(|c| c.max_backoff = cap);
        self
    }

    /// Sets the connection-pool cap (default 8, minimum 1).
    pub fn pool_connections(mut self, n: usize) -> RemoteEngine {
        self.client = self.client.tweaked(|c| c.max_conns = n.max(1));
        self
    }

    /// Liveness probe: a full request/reply round trip on a pooled
    /// connection.
    pub fn ping(&self) -> Result<(), TransportError> {
        self.client.ping()
    }

    /// Opens a subscription connection: the engine server will push an
    /// invalidation notice over it whenever its collection changes, and
    /// `on_notice(name, fingerprint, epoch)` runs (on a dedicated reader
    /// thread) for each. The subscription lives until the returned
    /// handle is closed or dropped, or the server goes away.
    pub fn subscribe_with(
        &self,
        on_notice: impl Fn(&str, Fingerprint, u64) + Send + 'static,
    ) -> Result<Subscription, TransportError> {
        let (stream, name, _) = self.client.handshake(true)?;
        // Notices arrive whenever the engine changes — block indefinitely.
        stream
            .set_read_timeout(None)
            .map_err(|e| io_error(&e, "configuring subscription socket"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| io_error(&e, "cloning subscription stream"))?;
        let thread = std::thread::Builder::new()
            .name(format!("seu-net-subscribe-{name}"))
            .spawn(move || subscription_loop(read_half, on_notice))
            .map_err(|e| io_error(&e, "spawning subscription reader"))?;
        Ok(Subscription {
            engine: name,
            stream,
            thread: Some(thread),
        })
    }
}

fn subscription_loop(mut stream: TcpStream, on_notice: impl Fn(&str, Fingerprint, u64)) {
    loop {
        let message =
            match read_frame(&mut stream).and_then(|f| Message::decode(f.kind, &f.payload)) {
                Ok(m) => m,
                Err(_) => return,
            };
        if let Message::InvalidateNotice {
            name,
            fingerprint,
            epoch,
        } = message
        {
            metrics().push_notices_received.inc();
            on_notice(&name, fingerprint, epoch);
        }
    }
}

/// A live push-invalidation subscription; dropping it disconnects.
pub struct Subscription {
    engine: String,
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Subscription {
    /// The advertised name of the engine this subscription watches.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// Disconnects and joins the reader thread.
    pub fn close(mut self) {
        self.disconnect();
    }

    fn disconnect(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.disconnect();
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("engine", &self.engine)
            .finish()
    }
}

pub(crate) fn unexpected(wanted: &str, got: &Message) -> TransportError {
    TransportError::new(
        TransportErrorKind::Protocol,
        format!("expected {wanted}, got {got:?}"),
    )
}

impl RemoteTransport for RemoteEngine {
    fn endpoint(&self) -> String {
        self.client.endpoint()
    }

    fn search(
        &self,
        query_text: &str,
        threshold: f64,
        ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        // Untraced and unsampled requests go over the wire exactly as
        // before the traced kind existed: byte-identical frames, no span
        // shipping. Ditto once a peer has rejected the kind — remembered
        // across clones so a legacy engine is probed at most once.
        let ctx = match ctx {
            Some(ctx) if ctx.sampled && !self.peer_lacks_tracing.load(Ordering::Relaxed) => ctx,
            _ => {
                return match self.client.call(&Message::SearchDocs {
                    query: query_text.to_string(),
                    threshold,
                })? {
                    Message::SearchResults { hits } => Ok((hits, Vec::new())),
                    other => Err(unexpected("SearchResults", &other)),
                };
            }
        };
        let request = Message::TracedSearchDocs {
            query: query_text.to_string(),
            threshold,
            trace_id: ctx.trace_id.0,
            parent_span: ctx.parent_span.0,
            sampled: ctx.sampled,
        };
        match self.client.call(&request) {
            Ok(Message::TracedSearchResults { hits, spans }) => Ok((hits, spans)),
            Ok(other) => Err(unexpected("TracedSearchResults", &other)),
            Err(e) if e.kind == TransportErrorKind::Remote => {
                // An old server answers an unknown kind with Error.
                // Remember and fall back to the plain message.
                self.peer_lacks_tracing.store(true, Ordering::Relaxed);
                metrics().client_trace_fallbacks.inc();
                self.search(query_text, threshold, None)
            }
            Err(e) => Err(e),
        }
    }

    fn true_usefulness(
        &self,
        query_text: &str,
        threshold: f64,
    ) -> Result<TrueUsefulness, TransportError> {
        let reply = self.client.call(&Message::Estimate {
            query: query_text.to_string(),
            threshold,
        })?;
        reply
            .as_usefulness()
            .ok_or_else(|| unexpected("Usefulness", &reply))
    }

    fn true_usefulness_batch(
        &self,
        queries: &[String],
        threshold: f64,
    ) -> Result<Vec<TrueUsefulness>, TransportError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let per_query = || -> Result<Vec<TrueUsefulness>, TransportError> {
            queries
                .iter()
                .map(|q| self.true_usefulness(q, threshold))
                .collect()
        };
        if self.peer_lacks_batch.load(Ordering::Relaxed) {
            return per_query();
        }
        match self.client.call(&Message::EstimateBatch {
            queries: queries.to_vec(),
            threshold,
        }) {
            Ok(Message::UsefulnessBatch { results }) if results.len() == queries.len() => {
                Ok(results)
            }
            Ok(Message::UsefulnessBatch { results }) => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!(
                    "batch of {} queries answered with {} results",
                    queries.len(),
                    results.len()
                ),
            )),
            Ok(other) => Err(unexpected("UsefulnessBatch", &other)),
            Err(e) if e.kind == TransportErrorKind::Remote => {
                // An old server answers the batch kind with Error; fall
                // back to per-query estimates and remember.
                self.peer_lacks_batch.store(true, Ordering::Relaxed);
                metrics().client_batch_fallbacks.inc();
                per_query()
            }
            Err(e) => Err(e),
        }
    }

    fn fetch_snapshot(&self) -> Result<EngineSnapshot, TransportError> {
        match self.client.call(&Message::GetRepresentative)? {
            Message::Representative { snapshot } => Ok(snapshot),
            other => Err(unexpected("Representative", &other)),
        }
    }
}
