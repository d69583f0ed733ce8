//! The calling side of the wire: the one multiplexed frame client, and
//! [`RemoteEngine`], which wraps it to implement [`RemoteTransport`] so
//! a broker can register an engine living in another process with
//! `Broker::register_remote`. The federation
//! [`RemoteReplica`](crate::RemoteReplica) wraps the same client.
//!
//! The client keeps **one connection per peer**, shared by every clone
//! of the same handle and dialed on first use. It is multiplexed:
//! requests are stamped with a fresh correlation id, replies are routed
//! back to their callers by id, and every call in flight to the peer
//! shares the socket. **No thread reads it: a caller waiting for a reply
//! does**, `poll`ing until its own deadline and routing each reply to
//! its call's slot, which wakes that call's caller and no other; the
//! callers behind it park on their own slots, and when its reply lands
//! or its deadline passes it hands the socket to one of them. A deadline
//! is reported only after a look at what the socket already holds. Each
//! caller's deadline ([`RemoteEngineConfig::call_timeout`] at most) is
//! its own, so one slow request never delays the replies behind it.
//!
//! A call is **two halves**: `begin` takes the connection and writes the
//! request, `finish` waits for the reply and applies every policy
//! below. A caller with several calls to make — a dispatch over its
//! selected engines, a front-door over its replicas — begins them all
//! and then finishes each, one thread and one round trip's wait for the
//! lot; the blocking `call` is the two back to back. The handle between
//! the halves is a guard: dropped unfinished, it gives back its reply
//! slot, and the reply that then arrives for nobody is counted
//! (`net_client_late_replies_total`) when the next call on the
//! connection reads it.
//!
//! A peer whose handshake ack does not echo the `Hello`'s correlation
//! id cannot multiplex, and is refused with a typed `Protocol` error.
//!
//! Dialing resolves every address the name maps to and tries each in
//! order (IPv4/IPv6 dual-stack hosts fall through to the next address
//! on connect failure). Retries are bounded and **transient-only**:
//! refused connections and connections lost mid-exchange are retried
//! with exponential backoff capped at [`RemoteEngine::max_backoff`];
//! deadline misses, protocol violations, and remote-reported errors are
//! not (a timeout retried is a deadline doubled, and a protocol error
//! will not get better by asking again). A call that fails with a lost
//! connection it *reused* is transparently retried once — a stale socket
//! is a fact of keeping one, not a remote failure — before the retry
//! policy is charged. The retry takes whatever live connection there is
//! and dials only if none is, so the calls a lost connection carried
//! cost one redial between them.

use crate::frame::{
    check_outbound, frame_bytes, io_error, parse_frame, read_frame, write_frame_corr,
    MAX_FRAME_BYTES,
};
use crate::metrics::metrics;
use crate::poll::{self, PollFd, POLLIN};
use crate::wire::Message;
use seu_engine::{Fingerprint, TrueUsefulness};
use seu_metasearch::{
    EngineRecord, Pending, RemoteHit, RemoteTransport, SearchReply, TransportError,
    TransportErrorKind,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Default ceiling on the exponential retry backoff.
const DEFAULT_MAX_BACKOFF: Duration = Duration::from_secs(2);

/// The least a read asks for: a whole reply, or several pipelined ones.
const READ_CHUNK: usize = 16 * 1024;

/// A read buffer left empty above this size is released: a snapshot
/// grew it, and the connection would hold that much for its life.
const KEEP_BUFFER: usize = 64 * 1024;

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

/// One call's claim on its connection: its reply once routed, stamped
/// with when it was read, and its caller's thread while parked for it.
#[derive(Default)]
struct Slot {
    reply: Option<(Instant, Result<Message, TransportError>)>,
    waiter: Option<Thread>,
}

/// What was read off a connection but not yet framed, `buf[..end]`; the
/// rest of `buf` is zero-filled room. Its holder reads for every call.
#[derive(Default)]
struct ReadBuf {
    buf: Vec<u8>,
    end: usize,
}

impl ReadBuf {
    /// One read, with room for at least what the frame in progress still
    /// lacks: a large frame grows the buffer, zero-filled, once.
    fn fill(&mut self, mut stream: &TcpStream) -> std::io::Result<()> {
        let want = frame_bytes(&self.buf[..self.end]).max(READ_CHUNK);
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        match stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(read) => {
                self.end += read;
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Drops the first `used` bytes, framed. A buffer left empty is
    /// released if a large frame grew it past [`KEEP_BUFFER`].
    fn consume(&mut self, used: usize) {
        if used > 0 {
            self.buf.copy_within(used..self.end, 0);
            self.end -= used;
        }
        if self.end == 0 && self.buf.capacity() > KEEP_BUFFER {
            *self = ReadBuf::default();
        }
    }
}

/// The calls on one connection, and its read buffer while none of their
/// callers is reading.
struct Calls {
    slots: HashMap<u64, Slot>,
    reader: Option<ReadBuf>,
}

/// The connection to the peer; `writing` keeps each writer's frame whole.
struct Conn {
    stream: TcpStream,
    writing: Mutex<()>,
    pending: Mutex<Calls>,
    alive: AtomicBool,
}

impl Conn {
    fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Puts `result` in `corr`'s slot and wakes the caller parked for it,
    /// and no other. A reply no call waits for any more is counted.
    fn route(&self, corr: u64, result: Result<Message, TransportError>) {
        let waiter = match lock_unpoisoned(&self.pending).slots.get_mut(&corr) {
            Some(slot) => {
                slot.reply = Some((Instant::now(), result));
                slot.waiter.take()
            }
            None => {
                metrics().client_late_replies.inc();
                None
            }
        };
        if let Some(waiter) = waiter {
            waiter.unpark();
        }
    }

    /// Reads for every call on the connection until `corr`'s reply is
    /// routed, or `until` has passed and the socket holds no more.
    fn read_for(&self, rb: &mut ReadBuf, corr: u64, until: Instant) -> Result<(), TransportError> {
        loop {
            let (mut used, mut ours) = (0, false);
            while let Some((frame, n)) = parse_frame(&rb.buf[used..rb.end], MAX_FRAME_BYTES)? {
                used += n;
                ours |= frame.corr == corr;
                let result = Message::decode(frame.kind, &frame.payload);
                let garbled = result.is_err();
                self.route(frame.corr, result);
                if garbled {
                    // The stream can no longer be trusted; the calls beside
                    // this one lose their connection, no more.
                    let detail =
                        format!("dropped after an undecodable reply (corr {})", frame.corr);
                    return Err(TransportError::new(
                        TransportErrorKind::ConnectionLost,
                        detail,
                    ));
                }
            }
            rb.consume(used);
            if ours {
                return Ok(());
            }
            // Past the deadline, a look at what is already there.
            let left = until.saturating_duration_since(Instant::now());
            match poll::wait(&mut [PollFd::new(&self.stream, POLLIN)], Some(left)) {
                Ok(0) if left.is_zero() => return Ok(()),
                Ok(0) => {}
                Ok(_) => rb
                    .fill(&self.stream)
                    .map_err(|e| io_error(&e, "reading a reply"))?,
                Err(e) => return Err(io_error(&e, "awaiting a reply")),
            }
        }
    }
}

fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The one framed-protocol client: one connection to the peer, over
/// which it sends a request and returns its reply under its timeouts and
/// retry policy. [`RemoteEngine`] and
/// [`RemoteReplica`](crate::RemoteReplica) are typed wrappers sharing
/// one of these across their clones.
pub(crate) struct MuxClient {
    addrs: Vec<SocketAddr>,
    config: RemoteEngineConfig,
    max_backoff: Duration,
    next_corr: AtomicU64,
    /// The connection, once dialed; a dead one waits here for the next
    /// call to replace it.
    conn: Mutex<Option<Arc<Conn>>>,
}

impl MuxClient {
    fn new(addrs: Vec<SocketAddr>, config: RemoteEngineConfig) -> MuxClient {
        MuxClient {
            addrs,
            config,
            max_backoff: DEFAULT_MAX_BACKOFF,
            next_corr: AtomicU64::new(1),
            conn: Mutex::new(None),
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

    /// A client with the same addresses and settings, backoff capped at
    /// `cap`, and no connection yet.
    fn with_max_backoff(&self, cap: Duration) -> Arc<MuxClient> {
        let mut client = MuxClient::new(self.addrs.clone(), self.config);
        client.max_backoff = cap;
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
    /// handshake. Returns the stream and the peer's advertised name. The
    /// Hello carries a nonzero correlation id, and an ack that does not
    /// echo it is refused: that peer cannot multiplex.
    fn handshake(&self, subscribe: bool) -> Result<(TcpStream, String), TransportError> {
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
            Message::HelloAck { name } if ack.corr == corr => Ok((stream, name)),
            Message::HelloAck { .. } => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("handshake ack echoed corr {} for {corr}", ack.corr),
            )),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// Dials and handshakes a new connection, which its waiting callers
    /// read, `poll`ing first: the handshake's read timeout never bites.
    fn dial(&self) -> Result<Arc<Conn>, TransportError> {
        let (stream, _) = self.handshake(false)?;
        let conn = Arc::new(Conn {
            stream,
            writing: Mutex::new(()),
            pending: Mutex::new(Calls {
                slots: HashMap::new(),
                reader: Some(ReadBuf::default()),
            }),
            alive: AtomicBool::new(true),
        });
        metrics().client_connects.inc();
        Ok(conn)
    }

    /// The live connection, or one dialed now (which the returned flag
    /// says: a lost connection that was reused gets one transparent
    /// retry, one dialed for the call does not). Callers arriving while
    /// it dials wait for it rather than dial their own.
    fn acquire(&self) -> Result<(Arc<Conn>, bool), TransportError> {
        let mut conn = lock_unpoisoned(&self.conn);
        match &*conn {
            Some(live) if live.alive.load(Ordering::Acquire) => Ok((Arc::clone(live), false)),
            _ => {
                let dialed = self.dial()?;
                *conn = Some(Arc::clone(&dialed));
                Ok((dialed, true))
            }
        }
    }

    /// Puts one frame of the request on `conn` under a fresh correlation
    /// id, whose slot is the caller's to take or remove.
    fn send(&self, conn: &Conn, kind: u8, payload: &[u8]) -> Result<u64, TransportError> {
        // Refused before the socket is touched: the connection and the
        // calls pipelined on it are none the worse.
        check_outbound(kind, payload)?;
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&conn.pending)
            .slots
            .insert(corr, Slot::default());
        let sent = {
            let _writing = lock_unpoisoned(&conn.writing);
            write_frame_corr(&mut &conn.stream, corr, kind, payload)
        };
        if let Err(e) = sent {
            lock_unpoisoned(&conn.pending).slots.remove(&corr);
            // A partial frame may be on the wire; nothing after it can
            // be trusted.
            conn.kill();
            return Err(e);
        }
        if !conn.alive.load(Ordering::Acquire) {
            // A reading caller may have swept the slots before ours
            // existed; do not wait a full timeout to learn that.
            lock_unpoisoned(&conn.pending).slots.remove(&corr);
            return Err(TransportError::new(
                TransportErrorKind::ConnectionLost,
                "connection died before the request was sent",
            ));
        }
        Ok(corr)
    }

    /// Waits for the reply to `attempt` and returns it with the time a
    /// caller read it. The wait ends at the call timeout counted from the
    /// send, or at the caller's own deadline `until` if that comes first;
    /// the slot goes with the attempt. With nobody reading, this caller
    /// reads for all and then hands the socket on; else it parks.
    fn wait(
        &self,
        attempt: &Attempt,
        until: Option<Instant>,
    ) -> Result<(Message, Instant), TransportError> {
        let corr = attempt.corr.clone()?;
        let conn = &*attempt.conn;
        let timeout = self.config.call_timeout;
        let call_deadline = attempt.sent + timeout;
        let deadline = until.map_or(call_deadline, |u| u.min(call_deadline));
        let mut pending = lock_unpoisoned(&conn.pending);
        let mut read = false;
        loop {
            let calls = &mut *pending;
            let slot = calls.slots.get_mut(&corr).expect("own slot");
            slot.waiter = None; // awake: not a follower to hand over to
            if let Some((read_at, result)) = slot.reply.take() {
                return result.map(|reply| (reply, read_at));
            }
            // No reply: read past the deadline, or past it while another
            // caller reads.
            let now = Instant::now();
            if read || (now >= deadline && calls.reader.is_none()) {
                break;
            }
            if let Some(mut reader) = calls.reader.take() {
                drop(pending);
                let failed = conn.read_for(&mut reader, corr, deadline).err();
                pending = lock_unpoisoned(&conn.pending);
                let mut waiting = pending.slots.values_mut().filter(|s| s.reply.is_none());
                if let Some(cause) = failed {
                    // Killed, and every call still waiting fails with it.
                    reader = ReadBuf::default();
                    conn.kill();
                    for slot in waiting {
                        slot.reply = Some((Instant::now(), Err(cause.clone())));
                        if let Some(waiter) = slot.waiter.take() {
                            waiter.unpark();
                        }
                    }
                } else if let Some(next) = waiting.find_map(|s| s.waiter.take()) {
                    next.unpark(); // the socket, to one caller still waiting
                }
                pending.reader = Some(reader);
                read = true;
                continue;
            }
            slot.waiter = Some(std::thread::current());
            drop(pending);
            std::thread::park_timeout(deadline - now);
            pending = lock_unpoisoned(&conn.pending);
        }
        let detail = if Instant::now() >= call_deadline {
            format!("no reply within {timeout:?} (corr {corr})")
        } else {
            format!("no reply by the request's deadline (corr {corr})")
        };
        Err(TransportError::new(TransportErrorKind::Timeout, detail))
    }

    /// Acquires the connection and puts the request on it. A failed send
    /// is kept in the attempt: it is [`MuxClient::settle`] that knows
    /// what a lost connection is owed.
    fn attempt(&self, kind: u8, payload: &[u8]) -> Result<Attempt, TransportError> {
        let (conn, fresh) = self.acquire()?;
        let sent = Instant::now();
        let corr = self.send(&conn, kind, payload);
        Ok(Attempt {
            conn,
            fresh,
            sent,
            corr,
        })
    }

    /// One attempt seen through. A lost connection that was *reused* is
    /// retried once, on whatever connection is live by then, before
    /// surfacing. A remote-reported error comes back typed.
    fn settle(
        &self,
        attempt: Attempt,
        kind: u8,
        payload: &[u8],
        until: Option<Instant>,
    ) -> Result<(Message, Instant), TransportError> {
        let reply = match self.wait(&attempt, until) {
            Err(e) if !attempt.fresh && e.kind == TransportErrorKind::ConnectionLost => {
                self.wait(&self.attempt(kind, payload)?, until)?
            }
            other => other?,
        };
        match reply {
            (Message::Error { detail }, _) => {
                Err(TransportError::new(TransportErrorKind::Remote, detail))
            }
            other => Ok(other),
        }
    }

    /// The first half of a call: acquires the connection and writes
    /// `request` on it under a fresh correlation id. Nothing is waited
    /// for, so a caller with several calls to make begins them all and
    /// only then [finishes](InFlight::finish) each. A failure to dial or
    /// to send is the finish's to report (and to retry).
    pub(crate) fn begin(self: &Arc<Self>, request: &Message) -> InFlight {
        let (kind, payload) = request.encode();
        let began = Instant::now();
        let attempt = self.attempt(kind, &payload);
        InFlight {
            client: Arc::clone(self),
            kind,
            payload,
            began,
            attempt,
        }
    }

    /// Sends `request` and returns its reply: both halves, back to back.
    pub(crate) fn call(self: &Arc<Self>, request: &Message) -> Result<Message, TransportError> {
        self.begin(request).finish(None).map(|(reply, _)| reply)
    }

    /// [`MuxClient::begin`] as a [`Pending`] answer: at the finish,
    /// `read` makes the reply, and the seconds the call took from its
    /// begin to the reply's arrival, into what the caller asked for.
    pub(crate) fn ask<T: Send + 'static>(
        self: &Arc<Self>,
        request: &Message,
        read: fn(Message, f64) -> Result<T, TransportError>,
    ) -> Box<dyn Pending<T>> {
        Box::new(Asked {
            call: self.begin(request),
            read,
        })
    }

    /// Liveness probe: a full request/reply round trip on the connection.
    pub(crate) fn ping(self: &Arc<Self>) -> Result<(), TransportError> {
        match self.call(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }
}

/// One attempt's claim on the connection: once the request is on the
/// wire, the slot its reply lands in. Dropping the claim gives it back,
/// so an attempt abandoned between the halves (a panic, a request
/// deadline) leaks nothing, and its late reply is counted by
/// `net_client_late_replies_total` when the next call reads it.
struct Attempt {
    conn: Arc<Conn>,
    /// Dialed for this attempt (see [`MuxClient::acquire`]).
    fresh: bool,
    /// When the request went out.
    sent: Instant,
    /// The correlation id awaiting its reply, or the send's failure.
    corr: Result<u64, TransportError>,
}

impl Drop for Attempt {
    fn drop(&mut self) {
        if let Ok(corr) = self.corr {
            lock_unpoisoned(&self.conn.pending).slots.remove(&corr);
        }
    }
}

/// A call between its halves: begun by [`MuxClient::begin`], its reply
/// not yet waited for. Dropping it abandons the call.
pub(crate) struct InFlight {
    client: Arc<MuxClient>,
    kind: u8,
    payload: Vec<u8>,
    began: Instant,
    attempt: Result<Attempt, TransportError>,
}

impl InFlight {
    /// The second half of a call: waits for the reply and returns it
    /// with the time a caller read it, under the client's timeouts and
    /// retry policy, recording latency and failure metrics. The call
    /// timeout counts from the send; `until`, when given, is the caller's
    /// own deadline, and ends the wait, the retries and their backoff
    /// early. The latency histogram times each attempt to the reply's
    /// read, not counting backoff sleeps: an upper bound on the wire time
    /// of a reply that waited in the socket while its caller was busy.
    pub(crate) fn finish(
        self,
        until: Option<Instant>,
    ) -> Result<(Message, Instant), TransportError> {
        let InFlight {
            client,
            kind,
            payload,
            mut began,
            mut attempt,
        } = self;
        let m = metrics();
        let mut retry = 0;
        let result = loop {
            let outcome = attempt.and_then(|a| client.settle(a, kind, &payload, until));
            let ended = outcome.as_ref().map_or_else(|_| Instant::now(), |r| r.1);
            m.rpc_latency
                .observe(ended.saturating_duration_since(began).as_secs_f64());
            let e = match outcome {
                Ok(reply) => break Ok(reply),
                Err(e) => e,
            };
            let transient = matches!(
                e.kind,
                TransportErrorKind::Refused | TransportErrorKind::ConnectionLost
            );
            let delay = backoff_delay(client.config.backoff, retry, client.max_backoff);
            let in_time = until.is_none_or(|u| Instant::now() + delay < u);
            if !transient || retry >= client.config.retries || !in_time {
                break Err(e);
            }
            m.client_retries.inc();
            std::thread::sleep(delay);
            retry += 1;
            began = Instant::now();
            attempt = client.attempt(kind, &payload);
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
}

/// A call between its halves that [`MuxClient::ask`] handed out.
struct Asked<T> {
    call: InFlight,
    read: fn(Message, f64) -> Result<T, TransportError>,
}

impl<T: Send> Pending<T> for Asked<T> {
    fn finish(self: Box<Self>, until: Option<Instant>) -> Result<T, TransportError> {
        // The call's own time, however late it is finished.
        let began = self.call.began;
        let (reply, arrived) = self.call.finish(until)?;
        let seconds = arrived.saturating_duration_since(began).as_secs_f64();
        (self.read)(reply, seconds)
    }
}

impl std::fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxClient")
            .field("addrs", &self.addrs)
            .finish()
    }
}

/// A TCP client for one [`EngineServer`](crate::EngineServer), usable as
/// the transport behind a broker's remote engine registration. Clones
/// share one connection.
#[derive(Debug, Clone)]
pub struct RemoteEngine {
    client: Arc<MuxClient>,
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
        })
    }

    /// Caps the exponential retry backoff (default 2 s): with `n`
    /// retries configured, the worst-case sleep is `min(backoff * 2^n,
    /// cap)` per retry rather than an unbounded doubling.
    pub fn max_backoff(mut self, cap: Duration) -> RemoteEngine {
        self.client = self.client.with_max_backoff(cap);
        self
    }

    /// Liveness probe: a full request/reply round trip on the connection.
    pub fn ping(&self) -> Result<(), TransportError> {
        self.client.ping()
    }

    /// Opens a subscription connection: the engine server will push an
    /// invalidation notice over it whenever its collection changes, and
    /// `on_notice(name, fingerprint, epoch)` runs (on a dedicated reader
    /// thread, `ns:<engine>`) for each. The subscription lives until the
    /// returned handle is closed or dropped, or the server goes away.
    pub fn subscribe_with(
        &self,
        on_notice: impl Fn(&str, Fingerprint, u64) + Send + 'static,
    ) -> Result<Subscription, TransportError> {
        let (stream, name) = self.client.handshake(true)?;
        // Notices arrive whenever the engine changes — block indefinitely.
        stream
            .set_read_timeout(None)
            .map_err(|e| io_error(&e, "configuring subscription socket"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| io_error(&e, "cloning subscription stream"))?;
        let thread = std::thread::Builder::new()
            .name(format!("ns:{name}"))
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
        self.begin_search(query_text, threshold, ctx)
            .finish(None)
            .map(|reply| (reply.hits, reply.spans))
    }

    fn begin_search(
        &self,
        query_text: &str,
        threshold: f64,
        ctx: Option<&seu_obs::TraceContext>,
    ) -> Box<dyn Pending<SearchReply>> {
        let query = query_text.to_string();
        // Unsampled requests go over the wire exactly as before the
        // traced kind existed: byte-identical frames, no span shipping.
        match ctx.filter(|c| c.sampled) {
            None => self.client.ask(
                &Message::SearchDocs { query, threshold },
                |reply, seconds| match reply {
                    Message::SearchResults { hits } => Ok(SearchReply {
                        hits,
                        spans: Vec::new(),
                        seconds,
                    }),
                    other => Err(unexpected("SearchResults", &other)),
                },
            ),
            Some(ctx) => self.client.ask(
                &Message::TracedSearchDocs {
                    query,
                    threshold,
                    trace_id: ctx.trace_id.0,
                    parent_span: ctx.parent_span.0,
                    sampled: ctx.sampled,
                },
                |reply, seconds| match reply {
                    Message::TracedSearchResults { hits, spans } => Ok(SearchReply {
                        hits,
                        spans,
                        seconds,
                    }),
                    other => Err(unexpected("TracedSearchResults", &other)),
                },
            ),
        }
    }

    /// A batch of one: the batch's reply check makes any other result
    /// count a typed `Protocol` error.
    fn true_usefulness(
        &self,
        query_text: &str,
        threshold: f64,
    ) -> Result<TrueUsefulness, TransportError> {
        let mut results = self.true_usefulness_batch(&[query_text.to_string()], threshold)?;
        Ok(results.pop().expect("a batch of one answers one result"))
    }

    fn true_usefulness_batch(
        &self,
        queries: &[String],
        threshold: f64,
    ) -> Result<Vec<TrueUsefulness>, TransportError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        match self.client.call(&Message::EstimateBatch {
            queries: queries.to_vec(),
            threshold,
        })? {
            Message::UsefulnessBatch { results } if results.len() == queries.len() => Ok(results),
            Message::UsefulnessBatch { results } => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!(
                    "batch of {} queries answered with {} results",
                    queries.len(),
                    results.len()
                ),
            )),
            other => Err(unexpected("UsefulnessBatch", &other)),
        }
    }

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        match self.client.call(&Message::GetRepresentative)? {
            Message::Representative { snapshot } => Ok(snapshot),
            other => Err(unexpected("Representative", &other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;

    /// A multiplexing peer for the two halves: echoes correlation ids
    /// and answers `SearchDocs { query }` with one hit named after the
    /// query — once it holds `gate` requests, all connections counted,
    /// so a test can prove that many were in flight at once. While
    /// `drops` is positive the requests that open the gate cost their
    /// connections instead. A search for [`UNANSWERED`] is never
    /// answered, nor counted.
    struct Echo {
        addr: SocketAddr,
        accepted: Arc<AtomicUsize>,
        drops: Arc<AtomicUsize>,
    }

    type Held = Arc<Mutex<Vec<(TcpStream, u64, String)>>>;

    const UNANSWERED: &str = "unanswered";

    fn echo(gate: usize) -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let echo = Echo {
            addr: listener.local_addr().unwrap(),
            accepted: Arc::new(AtomicUsize::new(0)),
            drops: Arc::new(AtomicUsize::new(0)),
        };
        let (accepted, drops) = (echo.accepted.clone(), echo.drops.clone());
        let held: Held = Arc::new(Mutex::new(Vec::new()));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                accepted.fetch_add(1, Ordering::SeqCst);
                let (drops, held) = (drops.clone(), held.clone());
                std::thread::spawn(move || serve(stream, &drops, gate, &held));
            }
        });
        echo
    }

    fn serve(mut stream: TcpStream, drops: &AtomicUsize, gate: usize, held: &Held) {
        while let Ok(frame) = read_frame(&mut stream) {
            let reply = match Message::decode(frame.kind, &frame.payload) {
                Ok(Message::Hello { .. }) => Message::HelloAck {
                    name: "echo".to_string(),
                },
                Ok(Message::Ping) => Message::Pong,
                Ok(Message::SearchDocs { query, .. }) if query == UNANSWERED => continue,
                Ok(Message::SearchDocs { query, .. }) => {
                    let mut held = held.lock().unwrap();
                    held.push((stream.try_clone().unwrap(), frame.corr, query));
                    if held.len() >= gate {
                        let dropped = drops
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| d.checked_sub(1))
                            .is_ok();
                        for (mut to, corr, query) in held.drain(..) {
                            if dropped {
                                let _ = to.shutdown(Shutdown::Both);
                                continue;
                            }
                            let hits = vec![RemoteHit {
                                doc: query,
                                sim: 1.0,
                            }];
                            let (kind, payload) = Message::SearchResults { hits }.encode();
                            let _ = write_frame_corr(&mut to, corr, kind, &payload);
                        }
                    }
                    continue;
                }
                _ => return,
            };
            let (kind, payload) = reply.encode();
            if write_frame_corr(&mut stream, frame.corr, kind, &payload).is_err() {
                return;
            }
        }
    }

    fn client(echo: &Echo) -> Arc<MuxClient> {
        let config = RemoteEngineConfig {
            retries: 0,
            ..RemoteEngineConfig::default()
        };
        MuxClient::resolve(echo.addr, config).unwrap()
    }

    fn ask(query: &str) -> Message {
        Message::SearchDocs {
            query: query.to_string(),
            threshold: 0.0,
        }
    }

    fn doc_of(reply: Result<(Message, Instant), TransportError>) -> String {
        match reply.unwrap().0 {
            Message::SearchResults { mut hits } => hits.remove(0).doc,
            other => panic!("not a search reply: {other:?}"),
        }
    }

    /// `calls` calls begun together, then finished on a thread each, so
    /// no finish waits on a reply the gate holds for another.
    fn begin_and_finish(client: &Arc<MuxClient>, calls: usize) {
        let calls: Vec<InFlight> = (0..calls)
            .map(|i| client.begin(&ask(&format!("q{i}"))))
            .collect();
        std::thread::scope(|scope| {
            for (i, call) in calls.into_iter().enumerate() {
                scope.spawn(move || assert_eq!(doc_of(call.finish(None)), format!("q{i}")));
            }
        });
        let conn = lock_unpoisoned(&client.conn).clone().unwrap();
        assert!(lock_unpoisoned(&conn.pending).slots.is_empty());
    }

    /// Waits until the calls on `conn` are as `ready` says.
    fn wait_for(conn: &Conn, ready: impl Fn(&Calls) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ready(&lock_unpoisoned(&conn.pending)) {
            assert!(Instant::now() < deadline, "the calls never got there");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_call_dropped_between_its_halves_leaves_nothing_behind() {
        // The gate never opens: the reply is still owed when the call
        // is abandoned.
        let echo = echo(usize::MAX);
        let client = client(&echo);
        let call = client.begin(&ask("abandoned"));
        let conn = lock_unpoisoned(&client.conn).clone().unwrap();
        assert_eq!(lock_unpoisoned(&conn.pending).slots.len(), 1);
        drop(call);
        assert!(lock_unpoisoned(&conn.pending).slots.is_empty());
        // The connection is none the worse.
        client.ping().unwrap();
        assert_eq!(echo.accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_lost_reused_connection_is_redialed_once_and_a_lost_fresh_one_is_not() {
        let echo = echo(1);
        let reused = client(&echo);
        reused.ping().unwrap();
        echo.drops.store(1, Ordering::SeqCst);
        let call = reused.begin(&ask("again"));
        assert_eq!(doc_of(call.finish(None)), "again");
        assert_eq!(echo.accepted.load(Ordering::SeqCst), 2, "one redial");

        // The same loss on a connection dialed for the call is the
        // peer's failure, not a stale socket's.
        let fresh = client(&echo);
        echo.drops.store(1, Ordering::SeqCst);
        let lost = fresh.begin(&ask("lost")).finish(None).unwrap_err();
        assert_eq!(lost.kind, TransportErrorKind::ConnectionLost, "{lost}");
        assert_eq!(echo.accepted.load(Ordering::SeqCst), 3, "no redial");
    }

    #[test]
    fn a_lost_connection_is_redialed_once_not_once_per_call_in_flight() {
        // Sixteen calls pipelined on one reused connection, which the peer
        // drops once it holds all of them; their retries are held the
        // same way, so all sixteen are asked again before any is answered.
        let echo = echo(16);
        let client = client(&echo);
        client.ping().unwrap();
        echo.drops.store(1, Ordering::SeqCst);
        begin_and_finish(&client, 16);
        assert_eq!(echo.accepted.load(Ordering::SeqCst), 2, "one redial");
    }

    #[test]
    fn calls_begun_together_each_come_home_with_their_own_reply() {
        // Nothing is answered until all 64 are held: they were in flight
        // at once, on the one connection.
        let echo = echo(64);
        begin_and_finish(&client(&echo), 64);
        assert_eq!(echo.accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_reply_reaches_its_caller_while_another_caller_reads() {
        let echo = echo(1);
        let client = client(&echo);
        let reading = client.begin(&ask(UNANSWERED));
        let conn = lock_unpoisoned(&client.conn).clone().unwrap();
        let until = Instant::now() + Duration::from_secs(1);
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || reading.finish(Some(until)));
            wait_for(&conn, |calls| calls.reader.is_none());

            let started = Instant::now();
            assert_eq!(doc_of(client.begin(&ask("routed")).finish(None)), "routed");
            let took = started.elapsed();
            assert!(took < Duration::from_millis(500), "waited {took:?}");
            assert!(!reader.is_finished(), "the first caller still reads");
            assert!(lock_unpoisoned(&conn.pending).reader.is_none());

            let err = reader.join().unwrap().unwrap_err();
            assert_eq!(err.kind, TransportErrorKind::Timeout, "{err}");
        });
    }

    #[test]
    fn a_reader_past_its_deadline_hands_the_socket_to_a_waiting_caller() {
        // Gate 2: the follower is answered only with a third call, begun
        // once the reader has given up.
        let echo = echo(2);
        let client = client(&echo);
        let reading = client.begin(&ask(UNANSWERED));
        let following = client.begin(&ask("follower"));
        let conn = lock_unpoisoned(&client.conn).clone().unwrap();
        let until = Instant::now() + Duration::from_millis(500);
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || reading.finish(Some(until)));
            wait_for(&conn, |calls| calls.reader.is_none());
            let follower = scope.spawn(move || {
                let started = Instant::now();
                (doc_of(following.finish(None)), started.elapsed())
            });
            wait_for(&conn, |calls| {
                calls.slots.values().any(|s| s.waiter.is_some())
            });

            let err = reader.join().unwrap().unwrap_err();
            assert_eq!(err.kind, TransportErrorKind::Timeout, "{err}");
            let third = client.begin(&ask("third"));
            let (doc, waited) = follower.join().unwrap();
            assert_eq!(doc, "follower");
            // Not handed the socket, it would sleep out its 5 s timeout.
            assert!(waited < Duration::from_secs(2), "waited {waited:?}");
            assert_eq!(doc_of(third.finish(None)), "third");
        });
    }

    #[test]
    fn a_reply_in_the_socket_by_the_deadline_is_returned_past_it() {
        let echo = echo(1);
        let client = client(&echo);
        let call = client.begin(&ask("in time"));
        let conn = lock_unpoisoned(&client.conn).clone().unwrap();
        // Until the reply is in the socket, without reading it.
        conn.stream.peek(&mut [0; 1]).unwrap();
        assert_eq!(doc_of(call.finish(Some(Instant::now()))), "in time");
    }

    #[test]
    fn a_snapshot_sized_reply_leaves_no_snapshot_sized_buffer() {
        let echo = echo(1);
        let client = client(&echo);
        let big = "x".repeat(4 << 20);
        assert_eq!(doc_of(client.begin(&ask(&big)).finish(None)), big);
        let conn = lock_unpoisoned(&client.conn).clone().unwrap();
        let calls = lock_unpoisoned(&conn.pending);
        let kept = calls.reader.as_ref().unwrap().buf.capacity();
        assert!(kept <= KEEP_BUFFER, "{kept} bytes kept");
    }
}
