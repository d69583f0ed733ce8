//! The one framed-protocol server: a **readiness event loop** hosting a
//! request handler (the crate-internal `FrameService`: `Message` in,
//! `Message` out, plus the name the handshake advertises), and
//! [`EngineServer`], the service that puts one [`SearchEngine`] on a
//! socket.
//!
//! One thread owns the nonblocking listener and every connection,
//! parsing frames incrementally out of per-connection read buffers and
//! flushing replies from write buffers. It answers a request itself when
//! the service says that is cheap, and hands the rest to a small worker
//! pool. Because replies carry the
//! request's correlation id, one connection can have many requests in
//! flight and the replies go out in completion order — a slow search
//! does not block the pings and estimates pipelined behind it. The
//! worker count ([`ServerConfig::workers`]) is the server's capacity for
//! handed-over requests: those beyond it queue in arrival order. The
//! federation [`ReplicaServer`](crate::ReplicaServer) is the same loop
//! around a different service.
//!
//! **Deadlines live on their connection**, not in socket read timeouts
//! or a loop-wide timer. A connection keeps the requests it handed over
//! with their deadlines, each `REQUEST_TIMEOUT` after its arrival, so
//! arrival order is deadline order and the oldest is the one due. With
//! none outstanding it has an idle deadline, `REQUEST_IDLE_TIMEOUT` after
//! its last read or last answer: a connection waiting on the server is
//! never idle, and a request past its deadline gets its typed `Error`.
//!
//! **What blocks where.** The loop thread waits in exactly one place,
//! `poll(2)` (`crate::poll`), over the listener, every live connection
//! and the read end of a socket pair, with the earliest deadline among
//! them as the timeout, read in the pass that builds the set — no
//! deadline armed, no timeout. An idle
//! server therefore makes no passes at all, and an arriving request is
//! served when it arrives, not at the end of a nap. After `poll` returns,
//! a pass spends syscalls only where something was reported: `accept` on
//! a readable listener, `read` on a readable (or failed, or hung-up)
//! connection, `write` for a connection that has just had a reply
//! queued. A write the socket refuses parks the rest of the buffer and
//! asks `poll` for `POLLOUT` on that connection, for as long as the
//! refusal stands and no longer. Workers block on the job channel.
//!
//! **What the loop computes.** Pongs, and whatever
//! `FrameService::answer_inline` returns: an engine's search or estimate
//! whose text is within `INLINE_QUERY_BYTES` and whose terms hold under
//! `INLINE_POSTINGS` postings in its index, each about what the hand-over
//! costs in CPU. The reply is queued in the pass that read the request
//! and written before the next `poll`: one wake-up an RPC on this side
//! instead of three (loop, worker, loop), and no job, completion or
//! deadline. The bound is a property of the request, read off its length
//! and the index in O(terms), not a setting: a setting would be tuned for
//! one collection and wrong for the next. A common-term query on a big
//! collection, a very long one, a batch and the whole representative go
//! to a worker, so a slow request still stalls nobody; and a replica
//! never answers inline, because its handler blocks on the sockets of the
//! engines behind it.
//!
//! **Who wakes whom.** Sockets wake the loop through `poll`. Everything
//! else — a worker with a finished reply, [`EngineServer::replace_engine`]
//! with a broadcast, a shutdown — publishes its news and then writes one
//! byte into the socket pair, unless a flag says a byte is already on
//! its way. The loop **reads the pair dry first and clears the flag
//! second**, and only then collects completions and broadcasts; in the
//! other order a notifier can slip between the two steps and every
//! later wake-up is lost (see `Wake::acknowledge`). Nothing ticks in
//! the background to hide such a loss: a lost wake-up is a stalled
//! call, which `tests/loop_idle.rs` turns into a failure.
//!
//! A peer that shuts down its sending half leaves the read set once its
//! end of stream is read; the connection stays until every request it
//! had sent is answered and flushed, then closes. An `accept` that fails
//! for lack of descriptors takes the listener out of the set for `TICK`,
//! so neither case can spin the loop.
//!
//! Two connection modes exist, chosen by the client's opening
//! [`Message::Hello`]:
//!
//! * **request connections** (`subscribe: false`) serve the peer's
//!   calls, any number in flight per connection; [`Message::Ping`] is
//!   answered by the loop itself, so liveness probes never queue behind
//!   busy workers;
//! * **subscriber connections** (`subscribe: true`) are held open and
//!   receive a pushed [`Message::InvalidateNotice`] whenever
//!   [`EngineServer::replace_engine`] swaps the collection. This is what
//!   lets a broker learn of collection changes without polling or
//!   sweeping: staleness travels *from* the engine *to* the broker.
//!
//! The server never panics on a misbehaving peer, and in-band errors
//! follow one rule: a frame-level violation or an undecodable payload of
//! a known kind means the byte stream can no longer be trusted, so it is
//! answered with a typed [`Message::Error`] and the connection is
//! closed; a whole frame of a kind this build does not know (a newer or
//! older peer's), or a decodable request the service refuses or fails,
//! gets its typed `Error` on its own correlation id and the connection —
//! with every pipelined neighbour — stays open. A handler that panics,
//! on either route, is such a failure.

use crate::frame::{check_outbound, encode_frame_into, parse_frame};
use crate::metrics::metrics;
use crate::poll::{self, Events, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::wire::Message;
use parking_lot::{Mutex, RwLock};
use seu_engine::{Query, SearchEngine};
use seu_metasearch::{EngineSnapshot, RemoteHit};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle cap on request connections: a client that connects and then goes
/// silent for this long is dropped rather than holding server state
/// forever. Subscriber connections are exempt.
const REQUEST_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Server-side deadline on one in-flight request: past it, the
/// requester gets a typed error and the eventual result is dropped.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the listener sits out after an `accept` failure, and the loop
/// after a `poll` the kernel refused.
const TICK: Duration = Duration::from_millis(25);

/// Write-buffer cap per connection; a subscriber that stops reading
/// while broadcasts pile up is dropped at this point instead of growing
/// the buffer without bound.
const MAX_WRITE_BUFFER: usize = 64 << 20;

/// What a framed-protocol server does with a request once the loop has
/// framed and decoded it. The loop owns sockets, handshakes, pings,
/// deadlines and back-pressure; the service only computes replies (the
/// cheap ones on the loop thread, the rest on worker threads, up to
/// [`ServerConfig::workers`] at once).
pub(crate) trait FrameService: Send + Sync + 'static {
    /// The name advertised in the handshake's [`Message::HelloAck`].
    fn name(&self) -> &str;

    /// Answers one request. `None` says this service does not serve the
    /// request's kind; the loop turns that into a typed in-band
    /// [`Message::Error`] naming the kind byte.
    fn handle(&self, request: Message) -> Option<Message>;

    /// The reply to a request this service can answer for less than the
    /// hand-over to a worker costs, computed on the loop thread between
    /// two `poll`s; `None` (the default) hands the request over. It must
    /// never block, so [`EngineService`] is its one implementor.
    fn answer_inline(&self, _request: &Message) -> Option<Message> {
        None
    }
}

/// Tuning for a framed-protocol server ([`EngineServer::bind_with`],
/// [`ReplicaServer::bind_with`](crate::ReplicaServer::bind_with)).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Worker threads answering handed-over requests — the server's
    /// capacity for them: at most this many are being answered at once,
    /// the rest queue. 0 picks `available_parallelism` clamped to [2, 8].
    pub workers: usize,
}

/// Wakes the event loop out of `poll` (new completion, broadcast, or
/// shutdown): a nonblocking socket pair whose read end sits in the
/// loop's poll set.
struct Wake {
    tx: UnixStream,
    rx: UnixStream,
    /// Set by the first notifier to write a byte, cleared by the loop:
    /// notifications in between ride on that byte instead of adding
    /// their own.
    pending: AtomicBool,
}

impl Wake {
    fn new() -> std::io::Result<Wake> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Wake {
            tx,
            rx,
            pending: AtomicBool::new(false),
        })
    }

    /// Call **after** publishing what the loop should find (a pushed
    /// completion or broadcast, the shutdown flag).
    fn notify(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // The pair never holds more than a couple of bytes, so the
            // write cannot find it full.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The loop's half, run before it collects what notifiers
    /// published: read the pair dry **first**, clear the flag
    /// **second**. A notifier that still sees the flag set published
    /// before the clear, hence before the collection that follows it;
    /// one that sees it clear writes a byte nobody has drained. Clearing
    /// first would let a notifier set the flag and write in between, the
    /// drain swallow that byte, and every later notifier find the flag
    /// set with no byte left to wake the loop — for good.
    fn acknowledge(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// What the loop thread, its workers and the owning handle share.
struct LoopState {
    service: Arc<dyn FrameService>,
    workers: usize,
    shutting_down: AtomicBool,
    /// Live subscriber count (incremented *before* the ack is queued,
    /// so a client that has its ack is already counted).
    subscribers: AtomicUsize,
    /// Pending broadcast frames, drained by the loop.
    broadcasts: Mutex<Vec<(u8, Vec<u8>)>>,
    wake: Wake,
}

/// A bound listener with its event loop running; serving stops (every
/// connection severed, loop and workers joined) on [`FrameServer::stop`]
/// or drop.
pub(crate) struct FrameServer {
    state: Arc<LoopState>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving `service`.
    pub(crate) fn bind(
        service: Arc<dyn FrameService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<FrameServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8)
        };
        // Linux shows 15 bytes of a thread's name (`top -H`, `/proc`):
        // the role goes first and short, the service right behind it.
        let thread_name = format!("nl:{}", service.name());
        let state = Arc::new(LoopState {
            service,
            workers,
            shutting_down: AtomicBool::new(false),
            subscribers: AtomicUsize::new(0),
            broadcasts: Mutex::new(Vec::new()),
            wake: Wake::new()?,
        });
        let thread_state = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || event_loop(listener, thread_state))?;
        Ok(FrameServer {
            state,
            addr,
            thread: Some(thread),
        })
    }

    /// The name the hosted service advertises.
    pub(crate) fn name(&self) -> &str {
        self.state.service.name()
    }

    /// The bound address (with the ephemeral port resolved).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live subscriber connections.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.state.subscribers.load(Ordering::SeqCst)
    }

    /// Queues `notice` for every subscriber and returns how many are
    /// registered right now. Delivery is asynchronous: each of them
    /// either receives the notice or is detected dead and dropped.
    pub(crate) fn broadcast(&self, notice: &Message) -> usize {
        let notified = self.state.subscribers.load(Ordering::SeqCst);
        self.state.broadcasts.lock().push(notice.encode());
        self.state.wake.notify();
        notified
    }

    /// Stops accepting, severs every live connection (in-flight calls
    /// on them fail with `ConnectionLost` on the caller's side), and
    /// joins the loop, which joins its workers.
    pub(crate) fn stop(&mut self) {
        if self.state.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The [`FrameService`] over one swappable [`SearchEngine`].
struct EngineService {
    name: String,
    engine: RwLock<Arc<SearchEngine>>,
    epoch: AtomicU64,
}

/// A [`SearchEngine`] served over TCP, with push invalidation to
/// subscribed brokers.
pub struct EngineServer {
    service: Arc<EngineService>,
    server: FrameServer,
}

impl EngineServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `engine` under `name` with the default configuration.
    pub fn bind(
        name: impl Into<String>,
        engine: SearchEngine,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<EngineServer> {
        EngineServer::bind_with(name, engine, addr, ServerConfig::default())
    }

    /// [`EngineServer::bind`] with an explicit worker count.
    pub fn bind_with(
        name: impl Into<String>,
        engine: SearchEngine,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<EngineServer> {
        let service = Arc::new(EngineService {
            name: name.into(),
            engine: RwLock::new(Arc::new(engine)),
            epoch: AtomicU64::new(0),
        });
        let server = FrameServer::bind(service.clone(), addr, config)?;
        Ok(EngineServer { service, server })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The advertised engine name.
    pub fn name(&self) -> &str {
        &self.service.name
    }

    /// The server-side change epoch: how many times [`replace_engine`]
    /// has swapped the collection.
    ///
    /// [`replace_engine`]: EngineServer::replace_engine
    pub fn epoch(&self) -> u64 {
        self.service.epoch.load(Ordering::SeqCst)
    }

    /// Live subscriber connections.
    pub fn subscriber_count(&self) -> usize {
        self.server.subscriber_count()
    }

    /// Swaps the served collection and pushes an
    /// [`Message::InvalidateNotice`] with the new fingerprint to every
    /// subscriber. Returns the number of subscribers the notice goes to
    /// (delivery is asynchronous: the count is of registered
    /// subscribers at the swap, each of which either receives the
    /// notice or is detected dead and dropped).
    pub fn replace_engine(&self, engine: SearchEngine) -> usize {
        let fingerprint = engine.fingerprint();
        *self.service.engine.write() = Arc::new(engine);
        let epoch = self.service.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.server.broadcast(&Message::InvalidateNotice {
            name: self.service.name.clone(),
            fingerprint,
            epoch,
        })
    }

    /// Stops accepting, closes every connection, and joins the event
    /// loop and its workers.
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

impl std::fmt::Debug for EngineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineServer")
            .field("name", &self.service.name)
            .field("addr", &self.addr())
            .field("epoch", &self.epoch())
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// Accepted but no Hello yet.
    Handshake,
    Request,
    Subscriber,
}

struct EventConn {
    stream: TcpStream,
    kind: ConnKind,
    /// Guards against a completed job landing on a recycled slot.
    gen: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`.
    wstart: usize,
    /// The socket refused part of `wbuf`; no write is tried again until
    /// `poll` reports room.
    write_blocked: bool,
    /// Requests handed to the worker pool and not yet answered (by their
    /// reply or by their deadline): `(corr, deadline)`, in arrival order.
    handed_over: VecDeque<(u64, Instant)>,
    /// The last read or answer: idle time counts from here.
    last_activity: Instant,
    /// The peer sent its end of stream: nothing more is read, and the
    /// connection closes once what it already asked for is answered.
    eof: bool,
    /// Flush the write buffer, then close.
    closing: bool,
    dead: bool,
}

impl EventConn {
    fn new(stream: TcpStream, gen: u64, now: Instant) -> EventConn {
        EventConn {
            stream,
            kind: ConnKind::Handshake,
            gen,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wstart: 0,
            write_blocked: false,
            handed_over: VecDeque::new(),
            last_activity: now,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// The oldest handed-over request's deadline or, with none
    /// outstanding, the idle deadline. Subscribers are long-lived by
    /// design: with nothing handed over, they have none.
    fn next_deadline(&self) -> Option<Instant> {
        match self.handed_over.front() {
            Some(&(_, due)) => Some(due),
            None if self.kind == ConnKind::Subscriber => None,
            None => Some(self.last_activity + REQUEST_IDLE_TIMEOUT),
        }
    }

    /// Queues a worker's `reply` to `corr`, unless its deadline answered
    /// first (the requester was told and moved on).
    fn answer(&mut self, corr: u64, reply: &Message, now: Instant) {
        if let Some(at) = self.handed_over.iter().position(|&(c, _)| c == corr) {
            self.handed_over.remove(at);
            self.last_activity = now;
            self.enqueue(corr, reply);
        }
    }

    /// Answers each handed-over request whose deadline has come by `now`
    /// with a typed `Error`, then marks the connection dead if its idle
    /// deadline has come too.
    fn expire(&mut self, now: Instant) {
        while let Some(&(corr, due)) = self.handed_over.front() {
            if due > now {
                break;
            }
            self.handed_over.pop_front();
            self.last_activity = now;
            metrics().server_deadline_drops.inc();
            let detail = format!("request deadline ({REQUEST_TIMEOUT:?}) exceeded");
            self.enqueue(corr, &Message::Error { detail });
        }
        if self.next_deadline().is_some_and(|due| due <= now) {
            self.dead = true;
        }
    }

    /// Frames `message` for `corr`. A reply over the frame cap goes out
    /// as a typed in-band `Error` on the same corr instead, so only the
    /// call that asked for it fails.
    fn enqueue(&mut self, corr: u64, message: &Message) {
        let (mut kind, mut payload) = message.encode();
        if let Err(e) = check_outbound(kind, &payload) {
            (kind, payload) = Message::Error { detail: e.detail }.encode();
        }
        encode_frame_into(&mut self.wbuf, corr, kind, &payload);
    }

    /// Whether the loop still reads this connection.
    fn reading(&self) -> bool {
        !self.eof && !self.closing
    }

    /// What the loop asks `poll` about this connection: input while it
    /// is being read, room only while a refused write is waiting.
    fn interest(&self) -> Events {
        let read = if self.reading() { POLLIN } else { 0 };
        let write = if self.write_blocked { POLLOUT } else { 0 };
        read | write
    }
}

/// What the loop asks `poll` about the listener: new connections, except
/// until `retry`, which a failed `accept` sets `TICK` ahead. The listener
/// stays readable through, say, `EMFILE`, and asking again at once would
/// spin.
fn listener_interest(retry: &mut Option<Instant>, now: Instant) -> Events {
    *retry = retry.filter(|&at| at > now);
    if retry.is_some() {
        0
    } else {
        POLLIN
    }
}

/// A request handed to the worker pool.
struct Job {
    slot: usize,
    gen: u64,
    corr: u64,
    /// The frame's kind byte, for the refusal text.
    kind: u8,
    request: Message,
}

/// A computed reply on its way back to the loop.
struct Done {
    slot: usize,
    gen: u64,
    corr: u64,
    reply: Message,
}

fn conn_mut(conns: &mut [Option<EventConn>], slot: usize, gen: u64) -> Option<&mut EventConn> {
    conns
        .get_mut(slot)
        .and_then(|c| c.as_mut())
        .filter(|c| c.gen == gen && !c.dead)
}

/// Runs one of the service's handlers, on either route. A panic in it
/// answers its own request with a typed in-band `Error` instead of
/// taking the worker — or, inline, the whole server — with it.
fn guarded(
    state: &LoopState,
    handler: impl FnOnce(&dyn FrameService) -> Option<Message>,
) -> Option<Message> {
    let handler = std::panic::AssertUnwindSafe(|| handler(&*state.service));
    std::panic::catch_unwind(handler).unwrap_or_else(|_| {
        Some(Message::Error {
            detail: format!("{} panicked answering this request", state.service.name()),
        })
    })
}

fn event_loop(listener: TcpListener, state: Arc<LoopState>) {
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(std::sync::Mutex::new(job_rx));
    let completions: Arc<std::sync::Mutex<Vec<Done>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let worker_threads: Vec<JoinHandle<()>> = (0..state.workers)
        .map(|i| {
            let rx = Arc::clone(&job_rx);
            let done = Arc::clone(&completions);
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("nw{i}:{}", st.service.name()))
                .spawn(move || worker_loop(rx, done, st))
                .expect("spawning worker thread")
        })
        .collect();

    let mut conns: Vec<Option<EventConn>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 1;
    // The poll set, rebuilt every pass: the wake pair, the listener,
    // then one entry per live connection, whose slot `polled` names. The
    // same pass finds the earliest deadline, the listener's included.
    const WAKE: usize = 0;
    const LISTENER: usize = 1;
    const CONNS: usize = 2;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled: Vec<usize> = Vec::new();
    let mut accept_retry: Option<Instant> = None;
    // One read scratch for every connection and pass.
    let mut buf = [0u8; 16 * 1024];
    let m = metrics();

    while !state.shutting_down.load(Ordering::SeqCst) {
        let now = Instant::now();
        fds.clear();
        polled.clear();
        fds.push(PollFd::new(&state.wake.rx, POLLIN));
        let listen = listener_interest(&mut accept_retry, now);
        fds.push(PollFd::new(&listener, listen));
        let mut due = accept_retry;
        for (slot, conn) in conns.iter().enumerate() {
            if let Some(conn) = conn {
                fds.push(PollFd::new(&conn.stream, conn.interest()));
                polled.push(slot);
                due = due.into_iter().chain(conn.next_deadline()).min();
            }
        }
        // The one place the loop waits: for a socket, a notifier, or the
        // earliest deadline — with none armed, for as long as it takes.
        if poll::wait(&mut fds, due.map(|at| at.saturating_duration_since(now))).is_err() {
            // The kernel refused the set (out of memory); nothing was
            // reported. Retry after a tick, deadlines still run.
            std::thread::sleep(TICK);
        }
        m.server_loop_wakeups.inc();
        let now = Instant::now();
        if fds[WAKE].reported(POLLIN) {
            state.wake.acknowledge();
        }

        // New connections, if the listener reported any (the condition
        // gates the first `accept`; `WouldBlock` ends the loop).
        while fds[LISTENER].reported(POLLIN | POLLERR | POLLHUP) {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Replies are small; left to Nagle + delayed ACK
                    // every RPC stalls ~40 ms.
                    let _ = stream.set_nodelay(true);
                    m.server_connections.inc();
                    m.server_active_connections.add(1.0);
                    let conn = EventConn::new(stream, next_gen, now);
                    next_gen += 1;
                    match free_slots.pop() {
                        Some(s) => conns[s] = Some(conn),
                        None => conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    accept_retry = Some(now + TICK);
                    break;
                }
            }
        }

        // Finished jobs → write buffers. An `Error` reply is in-band: it
        // answers its own corr and the connection keeps serving its
        // pipelined neighbours.
        let done: Vec<Done> = {
            let mut lock = completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *lock)
        };
        for d in done {
            if let Some(conn) = conn_mut(&mut conns, d.slot, d.gen) {
                conn.answer(d.corr, &d.reply, now);
            }
        }

        // Pending broadcasts → every subscriber's write buffer.
        let notices: Vec<(u8, Vec<u8>)> = {
            let mut lock = state.broadcasts.lock();
            std::mem::take(&mut *lock)
        };
        for (kind, payload) in &notices {
            for conn in conns.iter_mut().flatten() {
                if conn.kind == ConnKind::Subscriber && !conn.dead && !conn.closing {
                    encode_frame_into(&mut conn.wbuf, 0, *kind, payload);
                    m.push_notices_sent.inc();
                }
            }
        }

        // Reported connections: readable data → frames → inline replies
        // or worker jobs.
        for (fd, &slot) in fds[CONNS..].iter().zip(&polled) {
            let conn = conns[slot]
                .as_mut()
                .expect("a polled slot stays occupied until this pass reaps it");
            if fd.reported(POLLOUT | POLLERR | POLLHUP) {
                conn.write_blocked = false;
            }
            if !fd.reported(POLLIN | POLLERR | POLLHUP) {
                continue;
            }
            if !conn.reading() {
                // Not asked about input, so this is an error or a
                // hang-up: nobody is left to answer.
                conn.dead = true;
                continue;
            }
            // The `Ok(0)` / `Err` arms classify an error or hang-up.
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&buf[..n]);
                        conn.last_activity = now;
                        if n < buf.len() {
                            // Drained; `poll` reports whatever follows.
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            // Drain complete frames from the read buffer.
            let mut consumed = 0;
            loop {
                match parse_frame(&conn.rbuf[consumed..], crate::frame::MAX_FRAME_BYTES) {
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        handle_frame(&state, conn, slot, frame, &job_tx, now);
                        if conn.closing || conn.dead {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        conn.enqueue(
                            0,
                            &Message::Error {
                                detail: format!("invalid frame: {e}"),
                            },
                        );
                        conn.closing = true;
                        break;
                    }
                }
            }
            if consumed > 0 {
                conn.rbuf.drain(..consumed);
            }
        }

        // Deadlines; flush write buffers; reap finished and dead
        // connections.
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            conn.expire(now);
            while !conn.dead && !conn.write_blocked && conn.wstart < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                    Ok(0) => conn.dead = true,
                    Ok(n) => conn.wstart += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.write_blocked = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => conn.dead = true,
                }
            }
            if conn.wstart == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wstart = 0;
            } else if conn.wbuf.len() - conn.wstart > MAX_WRITE_BUFFER {
                conn.dead = true; // slow consumer
            }
            if conn.eof && conn.handed_over.is_empty() {
                conn.closing = true;
            }
            if conn.closing && conn.wbuf.is_empty() {
                conn.dead = true;
            }
            if conn.dead {
                if conn.kind == ConnKind::Subscriber {
                    state.subscribers.fetch_sub(1, Ordering::SeqCst);
                    m.server_subscribers.add(-1.0);
                }
                let _ = conn.stream.shutdown(Shutdown::Both);
                m.server_active_connections.add(-1.0);
                *entry = None;
                free_slots.push(slot);
            }
        }
    }

    // Shutdown: close every connection, then drain the worker pool.
    for conn in conns.iter_mut().flatten() {
        if conn.kind == ConnKind::Subscriber {
            state.subscribers.fetch_sub(1, Ordering::SeqCst);
            metrics().server_subscribers.add(-1.0);
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        metrics().server_active_connections.add(-1.0);
    }
    drop(job_tx);
    for t in worker_threads {
        let _ = t.join();
    }
}

/// Routes one parsed frame: handshake transitions, inline pongs and
/// cheap answers, or a job for the worker pool (with its deadline armed).
fn handle_frame(
    state: &LoopState,
    conn: &mut EventConn,
    slot: usize,
    frame: crate::frame::Frame,
    job_tx: &mpsc::Sender<Job>,
    now: Instant,
) {
    let m = metrics();
    match conn.kind {
        ConnKind::Handshake => {
            match Message::decode(frame.kind, &frame.payload) {
                Ok(Message::Hello { subscribe }) => {
                    if subscribe {
                        conn.kind = ConnKind::Subscriber;
                        // Count first, ack second: a client holding its
                        // ack is guaranteed to be in the next
                        // replace_engine's subscriber count.
                        state.subscribers.fetch_add(1, Ordering::SeqCst);
                        m.server_subscribers.add(1.0);
                    } else {
                        conn.kind = ConnKind::Request;
                    }
                    // The ack echoes the Hello's correlation id, as every
                    // reply does: a client refuses an ack that does not.
                    conn.enqueue(
                        frame.corr,
                        &Message::HelloAck {
                            name: state.service.name().to_string(),
                        },
                    );
                }
                Ok(_) => {
                    conn.enqueue(
                        frame.corr,
                        &Message::Error {
                            detail: format!("expected Hello, got message kind {}", frame.kind),
                        },
                    );
                    conn.closing = true;
                }
                Err(e) => {
                    conn.enqueue(
                        frame.corr,
                        &Message::Error {
                            detail: format!("undecodable request: {e}"),
                        },
                    );
                    conn.closing = true;
                }
            }
        }
        ConnKind::Request => {
            m.server_requests.inc();
            match Message::decode(frame.kind, &frame.payload) {
                Ok(Message::Ping) => conn.enqueue(frame.corr, &Message::Pong),
                Ok(request) => {
                    // Answered here, in the pass that read it, a request
                    // needs no deadline, job, completion or wake-up.
                    if let Some(reply) = guarded(state, |s| s.answer_inline(&request)) {
                        m.server_inline_answers.inc();
                        conn.enqueue(frame.corr, &reply);
                        return;
                    }
                    conn.handed_over
                        .push_back((frame.corr, now + REQUEST_TIMEOUT));
                    let _ = job_tx.send(Job {
                        slot,
                        gen: conn.gen,
                        corr: frame.corr,
                        kind: frame.kind,
                        request,
                    });
                }
                // A whole frame of a kind this build has no row for left
                // the stream intact: refused, and the connection serves on.
                Err(_) if !Message::knows(frame.kind) => {
                    conn.enqueue(frame.corr, &refusal(state, frame.kind));
                }
                Err(e) => {
                    conn.enqueue(
                        frame.corr,
                        &Message::Error {
                            detail: format!("undecodable request: {e}"),
                        },
                    );
                    conn.closing = true;
                }
            }
        }
        // Subscribers carry no requests; stray frames are ignored.
        ConnKind::Subscriber => {}
    }
}

/// The in-band answer to a request of a kind the service does not serve.
fn refusal(state: &LoopState, kind: u8) -> Message {
    let detail = format!(
        "{} does not serve message kind {kind}",
        state.service.name()
    );
    Message::Error { detail }
}

fn worker_loop(
    job_rx: Arc<std::sync::Mutex<mpsc::Receiver<Job>>>,
    completions: Arc<std::sync::Mutex<Vec<Done>>>,
    state: Arc<LoopState>,
) {
    loop {
        // Holding the lock across recv serializes the *wait*, not the
        // work: the holder releases as soon as a job arrives.
        let job = {
            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else { return };
        let reply =
            guarded(&state, |s| s.handle(job.request)).unwrap_or_else(|| refusal(&state, job.kind));
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Done {
                slot: job.slot,
                gen: job.gen,
                corr: job.corr,
                reply,
            });
        state.wake.notify();
    }
}

/// Every document of `engine` above `threshold` for `query`, best
/// first, named for the wire.
fn search_hits(engine: &SearchEngine, query: &Query, threshold: f64) -> Vec<RemoteHit> {
    let c = engine.collection();
    engine
        .search_threshold(query, threshold)
        .into_iter()
        .map(|h| RemoteHit {
            doc: c.doc(h.doc).name.clone(),
            sim: h.sim,
        })
        .collect()
}

impl FrameService for EngineService {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&self, request: Message) -> Option<Message> {
        self.answer(&request, false)
    }

    fn answer_inline(&self, request: &Message) -> Option<Message> {
        self.answer(request, true)
    }
}

/// The postings a query's terms may hold in this engine's index for the
/// loop to answer it inline. A search costs what it reads: the benchmark's
/// engines read ≈ 134 postings in ≈ 5 µs, so 1 024 take ≈ 40 µs — the
/// ≈ 35 µs of CPU a hand-over costs (two wake-ups, a job, a completion, a
/// deadline armed and cancelled), and as long as the loop should keep its
/// other connections waiting.
const INLINE_POSTINGS: usize = 1024;

/// The query text the loop will analyse to find that out. Analysis costs
/// what it reads too (tokenise, stem, look up: ≈ 37 ns a byte, 4 MiB of
/// unknown tokens 100 ms for no posting at all), so 1 KiB is the same
/// ≈ 40 µs; the benchmark's queries are tens of bytes. Longer text goes
/// to a worker unanalysed.
const INLINE_QUERY_BYTES: usize = 1024;

impl EngineService {
    /// The one handler behind both routes. `inline` is the loop asking:
    /// it gets `None` — hand it over — for a query text over
    /// [`INLINE_QUERY_BYTES`], one holding [`INLINE_POSTINGS`] or more, and
    /// for the kinds whose cost the request does not bound (a batch, the
    /// whole representative).
    fn answer(&self, request: &Message, inline: bool) -> Option<Message> {
        let engine = Arc::clone(&self.engine.read());
        // One analysis: it sizes the request and the search reuses it.
        let analyse = |text: &str| {
            if inline && text.len() > INLINE_QUERY_BYTES {
                return None;
            }
            let q = engine.collection().query_from_text(text);
            let terms = q.terms().iter();
            let postings: usize = terms.map(|&(t, _)| engine.index().doc_freq(t)).sum();
            (!inline || postings < INLINE_POSTINGS).then_some(q)
        };
        Some(match request {
            Message::SearchDocs { query, threshold } => Message::SearchResults {
                hits: search_hits(&engine, &analyse(query)?, *threshold),
            },
            Message::TracedSearchDocs {
                query,
                threshold,
                trace_id,
                parent_span,
                sampled,
            } => {
                let started = std::time::Instant::now();
                let start_unix_ns = seu_obs::unix_now_ns();
                let q = analyse(query)?;
                metrics().server_traced_searches.inc();
                let hits = search_hits(&engine, &q, *threshold);
                // Author the server-side span by hand: there is no tracer on
                // this side, just an id minted into the caller's trace. The
                // caller grafts it under its dispatch span via the parent
                // link carried in the request.
                let spans = if *sampled {
                    vec![seu_obs::SpanRecord {
                        id: seu_obs::new_span_id(),
                        parent: seu_obs::SpanId(*parent_span),
                        name: "remote_search".to_string(),
                        start_unix_ns,
                        duration_ns: started.elapsed().as_nanos() as u64,
                        attrs: vec![
                            ("engine".to_string(), self.name.clone()),
                            ("hits".to_string(), hits.len().to_string()),
                            ("trace_id".to_string(), seu_obs::TraceId(*trace_id).to_hex()),
                        ],
                    }]
                } else {
                    Vec::new()
                };
                Message::TracedSearchResults { hits, spans }
            }
            Message::Estimate { query, threshold } => {
                let u = engine.true_usefulness(&analyse(query)?, *threshold);
                Message::Usefulness {
                    no_doc: u.no_doc,
                    avg_sim: u.avg_sim,
                    max_sim: u.max_sim,
                }
            }
            Message::EstimateBatch { queries, threshold } if !inline => {
                metrics().server_batch_requests.inc();
                let c = engine.collection();
                let results = queries
                    .iter()
                    .map(|query| {
                        let q = c.query_from_text(query);
                        engine.true_usefulness(&q, *threshold)
                    })
                    .collect();
                Message::UsefulnessBatch { results }
            }
            Message::GetRepresentative if !inline => Message::Representative {
                snapshot: EngineSnapshot::of_engine(&self.name, &engine),
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{MuxClient, RemoteEngineConfig};
    use crate::frame::{read_frame, write_frame_corr, MAX_FRAME_BYTES};
    use seu_metasearch::TransportErrorKind;
    use std::collections::HashMap;

    /// Answers `ExportEngine` with a reply whose payload is four bytes
    /// over the frame cap.
    struct Oversize;

    impl FrameService for Oversize {
        fn name(&self) -> &str {
            "oversize"
        }

        fn handle(&self, request: Message) -> Option<Message> {
            matches!(request, Message::ExportEngine { .. }).then(|| Message::InstallAck {
                name: "x".repeat(MAX_FRAME_BYTES),
            })
        }
    }

    /// Panics on `Estimate` when the loop asks and on `GetRepresentative`
    /// when a worker does; echoes `RemoveEngine`.
    struct Panicky;

    impl FrameService for Panicky {
        fn name(&self) -> &str {
            "panicky"
        }

        fn handle(&self, request: Message) -> Option<Message> {
            match request {
                Message::GetRepresentative => panic!("handed over"),
                Message::RemoveEngine { name } => Some(Message::InstallAck { name }),
                _ => None,
            }
        }

        fn answer_inline(&self, request: &Message) -> Option<Message> {
            match request {
                Message::Estimate { .. } => panic!("inline"),
                _ => None,
            }
        }
    }

    /// Holds every handed-over request until the test lets go of the
    /// sender, or a minute passes.
    struct Sleepy(Mutex<mpsc::Receiver<()>>);

    impl FrameService for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }

        fn handle(&self, _request: Message) -> Option<Message> {
            let _ = self.0.lock().recv_timeout(Duration::from_secs(60));
            Some(Message::Pong)
        }
    }

    fn send(stream: &mut TcpStream, corr: u64, message: &Message) {
        let (kind, payload) = message.encode();
        write_frame_corr(stream, corr, kind, &payload).expect("writing a request");
    }

    fn recv(stream: &mut TcpStream) -> (u64, Message) {
        let frame = read_frame(stream).expect("the connection must stay framed and open");
        let message = Message::decode(frame.kind, &frame.payload).expect("a decodable reply");
        (frame.corr, message)
    }

    /// A request connection to `addr`, past its handshake.
    fn connected(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connecting");
        let timeout = Some(Duration::from_secs(30));
        stream.set_read_timeout(timeout).expect("read timeout");
        send(&mut stream, 7, &Message::Hello { subscribe: false });
        assert!(matches!(recv(&mut stream), (7, Message::HelloAck { .. })));
        stream
    }

    #[test]
    fn an_oversize_frame_fails_its_own_call_and_spares_the_connection() {
        let server = FrameServer::bind(Arc::new(Oversize), "127.0.0.1:0", ServerConfig::default())
            .expect("binding");
        let mut stream = connected(server.addr());

        // The oversize request and a ping, pipelined on one socket.
        send(&mut stream, 1, &Message::ExportEngine { name: "e".into() });
        send(&mut stream, 2, &Message::Ping);
        let replies: HashMap<u64, Message> = (0..2).map(|_| recv(&mut stream)).collect();
        match &replies[&1] {
            Message::Error { detail } => {
                for number in [MAX_FRAME_BYTES, MAX_FRAME_BYTES + 4] {
                    assert!(detail.contains(&number.to_string()), "{detail}");
                }
            }
            other => panic!("oversize reply must become an Error, got {other:?}"),
        }
        assert!(matches!(replies[&2], Message::Pong));

        // The same socket still serves.
        send(&mut stream, 3, &Message::Ping);
        assert!(matches!(recv(&mut stream), (3, Message::Pong)));

        // The client's half: an oversize request is refused before it
        // reaches the socket, and the connection is none the worse.
        let client =
            MuxClient::resolve(server.addr(), RemoteEngineConfig::default()).expect("resolving");
        client.ping().expect("dialing the connection");
        let oversize = Message::RemoveEngine {
            name: "x".repeat(MAX_FRAME_BYTES),
        };
        let err = client.call(&oversize).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol, "{err:?}");
        client.ping().expect("the connection is untouched");
    }

    #[test]
    fn a_panicking_handler_answers_on_both_routes_and_spares_the_connection() {
        // One worker: a panic that took it along would leave nobody to
        // answer the ordinary request at the end.
        let server = FrameServer::bind(
            Arc::new(Panicky),
            "127.0.0.1:0",
            ServerConfig { workers: 1 },
        )
        .expect("binding");
        let mut stream = connected(server.addr());

        // Inline, handed over, and a ping pipelined behind both.
        let estimate = Message::Estimate {
            query: "q".into(),
            threshold: 0.1,
        };
        send(&mut stream, 1, &estimate);
        send(&mut stream, 2, &Message::GetRepresentative);
        send(&mut stream, 3, &Message::Ping);
        let replies: HashMap<u64, Message> = (0..3).map(|_| recv(&mut stream)).collect();
        for corr in [1, 2] {
            match &replies[&corr] {
                Message::Error { detail } => {
                    assert!(detail.contains("panicky panicked"), "{detail}")
                }
                other => panic!("a panic must become an Error on corr {corr}, got {other:?}"),
            }
        }
        assert!(matches!(replies[&3], Message::Pong));

        // The same socket, loop and worker still serve.
        send(&mut stream, 4, &Message::Ping);
        assert!(matches!(recv(&mut stream), (4, Message::Pong)));
        send(&mut stream, 5, &Message::RemoveEngine { name: "e".into() });
        match recv(&mut stream) {
            (5, Message::InstallAck { name }) => assert_eq!(name, "e"),
            other => panic!("expected the echo, got {other:?}"),
        }
        send(&mut stream, 6, &Message::GetRepresentative);
        assert!(matches!(recv(&mut stream), (6, Message::Error { .. })));
    }

    #[test]
    fn an_unknown_kind_is_refused_in_band_and_the_connection_serves_on() {
        use seu_engine::{CollectionBuilder, WeightingScheme::CosineTf};
        let mut b = CollectionBuilder::new(seu_text::Analyzer::paper_default(), CosineTf);
        b.add_document("d0", "soup recipes with wild mushrooms");
        let engine = SearchEngine::new(b.build());
        let server = EngineServer::bind("pantry", engine, "127.0.0.1:0").expect("binding");
        let mut stream = connected(server.addr());

        // A well-framed request of a kind this build has no row for (a
        // newer peer's), and two it knows pipelined behind it.
        write_frame_corr(&mut stream, 1, 99, b"from a newer peer").expect("writing");
        send(&mut stream, 2, &Message::Ping);
        let (query, threshold) = ("mushroom soup".to_string(), 0.05);
        send(&mut stream, 3, &Message::SearchDocs { query, threshold });
        let replies: HashMap<u64, Message> = (0..3).map(|_| recv(&mut stream)).collect();
        let refused =
            matches!(&replies[&1], Message::Error { detail } if detail.contains("kind 99"));
        assert!(refused, "{:?}", replies[&1]);
        assert!(matches!(replies[&2], Message::Pong), "{:?}", replies[&2]);
        let found = matches!(&replies[&3], Message::SearchResults { hits } if !hits.is_empty());
        assert!(found, "{:?}", replies[&3]);
        send(&mut stream, 4, &Message::Ping);
        assert!(matches!(recv(&mut stream), (4, Message::Pong)));

        // A known kind whose payload is cut short still closes the
        // connection: its bytes can no longer be trusted.
        write_frame_corr(&mut stream, 5, 3, &[0, 0, 0, 9]).expect("writing");
        assert!(matches!(recv(&mut stream), (5, Message::Error { .. })));
        assert!(read_frame(&mut stream).is_err(), "the connection closed");
    }

    #[test]
    #[ignore = "waits out the 30 s request deadline"]
    fn a_request_past_its_deadline_is_answered_on_a_quiet_connection() {
        let (release, held) = mpsc::channel();
        let server = FrameServer::bind(
            Arc::new(Sleepy(Mutex::new(held))),
            "127.0.0.1:0",
            ServerConfig { workers: 1 },
        )
        .expect("binding");
        let mut stream = connected(server.addr());
        let timeout = Some(REQUEST_TIMEOUT * 2);
        stream.set_read_timeout(timeout).expect("read timeout");

        // Nothing else crosses the connection while the worker holds it.
        let sent = Instant::now();
        send(&mut stream, 1, &Message::GetRepresentative);
        let reply = read_frame(&mut stream);
        let took = sent.elapsed();
        drop(release);
        let frame = reply.unwrap_or_else(|e| panic!("no reply after {took:?}: {e}"));
        match Message::decode(frame.kind, &frame.payload) {
            Ok(Message::Error { detail }) if frame.corr == 1 => {
                assert!(detail.contains("deadline"), "{detail}")
            }
            other => panic!("expected the deadline's Error on corr 1, got {other:?}"),
        }
        let late = REQUEST_TIMEOUT + Duration::from_millis(50);
        assert!(
            (REQUEST_TIMEOUT..=late).contains(&took),
            "answered after {took:?}"
        );
    }

    /// A request connection stamped `now`, over a loopback socket nobody
    /// reads: the deadline tests below only look at what it queues.
    fn conn_at(now: Instant) -> EventConn {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding");
        let stream = TcpStream::connect(listener.local_addr().unwrap()).expect("connecting");
        let mut conn = EventConn::new(stream, 1, now);
        conn.kind = ConnKind::Request;
        conn
    }

    /// The frames `conn` has queued since the last look, as (corr, reply).
    fn queued(conn: &mut EventConn) -> Vec<(u64, Message)> {
        let mut rest = &conn.wbuf[..];
        let mut out = Vec::new();
        while let Some((frame, used)) = parse_frame(rest, MAX_FRAME_BYTES).unwrap() {
            out.push((
                frame.corr,
                Message::decode(frame.kind, &frame.payload).unwrap(),
            ));
            rest = &rest[used..];
        }
        conn.wbuf.clear();
        out
    }

    const NS: Duration = Duration::from_nanos(1);

    #[test]
    fn a_deadline_never_fires_early_and_fires_once() {
        let t0 = Instant::now();
        let mut conn = conn_at(t0);
        conn.handed_over.push_back((5, t0 + REQUEST_TIMEOUT));
        assert_eq!(conn.next_deadline(), Some(t0 + REQUEST_TIMEOUT));
        conn.expire(t0 + REQUEST_TIMEOUT - NS);
        assert!(queued(&mut conn).is_empty(), "fired early");

        conn.expire(t0 + REQUEST_TIMEOUT);
        match &queued(&mut conn)[..] {
            [(5, Message::Error { detail })] => assert!(detail.contains("deadline"), "{detail}"),
            other => panic!("expected one Error on corr 5, got {other:?}"),
        }
        // Answered: the worker's late reply and later passes add nothing.
        conn.answer(5, &Message::Pong, t0 + REQUEST_TIMEOUT + NS);
        conn.expire(t0 + REQUEST_TIMEOUT + TICK);
        assert!(queued(&mut conn).is_empty(), "fired twice");
        assert!(!conn.dead);
    }

    #[test]
    fn an_answered_request_disarms_its_deadline() {
        let t0 = Instant::now();
        let mut conn = conn_at(t0);
        conn.handed_over.push_back((5, t0 + REQUEST_TIMEOUT));
        conn.handed_over.push_back((6, t0 + REQUEST_TIMEOUT + NS));
        // Out of order: the younger request's reply comes home first.
        let answered = t0 + TICK;
        conn.answer(6, &Message::Pong, answered);
        assert_eq!(conn.next_deadline(), Some(t0 + REQUEST_TIMEOUT));
        conn.answer(5, &Message::Pong, answered);
        assert_eq!(conn.next_deadline(), Some(answered + REQUEST_IDLE_TIMEOUT));
        // Past both deadlines, short of the idle one.
        conn.expire(answered + REQUEST_IDLE_TIMEOUT - NS);
        let corrs: Vec<u64> = queued(&mut conn).into_iter().map(|(c, _)| c).collect();
        assert_eq!(corrs, [6, 5]);
        assert!(!conn.dead);
    }

    #[test]
    fn a_connection_idles_out_only_with_nothing_handed_over() {
        let t0 = Instant::now();
        let mut quiet = conn_at(t0);
        quiet.expire(t0 + REQUEST_IDLE_TIMEOUT - NS);
        assert!(!quiet.dead, "idled out early");
        quiet.expire(t0 + REQUEST_IDLE_TIMEOUT);
        assert!(quiet.dead);

        // The same silence while the server owes an answer: the deadline
        // answers, and the idle clock starts from that answer.
        let mut waiting = conn_at(t0);
        waiting.handed_over.push_back((1, t0 + REQUEST_TIMEOUT));
        waiting.expire(t0 + REQUEST_TIMEOUT);
        assert!(
            !waiting.dead,
            "a connection waiting on the server is not idle"
        );
        assert_eq!(queued(&mut waiting).len(), 1);
        let idle = t0 + REQUEST_TIMEOUT + REQUEST_IDLE_TIMEOUT;
        assert_eq!(waiting.next_deadline(), Some(idle));
    }

    #[test]
    fn with_nothing_armed_there_is_no_timeout() {
        let t0 = Instant::now();
        let mut subscriber = conn_at(t0);
        subscriber.kind = ConnKind::Subscriber;
        assert_eq!(subscriber.next_deadline(), None);
        subscriber.expire(t0 + REQUEST_IDLE_TIMEOUT * 10);
        assert!(!subscriber.dead);
        let mut retry = None;
        assert_eq!(listener_interest(&mut retry, t0), POLLIN);
        assert_eq!(retry, None);
    }

    #[test]
    fn the_listener_rejoins_the_poll_set_a_tick_after_a_failed_accept() {
        let t0 = Instant::now();
        let mut retry = Some(t0 + TICK);
        assert_eq!(listener_interest(&mut retry, t0 + TICK - NS), 0);
        assert_eq!(retry, Some(t0 + TICK), "the listener's deadline");
        assert_eq!(listener_interest(&mut retry, t0 + TICK), POLLIN);
        assert_eq!(retry, None);
    }
}
