//! The one socket server: a **readiness event loop** hosting either a
//! request handler of the framed protocol (the crate-internal
//! `FrameService`: `Message` in, `Message` out, plus the name the
//! handshake advertises) or the HTTP door ([`AdminServer`]), and
//! [`EngineServer`], the service that puts one [`SearchEngine`] on a
//! socket.
//!
//! [`AdminServer`]: crate::AdminServer
//!
//! One thread owns the nonblocking listener and every connection,
//! parsing frames (or HTTP requests) incrementally out of per-connection
//! read buffers and flushing replies from write buffers. It answers a
//! frame request itself when the service says that is cheap, and hands
//! the rest to its worker set. Because replies carry the request's
//! correlation id, one connection can have many requests in flight and
//! the replies go out in completion order — a slow search does not
//! block the pings and searches pipelined behind it. The federation
//! [`ReplicaServer`](crate::ReplicaServer) is the same loop around a
//! different service.
//!
//! **The HTTP door is this loop over an HTTP listener.** Its connections
//! are read into their buffers like any other until `http::parse_request`
//! finds a whole request — or a reason to refuse one — and the loop
//! answers none of them itself: it takes the connection out of its table
//! and hands the socket and the request to a worker, which writes the
//! reply (`Connection: close`, one request per connection) and closes.
//! No HTTP reply crosses back to the loop.
//!
//! **One worker set** takes every hand-off, of every server. A job goes
//! to the *most recently* parked worker, a worker starts only when none
//! is parked, and a door worker parked for `PARK_EXPIRY` exits. Last in,
//! first out, because that worker's stack, allocator cache and
//! estimator scratch are still in the processor's cache; a shared
//! channel or condvar wakes waiters in queue order, the coldest first,
//! and that, not pooling, cost `registry_10k` its tail when a pool of
//! that kind served the door. A frame service caps its set at
//! [`ServerConfig::workers`], its capacity for handed-over requests:
//! jobs past the cap queue in arrival order, and a worker takes the
//! oldest before it parks, and a parked one stays until the server
//! stops, since the cap bounds its threads. The door has no cap: each
//! of its connections carries one request, so its workers number at
//! most its open connections. A worker parks *before* it closes the
//! HTTP connection it served: the client reads to end of stream before
//! it connects again, so by then the worker is on the stack, and
//! workers started ≤ connections open at once, exactly.
//!
//! **Deadlines live on their connection**, not in socket read timeouts
//! or a loop-wide timer. A connection keeps the requests it handed over
//! with their deadlines, each `REQUEST_TIMEOUT` after its arrival, so
//! arrival order is deadline order and the oldest is the one due. With
//! none outstanding it has an idle deadline, `REQUEST_IDLE_TIMEOUT` after
//! its last read or last answer: a connection waiting on the server is
//! never idle, and a request past its deadline gets its typed `Error`.
//! An HTTP connection that sends no whole request by its idle deadline
//! is closed.
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
//! refusal stands and no longer. A parked worker waits on its own park
//! token; a door worker writes its reply with blocking writes.
//!
//! **What the loop computes.** Pongs, and whatever
//! `FrameService::answer_inline` returns: an engine's search whose text
//! is within `INLINE_QUERY_BYTES` and whose terms hold under
//! `INLINE_POSTINGS` postings in its index, each about what the hand-over
//! costs in CPU. The reply is queued in the pass that read the request
//! and written before the next `poll`: one wake-up an RPC on this side
//! instead of three (loop, worker, loop), and no job, completion or
//! deadline. The bound is a property of the request, read off its length
//! and the index in O(terms), not a setting: a setting would be tuned for
//! one collection and wrong for the next. A common-term query on a big
//! collection, a very long one, an oracle batch (even of one query) and
//! the whole representative go to a worker, so a slow request still
//! stalls nobody; and a replica never answers inline, because its
//! handler blocks on the sockets of the engines behind it.
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
//! call, which `tests/loop_idle.rs` turns into a failure. The loop wakes
//! the one worker it hands a job to, and no other.
//!
//! A peer that shuts down its sending half leaves the read set once its
//! end of stream is read; the connection stays until every request it
//! had sent is answered and flushed, then closes. An `accept` that fails
//! for lack of descriptors takes the listener out of the set for `TICK`,
//! so neither case can spin the loop.
//!
//! Two frame connection modes exist, chosen by the client's opening
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
//! on either route, is such a failure; a door handler that panics costs
//! its own connection, which the client reads as a plain close.

use crate::frame::{check_outbound, encode_frame_into, parse_frame};
use crate::http::{self, BrokerAdmin};
use crate::metrics::metrics;
use crate::poll::{self, Events, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::wire::Message;
use parking_lot::{Mutex, RwLock};
use seu_engine::{Query, SearchEngine};
use seu_metasearch::{EngineRecord, RemoteHit, Representative};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Idle cap on request connections: a client that connects and then goes
/// silent for this long is dropped rather than holding server state
/// forever. Subscriber connections are exempt.
pub(crate) const REQUEST_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Server-side deadline on one in-flight request: past it, the
/// requester gets a typed error and the eventual result is dropped.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the listener sits out after an `accept` failure, and the loop
/// after a `poll` the kernel refused.
const TICK: Duration = Duration::from_millis(25);

/// How long a parked door worker waits for its next job before it takes
/// itself off the stack and exits.
const PARK_EXPIRY: Duration = Duration::from_secs(1);

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

/// What a loop serves.
pub(crate) enum Service {
    /// The framed protocol, through a request handler.
    Frames(Arc<dyn FrameService>),
    /// HTTP/1.1, over a broker.
    Http(Arc<dyn BrokerAdmin>),
}

impl Service {
    /// The name in the loop's and its workers' thread names.
    fn name(&self) -> &str {
        match self {
            Service::Frames(service) => service.name(),
            Service::Http(_) => "http",
        }
    }
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
    service: Service,
    shutting_down: AtomicBool,
    /// Live subscriber count (incremented *before* the ack is queued,
    /// so a client that has its ack is already counted).
    subscribers: AtomicUsize,
    /// Pending broadcast frames, drained by the loop.
    broadcasts: Mutex<Vec<(u8, Vec<u8>)>>,
    /// Frame replies the workers computed, drained by the loop.
    completions: Mutex<Vec<(ReplyTo, Message)>>,
    /// Most workers alive at once.
    cap: usize,
    workers: Mutex<Workers>,
    wake: Wake,
}

/// A bound listener with its event loop running; serving stops (every
/// connection severed, loop and parked workers joined) on
/// [`LoopServer::stop`] or drop.
pub(crate) struct LoopServer {
    state: Arc<LoopState>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl LoopServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving `service`.
    pub(crate) fn bind(
        service: Arc<dyn FrameService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<LoopServer> {
        let cap = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8)
        };
        LoopServer::start(Service::Frames(service), addr, cap)
    }

    /// Binds `addr` and starts serving `service` with at most `cap`
    /// workers alive at once.
    pub(crate) fn start(
        service: Service,
        addr: impl ToSocketAddrs,
        cap: usize,
    ) -> std::io::Result<LoopServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Linux shows 15 bytes of a thread's name (`top -H`, `/proc`):
        // the role goes first and short, the service right behind it.
        let thread_name = format!("nl:{}", service.name());
        let state = Arc::new(LoopState {
            service,
            shutting_down: AtomicBool::new(false),
            subscribers: AtomicUsize::new(0),
            broadcasts: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            cap,
            workers: Mutex::new(Workers::default()),
            wake: Wake::new()?,
        });
        let thread_state = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || event_loop(listener, thread_state))?;
        Ok(LoopServer {
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
    /// joins the loop, which joins its parked workers. A worker busy at
    /// that moment finishes its job and exits instead of parking.
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

impl Drop for LoopServer {
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
    server: LoopServer,
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
        let server = LoopServer::bind(service.clone(), addr, config)?;
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
    /// loop and its parked workers.
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
    /// Accepted but no Hello yet, or, on an HTTP loop, no whole request.
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
    /// Requests handed to the worker set and not yet answered (by their
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
    /// call that asked for it fails, not the loop.
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

/// Where a frame reply goes: the connection's slot and generation (a
/// reply never lands on a recycled slot) and the request's corr.
struct ReplyTo {
    slot: usize,
    gen: u64,
    corr: u64,
}

/// Work the loop hands to its worker set.
enum Job {
    /// A frame request and its kind byte (for the refusal text),
    /// answered back through the loop.
    Frame(ReplyTo, u8, Message),
    /// An HTTP connection out of the loop's table, with the request read
    /// off it or the reason it was refused.
    Http(TcpStream, Result<http::Request, http::Refusal>),
}

/// The worker set: the parked workers, the jobs handed to some of them
/// and not yet taken, and, past the cap, the jobs waiting in arrival
/// order.
#[derive(Default)]
struct Workers {
    /// Parked workers, the most recently parked last.
    parked: Vec<Thread>,
    /// Jobs the loop left for a worker it took off the stack.
    handed: Vec<(std::thread::ThreadId, Job)>,
    queued: VecDeque<Job>,
    /// Workers alive, busy or parked.
    live: usize,
    started: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl LoopState {
    /// Gives `job` to the most recently parked worker; with none parked,
    /// to a new one, or, at the cap, to the queue.
    fn hand_over(self: &Arc<LoopState>, job: Job) {
        let mut workers = self.workers.lock();
        if let Some(worker) = workers.parked.pop() {
            workers.handed.push((worker.id(), job));
            drop(workers);
            worker.unpark();
        } else if workers.live < self.cap {
            let name = format!("nw{}:{}", workers.live, self.service.name());
            let state = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || state.work(job));
            workers.started.retain(|t| !t.is_finished());
            // A job whose worker could not start is dropped: a frame
            // request meets its deadline, an HTTP client a close.
            if let Ok(worker) = spawned {
                workers.live += 1;
                workers.started.push(worker);
            }
        } else {
            workers.queued.push_back(job);
        }
    }

    /// A worker's life: run a job, park, take the next, until the server
    /// stops or, in the door's uncapped set, none comes within
    /// [`PARK_EXPIRY`].
    fn work(&self, first: Job) {
        let m = metrics();
        m.server_workers_started.inc();
        m.server_workers_live.add(1.0);
        let mut job = Some(first);
        while let Some(next) = job {
            job = self.next_job(self.run(next));
        }
        m.server_workers_live.add(-1.0);
    }

    /// Runs one job; returns the HTTP connection it answered, to be
    /// closed once its worker has parked.
    fn run(&self, job: Job) -> Option<TcpStream> {
        match (&self.service, job) {
            (Service::Frames(service), Job::Frame(to, kind, request)) => {
                let reply = guarded(&**service, |s| s.handle(request))
                    .unwrap_or_else(|| refusal(&**service, kind));
                self.completions.lock().push((to, reply));
                self.wake.notify();
                None
            }
            (Service::Http(broker), Job::Http(mut stream, request)) => {
                // A panicking handler costs its own connection only.
                let answer = AssertUnwindSafe(|| http::answer(&mut stream, request, &**broker));
                let _ = catch_unwind(answer);
                Some(stream)
            }
            _ => unreachable!("a loop hands over its own service's jobs"),
        }
    }

    /// The next job for the calling worker: the oldest queued, or one
    /// handed to it after it parks. Parks first and closes `served`
    /// second. `None` when the worker is to exit.
    fn next_job(&self, served: Option<TcpStream>) -> Option<Job> {
        let me = std::thread::current();
        let mut workers = self.workers.lock();
        if workers.stopped {
            workers.live -= 1;
            return None;
        }
        if let Some(job) = workers.queued.pop_front() {
            return Some(job);
        }
        workers.parked.push(me.clone());
        drop(workers);
        drop(served);
        let parked_at = Instant::now();
        loop {
            let mut workers = self.workers.lock();
            if let Some(at) = workers.handed.iter().position(|(id, _)| *id == me.id()) {
                return Some(workers.handed.swap_remove(at).1);
            }
            // Off the stack with nothing handed over is `stop`'s doing.
            let Some(at) = workers.parked.iter().rposition(|t| t.id() == me.id()) else {
                workers.live -= 1;
                return None;
            };
            // Only the door's uncapped set expires: a cap bounds a frame
            // service's threads already.
            if !matches!(self.service, Service::Http(_)) {
                drop(workers);
                std::thread::park();
                continue;
            }
            let Some(left) = PARK_EXPIRY.checked_sub(parked_at.elapsed()) else {
                workers.parked.remove(at);
                workers.live -= 1;
                return None;
            };
            drop(workers);
            std::thread::park_timeout(left);
        }
    }

    /// The loop's last step: drop what is queued, then wake the parked
    /// workers and join them. A busy worker exits after its job.
    fn stop_workers(&self) {
        let mut workers = self.workers.lock();
        workers.stopped = true;
        workers.queued.clear();
        let parked = std::mem::take(&mut workers.parked);
        let started = std::mem::take(&mut workers.started);
        drop(workers);
        for worker in started {
            if parked.iter().any(|p| p.id() == worker.thread().id()) {
                worker.thread().unpark();
                let _ = worker.join();
            }
        }
    }

    /// Counts `conn` out of the loop's table and hands back its socket.
    fn release(&self, conn: EventConn) -> TcpStream {
        if conn.kind == ConnKind::Subscriber {
            self.subscribers.fetch_sub(1, Ordering::SeqCst);
            metrics().server_subscribers.add(-1.0);
        }
        metrics().server_active_connections.add(-1.0);
        conn.stream
    }
}

/// Runs one of the service's handlers, on either route. A panic in it
/// answers its own request with a typed in-band `Error` instead of
/// taking the worker — or, inline, the whole server — with it.
fn guarded(
    service: &dyn FrameService,
    handler: impl FnOnce(&dyn FrameService) -> Option<Message>,
) -> Option<Message> {
    catch_unwind(AssertUnwindSafe(|| handler(service))).unwrap_or_else(|_| {
        Some(Message::Error {
            detail: format!("{} panicked answering this request", service.name()),
        })
    })
}

fn event_loop(listener: TcpListener, state: Arc<LoopState>) {
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
                    // Read in this pass: a client writes as soon as it
                    // has connected, so its first bytes are often here.
                    fds.push(PollFd::ready(&stream, POLLIN));
                    let conn = EventConn::new(stream, next_gen, now);
                    next_gen += 1;
                    let slot = free_slots.pop().unwrap_or(conns.len());
                    if slot == conns.len() {
                        conns.push(None);
                    }
                    conns[slot] = Some(conn);
                    polled.push(slot);
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
        let done = std::mem::take(&mut *state.completions.lock());
        for (to, reply) in done {
            let conn = conns.get_mut(to.slot).and_then(Option::as_mut);
            if let Some(conn) = conn.filter(|c| c.gen == to.gen && !c.dead) {
                conn.answer(to.corr, &reply, now);
            }
        }

        // Pending broadcasts → every subscriber's write buffer.
        let notices = std::mem::take(&mut *state.broadcasts.lock());
        for (kind, payload) in &notices {
            for conn in conns.iter_mut().flatten() {
                if conn.kind == ConnKind::Subscriber && !conn.dead && !conn.closing {
                    encode_frame_into(&mut conn.wbuf, 0, *kind, payload);
                    m.push_notices_sent.inc();
                }
            }
        }

        // Reported connections: readable data → frames → inline replies
        // or worker jobs; a whole HTTP request → a worker.
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
            let Service::Frames(service) = &state.service else {
                // Whole or refused, the request leaves the table with
                // its socket; cut short by end of stream, it is refused.
                let request = match http::parse_request(&conn.rbuf) {
                    Some(request) => request,
                    None if conn.eof => Err(http::Refusal::Invalid),
                    None => continue,
                };
                let conn = conns[slot].take().expect("the slot just read");
                free_slots.push(slot);
                state.hand_over(Job::Http(state.release(conn), request));
                continue;
            };
            // Drain complete frames from the read buffer.
            let mut consumed = 0;
            loop {
                match parse_frame(&conn.rbuf[consumed..], crate::frame::MAX_FRAME_BYTES) {
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        handle_frame(&state, &**service, conn, slot, frame, now);
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
                let conn = entry.take().expect("the slot just reaped");
                let _ = state.release(conn).shutdown(Shutdown::Both);
                free_slots.push(slot);
            }
        }
    }

    // Shutdown: close every connection, then stop the worker set.
    for conn in conns.into_iter().flatten() {
        let _ = state.release(conn).shutdown(Shutdown::Both);
    }
    state.stop_workers();
}

/// Routes one parsed frame: handshake transitions, inline pongs and
/// cheap answers, or a job for the worker set (with its deadline armed).
fn handle_frame(
    state: &Arc<LoopState>,
    service: &dyn FrameService,
    conn: &mut EventConn,
    slot: usize,
    frame: crate::frame::Frame,
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
                            name: service.name().to_string(),
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
                    if let Some(reply) = guarded(service, |s| s.answer_inline(&request)) {
                        m.server_inline_answers.inc();
                        conn.enqueue(frame.corr, &reply);
                        return;
                    }
                    conn.handed_over
                        .push_back((frame.corr, now + REQUEST_TIMEOUT));
                    let to = ReplyTo {
                        slot,
                        gen: conn.gen,
                        corr: frame.corr,
                    };
                    state.hand_over(Job::Frame(to, frame.kind, request));
                }
                // A whole frame of a kind this build has no row for left
                // the stream intact: refused, and the connection serves on.
                Err(_) if !Message::knows(frame.kind) => {
                    conn.enqueue(frame.corr, &refusal(service, frame.kind));
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
fn refusal(service: &dyn FrameService, kind: u8) -> Message {
    let detail = format!("{} does not serve message kind {kind}", service.name());
    Message::Error { detail }
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

/// The postings a search's terms may hold in this engine's index for
/// the loop to answer it inline (the loop answers searches and pings
/// only). A search costs what it reads: the benchmark's engines read
/// ≈ 134 postings in ≈ 5 µs, so 1 024 take ≈ 40 µs — the
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
    /// it answers searches only, and gets `None` — hand it over — for a
    /// query text over [`INLINE_QUERY_BYTES`], one holding
    /// [`INLINE_POSTINGS`] or more, and for the kinds whose cost the
    /// request does not bound (an oracle batch, the whole
    /// representative).
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
            Message::GetRepresentative if !inline => {
                let repr = Representative::build(engine.collection());
                let record = EngineRecord::of_engine(&self.name, &engine, repr);
                Message::Representative {
                    snapshot: Arc::new(record),
                }
            }
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

    /// Panics on `SearchDocs` when the loop asks and on
    /// `GetRepresentative` when a worker does; echoes `RemoveEngine`.
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
                Message::SearchDocs { .. } => panic!("inline"),
                _ => None,
            }
        }
    }

    /// Holds every handed-over request until the test sets its flag, or
    /// a minute passes.
    struct Sleepy(AtomicBool);

    impl FrameService for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }

        fn handle(&self, _request: Message) -> Option<Message> {
            let since = Instant::now();
            while !self.0.load(Ordering::SeqCst) && since.elapsed() < Duration::from_secs(60) {
                std::thread::sleep(Duration::from_millis(1));
            }
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
        let server = LoopServer::bind(Arc::new(Oversize), "127.0.0.1:0", ServerConfig::default())
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
        let server = LoopServer::bind(
            Arc::new(Panicky),
            "127.0.0.1:0",
            ServerConfig { workers: 1 },
        )
        .expect("binding");
        let mut stream = connected(server.addr());

        // Inline, handed over, and a ping pipelined behind both.
        let search = Message::SearchDocs {
            query: "q".into(),
            threshold: 0.1,
        };
        send(&mut stream, 1, &search);
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
        let sleepy = Arc::new(Sleepy(AtomicBool::new(false)));
        let server = LoopServer::bind(sleepy.clone(), "127.0.0.1:0", ServerConfig { workers: 1 })
            .expect("binding");
        let mut stream = connected(server.addr());
        let timeout = Some(REQUEST_TIMEOUT * 2);
        stream.set_read_timeout(timeout).expect("read timeout");

        // Nothing else crosses the connection while the worker holds it.
        let sent = Instant::now();
        send(&mut stream, 1, &Message::GetRepresentative);
        let reply = read_frame(&mut stream);
        let took = sent.elapsed();
        sleepy.0.store(true, Ordering::SeqCst);
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
