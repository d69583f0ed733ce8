//! The `net_*` instrument family: traffic, RPC latency, retries, and
//! push-invalidation counters for the TCP transport and the HTTP admin
//! server.
//!
//! Everything lives in the process-global [`seu_obs`] registry, so a
//! `GET /metrics` scrape of the admin server exposes the broker's
//! `broker_*` family and this crate's `net_*` family side by side.

use std::sync::{Arc, OnceLock};

/// Instrument handles cached once per process.
pub(crate) struct NetMetrics {
    /// Frame bytes written to sockets (header + payload), both sides.
    pub(crate) bytes_sent: Arc<seu_obs::Counter>,
    /// Frame bytes read from sockets (header + payload), both sides.
    pub(crate) bytes_received: Arc<seu_obs::Counter>,
    /// Frames written.
    pub(crate) frames_sent: Arc<seu_obs::Counter>,
    /// Frames read.
    pub(crate) frames_received: Arc<seu_obs::Counter>,
    /// Client-side wall-clock per remote call **attempt** (send to the
    /// reply's read). Backoff sleeps between retries are excluded so the
    /// histogram measures the wire, not the retry policy.
    pub(crate) rpc_latency: Arc<seu_obs::Histogram>,
    /// Client call attempts that were retried after a transient failure.
    pub(crate) client_retries: Arc<seu_obs::Counter>,
    /// Client calls that ended in a deadline miss.
    pub(crate) client_timeouts: Arc<seu_obs::Counter>,
    /// Client calls that ended in any non-timeout transport failure.
    pub(crate) client_failures: Arc<seu_obs::Counter>,
    /// Invalidation notices pushed by engine servers.
    pub(crate) push_notices_sent: Arc<seu_obs::Counter>,
    /// Invalidation notices received by subscribed clients.
    pub(crate) push_notices_received: Arc<seu_obs::Counter>,
    /// Connections accepted by event-loop servers (all kinds, the HTTP
    /// door's included).
    pub(crate) server_connections: Arc<seu_obs::Counter>,
    /// Request frames served by engine servers.
    pub(crate) server_requests: Arc<seu_obs::Counter>,
    /// Live subscriber connections across all engine servers.
    pub(crate) server_subscribers: Arc<seu_obs::Gauge>,
    /// HTTP requests served by admin servers.
    pub(crate) http_requests: Arc<seu_obs::Counter>,
    /// Worker threads the event loops have started: one per job that
    /// found no worker parked, below its server's cap. An admin server's
    /// start at most as many as connections were open at once since its
    /// workers were last idle for the expiry.
    pub(crate) server_workers_started: Arc<seu_obs::Counter>,
    /// Worker threads of the event loops alive now, busy or parked.
    pub(crate) server_workers_live: Arc<seu_obs::Gauge>,
    /// Traced searches served by engine servers (spans shipped back).
    pub(crate) server_traced_searches: Arc<seu_obs::Counter>,
    /// Pooled connections dialed (TCP connect + handshake completed).
    pub(crate) client_connects: Arc<seu_obs::Counter>,
    /// Reply frames whose correlation id matched no waiting request
    /// (the request already timed out, or the peer misbehaved), counted
    /// when the next call on its connection reads it.
    pub(crate) client_late_replies: Arc<seu_obs::Counter>,
    /// Batched estimate requests served by engine servers.
    pub(crate) server_batch_requests: Arc<seu_obs::Counter>,
    /// Requests the server dropped because their deadline passed before
    /// a worker finished them.
    pub(crate) server_deadline_drops: Arc<seu_obs::Counter>,
    /// Live connections owned by event-loop servers (all kinds).
    pub(crate) server_active_connections: Arc<seu_obs::Gauge>,
    /// Returns of the event loops' `poll(2)` wait, all servers. A loop
    /// that blocks adds a few per request and none while idle.
    pub(crate) server_loop_wakeups: Arc<seu_obs::Counter>,
    /// Requests the loop thread answered itself, no worker involved
    /// (pings apart): cheap searches and estimates of engine servers.
    pub(crate) server_inline_answers: Arc<seu_obs::Counter>,
    /// Federation frames served by replica servers (subset estimates,
    /// subset searches, engine lifecycle).
    pub(crate) replica_requests: Arc<seu_obs::Counter>,
}

pub(crate) fn metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| NetMetrics {
        bytes_sent: seu_obs::counter("net_bytes_sent_total"),
        bytes_received: seu_obs::counter("net_bytes_received_total"),
        frames_sent: seu_obs::counter("net_frames_sent_total"),
        frames_received: seu_obs::counter("net_frames_received_total"),
        rpc_latency: seu_obs::histogram("net_rpc_latency_seconds"),
        client_retries: seu_obs::counter("net_client_retries_total"),
        client_timeouts: seu_obs::counter("net_client_timeouts_total"),
        client_failures: seu_obs::counter("net_client_failures_total"),
        push_notices_sent: seu_obs::counter("net_push_notices_sent_total"),
        push_notices_received: seu_obs::counter("net_push_notices_received_total"),
        server_connections: seu_obs::counter("net_server_connections_total"),
        server_requests: seu_obs::counter("net_server_requests_total"),
        server_subscribers: seu_obs::gauge("net_server_subscribers"),
        http_requests: seu_obs::counter("net_http_requests_total"),
        server_workers_started: seu_obs::counter("net_server_workers_started_total"),
        server_workers_live: seu_obs::gauge("net_server_workers_live"),
        server_traced_searches: seu_obs::counter("net_server_traced_searches_total"),
        client_connects: seu_obs::counter("net_client_connects_total"),
        client_late_replies: seu_obs::counter("net_client_late_replies_total"),
        server_batch_requests: seu_obs::counter("net_server_batch_requests_total"),
        server_deadline_drops: seu_obs::counter("net_server_request_deadline_drops_total"),
        server_active_connections: seu_obs::gauge("net_server_active_connections"),
        server_loop_wakeups: seu_obs::counter("net_server_loop_wakeups_total"),
        server_inline_answers: seu_obs::counter("net_server_inline_answers_total"),
        replica_requests: seu_obs::counter("net_replica_requests_total"),
    })
}

/// Forces creation of the crate's instruments so snapshots and
/// expositions include the whole `net_*` family — zero-valued if the
/// process never touched a socket — instead of a family that appears
/// only after the first frame moves.
pub fn register_metrics() {
    let _ = metrics();
}
