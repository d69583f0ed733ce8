//! `seu-net`: the networked broker — remote engine transport, push
//! invalidation, and an HTTP admin/metrics server.
//!
//! The paper's metasearch architecture (Meng et al., ICDE 1999 §1) is a
//! broker *distinct from* the search engines it brokers: engines expose
//! only compact representatives and per-query results, and the broker
//! estimates usefulness from the representatives alone. Everything in
//! `seu-metasearch` keeps that split as an in-process abstraction; this
//! crate makes it literal with `std::net` TCP — no external
//! networking stack.
//!
//! Four pieces:
//!
//! * **[`EngineServer`]** puts one [`SearchEngine`](seu_engine::SearchEngine)
//!   on a socket behind the crate's one readiness event loop ([`server`]:
//!   one thread blocked in `poll(2)` over its sockets until one is ready
//!   or one of its workers has a reply to send), serving search /
//!   true-usefulness (single or batched) / snapshot requests and pushing
//!   [invalidation notices](wire::Message::InvalidateNotice) to
//!   subscribed brokers when its collection changes.
//! * **[`RemoteEngine`]** is the broker-side client: it implements
//!   [`RemoteTransport`](seu_metasearch::RemoteTransport), so
//!   `Broker::register_remote` treats a process across the wire exactly
//!   like a local engine — same planning, same estimates (byte-identical,
//!   because snapshots ship full-precision f64 statistics), same
//!   dispatch, with transport failures captured per-engine instead of
//!   failing the query. Clones share one connection, and because every
//!   frame carries a correlation id, it pipelines every concurrent
//!   request.
//! * **[`ReplicaServer`]** / **[`RemoteReplica`]** are the federation
//!   endpoints ([`federation`]): a back-end broker on a socket serving
//!   subset estimates, subset searches, and engine-lifecycle orders for
//!   a [`FrontDoor`](seu_metasearch::FrontDoor), and the matching
//!   [`ReplicaClient`](seu_metasearch::ReplicaClient) the front-door
//!   dials — same placement, failover, and bit-identity guarantees as
//!   the in-process cluster. They are the same event loop and the same
//!   client as the engine pair, around a different service.
//! * **[`AdminServer`]** is a minimal HTTP/1.1 server over a broker, the
//!   same event loop over an HTTP listener:
//!   `GET /metrics` (Prometheus exposition of the process-global
//!   [`seu_obs`] registry), `GET /healthz`, `GET /engines`,
//!   `POST /search` (with an inline span tree under `"explain"`), and
//!   `GET /traces` for retained request traces.
//!
//! The wire format is a length-prefixed binary framing ([`frame`]) with
//! a small fixed message vocabulary ([`wire`]); every length read off
//! the wire is validated before allocation, and malformed traffic
//! surfaces as typed
//! [`TransportError`](seu_metasearch::TransportError)s.
//!
//! **Unix only, one `unsafe` block.** std offers no wait over several
//! sockets and no `libc` crate is vendored, so the crate declares
//! `poll(2)` itself: the private `poll` module holds that one foreign
//! declaration and the single `unsafe` block that calls it, behind a
//! safe function. The crate denies `unsafe_code` everywhere else, and
//! the module refuses to compile off unix — there is no fallback loop.
//!
//! # Loopback example
//!
//! ```
//! use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
//! use seu_metasearch::Broker;
//! use seu_net::{EngineServer, RemoteEngine};
//! use seu_core::SubrangeEstimator;
//! use seu_text::Analyzer;
//! use std::sync::Arc;
//!
//! let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
//! b.add_document("d0", "estimating search engine usefulness");
//! let server = EngineServer::bind("demo", SearchEngine::new(b.build()), "127.0.0.1:0").unwrap();
//!
//! let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
//! let client = RemoteEngine::new(server.addr()).unwrap();
//! let name = broker.register_remote(Arc::new(client)).unwrap();
//! assert_eq!(name, "demo");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod federation;
pub mod frame;
pub mod http;
mod metrics;
#[allow(unsafe_code)]
mod poll;
pub mod server;
pub mod wire;

pub use client::{RemoteEngine, RemoteEngineConfig, Subscription};
pub use federation::{RemoteReplica, ReplicaServer};
pub use http::{AdminServer, BrokerAdmin};
pub use metrics::register_metrics;
pub use server::{EngineServer, ServerConfig};

use seu_metasearch::{Broker, TransportError};
use std::sync::{Arc, Weak};

/// Registers a remote engine with `broker` **and** wires a push
/// subscription so collection changes on the engine side reach the
/// broker as [`Broker::apply_invalidation`] calls — no staleness sweep
/// required. Returns the advertised engine name and the live
/// [`Subscription`] (dropping it stops the push flow; the registration
/// stays).
///
/// The subscription holds only a [`Weak`] broker reference, so it never
/// keeps a dropped broker alive.
pub fn register_and_subscribe(
    broker: &Arc<Broker>,
    client: RemoteEngine,
) -> Result<(String, Subscription), TransportError> {
    let name = broker.register_remote(Arc::new(client.clone()))?;
    let weak: Weak<Broker> = Arc::downgrade(broker);
    let subscription = client.subscribe_with(move |name, fingerprint, _epoch| {
        if let Some(broker) = weak.upgrade() {
            let _ = broker.apply_invalidation(name, fingerprint);
        }
    })?;
    Ok((name, subscription))
}
