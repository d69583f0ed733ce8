//! Federation over the wire: the back-end [`ReplicaServer`] and the
//! front-door-side [`RemoteReplica`] client.
//!
//! `seu_metasearch::FrontDoor` speaks to its back-end broker replicas
//! through the [`ReplicaClient`] trait. In process that is
//! `LocalReplica`; this module makes the split literal with the same
//! frame protocol the engine transport uses — message kinds 19–31 of
//! [`crate::wire`]:
//!
//! * **[`ReplicaServer`]** puts one broker on a socket as a federation
//!   replica: it answers subset plans and subset searches for the
//!   engines it holds, and the engine-lifecycle orders (install /
//!   remove / export) the front-door's rebalance path sends. An install
//!   goes through the same table as an in-process replica's,
//!   `LocalReplica::install_with`, with one addition: it may dial an
//!   engine endpoint (a [`RemoteEngine`] transport). A shipped
//!   [`EngineRecord`] hydrates planning state without
//!   re-registration; an endpoint makes the replica dial the engine
//!   itself, so its estimates stay **bit-identical** to every other
//!   replica's — both paths plan from the same full-precision
//!   statistics. A refused install leaves nothing behind.
//!   The server is the crate's one readiness loop
//!   ([`crate::server`]) around a replica service, and its worker
//!   count ([`ServerConfig::workers`]) is the replica's capacity: how
//!   many requests it plans and dispatches at once.
//! * **[`RemoteReplica`]** implements [`ReplicaClient`] over the same
//!   pipelined connection code as [`RemoteEngine`], so a
//!   front-door treats a process across the wire exactly like an
//!   in-process replica: same placement, same failover, same typed
//!   [`TransportError`] capture when the replica dies mid-dispatch.
//!   Its subset plan (kinds 30/31) is a call in two halves (request
//!   written at the begin, reply awaited at the finish), which is what
//!   lets the front-door ask all the replicas of an attempt before it
//!   waits for the first; the plan carries the request's policy, `TopK`
//!   included, so a replica searches its own picks in the same call.
//!   The subset search (kinds 19/20) is one blocking call that no front
//!   door makes.
//!
//! The module also wires [`FrontDoor`] into the HTTP admin server by
//! implementing [`BrokerAdmin`] for it, so `seu front-door` serves the
//! same `/healthz`, `/engines`, `/metrics`, and `/search` routes a
//! single broker does.

use crate::client::{unexpected, MuxClient, RemoteEngine, RemoteEngineConfig};
use crate::frame::io_error;
use crate::http::BrokerAdmin;
use crate::metrics::metrics;
use crate::server::{FrameService, LoopServer, ServerConfig};
use crate::wire::Message;
use seu_metasearch::federation::{
    EngineSource, InstallSpec, LocalReplica, ReplicaClient, SubsetAnswer, SubsetResults,
};
use seu_metasearch::{
    Broker, CacheStats, EngineRecord, EngineStatus, FrontDoor, Pending, RegistrySnapshot,
    RemoteTransport, SearchRequest, SharedResponse, TransportError,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// One broker on a socket as a federation replica (kinds 19–31);
/// serving stops when dropped.
pub struct ReplicaServer {
    server: LoopServer,
}

impl ReplicaServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `broker` as the
    /// replica advertised as `id`, with default capacity.
    pub fn bind(
        id: &str,
        broker: Arc<Broker>,
        addr: impl ToSocketAddrs,
    ) -> Result<ReplicaServer, TransportError> {
        ReplicaServer::bind_with(id, broker, addr, ServerConfig::default())
    }

    /// [`ReplicaServer::bind`] with explicit capacity: the replica
    /// answers at most [`ServerConfig::workers`] requests at once and
    /// queues the rest.
    pub fn bind_with(
        id: &str,
        broker: Arc<Broker>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<ReplicaServer, TransportError> {
        let service = Arc::new(ReplicaService {
            id: id.to_string(),
            replica: LocalReplica::new(broker),
        });
        LoopServer::bind(service, addr, config)
            .map(|server| ReplicaServer { server })
            .map_err(|e| io_error(&e, "binding replica"))
    }

    /// The advertised replica id.
    pub fn id(&self) -> &str {
        self.server.name()
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops accepting, severs every live connection (in-flight calls on
    /// them fail with [`TransportErrorKind::ConnectionLost`] on the
    /// caller's side), and joins the loop and its parked workers. This is
    /// the "kill a replica" primitive the fault-injection suite uses.
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

impl std::fmt::Debug for ReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("id", &self.id())
            .field("addr", &self.addr())
            .finish()
    }
}

/// The [`FrameService`] over one replica broker.
struct ReplicaService {
    id: String,
    replica: LocalReplica,
}

impl FrameService for ReplicaService {
    fn name(&self) -> &str {
        &self.id
    }

    fn handle(&self, request: Message) -> Option<Message> {
        let replica = &self.replica;
        let reply = match request {
            Message::ReplicaPlan {
                query,
                threshold,
                engines,
                policy,
            } => replica
                .begin_plan_subset(&query, threshold, &engines, policy)
                .finish(None)
                .map(|answer| Message::ReplicaPlanResults {
                    rows: answer.rows,
                    hits: answer.searched.hits,
                    stats: answer.searched.stats,
                }),
            Message::ReplicaSearch {
                query,
                threshold,
                engines,
            } => replica.search_subset(&query, threshold, &engines).map(|r| {
                Message::ReplicaSearchResults {
                    hits: r.hits,
                    stats: r.stats,
                }
            }),
            Message::InstallEngine {
                name,
                snapshot,
                endpoint,
            } => {
                let source = endpoint.map(|endpoint| EngineSource::Remote { endpoint });
                let spec = InstallSpec {
                    name: name.clone(),
                    source,
                    snapshot,
                };
                replica
                    .install_with(spec, Some(&dial))
                    .map(|()| Message::InstallAck { name })
            }
            Message::RemoveEngine { name } => replica
                .remove_engine(&name)
                .map(|removed| Message::RemoveAck { removed }),
            Message::ExportEngine { name } => replica
                .export_engine(&name)
                .map(|snapshot| Message::Representative { snapshot }),
            _ => return None,
        };
        metrics().replica_requests.inc();
        // A broker-side failure is the caller's typed `Remote` error,
        // in band on its own correlation id.
        Some(reply.unwrap_or_else(|e| Message::Error {
            detail: e.to_string(),
        }))
    }
}

/// The wire replica's [`Dial`](seu_metasearch::federation::Dial).
fn dial(endpoint: &str) -> Result<Arc<dyn RemoteTransport>, TransportError> {
    Ok(Arc::new(RemoteEngine::new(endpoint)?))
}

/// A [`ReplicaClient`] for a [`ReplicaServer`] across the wire: the same
/// pipelined connection a [`RemoteEngine`] uses, shared across clones. Failures surface as typed [`TransportError`]s (the
/// front-door's breaker and failover logic consumes them as-is).
#[derive(Debug, Clone)]
pub struct RemoteReplica {
    client: Arc<MuxClient>,
}

impl RemoteReplica {
    /// Creates a client for the replica at `addr` with default timeouts.
    /// Resolution happens here; connections are dialed lazily.
    pub fn new(addr: impl ToSocketAddrs) -> Result<RemoteReplica, TransportError> {
        // No retries: a replica that refuses or drops the call is the
        // front-door's cue to fail over along the ring, not to wait.
        // (The one transparent resend after a stale socket is not
        // charged as a retry and still applies.)
        let config = RemoteEngineConfig {
            retries: 0,
            ..RemoteEngineConfig::default()
        };
        Ok(RemoteReplica {
            client: MuxClient::resolve(addr, config)?,
        })
    }
}

impl ReplicaClient for RemoteReplica {
    fn ping(&self) -> Result<(), TransportError> {
        self.client.ping()
    }

    fn search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<SubsetResults, TransportError> {
        let request = Message::ReplicaSearch {
            query: query.to_string(),
            threshold,
            engines: engines.to_vec(),
        };
        match self.client.call(&request)? {
            Message::ReplicaSearchResults { hits, stats } => Ok(SubsetResults { hits, stats }),
            other => Err(unexpected("ReplicaSearchResults", &other)),
        }
    }

    fn begin_plan_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
        policy: Option<seu_metasearch::SelectionPolicy>,
    ) -> Box<dyn Pending<SubsetAnswer>> {
        let request = Message::ReplicaPlan {
            query: query.to_string(),
            threshold,
            engines: engines.to_vec(),
            policy,
        };
        self.client.ask(&request, |reply, _| match reply {
            Message::ReplicaPlanResults { rows, hits, stats } => Ok(SubsetAnswer {
                rows,
                searched: SubsetResults { hits, stats },
            }),
            other => Err(unexpected("ReplicaPlanResults", &other)),
        })
    }

    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError> {
        // The snapshot and the endpoint cross the wire as given; an
        // in-process engine cannot. The replica's install table decides
        // with what arrives, and refuses an order with neither.
        let endpoint = spec
            .source
            .as_ref()
            .and_then(|s| s.endpoint())
            .map(String::from);
        match self.client.call(&Message::InstallEngine {
            name: spec.name.clone(),
            snapshot: spec.snapshot.clone(),
            endpoint,
        })? {
            Message::InstallAck { .. } => Ok(()),
            other => Err(unexpected("InstallAck", &other)),
        }
    }

    fn remove_engine(&self, name: &str) -> Result<bool, TransportError> {
        match self.client.call(&Message::RemoveEngine {
            name: name.to_string(),
        })? {
            Message::RemoveAck { removed } => Ok(removed),
            other => Err(unexpected("RemoveAck", &other)),
        }
    }

    fn export_engine(&self, name: &str) -> Result<Arc<EngineRecord>, TransportError> {
        match self.client.call(&Message::ExportEngine {
            name: name.to_string(),
        })? {
            Message::Representative { snapshot } => Ok(snapshot),
            other => Err(unexpected("Representative", &other)),
        }
    }
}

impl BrokerAdmin for FrontDoor {
    fn engine_statuses(&self) -> Vec<EngineStatus> {
        FrontDoor::engine_statuses(self)
    }

    fn search(&self, request: &SearchRequest) -> SharedResponse {
        self.execute(request).into()
    }

    fn registry_snapshot(&self) -> RegistrySnapshot {
        FrontDoor::registry_snapshot(self)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        // The front-door owns no query cache; its replicas each run
        // their own.
        None
    }
}
