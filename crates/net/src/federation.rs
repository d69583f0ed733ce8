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
//!   remove / export) the front-door's rebalance path sends. Installs
//!   that ship an [`EngineSnapshot`] hydrate planning state without
//!   re-registration; installs that name an engine endpoint make the
//!   replica dial the engine itself (a [`RemoteEngine`] transport), so
//!   its estimates stay **bit-identical** to every other replica's —
//!   both paths plan from the same shipped full-precision statistics.
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
use crate::server::{FrameServer, FrameService, ServerConfig};
use crate::wire::Message;
use seu_core::UsefulnessEstimator;
use seu_metasearch::federation::{
    InstallSpec, LocalReplica, ReplicaClient, SubsetAnswer, SubsetResults,
};
use seu_metasearch::{
    Broker, CacheStats, EngineEstimate, EngineSnapshot, EngineStatus, FrontDoor, Pending,
    RegistrySnapshot, SearchRequest, SearchResponse, TransportError, TransportErrorKind,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// One broker on a socket as a federation replica (kinds 19–31);
/// serving stops when dropped.
pub struct ReplicaServer {
    server: FrameServer,
}

impl ReplicaServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `broker` as the
    /// replica advertised as `id`, with default capacity.
    pub fn bind<E>(
        id: &str,
        broker: Arc<Broker<E>>,
        addr: impl ToSocketAddrs,
    ) -> Result<ReplicaServer, TransportError>
    where
        E: UsefulnessEstimator + Send + Sync + 'static,
    {
        ReplicaServer::bind_with(id, broker, addr, ServerConfig::default())
    }

    /// [`ReplicaServer::bind`] with explicit capacity: the replica
    /// answers at most [`ServerConfig::workers`] requests at once and
    /// queues the rest.
    pub fn bind_with<E>(
        id: &str,
        broker: Arc<Broker<E>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<ReplicaServer, TransportError>
    where
        E: UsefulnessEstimator + Send + Sync + 'static,
    {
        let service = Arc::new(ReplicaService {
            id: id.to_string(),
            replica: LocalReplica::new(broker),
        });
        FrameServer::bind(service, addr, config)
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
    /// caller's side), and joins the serving threads. This is the "kill
    /// a replica" primitive the fault-injection suite uses.
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
struct ReplicaService<E> {
    id: String,
    replica: LocalReplica<E>,
}

impl<E> FrameService for ReplicaService<E>
where
    E: UsefulnessEstimator + Send + Sync + 'static,
{
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
            } => install_engine(replica, &name, snapshot, endpoint)
                .map(|()| Message::InstallAck { name }),
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

/// The replica-side install: idempotent on the name. A shipped snapshot
/// hydrates planning state directly (the rebalance path — no
/// re-registration round trip to the engine); when the engine also has
/// a live endpoint the replica dials it so searches dispatch. An
/// endpoint alone falls back to full remote registration (the replica
/// fetches the snapshot from the engine itself — same bytes, since the
/// engine serves its snapshot full-precision).
fn install_engine<E>(
    replica: &LocalReplica<E>,
    name: &str,
    snapshot: Option<EngineSnapshot>,
    endpoint: Option<String>,
) -> Result<(), TransportError>
where
    E: UsefulnessEstimator + Send + Sync + 'static,
{
    let broker = replica.broker();
    if broker.engine_names().iter().any(|n| n == name) {
        return Ok(());
    }
    match (snapshot, endpoint) {
        (Some(snapshot), endpoint) => {
            if snapshot.name != name {
                return Err(TransportError::new(
                    TransportErrorKind::Protocol,
                    format!(
                        "install for {name:?} shipped a snapshot of {:?}",
                        snapshot.name
                    ),
                ));
            }
            broker.install_snapshot(snapshot, None, endpoint.clone())?;
            if let Some(endpoint) = endpoint {
                let transport = RemoteEngine::new(endpoint.as_str())?;
                broker.attach_remote(Arc::new(transport))?;
            }
            Ok(())
        }
        (None, Some(endpoint)) => {
            let transport = RemoteEngine::new(endpoint.as_str())?;
            let registered = broker.register_remote(Arc::new(transport))?;
            if registered != name {
                broker.deregister(&registered);
                return Err(TransportError::new(
                    TransportErrorKind::Protocol,
                    format!("engine at {endpoint} advertises {registered:?}, not {name:?}"),
                ));
            }
            Ok(())
        }
        (None, None) => Err(TransportError::new(
            TransportErrorKind::Protocol,
            "install needs a snapshot or an endpoint",
        )),
    }
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

    fn estimate_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<Vec<EngineEstimate>, TransportError> {
        self.begin_plan_subset(query, threshold, engines, None)
            .finish(None)?
            .estimates(engines)
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
        // In-process engine handles cannot cross the wire; ship their
        // snapshot instead (identical statistics, so estimates stay
        // bit-identical — the engine just cannot serve live searches
        // from that replica).
        use seu_metasearch::federation::EngineSource;
        let snapshot = match (&spec.snapshot, &spec.source) {
            (Some(snapshot), _) => Some(snapshot.clone()),
            (None, Some(EngineSource::Local(engine))) => {
                Some(EngineSnapshot::of_engine(&spec.name, engine))
            }
            _ => None,
        };
        let endpoint = spec
            .source
            .as_ref()
            .and_then(|s| s.endpoint())
            .map(String::from);
        if snapshot.is_none() && endpoint.is_none() {
            return Err(TransportError::new(
                TransportErrorKind::Protocol,
                "install needs a snapshot or an endpoint",
            ));
        }
        match self.client.call(&Message::InstallEngine {
            name: spec.name.clone(),
            snapshot,
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

    fn export_engine(&self, name: &str) -> Result<EngineSnapshot, TransportError> {
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

    fn search(&self, request: &SearchRequest) -> SearchResponse {
        self.execute(request)
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
