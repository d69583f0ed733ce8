//! The front-door broker: global planning over back-end broker
//! replicas.
//!
//! A [`FrontDoor`] owns no engines. It places every registered engine
//! name onto back-end replicas via the consistent-hash
//! [`Ring`](super::Ring) (the first `replication` candidates hold the
//! engine: a primary plus standbys), and serves a request with one round
//! trip per replica, whatever the policy:
//!
//! 1. **Estimate, pick & search** — ask each replica about the engines
//!    it holds (primary assignment), named in cluster registration
//!    order — every replica is asked before any is waited for, and a
//!    replica consults only the engines it is asked about — failing over
//!    along each engine's ring candidate chain when a replica refuses or
//!    errors. A replica answers with the rows of the engines holding a
//!    query term, each at its position in the request, and searches the
//!    rows the request's [`SelectionPolicy`] picks from them. Whether an
//!    engine has a row, and its estimate, depend only on the engine's
//!    representative and the query, not on which broker computes them,
//!    so the reassembled global rows are bit-identical to a single
//!    broker's.
//! 2. **Select & merge** — apply the policy *globally* over the
//!    reassembled rows (in global registration order, so index
//!    tie-breaks match a single broker exactly) and merge the chosen
//!    engines' hits. Every chosen engine was searched in step 1: a
//!    policy that decides each engine from its own estimate picks the
//!    same engines from any split of the rows, and a replica ranks its
//!    rows for `TopK` in the global tie order (NoDoc, AvgSim, position),
//!    so an engine's rank among its replica's rows is at most its global
//!    rank: a replica's top k holds every engine of the global top k it
//!    was asked about. [`merge_results`] is order-independent, so the
//!    merged ranking is bit-identical too.
//!
//! Every replica sits behind a [`CircuitBreaker`]; a replica that fails
//! is skipped locally once its breaker opens, and the engines it held
//! are served by their standbys. What could not be served anywhere is
//! reported — not silently dropped — as `Failed` rows in
//! [`SearchResponse::per_engine_stats`] and as typed per-replica
//! failures in the [`FederationReport`].
//!
//! The front door does each of its jobs one way. A replica is asked
//! through [`ReplicaClient::begin_plan_subset`] only, which every client
//! implements itself. An engine is placed by one reconcile step,
//! whether it is being registered or moved by a rebalance: a new holder
//! is sent the record a live holder exports, or the engine's source
//! alone, and the front door builds no record itself. And a request
//! ends as a broker's does, through the same epilogue: its trace is
//! closed, and a slow request writes the `slow_query` line.

use crate::broker::{Broker, EngineEstimate, MergedHit};
use crate::cache::{Answer, CacheMode};
use crate::dispatch::finish_request;
use crate::federation::health::{BreakerState, CircuitBreaker, Clock, SystemClock};
use crate::federation::metrics;
use crate::federation::placement::{Ring, DEFAULT_VNODES};
use crate::federation::rebalance::{diff_placement, Move, RebalanceReport};
use crate::merge::merge_results;
use crate::registry::{EngineStatus, RegistrySnapshot};
use crate::remote::{Pending, RemoteTransport, TransportError, TransportErrorKind};
use crate::request::{
    DispatchOutcome, EngineDispatchStats, SearchRequest, SearchResponse, SharedResponse, StaleMode,
};
use crate::selection::SelectionPolicy;
use parking_lot::RwLock;
use seu_core::Usefulness;
use seu_engine::SearchEngine;
use seu_obs::{ActiveTrace, SpanGuard};
use seu_store::EngineRecord;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Where a federated engine's live search capability comes from.
#[derive(Clone)]
pub enum EngineSource {
    /// An in-process engine, shared by handle (the conformance path —
    /// the same `Arc` can be installed on several replicas).
    Local(Arc<SearchEngine>),
    /// An engine served elsewhere over the frame protocol; replicas
    /// attach to it through their own transport.
    Remote {
        /// `host:port` of the engine's `serve-engine` listener.
        endpoint: String,
    },
}

impl std::fmt::Debug for EngineSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSource::Local(_) => f.write_str("EngineSource::Local(..)"),
            EngineSource::Remote { endpoint } => {
                write!(f, "EngineSource::Remote({endpoint})")
            }
        }
    }
}

impl EngineSource {
    /// The remote endpoint, when there is one.
    pub fn endpoint(&self) -> Option<&str> {
        match self {
            EngineSource::Local(_) => None,
            EngineSource::Remote { endpoint } => Some(endpoint),
        }
    }
}

/// One engine install order for a replica: at least one of `source`
/// (live dispatch capability) or `snapshot` (planning metadata — a move
/// ships the record a live holder exported, so the receiving replica
/// hydrates without re-registration).
#[derive(Debug, Clone)]
pub struct InstallSpec {
    /// Engine name (global registration key).
    pub name: String,
    /// Live search capability, when the front-door has one on record.
    pub source: Option<EngineSource>,
    /// The engine's record, when a live holder exported one.
    pub snapshot: Option<Arc<EngineRecord>>,
}

/// What a replica returns for a subset search: its merged hits above
/// the threshold plus per-engine dispatch accounting, in request order.
#[derive(Debug, Clone, Default)]
pub struct SubsetResults {
    /// The replica's merged hits (the front-door re-merges across
    /// replicas; [`merge_results`] is order-independent, so merging
    /// merged lists loses nothing).
    pub hits: Vec<MergedHit>,
    /// Per requested engine: hit count, latency, outcome.
    pub stats: Vec<EngineDispatchStats>,
}

/// Why an answer's rows are refused.
const OUT_OF_ORDER: &str = "replica answered a row out of request order";

/// What a replica returns for [`ReplicaClient::begin_plan_subset`].
#[derive(Debug, Clone)]
pub struct SubsetAnswer {
    /// One row per named engine that holds a query term: its position in
    /// the request (the caller holds the names) and its estimate, in
    /// request order. A named engine without a row holds no query term;
    /// its estimate is `(0, 0)` (paper Prop. 1).
    pub rows: Vec<(usize, Usefulness)>,
    /// The merged hits and stats of the engines the policy picked.
    pub searched: SubsetResults,
}

impl SubsetAnswer {
    /// Each of `n` named engines' estimate, `None` for one without a
    /// row; a row out of request order, or past its end, is refused.
    pub fn by_position(&self, n: usize) -> Result<Vec<Option<Usefulness>>, TransportError> {
        let mut named = vec![None; n];
        let mut next = 0;
        for &(at, usefulness) in &self.rows {
            if at < next || at >= n {
                return Err(protocol_error(OUT_OF_ORDER));
            }
            named[at] = Some(usefulness);
            next = at + 1;
        }
        Ok(named)
    }

    /// The rows as estimates, under the names asked for.
    pub fn estimates(self, engines: &[String]) -> Result<Vec<EngineEstimate>, TransportError> {
        let named = engines.iter().zip(self.by_position(engines.len())?);
        let estimate = |(engine, usefulness): (&String, Option<Usefulness>)| {
            let engine = engine.clone();
            usefulness.map(|usefulness| EngineEstimate { engine, usefulness })
        };
        Ok(named.filter_map(estimate).collect())
    }
}

/// The rows `policy` picks from their estimates; none without one.
fn picks(policy: Option<SelectionPolicy>, usefulness: &[Usefulness]) -> Vec<usize> {
    policy.map_or_else(Vec::new, |p| p.select(usefulness))
}

/// An engine's hits and stats row, if its replica searched it.
type Searched = Option<(Vec<MergedHit>, EngineDispatchStats)>;

/// A replica's merged hits and stats split by engine, one entry per name.
fn split_by_engine(
    results: SubsetResults,
    names: &[String],
) -> impl Iterator<Item = Searched> + '_ {
    let stats = results.stats.into_iter().map(|s| (s.engine.clone(), s));
    let mut stats: HashMap<String, EngineDispatchStats> = stats.collect();
    let mut hits: HashMap<String, Vec<MergedHit>> = HashMap::new();
    for hit in results.hits {
        hits.entry(hit.engine.clone()).or_default().push(hit);
    }
    let split = move |n| Some((hits.remove(n).unwrap_or_default(), stats.remove(n)?));
    names.iter().map(split)
}

/// The calls a front-door makes of one back-end broker replica.
///
/// Implemented in-process by [`LocalReplica`] (the conformance path)
/// and over the frame protocol by `seu-net`'s `RemoteReplica`. The
/// front-door makes one call a request, [`Self::begin_plan_subset`], in
/// two halves, so it asks every replica of an attempt before it waits
/// for any. Every client answers it itself: there is no second way to
/// plan a subset.
pub trait ReplicaClient: Send + Sync {
    /// Liveness probe.
    fn ping(&self) -> Result<(), TransportError>;
    /// One round trip: the named engines' rows, and the search of those
    /// `policy` picks from them. Asks now, answers at
    /// [`Pending::finish`].
    fn begin_plan_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
        policy: Option<SelectionPolicy>,
    ) -> Box<dyn Pending<SubsetAnswer>>;
    /// The estimates of the named engines that hold a query term — the
    /// rows, in request order, under their names; every other named
    /// engine's estimate is `(0, 0)`. A subset plan that picks nothing.
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
    /// Search the named engines that hold a query term (no other can
    /// find anything) and merge their hits above the threshold.
    fn search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<SubsetResults, TransportError>;
    /// Installs (or re-installs) an engine on this replica.
    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError>;
    /// Removes an engine; `Ok(false)` when the name was unknown.
    fn remove_engine(&self, name: &str) -> Result<bool, TransportError>;
    /// Exports an engine's record (for shipping to another replica).
    fn export_engine(&self, name: &str) -> Result<Arc<EngineRecord>, TransportError>;
}

/// A [`ReplicaClient`] over an in-process [`Broker`] — the loopback of
/// federation, and what the bit-identity conformance suite runs
/// against.
pub struct LocalReplica {
    broker: Arc<Broker>,
}

/// The entries of `sorted` — a request's names in name order, each with
/// its position in the request — that name `name`.
fn positions<'a, 'n>(sorted: &'a [(&'n str, usize)], name: &str) -> &'a [(&'n str, usize)] {
    let from = sorted.partition_point(|&(n, _)| n < name);
    let to = sorted.partition_point(|&(n, _)| n <= name);
    &sorted[from..to]
}

fn protocol_error(detail: impl Into<String>) -> TransportError {
    TransportError::new(TransportErrorKind::Protocol, detail)
}

/// Opens a transport to the engine at an endpoint: the one install step
/// seu-metasearch cannot take itself (see [`LocalReplica::install_with`]).
pub type Dial = dyn Fn(&str) -> Result<Arc<dyn RemoteTransport>, TransportError>;

impl LocalReplica {
    /// Wraps a broker.
    pub fn new(broker: Arc<Broker>) -> LocalReplica {
        LocalReplica { broker }
    }

    /// The wrapped broker.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// The one install table, for the in-process replica and the wire
    /// one alike. The wire replica passes a [`Dial`] (seu-net's
    /// `RemoteEngine::new`); the in-process one passes `None`:
    ///
    /// | order | without `dial` | with `dial` |
    /// |---|---|---|
    /// | name already held | `Ok`, no-op | `Ok`, no-op |
    /// | snapshot + in-process engine | installed live | — |
    /// | snapshot + endpoint | installed detached, endpoint recorded | installed, dialed, attached |
    /// | snapshot alone | installed detached | installed detached |
    /// | in-process engine alone | registered | — |
    /// | endpoint alone | refused: cannot dial | dialed, registered remote |
    /// | neither | refused | refused |
    ///
    /// A snapshot named other than the order is refused, and so is a
    /// dialed engine that advertises another name, both before anything
    /// is registered. All or nothing: an attach that fails deregisters
    /// what this call registered.
    pub fn install_with(
        &self,
        spec: InstallSpec,
        dial: Option<&Dial>,
    ) -> Result<(), TransportError> {
        let (broker, name) = (&self.broker, spec.name.as_str());
        if broker.contains(name) {
            return Ok(()); // idempotent: already holding it
        }
        let named = |what: String, advertised: &str| {
            if advertised == name {
                return Ok(());
            }
            let why = format!("install for {name:?}: {what} is {advertised:?}");
            Err(protocol_error(why))
        };
        if let Some(snapshot) = &spec.snapshot {
            named("the shipped snapshot".into(), &snapshot.name)?;
        }
        let (engine, endpoint) = match &spec.source {
            Some(EngineSource::Local(engine)) => (Some(engine.clone()), None),
            Some(EngineSource::Remote { endpoint }) => (None, Some(endpoint.as_str())),
            None => (None, None),
        };
        // The dialed engine and the snapshot it advertises.
        let dialed = match (endpoint, dial) {
            (Some(endpoint), Some(dial)) => {
                let transport = dial(endpoint)?;
                let fetched = transport.fetch_snapshot()?;
                named(format!("the engine at {endpoint}"), &fetched.name)?;
                Some((transport, fetched))
            }
            _ => None,
        };
        match (spec.snapshot, engine, dialed) {
            (Some(snapshot), engine, None) => {
                broker.install_snapshot(snapshot, engine, endpoint.map(String::from))?;
            }
            (Some(snapshot), _, Some((transport, fetched))) => {
                broker.install_snapshot(snapshot, None, endpoint.map(String::from))?;
                if let Err(e) = broker.attach_fetched(transport, fetched) {
                    broker.deregister(name);
                    return Err(e);
                }
            }
            (None, Some(engine), _) => broker.register_shared(name, engine),
            (None, None, Some((transport, fetched))) => {
                broker.register_fetched(transport, fetched)?;
            }
            (None, None, None) => {
                return Err(protocol_error(match endpoint {
                    Some(endpoint) => {
                        format!("in-process replica cannot dial {endpoint}; ship a snapshot")
                    }
                    None => "install needs a source or a snapshot".to_string(),
                }));
            }
        }
        Ok(())
    }

    /// Plans the rows of the named engines and no others, once —
    /// estimated, or with `estimate` off only translated — and
    /// dispatches the rows `policy` [`picks`], replanning when a
    /// concurrent lifecycle event makes the plan stale between planning
    /// and dispatch. A name the replica does not hold is a typed refusal:
    /// the walk hears every name the replica holds and counts the
    /// request positions it answers.
    fn answer_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
        estimate: bool,
        policy: Option<SelectionPolicy>,
    ) -> Result<SubsetAnswer, TransportError> {
        let req = SearchRequest::new(query)
            .threshold(threshold)
            .policy(SelectionPolicy::All)
            .cache(CacheMode::Bypass)
            .stale_mode(StaleMode::Error);
        // The request's names in name order, each with its position.
        let mut sorted: Vec<(&str, usize)> = engines.iter().map(String::as_str).zip(0..).collect();
        sorted.sort_unstable();
        for _ in 0..4 {
            let mut answered = 0;
            let mut wanted = |name: &str| {
                let asked = positions(&sorted, name).len();
                answered += asked;
                asked > 0
            };
            let mut plan = self
                .broker
                .plan_rows(&req, None, Some(&mut wanted), estimate);
            if answered < engines.len() {
                let unknown = engines.iter().find(|name| !self.broker.contains(name));
                let unknown = unknown.map_or_else(String::new, |name| format!(" {name:?}"));
                return Err(protocol_error(format!(
                    "replica does not hold engine{unknown}"
                )));
            }
            // (request position, plan row), in request order.
            let listed = plan.engines().iter().enumerate();
            let mut rows: Vec<(usize, usize)> = listed
                .flat_map(|(row, e)| {
                    positions(&sorted, &e.name)
                        .iter()
                        .map(move |&(_, at)| (at, row))
                })
                .collect();
            rows.sort_unstable();
            let usefulness: Vec<Usefulness> = rows
                .iter()
                .map(|&(_, r)| plan.engines()[r].usefulness)
                .collect();
            plan.selected = picks(policy, &usefulness)
                .into_iter()
                .map(|i| rows[i].1)
                .collect();
            let searched = if plan.selected.is_empty() {
                SubsetResults::default()
            } else {
                // An error is the registry changing mid-flight: replan.
                let Ok(resp) = self.broker.execute_plan(&req, &plan) else {
                    continue;
                };
                let (hits, stats) = (resp.hits, resp.per_engine_stats);
                SubsetResults { hits, stats }
            };
            let rows = rows.iter().zip(usefulness).map(|(&(at, _), u)| (at, u));
            return Ok(SubsetAnswer {
                rows: rows.collect(),
                searched,
            });
        }
        Err(protocol_error(
            "registry kept changing during subset execution",
        ))
    }
}

impl ReplicaClient for LocalReplica {
    fn ping(&self) -> Result<(), TransportError> {
        Ok(())
    }

    fn search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<SubsetResults, TransportError> {
        let all = Some(SelectionPolicy::All);
        let answer = self.answer_subset(query, threshold, engines, false, all)?;
        Ok(answer.searched)
    }

    fn begin_plan_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
        policy: Option<SelectionPolicy>,
    ) -> Box<dyn Pending<SubsetAnswer>> {
        Box::new(self.answer_subset(query, threshold, engines, true, policy))
    }

    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError> {
        self.install_with(spec.clone(), None)
    }

    fn remove_engine(&self, name: &str) -> Result<bool, TransportError> {
        Ok(self.broker.deregister(name))
    }

    fn export_engine(&self, name: &str) -> Result<Arc<EngineRecord>, TransportError> {
        self.broker.export_snapshot(name)
    }
}

/// Front-door tuning.
#[derive(Debug, Clone, Copy)]
pub struct FrontDoorConfig {
    /// Virtual nodes per replica on the placement ring.
    pub vnodes: usize,
    /// How many ring candidates hold each engine (primary + standbys).
    /// Failover can only serve from a replica that holds the engine, so
    /// 1 disables failover; the default 2 survives one replica loss.
    pub replication: usize,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            vnodes: DEFAULT_VNODES,
            replication: 2,
        }
    }
}

struct ReplicaEntry {
    id: String,
    client: Arc<dyn ReplicaClient>,
    breaker: Arc<CircuitBreaker>,
}

/// Where the front door placed one engine.
struct Placement {
    name: String,
    source: EngineSource,
    /// Replica ids currently holding the engine, candidate order
    /// (primary first).
    holders: Vec<String>,
}

struct ClusterState {
    ring: Ring,
    replicas: Vec<ReplicaEntry>,
    /// Global registration order — the order selection tie-breaks and
    /// estimate vectors are presented in, exactly like a single
    /// broker's registry sequence.
    engines: Vec<Placement>,
    /// Bumped on every membership or placement change (the federated
    /// analogue of the registry epoch, surfaced in `/healthz`).
    version: u64,
}

impl ClusterState {
    /// Brings engine `placed`'s holders to its first `replication` ring
    /// candidates: installs it on each new candidate, then removes it
    /// from each former holder. A new holder is sent the record exported
    /// from the first current holder that answers, or the engine's
    /// source alone when none does (a registration, or a move whose
    /// holders are all dead): the replica's install table registers a
    /// source as it would at registration. Former holders are dropped
    /// only once a candidate holds the engine, so a move that no
    /// candidate accepts leaves it where it was. What moved, was removed
    /// or failed goes to `report`; returns whether the holders changed.
    fn reconcile(
        &mut self,
        placed: usize,
        replication: usize,
        report: &mut RebalanceReport,
    ) -> bool {
        let placement = &mut self.engines[placed];
        let name = &placement.name;
        let candidates = self.ring.candidates(name).into_iter();
        let desired: Vec<String> = candidates.take(replication).map(String::from).collect();
        let Some(diff) = diff_placement(name, &placement.holders, &desired) else {
            return false;
        };
        let client = |id: &str| Some(&self.replicas.iter().find(|r| r.id == id)?.client);
        let exported = if diff.install.is_empty() {
            None
        } else {
            placement.holders.iter().find_map(|holder| {
                let record = client(holder)?.export_engine(name).ok()?;
                Some((holder.clone(), record))
            })
        };
        let (from, snapshot) = exported.unzip();
        let spec = InstallSpec {
            name: name.clone(),
            source: Some(placement.source.clone()),
            snapshot,
        };
        let mut installed = Vec::new();
        for to in &diff.install {
            let Some(client) = client(to) else {
                continue;
            };
            match client.install(&spec) {
                Ok(()) => {
                    report.moves.push(Move {
                        engine: name.clone(),
                        from: from.clone(),
                        to: to.clone(),
                        shipped_snapshot: spec.snapshot.is_some(),
                    });
                    installed.push(to);
                }
                Err(e) => report.errors.push((name.clone(), e)),
            }
        }
        let held: Vec<String> = desired
            .into_iter()
            .filter(|d| placement.holders.contains(d) || installed.contains(&d))
            .collect();
        if held.is_empty() {
            // No candidate holds it: the former holders keep their copy.
            return false;
        }
        // The new holders are live; now drop the former ones.
        for former in &diff.remove {
            let Some(client) = client(former) else {
                continue;
            };
            match client.remove_engine(name) {
                Ok(_) => report.removals.push((name.clone(), former.clone())),
                Err(e) => report.errors.push((name.clone(), e)),
            }
        }
        placement.holders = held;
        true
    }
}

/// One failed replica call, with the engines it was serving.
#[derive(Debug, Clone)]
pub struct ReplicaFailure {
    /// The replica that failed (or whose breaker refused the call).
    pub replica: String,
    /// The engines the call covered.
    pub engines: Vec<String>,
    /// The typed transport failure.
    pub error: TransportError,
}

/// Per-request federation accounting, alongside the
/// [`SearchResponse`].
#[derive(Debug, Clone, Default)]
pub struct FederationReport {
    /// Every failed replica call (failures that were recovered by
    /// failover still appear — the capture is per replica, not per
    /// outcome).
    pub failures: Vec<ReplicaFailure>,
    /// Engines served by a standby after their primary failed.
    pub failovers: u64,
    /// Engines no candidate could serve (excluded from selection,
    /// reported as `Failed` rows in the response).
    pub unresolved: Vec<String>,
}

/// A two-tier metasearch broker: consistent-hash placement, breaker
/// failover, and bit-identical global planning over replica brokers.
pub struct FrontDoor {
    config: FrontDoorConfig,
    clock: Arc<dyn Clock>,
    state: RwLock<ClusterState>,
}

impl FrontDoor {
    /// A front-door with no replicas, on the system clock.
    pub fn new(config: FrontDoorConfig) -> FrontDoor {
        FrontDoor::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// A front-door on an injected clock (deterministic breaker tests).
    pub fn with_clock(config: FrontDoorConfig, clock: Arc<dyn Clock>) -> FrontDoor {
        FrontDoor {
            state: RwLock::new(ClusterState {
                ring: Ring::new(config.vnodes.max(1)),
                replicas: Vec::new(),
                engines: Vec::new(),
                version: 0,
            }),
            config,
            clock,
        }
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.config.replication.max(1)
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.state.read().engines.len()
    }

    /// Whether no engine is registered.
    pub fn is_empty(&self) -> bool {
        self.state.read().engines.is_empty()
    }

    /// Number of replicas on the ring.
    pub fn replica_count(&self) -> usize {
        self.state.read().replicas.len()
    }

    /// The cluster version: bumped on every membership or placement
    /// change (the federated registry epoch).
    pub fn cluster_version(&self) -> u64 {
        self.state.read().version
    }

    /// Engine names in global registration order.
    pub fn engine_names(&self) -> Vec<String> {
        self.state
            .read()
            .engines
            .iter()
            .map(|e| e.name.clone())
            .collect()
    }

    /// `(engine, holders)` in global registration order; holders in
    /// candidate order, primary first.
    pub fn placements(&self) -> Vec<(String, Vec<String>)> {
        self.state
            .read()
            .engines
            .iter()
            .map(|e| (e.name.clone(), e.holders.clone()))
            .collect()
    }

    /// Replica ids and their breaker states, in join order.
    pub fn replica_states(&self) -> Vec<(String, BreakerState)> {
        let now = self.clock.now_ms();
        self.state
            .read()
            .replicas
            .iter()
            .map(|r| (r.id.clone(), r.breaker.state(now)))
            .collect()
    }

    /// Adds a replica and rebalances engine placements onto it.
    /// Returns `None` (no rebalance ran) if the id was already present.
    pub fn add_replica(&self, id: &str, client: Arc<dyn ReplicaClient>) -> Option<RebalanceReport> {
        {
            let mut state = self.state.write();
            if !state.ring.add_replica(id) {
                return None;
            }
            state.replicas.push(ReplicaEntry {
                id: id.to_string(),
                client,
                breaker: Arc::new(CircuitBreaker::new()),
            });
            state.version += 1;
            metrics().replicas.set(state.replicas.len() as f64);
        }
        Some(self.rebalance())
    }

    /// Removes a replica (graceful leave: its engines are moved to the
    /// surviving candidates first, exporting snapshots from the leaver
    /// while it is still reachable). Returns `None` for an unknown id.
    pub fn remove_replica(&self, id: &str) -> Option<RebalanceReport> {
        {
            let mut state = self.state.write();
            if !state.ring.remove_replica(id) {
                return None;
            }
            state.version += 1;
        }
        // Rebalance against the shrunk ring while the leaving replica's
        // client is still in the table — exports from it still work.
        let report = self.rebalance();
        let mut state = self.state.write();
        if let Some(i) = state.replicas.iter().position(|r| r.id == id) {
            state.replicas.remove(i);
        }
        metrics().replicas.set(state.replicas.len() as f64);
        Some(report)
    }

    /// Registers an engine: places it on the ring and installs it on
    /// its first `replication` candidates, as a rebalance would. If no
    /// candidate accepts it, nothing is placed and the first refusal is
    /// returned.
    pub fn register_engine(&self, name: &str, source: EngineSource) -> Result<(), TransportError> {
        let mut state = self.state.write();
        if state.ring.is_empty() {
            return Err(protocol_error("no replicas to place engines on"));
        }
        if state.engines.iter().any(|e| e.name == name) {
            return Err(protocol_error(format!(
                "engine {name:?} already registered"
            )));
        }
        state.engines.push(Placement {
            name: name.to_string(),
            source,
            holders: Vec::new(),
        });
        let mut report = RebalanceReport::default();
        let placed = state.engines.len() - 1;
        state.reconcile(placed, self.replication(), &mut report);
        if state.engines[placed].holders.is_empty() {
            state.engines.pop();
            let refused = report.errors.into_iter().next().map(|(_, e)| e);
            return Err(
                refused.unwrap_or_else(|| protocol_error("no candidate accepted the engine"))
            );
        }
        state.version += 1;
        metrics().engines.set(state.engines.len() as f64);
        Ok(())
    }

    /// Reconciles every engine's holders with the current ring, each
    /// through the step a registration takes: installed on its new
    /// candidates (the record a live holder exports, else its source
    /// alone), then removed from its former holders, so it always keeps
    /// a holder.
    pub fn rebalance(&self) -> RebalanceReport {
        let mut report = RebalanceReport::default();
        let mut state = self.state.write();
        let mut changed = false;
        for placed in 0..state.engines.len() {
            changed |= state.reconcile(placed, self.replication(), &mut report);
        }
        if changed {
            state.version += 1;
        }
        metrics().rebalances.inc();
        metrics().rebalance_moves.add(report.moves.len() as u64);
        report
    }

    /// Pings every replica through its breaker; returns `(id, up)` in
    /// join order. Driving this on an interval is what recovers an open
    /// breaker: the probe is the half-open trial.
    pub fn probe_once(&self) -> Vec<(String, bool)> {
        let replicas: Vec<(String, Arc<dyn ReplicaClient>, Arc<CircuitBreaker>)> = {
            let state = self.state.read();
            state
                .replicas
                .iter()
                .map(|r| (r.id.clone(), r.client.clone(), r.breaker.clone()))
                .collect()
        };
        let now = self.clock.now_ms();
        replicas
            .into_iter()
            .map(|(id, client, breaker)| {
                if !breaker.allow(now) {
                    return (id, false);
                }
                match client.ping() {
                    Ok(()) => {
                        breaker.record_success();
                        (id, true)
                    }
                    Err(_) => {
                        if breaker.record_failure(self.clock.now_ms()) {
                            metrics().breaker_opens.inc();
                        }
                        (id, false)
                    }
                }
            })
            .collect()
    }

    /// Serves a request; see [`FrontDoor::execute_with_report`].
    pub fn execute(&self, req: &SearchRequest) -> SearchResponse {
        self.execute_with_report(req).0
    }

    /// Plans globally, dispatches to the owning replicas (failing over
    /// along each engine's candidate chain), and merges — plus the
    /// typed per-replica failure capture for this request.
    pub fn execute_with_report(&self, req: &SearchRequest) -> (SearchResponse, FederationReport) {
        let m = metrics();
        m.searches.inc();
        let timer = m.search_latency.start_timer();
        let active = seu_obs::tracer().start_trace("federated_search", req.explain);
        let trace = active.handle();

        // Snapshot the cluster under the read lock; all replica I/O
        // happens lock-free on the copy.
        let (replicas, engines) = {
            let state = self.state.read();
            let replicas: Vec<(String, Arc<dyn ReplicaClient>, Arc<CircuitBreaker>)> = state
                .replicas
                .iter()
                .map(|r| (r.id.clone(), r.client.clone(), r.breaker.clone()))
                .collect();
            let engines: Vec<(String, Vec<usize>)> = state
                .engines
                .iter()
                .map(|e| {
                    let holder_idx = e
                        .holders
                        .iter()
                        .filter_map(|h| state.replicas.iter().position(|r| &r.id == h))
                        .collect();
                    (e.name.clone(), holder_idx)
                })
                .collect();
            (replicas, engines)
        };
        let mut report = FederationReport::default();
        let mut answered = self.fan_out(&replicas, &engines, req, &trace, &mut report);

        // Step 2: global selection over the rows, in global registration
        // order — the same rows and index-based tie-breaks as a single
        // broker. Each replica applied the same policy to its share of
        // the rows, so every engine chosen here was searched in step 1.
        let rows: Vec<(usize, Usefulness)> = answered
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref()?.0.map(|u| (i, u)))
            .collect();
        let values: Vec<Usefulness> = rows.iter().map(|&(_, u)| u).collect();
        let invocation: Vec<usize> = req
            .policy
            .select(&values)
            .into_iter()
            .map(|i| rows[i].0)
            .collect();
        report.unresolved = answered
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| engines[i].0.clone())
            .collect();

        // Invocation-order hits and stats, then one Failed row per engine
        // no candidate could serve — the partial-result degradation is in
        // the response, not swallowed.
        let failed = |engine: &String, why: &str| EngineDispatchStats {
            engine: engine.clone(),
            hits: 0,
            seconds: 0.0,
            outcome: DispatchOutcome::Failed,
            error: Some(protocol_error(why)),
        };
        let (mut hit_groups, mut per_engine_stats) = (Vec::new(), Vec::new());
        for &i in &invocation {
            let searched = answered[i]
                .as_mut()
                .and_then(|(_, searched)| searched.take());
            let Some((hits, stats)) = searched else {
                per_engine_stats.push(failed(&engines[i].0, "no replica searched the engine"));
                continue;
            };
            hit_groups.push(hits);
            per_engine_stats.push(stats);
        }
        let unresolved = report.unresolved.iter();
        per_engine_stats.extend(unresolved.map(|e| failed(e, "no replica answered the estimate")));

        // Merge: merge_results is input-order-independent, so merging the
        // replicas' already-merged lists reproduces a single broker's
        // ranking bit for bit.
        let merge_span = trace.span("merge");
        let mut hits = merge_results(hit_groups);
        if let Some(k) = req.top_k {
            hits.truncate(k);
        }
        drop(merge_span);

        let estimates = if req.with_estimates {
            let estimate = |&(i, usefulness): &(usize, Usefulness)| EngineEstimate {
                engine: engines[i].0.clone(),
                usefulness,
            };
            rows.iter().map(estimate).collect()
        } else {
            Vec::new()
        };

        m.failovers.add(report.failovers);
        timer.stop();
        let answer = Answer::new(hits, estimates, per_engine_stats);
        let failovers = |root: &mut ActiveTrace| root.root_attr("failovers", report.failovers);
        let trace = finish_request(active, req, &answer, failovers);
        let answer = Arc::new(answer);
        let shared = SharedResponse {
            answer,
            trace,
            served_from: None,
        };
        (shared.into(), report)
    }

    /// Step 1: the rows and picked engines' searches, failing over along
    /// each engine's candidate chain. For each attempt `a`, group the
    /// still-unresolved engines by their `a`-th holder and make one
    /// [`ReplicaClient::begin_plan_subset`] call per group, recording
    /// breaker outcomes and typed failures. Within an attempt every
    /// group's call is begun before any answer is waited for, so the
    /// attempt costs one round of waits, not one per replica; the answers
    /// are then collected and reported in the same replica order, and
    /// attempt `a + 1` starts only when attempt `a` is fully collected.
    ///
    /// Per engine: `None` while no replica answered for it, else its row
    /// (`None` when it holds no query term) and, if its replica picked
    /// it, its hits and stats.
    fn fan_out(
        &self,
        replicas: &[(String, Arc<dyn ReplicaClient>, Arc<CircuitBreaker>)],
        engines: &[(String, Vec<usize>)],
        req: &SearchRequest,
        trace: &seu_obs::TraceHandle,
        report: &mut FederationReport,
    ) -> Vec<Option<(Option<Usefulness>, Searched)>> {
        let m = metrics();
        let estimate = trace.span("federate_estimate");
        let mut answered = vec![None; engines.len()];
        let max_attempts = engines.iter().map(|(_, h)| h.len()).max().unwrap_or(0);
        let mut unresolved: Vec<usize> = (0..engines.len()).collect();
        for attempt in 0..max_attempts {
            if unresolved.is_empty() {
                break;
            }
            // Failed groups were appended replica by replica: restore
            // global order, so each group names its engines in it and a
            // replica's `TopK` ranks them by the global tie order.
            unresolved.sort_unstable();
            let mut by_replica: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            let mut still = Vec::new();
            for &e in &unresolved {
                match engines[e].1.get(attempt) {
                    Some(&r) => by_replica.entry(r).or_default().push(e),
                    None => still.push(e), // candidate chain exhausted
                }
            }
            let mut next_round = still;
            // Ask every holder its breaker lets through...
            let asked: Vec<_> = by_replica
                .into_iter()
                .map(|(r, group)| {
                    let (id, client, breaker) = &replicas[r];
                    let names: Vec<String> = group.iter().map(|&e| engines[e].0.clone()).collect();
                    let call = breaker.allow(self.clock.now_ms()).then(|| {
                        // Unsampled, the span records nothing: name it
                        // only for a trace that keeps it.
                        let mut span = if trace.is_sampled() {
                            trace.child_span(&format!("replica:{id}"), estimate.id())
                        } else {
                            SpanGuard::disabled()
                        };
                        span.attr("engines", group.len());
                        span.attr("attempt", attempt);
                        m.replica_calls.inc();
                        let policy = Some(req.policy);
                        let answer =
                            client.begin_plan_subset(&req.query, req.threshold, &names, policy);
                        (span, answer)
                    });
                    (r, group, names, call)
                })
                .collect();
            // ...then collect, in the same order.
            for (r, group, names, call) in asked {
                let (id, _, breaker) = &replicas[r];
                let failed = |error: TransportError| ReplicaFailure {
                    replica: id.clone(),
                    engines: names.clone(),
                    error,
                };
                let Some((mut span, answer)) = call else {
                    report.failures.push(failed(TransportError::new(
                        TransportErrorKind::Refused,
                        format!("breaker open for replica {id}"),
                    )));
                    next_round.extend(&group);
                    continue;
                };
                let rows = answer.finish(None).and_then(|answer| {
                    let rows = answer.by_position(names.len())?;
                    Ok(rows
                        .into_iter()
                        .zip(split_by_engine(answer.searched, &names)))
                });
                match rows {
                    Ok(rows) => {
                        breaker.record_success();
                        if attempt > 0 {
                            report.failovers += group.len() as u64;
                        }
                        for (&e, row) in group.iter().zip(rows) {
                            answered[e] = Some(row);
                        }
                    }
                    Err(e) => {
                        span.attr("error", e.kind.label());
                        if breaker.record_failure(self.clock.now_ms()) {
                            m.breaker_opens.inc();
                        }
                        m.replica_failures.inc();
                        report.failures.push(failed(e));
                        next_round.extend(&group);
                    }
                }
            }
            unresolved = next_round;
        }
        answered
    }

    /// Synthesized per-engine statuses for the admin API: the engine
    /// inventory with its primary holder as the "endpoint".
    pub fn engine_statuses(&self) -> Vec<EngineStatus> {
        let state = self.state.read();
        state
            .engines
            .iter()
            .map(|e| EngineStatus {
                name: e.name.clone(),
                shard: e
                    .holders
                    .first()
                    .and_then(|h| state.replicas.iter().position(|r| &r.id == h))
                    .unwrap_or(0),
                epoch: 0,
                stale: false,
                repr_terms: 0,
                repr_bytes: 0,
                remote: true,
                detached: e.holders.is_empty(),
                endpoint: e.holders.first().cloned(),
            })
            .collect()
    }

    /// A registry-snapshot-shaped view for `/healthz`: the cluster
    /// version stands in for the registry epoch.
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        let statuses = self.engine_statuses();
        let state = self.state.read();
        RegistrySnapshot {
            statuses,
            epoch: state.version,
            shard_epochs: vec![0; state.replicas.len()],
        }
    }
}
