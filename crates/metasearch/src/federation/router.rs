//! The front-door broker: global planning over back-end broker
//! replicas.
//!
//! A [`FrontDoor`] owns no engines. It places every registered engine
//! name onto back-end replicas via the consistent-hash
//! [`Ring`](super::Ring) (the first `replication` candidates hold the
//! engine: a primary plus standbys), and serves a request with one round
//! trip per replica (two for `TopK`):
//!
//! 1. **Estimate** — ask each replica for the rows of the engines it
//!    holds (primary assignment): the estimates of those holding a query
//!    term, each at its position in the request — every replica is
//!    asked before any is waited for, and a replica consults only the
//!    engines it is asked about — failing over along each engine's
//!    ring candidate chain when a replica refuses or errors. Whether an
//!    engine has a row, and its estimate, depend only on the engine's
//!    representative and the query, not on which broker computes them,
//!    so the reassembled global rows are bit-identical to a single
//!    broker's. A per-engine policy
//!    ([`SelectionPolicy::is_per_engine`]) rides along, and each replica
//!    searches its picks in the same call.
//! 2. **Select & search** — apply the request's [`SelectionPolicy`]
//!    *globally* over the reassembled rows (in global registration
//!    order, so index tie-breaks match a single broker exactly), then
//!    dispatch the selected engines step 1 did not search (`TopK`'s) to
//!    their owning replicas and merge the returned hits.
//!    [`merge_results`] is order-independent, so the merged ranking is
//!    bit-identical too.
//!
//! Every replica sits behind a [`CircuitBreaker`]; a replica that fails
//! is skipped locally once its breaker opens, and the engines it held
//! are served by their standbys. What could not be served anywhere is
//! reported — not silently dropped — as `Failed` rows in
//! [`SearchResponse::per_engine_stats`] and as typed per-replica
//! failures in the [`FederationReport`].

use crate::broker::{Broker, EngineEstimate, MergedHit};
use crate::cache::CacheMode;
use crate::federation::health::{BreakerConfig, BreakerState, CircuitBreaker, Clock, SystemClock};
use crate::federation::metrics;
use crate::federation::placement::{Ring, DEFAULT_VNODES};
use crate::federation::rebalance::{diff_placement, Move, RebalanceReport};
use crate::merge::merge_results;
use crate::registry::{EngineStatus, RegistrySnapshot};
use crate::remote::{EngineSnapshot, Pending, TransportError, TransportErrorKind};
use crate::request::{
    DispatchOutcome, EngineDispatchStats, SearchRequest, SearchResponse, StaleMode,
};
use crate::selection::SelectionPolicy;
use parking_lot::RwLock;
use seu_core::{Usefulness, UsefulnessEstimator};
use seu_engine::SearchEngine;
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
/// (live dispatch capability) or `snapshot` (planning metadata — the
/// rebalance path ships this so the receiving replica hydrates without
/// re-registration).
#[derive(Debug, Clone)]
pub struct InstallSpec {
    /// Engine name (global registration key).
    pub name: String,
    /// Live search capability, when the front-door has one on record.
    pub source: Option<EngineSource>,
    /// The engine's planning snapshot, when shipped (rebalance).
    pub snapshot: Option<EngineSnapshot>,
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

/// The rows a per-engine `policy` picks from their own estimates; none
/// under `TopK`, which no replica can apply to its share alone.
fn picks(policy: Option<SelectionPolicy>, usefulness: &[Usefulness]) -> Vec<usize> {
    let policy = policy.filter(SelectionPolicy::is_per_engine);
    policy.map_or_else(Vec::new, |p| p.select(usefulness))
}

/// A replica's merged hits and stats split by engine, one entry per name:
/// the engine's hits and stats row, if the replica searched it.
fn split_by_engine(
    results: SubsetResults,
    names: &[String],
) -> impl Iterator<Item = Option<(Vec<MergedHit>, EngineDispatchStats)>> + '_ {
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
/// and over the frame protocol by `seu-net`'s `RemoteReplica`. The two
/// per-request calls also come in two halves (`begin_…`), which is how
/// the front-door makes them: a client that can put the request on a
/// wire at the begin overrides those, and its replicas then work side by
/// side; one that cannot keeps the defaults and is simply asked in turn.
pub trait ReplicaClient: Send + Sync {
    /// Liveness probe.
    fn ping(&self) -> Result<(), TransportError>;
    /// The estimates of the named engines that hold a query term — the
    /// rows, in request order, under their names; every other named
    /// engine's estimate is `(0, 0)`.
    fn estimate_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<Vec<EngineEstimate>, TransportError>;
    /// Search the named engines that hold a query term (no other can
    /// find anything) and merge their hits above the threshold.
    fn search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<SubsetResults, TransportError>;
    /// One round trip: the named engines' rows, and the search of those
    /// a per-engine `policy` picks from them. Asks now, answers at
    /// [`Pending::finish`], so a front-door asks every replica of an
    /// attempt before it waits for any. The default composes
    /// [`Self::estimate_subset`] and [`Self::search_subset`] at the
    /// begin — all a client that can only block has to offer.
    fn begin_plan_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
        policy: Option<SelectionPolicy>,
    ) -> Box<dyn Pending<SubsetAnswer>> {
        let answer = self.estimate_subset(query, threshold, engines);
        Box::new(answer.and_then(|estimates| {
            // The names say where each row sits in the request.
            let (mut rows, mut from) = (Vec::with_capacity(estimates.len()), 0);
            for e in &estimates {
                let found = engines[from..].iter().position(|name| *name == e.engine);
                let at = from + found.ok_or_else(|| protocol_error(OUT_OF_ORDER))?;
                rows.push((at, e.usefulness));
                from = at + 1;
            }
            let usefulness: Vec<Usefulness> = rows.iter().map(|&(_, u)| u).collect();
            let picked = picks(policy, &usefulness).into_iter();
            let picked: Vec<String> = picked.map(|i| engines[rows[i].0].clone()).collect();
            let searched = if picked.is_empty() {
                SubsetResults::default()
            } else {
                self.search_subset(query, threshold, &picked)?
            };
            Ok(SubsetAnswer { rows, searched })
        }))
    }
    /// [`Self::search_subset`] in two halves: `TopK`'s second round.
    fn begin_search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Box<dyn Pending<SubsetResults>> {
        Box::new(self.search_subset(query, threshold, engines))
    }
    /// Installs (or re-installs) an engine on this replica.
    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError>;
    /// Removes an engine; `Ok(false)` when the name was unknown.
    fn remove_engine(&self, name: &str) -> Result<bool, TransportError>;
    /// Exports an engine's planning snapshot (for shipping to another
    /// replica).
    fn export_engine(&self, name: &str) -> Result<EngineSnapshot, TransportError>;
}

/// A [`ReplicaClient`] over an in-process [`Broker`] — the loopback of
/// federation, and what the bit-identity conformance suite runs
/// against.
pub struct LocalReplica<E> {
    broker: Arc<Broker<E>>,
}

impl<E> LocalReplica<E> {
    /// Wraps a broker.
    pub fn new(broker: Arc<Broker<E>>) -> LocalReplica<E> {
        LocalReplica { broker }
    }

    /// The wrapped broker.
    pub fn broker(&self) -> &Arc<Broker<E>> {
        &self.broker
    }
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

impl<E: UsefulnessEstimator + Send + Sync + 'static> LocalReplica<E> {
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
                let held = self.broker.engine_names();
                let unknown = engines.iter().find(|name| !held.contains(name));
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

impl<E: UsefulnessEstimator + Send + Sync + 'static> ReplicaClient for LocalReplica<E> {
    fn ping(&self) -> Result<(), TransportError> {
        Ok(())
    }

    fn estimate_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<Vec<EngineEstimate>, TransportError> {
        self.answer_subset(query, threshold, engines, true, None)?
            .estimates(engines)
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
        if self.broker.engine_names().iter().any(|n| n == &spec.name) {
            return Ok(()); // idempotent: already holding it
        }
        match (&spec.snapshot, &spec.source) {
            (Some(snapshot), source) => {
                let engine = match source {
                    Some(EngineSource::Local(arc)) => Some(arc.clone()),
                    _ => None,
                };
                let endpoint = source.as_ref().and_then(|s| s.endpoint()).map(String::from);
                self.broker
                    .install_snapshot(snapshot.clone(), engine, endpoint)
                    .map(|_| ())
            }
            (None, Some(EngineSource::Local(arc))) => {
                self.broker.register_shared(&spec.name, arc.clone());
                Ok(())
            }
            (None, Some(EngineSource::Remote { endpoint })) => Err(protocol_error(format!(
                "in-process replica cannot dial {endpoint}; ship a snapshot"
            ))),
            (None, None) => Err(protocol_error("install needs a source or a snapshot")),
        }
    }

    fn remove_engine(&self, name: &str) -> Result<bool, TransportError> {
        Ok(self.broker.deregister(name))
    }

    fn export_engine(&self, name: &str) -> Result<EngineSnapshot, TransportError> {
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
    /// Per-replica circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            vnodes: DEFAULT_VNODES,
            replication: 2,
            breaker: BreakerConfig::default(),
        }
    }
}

struct ReplicaEntry {
    id: String,
    client: Arc<dyn ReplicaClient>,
    breaker: Arc<CircuitBreaker>,
}

struct EngineRecord {
    name: String,
    source: Option<EngineSource>,
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
    engines: Vec<EngineRecord>,
    /// Bumped on every membership or placement change (the federated
    /// analogue of the registry epoch, surfaced in `/healthz`).
    version: u64,
}

/// Which federated phase a replica failure happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationPhase {
    /// The estimate fan-out (which searches a per-engine policy's picks).
    Estimate,
    /// The search dispatch of `TopK`'s choice.
    Search,
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
    /// Which phase failed.
    pub phase: FederationPhase,
}

/// Per-request federation accounting, alongside the
/// [`SearchResponse`].
#[derive(Debug, Clone, Default)]
pub struct FederationReport {
    /// Every failed replica call (failures that were recovered by
    /// failover still appear — the capture is per replica, not per
    /// outcome).
    pub failures: Vec<ReplicaFailure>,
    /// Engines served by a standby after their primary failed, per phase.
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
                breaker: Arc::new(CircuitBreaker::new(self.config.breaker)),
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
    /// its first `replication` candidates.
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
        let desired: Vec<String> = state
            .ring
            .candidates(name)
            .into_iter()
            .take(self.replication())
            .map(String::from)
            .collect();
        let spec = InstallSpec {
            name: name.to_string(),
            source: Some(source.clone()),
            snapshot: None,
        };
        let mut holders = Vec::with_capacity(desired.len());
        let mut first_error = None;
        for id in &desired {
            let client = state
                .replicas
                .iter()
                .find(|r| &r.id == id)
                .expect("ring replica has an entry")
                .client
                .clone();
            match client.install(&spec) {
                Ok(()) => holders.push(id.clone()),
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        if holders.is_empty() {
            return Err(
                first_error.unwrap_or_else(|| protocol_error("no candidate accepted the engine"))
            );
        }
        state.engines.push(EngineRecord {
            name: name.to_string(),
            source: Some(source),
            holders,
        });
        state.version += 1;
        metrics().engines.set(state.engines.len() as f64);
        Ok(())
    }

    /// Reconciles every engine's holders with the current ring:
    /// installs on new candidates (shipping a snapshot exported from a
    /// current holder when possible, regenerating one from the recorded
    /// source otherwise), then removes from former holders. Installs
    /// happen before removals, so an engine always has at least one
    /// holder throughout.
    pub fn rebalance(&self) -> RebalanceReport {
        let mut report = RebalanceReport::default();
        let mut state = self.state.write();
        let state = &mut *state;
        metrics().rebalances.inc();
        let clients: BTreeMap<&str, &ReplicaEntry> =
            state.replicas.iter().map(|r| (r.id.as_str(), r)).collect();
        let replication = self.config.replication.max(1);
        let mut changed = false;
        for record in &mut state.engines {
            let desired: Vec<String> = state
                .ring
                .candidates(&record.name)
                .into_iter()
                .take(replication)
                .map(String::from)
                .collect();
            let Some(diff) = diff_placement(&record.name, &record.holders, &desired) else {
                continue;
            };
            // One snapshot export covers every new holder: prefer a
            // live holder (snapshot shipping — the moved engine
            // hydrates without re-registration), fall back to
            // regenerating from the recorded in-process source.
            let mut shipped_from: Option<String> = None;
            let snapshot = if diff.install.is_empty() {
                None
            } else {
                record
                    .holders
                    .iter()
                    .find_map(|h| {
                        let entry = clients.get(h.as_str())?;
                        let snap = entry.client.export_engine(&record.name).ok()?;
                        shipped_from = Some(h.clone());
                        Some(snap)
                    })
                    .or_else(|| match &record.source {
                        Some(EngineSource::Local(engine)) => {
                            Some(EngineSnapshot::of_engine(&record.name, engine))
                        }
                        _ => None,
                    })
            };
            let mut installed = Vec::new();
            for to in &diff.install {
                let Some(entry) = clients.get(to.as_str()) else {
                    continue;
                };
                let spec = InstallSpec {
                    name: record.name.clone(),
                    source: record.source.clone(),
                    snapshot: snapshot.clone(),
                };
                match entry.client.install(&spec) {
                    Ok(()) => {
                        metrics().rebalance_moves.inc();
                        report.moves.push(Move {
                            engine: record.name.clone(),
                            from: shipped_from.clone(),
                            to: (*to).clone(),
                            shipped_snapshot: snapshot.is_some(),
                        });
                        installed.push((*to).clone());
                    }
                    Err(e) => report.errors.push((record.name.clone(), e)),
                }
            }
            // New holders are live; now drop the former ones.
            for from in &diff.remove {
                let Some(entry) = clients.get(from.as_str()) else {
                    continue;
                };
                match entry.client.remove_engine(&record.name) {
                    Ok(_) => report.removals.push((record.name.clone(), from.clone())),
                    Err(e) => report.errors.push((record.name.clone(), e)),
                }
            }
            record.holders = desired
                .into_iter()
                .filter(|d| record.holders.contains(d) || installed.contains(d))
                .collect();
            changed = true;
        }
        if changed {
            state.version += 1;
        }
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
        let mut active = seu_obs::tracer().start_trace("federated_search", req.explain);
        active.root_attr("query", &req.query);
        active.root_attr("threshold", req.threshold);
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

        // Phase 1: reassemble the global rows, failing over along each
        // engine's candidate chain; replicas search their picks. Per
        // engine: `None` while no replica answered for it, `Some(None)`
        // when it has no row (it holds no query term), `Some(Some(u))`
        // when it has one.
        let estimate_span = trace.span("federate_estimate");
        let local = req.policy.is_per_engine().then_some(req.policy);
        let mut answered: Vec<Option<Option<Usefulness>>> = vec![None; engines.len()];
        let mut groups = vec![None; engines.len()];
        self.fan_out(
            &replicas,
            &engines,
            (0..engines.len()).collect(),
            FederationPhase::Estimate,
            &trace,
            estimate_span.id(),
            &mut report,
            |client, query, threshold, names| {
                client.begin_plan_subset(query, threshold, names, local)
            },
            |answer: SubsetAnswer, names| {
                let rows = answer.by_position(names.len())?;
                let mut searched = split_by_engine(answer.searched, names);
                Ok(rows
                    .into_iter()
                    .map(|u| (u, searched.next().flatten()))
                    .collect())
            },
            req,
            |e, (u, searched)| {
                answered[e] = Some(u);
                groups[e] = searched;
            },
        );
        drop(estimate_span);

        // Phase 2: global selection over the rows, in global registration
        // order — the same rows and index-based tie-breaks as a single
        // broker.
        let rows: Vec<(usize, Usefulness)> = answered
            .iter()
            .enumerate()
            .filter_map(|(i, u)| u.flatten().map(|u| (i, u)))
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
            .filter(|(_, u)| u.is_none())
            .map(|(i, _)| engines[i].0.clone())
            .collect();

        // Phase 3: dispatch what phase 1 did not search: `TopK`'s choice.
        let search_span = trace.span("federate_search");
        let unsearched = invocation.iter().copied();
        let unsearched = unsearched.filter(|&e| groups[e].is_none()).collect();
        self.fan_out(
            &replicas,
            &engines,
            unsearched,
            FederationPhase::Search,
            &trace,
            search_span.id(),
            &mut report,
            |client, query, threshold, names| client.begin_search_subset(query, threshold, names),
            |r: SubsetResults, names| Ok(split_by_engine(r, names).collect()),
            req,
            |e, group| groups[e] = group,
        );
        drop(search_span);

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
            let Some((hits, stats)) = groups[i].take() else {
                per_engine_stats.push(failed(&engines[i].0, "no replica could serve the engine"));
                continue;
            };
            hit_groups.push(hits);
            per_engine_stats.push(stats);
        }
        let unresolved = report.unresolved.iter();
        per_engine_stats.extend(unresolved.map(|e| failed(e, "no replica answered the estimate")));

        // Phase 4: merge. merge_results is input-order-independent, so
        // merging the replicas' already-merged lists reproduces a
        // single broker's ranking bit for bit.
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
        active.root_attr("hits", hits.len());
        active.root_attr("failovers", report.failovers);
        let finished = active.finish();
        let resp = SearchResponse {
            hits,
            estimates,
            per_engine_stats,
            trace: if req.explain { finished } else { None },
            served_from: None,
        };
        (resp, report)
    }

    /// The shared failover fan-out: for each attempt `a`, group the
    /// still-unresolved engines by their `a`-th holder and make one
    /// replica call per group, recording breaker outcomes and typed
    /// failures. Within an attempt every group's call is begun
    /// (`begin`) before any answer is waited for, so the attempt costs
    /// one round of waits, not one per replica; the answers are then
    /// collected (`read` turns one into a value per name, or refuses it
    /// as malformed; `fill` takes each engine's) and reported in the same
    /// replica order, and attempt `a + 1` starts only when attempt `a` is
    /// fully collected. Generic
    /// over the answer and the per-engine value so both phases share the
    /// exact same candidate-chain semantics.
    #[allow(clippy::too_many_arguments)]
    fn fan_out<R, T, B, C, F>(
        &self,
        replicas: &[(String, Arc<dyn ReplicaClient>, Arc<CircuitBreaker>)],
        engines: &[(String, Vec<usize>)],
        targets: Vec<usize>,
        phase: FederationPhase,
        trace: &seu_obs::TraceHandle,
        parent: seu_obs::SpanId,
        report: &mut FederationReport,
        begin: B,
        read: C,
        req: &SearchRequest,
        mut fill: F,
    ) where
        B: Fn(&dyn ReplicaClient, &str, f64, &[String]) -> Box<dyn Pending<R>>,
        C: Fn(R, &[String]) -> Result<Vec<T>, TransportError>,
        F: FnMut(usize, T),
    {
        let m = metrics();
        let max_attempts = engines.iter().map(|(_, h)| h.len()).max().unwrap_or(0);
        let mut unresolved = targets;
        for attempt in 0..max_attempts {
            if unresolved.is_empty() {
                break;
            }
            // Group by this attempt's holder, preserving global order
            // within each group.
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
                        let mut span = trace.child_span(&format!("replica:{id}"), parent);
                        span.attr("engines", group.len());
                        span.attr("attempt", attempt);
                        m.replica_calls.inc();
                        let answer = begin(client.as_ref(), &req.query, req.threshold, &names);
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
                    phase,
                };
                let Some((mut span, answer)) = call else {
                    report.failures.push(failed(TransportError::new(
                        TransportErrorKind::Refused,
                        format!("breaker open for replica {id}"),
                    )));
                    next_round.extend(&group);
                    continue;
                };
                let values = answer.finish(None).and_then(|answer| {
                    let values = read(answer, &names)?;
                    // A count-lying replica is a protocol failure.
                    (values.len() == names.len())
                        .then_some(values)
                        .ok_or_else(|| protocol_error("replica answered with a short vector"))
                });
                match values {
                    Ok(values) => {
                        breaker.record_success();
                        if attempt > 0 {
                            report.failovers += group.len() as u64;
                        }
                        for (&e, v) in group.iter().zip(values) {
                            fill(e, v);
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
