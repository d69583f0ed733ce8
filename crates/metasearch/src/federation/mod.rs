//! Broker federation: a two-tier cluster where a front-door broker
//! that owns no engines plans globally over back-end broker replicas.
//!
//! The paper's broker selects among engines; the front-door selects
//! among the same engines but through replica brokers that each hold a
//! consistent-hash slice of the engine namespace. The layering is:
//!
//! - [`placement`] — the consistent-hash [`Ring`] (pure FNV-1a,
//!   configurable virtual nodes) that maps engine names to replicas.
//! - [`discovery`] — static replica lists and the hosts-file watcher
//!   behind `seu front-door --hosts-file` / `seu serve --join`.
//! - [`health`] — the injectable [`Clock`] and per-replica
//!   [`CircuitBreaker`] (closed/open/half-open).
//! - [`rebalance`] — pure placement diffs and the rebalance report
//!   types; joins and leaves ship `FrozenSummary` snapshots so moved
//!   engines hydrate without re-registration.
//! - [`router`] — the [`FrontDoor`] itself, the [`ReplicaClient`]
//!   trait, and the in-process [`LocalReplica`] the conformance suite
//!   runs against.
//!
//! The load-bearing invariant, proven by
//! `tests/federation_conformance.rs`: a federated answer is
//! **bit-identical** (`f64::to_bits`) to a single broker's, for any
//! replica count, before and after a rebalance.

pub mod discovery;
pub mod health;
pub mod placement;
pub mod rebalance;
pub mod router;

pub use discovery::{announce, parse_hosts, Discovery, HostsFileWatcher, ReplicaSpec};
pub use health::{BreakerConfig, BreakerState, CircuitBreaker, Clock, ManualClock, SystemClock};
pub use placement::{hash_key, Ring, DEFAULT_VNODES};
pub use rebalance::{diff_placement, Move, PlacementDiff, RebalanceReport};
pub use router::{
    EngineSource, FederationReport, FrontDoor, FrontDoorConfig, InstallSpec, LocalReplica,
    ReplicaClient, ReplicaFailure, SubsetAnswer, SubsetResults,
};

use std::sync::{Arc, OnceLock};

/// Instrument handles cached once per process.
pub(crate) struct FederationMetrics {
    pub(crate) searches: Arc<seu_obs::Counter>,
    pub(crate) failovers: Arc<seu_obs::Counter>,
    pub(crate) replica_calls: Arc<seu_obs::Counter>,
    pub(crate) replica_failures: Arc<seu_obs::Counter>,
    pub(crate) breaker_opens: Arc<seu_obs::Counter>,
    pub(crate) rebalances: Arc<seu_obs::Counter>,
    pub(crate) rebalance_moves: Arc<seu_obs::Counter>,
    pub(crate) replicas: Arc<seu_obs::Gauge>,
    pub(crate) engines: Arc<seu_obs::Gauge>,
    pub(crate) search_latency: Arc<seu_obs::Histogram>,
}

pub(crate) fn metrics() -> &'static FederationMetrics {
    static METRICS: OnceLock<FederationMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FederationMetrics {
        searches: seu_obs::counter("federation_searches_total"),
        failovers: seu_obs::counter("federation_failovers_total"),
        replica_calls: seu_obs::counter("federation_replica_calls_total"),
        replica_failures: seu_obs::counter("federation_replica_failures_total"),
        breaker_opens: seu_obs::counter("federation_breaker_opens_total"),
        rebalances: seu_obs::counter("federation_rebalances_total"),
        rebalance_moves: seu_obs::counter("federation_rebalance_moves_total"),
        replicas: seu_obs::gauge("federation_replicas"),
        engines: seu_obs::gauge("federation_engines"),
        search_latency: seu_obs::histogram("federation_search_latency_seconds"),
    })
}

/// Forces creation of the `federation_*` instruments so expositions
/// include the whole family even before the first federated request.
pub fn register_metrics() {
    let _ = metrics();
}
