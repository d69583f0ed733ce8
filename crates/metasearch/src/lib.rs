//! The metasearch broker — the application the paper's estimator exists
//! for (Section 1).
//!
//! A [`Broker`] sits above a set of local [`SearchEngine`]s. It never
//! touches their documents; at registration time it builds (or receives)
//! each engine's [`Representative`] and folds the engine's vocabulary
//! into a broker-global term space. Serving a query is a two-step
//! pipeline:
//!
//! 1. [`Broker::plan`] analyzes the [`SearchRequest`]'s text **once**
//!    against the global vocabulary, finds the engines that contain a
//!    query term in the registry's term postings, translates the query
//!    into each one's local term space and predicts its `(NoDoc,
//!    AvgSim)` from its representative alone (the paper's subrange
//!    estimator, [`seu_core::SubrangeEstimator`]) — every other engine's estimate is
//!    exactly `(0, 0)` — and applies the [`SelectionPolicy`] → a
//!    [`QueryPlan`];
//! 2. [`Broker::execute`] dispatches the plan's selected engines from the
//!    calling thread and merges their results by global similarity
//!    → a [`SearchResponse`] with hits, optional estimates, and
//!    per-engine dispatch stats.
//!
//! The pre-pipeline entry points ([`Broker::estimate_all`],
//! [`Broker::select`], [`Broker::search`]) are thin wrappers over the
//! same machinery.
//!
//! Representatives have a **lifecycle**: every registry entry is
//! epoch-versioned and records the fingerprint of the collection its
//! representative and term list were built from, so staleness is
//! detectable ([`Broker::engine_statuses`], [`Broker::is_stale`]) and
//! repairable in one sweep ([`Broker::refresh_if_stale`]). Plans record
//! the registry epoch they were made against; executing or re-estimating
//! a stale plan replans transparently by default, or surfaces a typed
//! [`StalePlanError`] under [`StaleMode::Error`].
//!
//! Representatives can also be **persisted**: a broker built with
//! [`BrokerBuilder::store`] writes every installed representative
//! through a tiered on-disk store (quantized cold tier under a decoded
//! hot tier) and installs the canonical quantized round-trip, so
//! [`Broker::snapshot_registry`] can persist a consistent registry cut
//! and [`Broker::restore`] can rebuild it after a restart — serving
//! statuses immediately and hydrating representatives lazily on the
//! first plan, with estimates bit-identical to the broker that wrote
//! the snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod broker;
pub mod cache;
mod dispatch;
pub mod federation;
pub mod merge;
mod persist;
pub mod plan;
mod postings;
pub mod registry;
pub mod remote;
pub mod request;
pub mod selection;

pub use allocate::Allocation;
pub use broker::{Broker, BrokerBuilder, EngineEstimate, MergedHit};
pub use cache::{write_rows, Answer, CacheKey, CacheMode, CacheStats, CacheTier};
pub use federation::{
    EngineSource, FederationReport, FrontDoor, FrontDoorConfig, LocalReplica, ReplicaClient,
};
pub use merge::merge_results;
pub use plan::{PlannedEngine, QueryPlan, SharedAnalysis};
pub use registry::{shard_for, EngineStatus, RegistrySnapshot, StalePlanError};
pub use remote::{
    Pending, RemoteHit, RemoteTransport, SearchReply, TransportError, TransportErrorKind,
};
pub use request::{
    DispatchOutcome, EngineDispatchStats, SearchRequest, SearchResponse, SharedResponse, StaleMode,
};
pub use selection::SelectionPolicy;

// Re-exported for downstream convenience (the broker API surfaces these).
pub use seu_core::Usefulness;
pub use seu_engine::SearchEngine;
pub use seu_repr::Representative;
pub use seu_store::{
    open_tiered, EngineRecord, EntryKind, Manifest, ManifestEntry, ReprStore, StoreError,
    StoreErrorKind,
};
