//! The broker: its configuration and the lifecycle of the
//! representatives it keeps. `impl Broker` is four files by job:
//!
//! * `broker.rs` (here): construction, registration and removal,
//!   refresh / replace / invalidate, statuses;
//! * `plan.rs`: analysis, the walk over the shards' term postings,
//!   estimates, selection;
//! * `dispatch.rs`: execution on the calling thread, merging, traces;
//! * `persist.rs`: store snapshot / restore / hydrate / attach.
//!
//! The [registry](crate::registry) owns entry order, epochs, term
//! postings and gauges; the broker owns the decisions, the cache purge
//! that follows a change and the store write-through. Every lifecycle
//! method below is its decision handed to
//! `ShardedRegistry::{insert, update, remove}`; to add one, call
//! `Broker::update` and return `Change::Changed`.

use crate::cache::{CacheStats, QueryCache};
use crate::persist::StoreHandle;
use crate::registry::{
    Change, EngineHandle, EngineStatus, RegisteredEngine, RegistrySnapshot, ShardedRegistry,
};
use crate::remote::{
    check_consistent, refetch, RemoteTransport, TransportError, TransportErrorKind,
};
use crate::request::SearchRequest;
use parking_lot::RwLock;
use seu_core::{SubrangeEstimator, Usefulness};
use seu_engine::{Fingerprint, SearchEngine};
use seu_repr::Representative;
use seu_store::{EngineRecord, StoreError};
use seu_text::Vocabulary;
use std::sync::{Arc, OnceLock};

/// Instrument handles cached once per process.
pub(crate) struct BrokerMetrics {
    pub(crate) query_latency: Arc<seu_obs::Histogram>,
    pub(crate) select_latency: Arc<seu_obs::Histogram>,
    pub(crate) plan_latency: Arc<seu_obs::Histogram>,
    pub(crate) dispatch_latency: Arc<seu_obs::Histogram>,
    pub(crate) queries: Arc<seu_obs::Counter>,
    pub(crate) selects: Arc<seu_obs::Counter>,
    /// Representatives consulted: one per engine that contained a query
    /// term (a plan row written from the postings alone is not counted).
    pub(crate) estimates: Arc<seu_obs::Counter>,
    pub(crate) analyses: Arc<seu_obs::Counter>,
    /// Plan rows: every registered engine.
    pub(crate) considered: Arc<seu_obs::Counter>,
    pub(crate) selected: Arc<seu_obs::Counter>,
    pub(crate) merge_hits: Arc<seu_obs::Counter>,
    pub(crate) merge_size: Arc<seu_obs::Histogram>,
    pub(crate) engine_failures: Arc<seu_obs::Counter>,
    pub(crate) engine_timeouts: Arc<seu_obs::Counter>,
    pub(crate) representative_refreshes: Arc<seu_obs::Counter>,
    pub(crate) stale_plans: Arc<seu_obs::Counter>,
    pub(crate) push_invalidations: Arc<seu_obs::Counter>,
    pub(crate) store_hydration: Arc<seu_obs::Histogram>,
}

pub(crate) fn metrics() -> &'static BrokerMetrics {
    static METRICS: OnceLock<BrokerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| BrokerMetrics {
        query_latency: seu_obs::histogram("broker_query_latency_seconds"),
        select_latency: seu_obs::histogram("broker_select_latency_seconds"),
        plan_latency: seu_obs::histogram("broker_plan_latency_seconds"),
        dispatch_latency: seu_obs::histogram("broker_dispatch_latency_seconds"),
        queries: seu_obs::counter("broker_queries_total"),
        selects: seu_obs::counter("broker_selects_total"),
        estimates: seu_obs::counter("broker_estimates_total"),
        analyses: seu_obs::counter("broker_query_analyses_total"),
        considered: seu_obs::counter("broker_engines_considered_total"),
        selected: seu_obs::counter("broker_engines_selected_total"),
        merge_hits: seu_obs::counter("broker_merge_hits_total"),
        merge_size: seu_obs::histogram_with_buckets(
            "broker_merge_result_size",
            &seu_obs::SIZE_BUCKETS,
        ),
        engine_failures: seu_obs::counter("broker_engine_failures_total"),
        engine_timeouts: seu_obs::counter("broker_engine_timeouts_total"),
        representative_refreshes: seu_obs::counter("broker_representative_refreshes_total"),
        stale_plans: seu_obs::counter("broker_stale_plans_total"),
        push_invalidations: seu_obs::counter("broker_push_invalidations_total"),
        store_hydration: seu_obs::histogram("broker_store_hydration_seconds"),
    })
}

/// Forces creation of the broker's instruments so snapshots and
/// expositions include the whole `broker_*` family — zero-valued if the
/// process never ran a query — instead of a family that appears only
/// after the first call touches it.
pub fn register_metrics() {
    let _ = metrics();
    crate::registry::register_metrics();
    crate::cache::register_metrics();
    seu_store::register_metrics();
}

/// Default query-cache byte budget (32 MiB); `cache_bytes(0)` disables
/// the cache entirely.
pub const DEFAULT_CACHE_BYTES: usize = 32 << 20;

/// Default hot-tier byte budget for [`BrokerBuilder::store`] (64 MiB):
/// the decoded-record cache in front of the quantized cold tier.
pub const DEFAULT_HOT_TIER_BYTES: usize = 64 << 20;

/// One engine's estimate for a query, as reported by the broker.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineEstimate {
    /// Engine name (registration key).
    pub engine: String,
    /// Estimated usefulness.
    pub usefulness: Usefulness,
}

/// One merged result row.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedHit {
    /// Engine that returned the document.
    pub engine: String,
    /// Document name within that engine.
    pub doc: String,
    /// Global (cosine) similarity.
    pub sim: f64,
}

/// Configures a [`Broker`] before construction.
///
/// ```
/// use seu_metasearch::Broker;
/// use seu_core::SubrangeEstimator;
///
/// let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
///     .shards(8)
///     .build();
/// assert!(broker.is_empty());
/// ```
///
/// The parameter has one value, the paper's [`SubrangeEstimator`]; it
/// stays only so that the spelling `BrokerBuilder<SubrangeEstimator>`
/// keeps compiling, and no impl covers another type.
pub struct BrokerBuilder<E = SubrangeEstimator> {
    estimator: E,
    shards: usize,
    cache_bytes: usize,
    store: Option<Arc<StoreHandle>>,
}

impl BrokerBuilder {
    /// Splits the registry across `n` independently locked shards
    /// (engine ids route by [`crate::shard_for`]), so registration,
    /// refresh, and push invalidation on one shard never block planning
    /// over another. The default of 1 is the flat registry; raise it
    /// for registries in the thousands of engines. Results are
    /// bit-identical at any shard count (proven by the
    /// `shard_conformance` suite). Values are clamped to at least 1.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Sets the query cache's approximate resident-byte budget
    /// (default [`DEFAULT_CACHE_BYTES`]). `0` disables the cache: every
    /// request runs the full cold pipeline, as before the cache
    /// existed.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Attaches a persistent representative store rooted at `path`
    /// (created if absent): a [`seu_store::Store`] with a
    /// [`DEFAULT_HOT_TIER_BYTES`] decoded-record cache over its
    /// quantized on-disk cold tier. Every representative the broker
    /// installs is written through (and **canonicalized**: the broker
    /// serves the quantized round-trip, so its estimates are
    /// bit-identical to a broker restored from the store later);
    /// [`Broker::snapshot_registry`] persists a consistent registry cut
    /// and [`Broker::restore`] rebuilds a registry from one.
    pub fn store(mut self, path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        let store = seu_store::open_tiered(path, DEFAULT_HOT_TIER_BYTES)?;
        self.store = Some(Arc::new(StoreHandle::new(store)));
        Ok(self)
    }

    /// Builds the (empty) broker.
    pub fn build(self) -> Broker {
        Broker {
            estimator: self.estimator,
            registry: ShardedRegistry::new(self.shards),
            vocab: RwLock::new(Vocabulary::new()),
            cache: (self.cache_bytes > 0).then(|| QueryCache::new(self.cache_bytes)),
            store: self.store,
        }
    }
}

/// A metasearch broker: it selects engines with the paper's subrange
/// estimator ([`SubrangeEstimator`], §3), the one estimator it serves.
/// The parameter stays only so that the spelling
/// `Broker<SubrangeEstimator>` keeps compiling; no impl covers another
/// type.
///
/// # Examples
///
/// ```
/// use seu_metasearch::{Broker, SearchRequest, SelectionPolicy};
/// use seu_core::SubrangeEstimator;
/// use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
/// use seu_text::Analyzer;
///
/// let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
/// b.add_document("d0", "mushroom soup with cream");
/// let cooking = SearchEngine::new(b.build());
///
/// let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
/// broker.register("cooking", cooking);
///
/// // The request pipeline: plan once, then execute: search the selected
/// // engines on this thread and merge.
/// let req = SearchRequest::new("mushroom soup")
///     .threshold(0.2)
///     .with_estimates(true);
/// let plan = broker.plan(&req, None);
/// assert_eq!(plan.selected_names(), vec!["cooking".to_string()]);
/// let resp = broker.execute(&req);
/// assert_eq!(resp.hits[0].doc, "d0");
/// assert_eq!(resp.estimates.len(), 1);
///
/// // The legacy wrappers delegate to the same pipeline.
/// let selected = broker.select("mushroom soup", 0.2, SelectionPolicy::EstimatedUseful);
/// assert_eq!(selected, vec!["cooking".to_string()]);
/// let hits = broker.search("mushroom soup", 0.2, SelectionPolicy::EstimatedUseful);
/// assert_eq!(hits, resp.hits);
/// ```
pub struct Broker<E = SubrangeEstimator> {
    pub(crate) estimator: E,
    /// The registry; it owns entry order, epochs and gauges (see
    /// [`crate::registry`]). [`QueryPlan`](crate::QueryPlan) records the
    /// registry epoch it was planned against; a mismatch later means the
    /// plan is stale.
    pub(crate) registry: ShardedRegistry,
    /// Union vocabulary over every registered engine — the target of the
    /// single query-analysis pass. Locked *after* a shard's entries lock
    /// everywhere both are held (i.e. from inside the closures handed to
    /// the registry).
    pub(crate) vocab: RwLock<Vocabulary>,
    /// The query cache (`None` when built with `cache_bytes(0)`). Keys
    /// embed the registry epoch, so staleness falls out of the existing
    /// epoch machinery — see [`crate::cache`] for the design.
    pub(crate) cache: Option<QueryCache>,
    /// The attached representative store (`None` without
    /// [`BrokerBuilder::store`]). Installs write through it; restores
    /// read back from it.
    pub(crate) store: Option<Arc<StoreHandle>>,
}

impl Broker {
    /// Creates an empty broker with default dispatch configuration.
    pub fn new(estimator: SubrangeEstimator) -> Self {
        Broker::builder(estimator).build()
    }

    /// Starts configuring a broker.
    pub fn builder(estimator: SubrangeEstimator) -> BrokerBuilder {
        BrokerBuilder {
            estimator,
            shards: 1,
            cache_bytes: DEFAULT_CACHE_BYTES,
            store: None,
        }
    }

    /// The query cache's live stats (`None` when the cache is disabled
    /// via `cache_bytes(0)`).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The cache to use for a request: `None` when the cache is
    /// disabled, the request bypasses it, or the request wants an
    /// `explain` trace (whose span tree must describe real work).
    pub(crate) fn cache_for(&self, req: &SearchRequest) -> Option<&QueryCache> {
        if req.explain || !req.cache.reads() {
            return None;
        }
        self.cache.as_ref()
    }

    /// Eagerly reclaims cache entries made stale by a lifecycle event.
    /// Correctness never depends on this — keys embed their epoch, so a
    /// stale entry (say, one cached against an engine since sidelined
    /// by `replace_engine`) already misses every lookup — it only
    /// returns the dead entries' bytes to the budget immediately.
    fn purge_cache(&self) {
        if let Some(c) = &self.cache {
            c.purge_stale(self.registry.epoch());
        }
    }

    /// Every single-entry lifecycle change: `f` decides under the
    /// entry's shard lock (it may lock `vocab`), the registry books what
    /// it reports, a change purges the cache. `None`: unknown name.
    pub(crate) fn update<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut RegisteredEngine) -> (Change, T),
    ) -> Option<T> {
        let (change, out) = self.registry.update(name, f)?;
        if change == Change::Changed {
            self.purge_cache();
        }
        Some(out)
    }

    /// [`RegisteredEngine::try_refresh`] against this broker's
    /// vocabulary and store, counting a success.
    pub(crate) fn refresh(&self, entry: &mut RegisteredEngine) -> Result<(), TransportError> {
        entry.try_refresh(&mut self.vocab.write(), self.store.as_deref())?;
        metrics().representative_refreshes.inc();
        Ok(())
    }

    /// Registers an engine. Its [`EngineRecord`] is built from its
    /// collection on the spot: the representative, with the collection's
    /// own vocabulary, document frequencies and fingerprint. An engine
    /// in another process ships its record instead: see
    /// [`Broker::register_remote`] and [`Broker::install_snapshot`].
    /// Those are the only two ways a record comes in.
    ///
    /// A name is one engine: registering under a name the broker
    /// already holds is refused and changes nothing (no record is built,
    /// no epoch moves). Ask [`Broker::contains`] first where a refusal
    /// matters; the shipped-record registrations refuse with a typed
    /// error.
    pub fn register(&self, name: &str, engine: SearchEngine) {
        self.register_shared(name, Arc::new(engine));
    }

    /// [`Broker::register`] for an engine shared by handle — the
    /// federation replication path, where several broker replicas hold
    /// standby copies of the same in-process engine. Registration is
    /// byte-identical to [`Broker::register`]: the representative is
    /// built from the same collection either way, and a held name is
    /// refused the same way. Like every registration it installs under
    /// the routed shard's lock (`entries` before `vocab`), through the
    /// installer a later refresh will use.
    pub fn register_shared(&self, name: &str, engine: Arc<SearchEngine>) {
        if self.contains(name) {
            return;
        }
        let repr = Representative::build(engine.collection());
        let record = Arc::new(EngineRecord::of_engine(name, &engine, repr));
        self.insert(name, EngineHandle::Local(engine), record);
    }

    /// Every registration: a new entry for `handle`, `record` installed
    /// under the routed shard's lock; `false`, and nothing installed or
    /// written, if the name is held.
    fn insert(&self, name: &str, handle: EngineHandle, record: Arc<EngineRecord>) -> bool {
        let inserted = self.registry.insert(name, |seq| {
            let mut e = RegisteredEngine::new(name, seq, handle, record.clone());
            e.install(&mut self.vocab.write(), record, self.store.as_deref());
            e
        });
        if inserted {
            self.purge_cache();
        }
        inserted
    }

    /// Registration from a shipped record (fetched over a transport or
    /// pushed by a front-door): refuses an inconsistent one at the door,
    /// and one under a held name, then installs it.
    fn install_from_snapshot(
        &self,
        record: Arc<EngineRecord>,
        handle: EngineHandle,
    ) -> Result<String, TransportError> {
        check_consistent(&record)?;
        let name = record.name.clone();
        if !self.insert(&name, handle, record) {
            return Err(TransportError::new(
                TransportErrorKind::Refused,
                format!("engine {name:?} is already registered"),
            ));
        }
        Ok(name)
    }

    /// Registers an engine that lives in another process, reached through
    /// `transport`: fetches its [`EngineRecord`]
    /// (name, analyzer configuration, weighting statistics, fingerprint,
    /// and its representative + vocabulary at full precision), folds its
    /// vocabulary into the broker-global term space, and registers it
    /// under its advertised name. From then on the broker plans for it
    /// exactly as for a local engine — same shared analysis, same term
    /// translation, same estimates, byte for byte — and dispatches to it
    /// over the transport.
    ///
    /// Returns the engine's advertised name, or the [`TransportError`]
    /// if the record could not be fetched or was inconsistent, or if the
    /// broker already holds an engine by that name
    /// ([`TransportErrorKind::Refused`]).
    pub fn register_remote(
        &self,
        transport: Arc<dyn RemoteTransport>,
    ) -> Result<String, TransportError> {
        let snapshot = transport.fetch_snapshot()?;
        self.register_fetched(transport, snapshot)
    }

    /// [`Broker::register_remote`] with the transport's record already
    /// fetched (a replica install checks its name first).
    pub(crate) fn register_fetched(
        &self,
        transport: Arc<dyn RemoteTransport>,
        snapshot: Arc<EngineRecord>,
    ) -> Result<String, TransportError> {
        self.install_from_snapshot(snapshot, EngineHandle::Remote(transport))
    }

    /// Installs an engine from a shipped [`EngineRecord`] — the
    /// federation rebalance path, where a moved engine hydrates on this
    /// broker from the record alone instead of re-registering against
    /// the original collection. With a live `engine` handle (an
    /// in-process source shared across replicas) the entry dispatches
    /// immediately; with only an `endpoint` it is registered detached —
    /// planning and estimates work bit-identically from the shipped
    /// representative, and [`Broker::attach_remote`] upgrades it to a
    /// live remote once a transport dials the endpoint. A record under a
    /// held name is refused ([`TransportErrorKind::Refused`]).
    pub fn install_snapshot(
        &self,
        snapshot: Arc<EngineRecord>,
        engine: Option<Arc<SearchEngine>>,
        endpoint: Option<String>,
    ) -> Result<String, TransportError> {
        // The record's vocabulary is id-aligned with the source
        // collection, so when the live engine *is* that collection (same
        // fingerprint) the entry plans with it; otherwise it is stale.
        let handle = match engine {
            Some(engine) => EngineHandle::Local(engine),
            None => EngineHandle::Detached(endpoint),
        };
        self.install_from_snapshot(snapshot, handle)
    }

    /// Removes an engine from the registry, bumping the shard epoch so
    /// outstanding plans that include it are detectably stale. Returns
    /// `false` for an unknown name. This is the federation rebalance
    /// counterpart of [`Broker::install_snapshot`]: a replica drops an
    /// engine once the ring no longer places it here.
    pub fn deregister(&self, name: &str) -> bool {
        let removed = self.registry.remove(name);
        if removed {
            self.purge_cache();
        }
        removed
    }

    /// Exports an engine's [`EngineRecord`] for shipping to another
    /// broker (the federation rebalance path). Local engines summarize
    /// their collection (sharing its vocabulary and document
    /// frequencies), remote engines refetch over their transport (with
    /// the checks a refresh makes: a consistent record under the entry's
    /// own name, else a [`TransportErrorKind::Protocol`] error), and
    /// detached entries refuse — there is nothing live to export from.
    pub fn export_snapshot(&self, name: &str) -> Result<Arc<EngineRecord>, TransportError> {
        match self.registry.get(name, |e| e.handle.clone()) {
            None => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("unknown engine {name:?}"),
            )),
            Some(EngineHandle::Local(engine)) => {
                let repr = Representative::build(engine.collection());
                Ok(Arc::new(EngineRecord::of_engine(name, &engine, repr)))
            }
            Some(EngineHandle::Remote(transport)) => refetch(&*transport, name),
            Some(EngineHandle::Detached(_)) => Err(TransportError::new(
                TransportErrorKind::Refused,
                format!("engine {name:?} is detached; nothing live to export"),
            )),
        }
    }

    /// Applies a push invalidation notice from a remote engine: the
    /// engine's collection changed and its snapshot fingerprint is now
    /// `fingerprint`. If the registry already holds that snapshot the
    /// notice is a no-op; otherwise the broker refetches the snapshot
    /// over the engine's transport and installs it (the record and its
    /// term list move together), bumping the
    /// engine's epoch and the registry epoch so outstanding plans are
    /// detectably stale and the cache entries keyed at the pre-notice
    /// epoch are dropped eagerly, not just unreachable.
    ///
    /// This is the push half of the representative lifecycle — the
    /// polling [`Broker::refresh_if_stale`] sweep never has to run for an
    /// engine that notifies. Counted by `broker_push_invalidations_total`.
    ///
    /// Returns `Ok(true)` if the notice targeted a known engine (whether
    /// or not a refetch was needed), `Ok(false)` for an unknown name, and
    /// the [`TransportError`] if the refetch failed — in which case the
    /// entry is marked stale so a later sweep retries it.
    pub fn apply_invalidation(
        &self,
        name: &str,
        fingerprint: Fingerprint,
    ) -> Result<bool, TransportError> {
        self.update(name, |e| {
            metrics().push_invalidations.inc();
            if e.record.fingerprint == fingerprint && !e.pending_invalidation {
                // The notice describes the snapshot the registry already
                // holds (e.g. a redelivery); nothing to refetch. Restored
                // entries compare against the manifest's fingerprint, so a
                // redelivered pre-snapshot notice is a no-op even before
                // hydration.
                return (Change::Unchanged, Ok(true));
            }
            match self.refresh(e) {
                Ok(()) => (Change::Changed, Ok(true)),
                Err(err) => (Change::Unchanged, Err(err)),
            }
        })
        .unwrap_or(Ok(false))
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether no engine is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an engine is registered under `name` (one lookup, however
    /// many engines the broker holds).
    pub fn contains(&self, name: &str) -> bool {
        self.registry.contains(name)
    }

    /// The number of registry shards (1 for a flat broker).
    pub fn shards(&self) -> usize {
        self.registry.n_shards()
    }

    /// Registered engine names, in registration order.
    pub fn engine_names(&self) -> Vec<String> {
        self.registry.walk(|_, e| e.name.clone()).items
    }

    /// Shared handles to the registered **local** engines, in
    /// registration order. Remote engines are skipped: their collections
    /// are not resident in this process.
    pub fn engines(&self) -> Vec<Arc<SearchEngine>> {
        let local = self.registry.walk(|_, e| e.handle.local().cloned());
        local.items.into_iter().flatten().collect()
    }

    /// Rebuilds the named engine's representative — from its current
    /// collection for a local engine (the paper's infrequent
    /// metadata-propagation step, §1), by refetching its snapshot for a
    /// remote one — and, atomically with it, the engine's term list
    /// against the broker-global vocabulary (and its postings), so terms
    /// that entered the collection after registration reach every
    /// subsequent plan. Bumps
    /// the engine's epoch and the registry epoch. Returns false if no
    /// engine has that name or a remote refetch failed (the entry is
    /// then marked stale for the next sweep).
    pub fn refresh_representative(&self, name: &str) -> bool {
        self.update(name, |e| {
            let refreshed = self.refresh(e).is_ok();
            (Change::when(refreshed), refreshed)
        })
        .unwrap_or(false)
    }

    /// Swaps the named engine for a new snapshot of it **without**
    /// touching its representative, term list or postings — modelling a remote
    /// engine that re-indexed while the broker's metadata lags behind
    /// (the paper's propagation is infrequent by design). The entry
    /// becomes stale if the new collection's fingerprint differs; a
    /// [`Broker::refresh_if_stale`] sweep (or an explicit
    /// [`Broker::refresh_representative`]) reconciles it. Bumps the
    /// registry epoch so outstanding plans are detectably stale. Returns
    /// false if no **local** engine has that name (a remote engine's
    /// snapshot lives in its own process; it announces changes with push
    /// invalidation instead).
    pub fn replace_engine(&self, name: &str, engine: SearchEngine) -> bool {
        // Hydrate first so a restored entry's term list and canonical
        // representative are in place: swapping in a collection with
        // the stored fingerprint then plans immediately (the hydrated
        // list is id-aligned with it), and any other collection follows
        // the usual sidelined-until-sweep path.
        self.hydrate();
        self.update(name, |e| {
            let swap = !e.handle.is_remote();
            if swap {
                e.handle = EngineHandle::Local(Arc::new(engine));
            }
            (Change::when(swap), swap)
        })
        .unwrap_or(false)
    }

    /// Sweeps the registry and rebuilds the representative (and term
    /// list) of every engine whose collection fingerprint no longer
    /// matches what its representative was built from. The comparison is
    /// O(1) per engine — fingerprints are cached at engine construction;
    /// a remote engine is stale only if a push invalidation (or a failed
    /// refetch) marked it — so the sweep is cheap when nothing changed.
    /// A remote refetch that fails leaves its entry stale for the next
    /// sweep. Returns the names of the engines it refreshed, in
    /// registration order.
    ///
    /// Shards are swept on scoped worker threads: they refresh
    /// concurrently, and a slow shard (e.g. one full of remote
    /// refetches) only holds its own lock while the others are already
    /// serving plans again. A refresh that panics costs its shard's
    /// results, never the sweep.
    pub fn refresh_if_stale(&self) -> Vec<String> {
        self.hydrate();
        let refreshed = self.registry.update_all(RegisteredEngine::is_stale, |e| {
            match e.try_refresh(&mut self.vocab.write(), self.store.as_deref()) {
                Ok(()) => {
                    metrics().representative_refreshes.inc();
                    (Change::Changed, Some(e.name.clone()))
                }
                Err(_) => (Change::Unchanged, None),
            }
        });
        if !refreshed.is_empty() {
            self.purge_cache();
        }
        refreshed
    }

    /// Whether the named engine's representative is stale (its
    /// collection fingerprint no longer matches). `None` if no engine
    /// has that name.
    pub fn is_stale(&self, name: &str) -> Option<bool> {
        self.registry.get(name, RegisteredEngine::is_stale)
    }

    /// Per-engine lifecycle status, in registration order. One snapshot
    /// per shard — see [`Broker::registry_snapshot`] for the epoch cut
    /// that comes with it.
    pub fn engine_statuses(&self) -> Vec<EngineStatus> {
        self.registry_snapshot().statuses
    }

    /// Per-engine lifecycle statuses together with the epoch cut they
    /// were captured at: within every shard the statuses and the epoch
    /// describe the same instant — the consistency contract
    /// [`RegistrySnapshot`] documents.
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        let cut = self.registry.walk(|shard, e| EngineStatus {
            name: e.name.clone(),
            shard,
            epoch: e.epoch,
            stale: e.is_stale(),
            repr_terms: e.repr_terms() as usize,
            repr_bytes: e.repr_bytes(),
            remote: e.handle.is_remote(),
            detached: e.handle.is_detached(),
            endpoint: e.handle.endpoint(),
        });
        RegistrySnapshot {
            statuses: cut.items,
            epoch: cut.shard_epochs.iter().sum(),
            shard_epochs: cut.shard_epochs,
        }
    }

    /// Checks, shard by shard under its read lock, that the postings the
    /// registry keeps incrementally are exactly what posting every entry
    /// from scratch would give; `Err` says where they first differ. The
    /// reference `tests/index_ledger.rs` holds every lifecycle path to
    /// (always compiled: a `tests/` binary links the crate as shipped).
    #[doc(hidden)]
    pub fn audit_postings(&self) -> Result<(), String> {
        self.registry.audit_postings()
    }

    /// Checks, shard by shard under its read lock, that the running
    /// totals the registry keeps one delta at a time — each shard's
    /// name → slot map and its own gauge totals — equal a from-scratch
    /// recount of its entries; `Err` says where they first differ.
    /// `tests/totals_audit.rs` holds the lifecycle paths to it.
    #[doc(hidden)]
    pub fn audit_totals(&self) -> Result<(), String> {
        self.registry.audit_totals()
    }

    /// The current registry epoch — the sum of the per-shard epochs,
    /// derived without a global lock. Plans made at an older epoch are
    /// stale: their term translations and estimates may no longer
    /// describe the registered representatives.
    pub fn registry_epoch(&self) -> u64 {
        self.registry.epoch()
    }
}
