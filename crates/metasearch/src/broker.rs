//! The broker itself.
//!
//! The public API is the [`SearchRequest`] pipeline:
//!
//! 1. [`Broker::plan`] analyzes the query once against the broker-global
//!    vocabulary, builds per-engine query vectors through each engine's
//!    registration-time [`TermMap`], estimates every engine, and applies
//!    the selection policy → [`QueryPlan`];
//! 2. [`Broker::execute`] dispatches the plan over a bounded
//!    [`WorkerPool`] and merges the results → [`SearchResponse`].
//!
//! The pre-pipeline entry points ([`Broker::estimate_all`],
//! [`Broker::select`], [`Broker::search`]) remain as thin wrappers over
//! the same implementation.

use crate::cache::{CacheKey, CacheStats, CacheTier, CachedResponse, CachedValue, QueryCache};
use crate::merge::merge_results;
use crate::persist::{record_for_local, record_for_remote, StoreHandle};
use crate::plan::{PlannedEngine, QueryPlan, SharedAnalysis};
use crate::pool::{JobStatus, WorkerPool};
use crate::registry::{
    shard_for, ColdEntry, EngineHandle, EngineStatus, RegisteredEngine, RegistrySnapshot,
    ReprProvenance, Shard, ShardedRegistry, StalePlanError,
};
use crate::remote::{
    EngineSnapshot, RemoteMeta, RemoteTransport, TransportError, TransportErrorKind,
};
use crate::request::{
    DispatchOutcome, EngineDispatchStats, SearchRequest, SearchResponse, StaleMode,
};
use crate::selection::SelectionPolicy;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use seu_core::{Usefulness, UsefulnessEstimator};
use seu_engine::{Fingerprint, SearchEngine, TermMap};
use seu_obs::{SpanGuard, SpanId, SpanRecord, TraceHandle};
use seu_repr::Representative;
use seu_store::{EngineRecord, EntryKind, Manifest, ManifestEntry, ReprStore, StoreError};
use seu_text::{Analyzer, AnalyzerConfig, Vocabulary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A shard-sweep job for the worker pool, returning the `(registration
/// sequence, name)` of every engine it refreshed.
type SweepJob = Box<dyn FnOnce() -> Vec<(u64, String)> + Send>;

/// What one engine's dispatch produced: its merged hits and its
/// wall-clock, or the typed transport failure that produced neither.
type DispatchResult = Result<(Vec<MergedHit>, f64), TransportError>;

/// One engine's dispatch job.
type DispatchJob = Box<dyn FnOnce() -> DispatchResult + Send>;

/// Fewest engines of an all-local plan that go to the pool: a hand-off
/// to a worker and back costs about as much as searching this many
/// newsgroup-sized collections (traced `pool.queue_wait_us_p50` ≈ 150 µs
/// against 3–8 µs a search on the 2-core box), and when it lands behind
/// other runnable threads, milliseconds.
const MIN_POOLED_LOCAL: usize = 64;

/// One pool job of a dispatch: the jobs of one or more engines run back
/// to back, `None` for an engine whose job panicked.
type DispatchBatch = Box<dyn FnOnce() -> Vec<Option<DispatchResult>> + Send>;

/// Opens one engine's `dispatch:<engine>` span under the dispatch span,
/// carrying the queue-wait measured from submission to job start. An
/// unsampled trace formats nothing: this runs once per selected engine
/// of every request.
fn engine_span(
    trace: &TraceHandle,
    parent: SpanId,
    name: &str,
    kind: &str,
    enqueued: Instant,
) -> SpanGuard {
    if !trace.is_sampled() {
        return SpanGuard::disabled();
    }
    let mut span = trace.child_span(&format!("dispatch:{name}"), parent);
    span.attr("engine", name);
    span.attr("kind", kind);
    span.attr(
        "queue_wait_s",
        format!("{:.6}", enqueued.elapsed().as_secs_f64()),
    );
    span
}

/// A shard-hydration job for the worker pool, returning how many cold
/// entries it decoded from the store.
type HydrateJob = Box<dyn FnOnce() -> usize + Send>;

/// Instrument handles cached once per process.
struct BrokerMetrics {
    query_latency: Arc<seu_obs::Histogram>,
    select_latency: Arc<seu_obs::Histogram>,
    plan_latency: Arc<seu_obs::Histogram>,
    dispatch_latency: Arc<seu_obs::Histogram>,
    queries: Arc<seu_obs::Counter>,
    selects: Arc<seu_obs::Counter>,
    estimates: Arc<seu_obs::Counter>,
    analyses: Arc<seu_obs::Counter>,
    considered: Arc<seu_obs::Counter>,
    selected: Arc<seu_obs::Counter>,
    merge_hits: Arc<seu_obs::Counter>,
    merge_size: Arc<seu_obs::Histogram>,
    engine_failures: Arc<seu_obs::Counter>,
    engine_timeouts: Arc<seu_obs::Counter>,
    representative_refreshes: Arc<seu_obs::Counter>,
    stale_plans: Arc<seu_obs::Counter>,
    push_invalidations: Arc<seu_obs::Counter>,
    registry_engines: Arc<seu_obs::Gauge>,
    representative_bytes: Arc<seu_obs::Gauge>,
    store_hydration: Arc<seu_obs::Histogram>,
}

fn metrics() -> &'static BrokerMetrics {
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
        registry_engines: seu_obs::gauge("broker_registry_engines"),
        representative_bytes: seu_obs::gauge("broker_representative_bytes_resident"),
        store_hydration: seu_obs::histogram("broker_store_hydration_seconds"),
    })
}

/// Forces creation of the broker's instruments so snapshots and
/// expositions include the whole `broker_*` family — zero-valued if the
/// process never ran a query — instead of a family that appears only
/// after the first call touches it.
pub fn register_metrics() {
    let _ = metrics();
    crate::pool::register_metrics();
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineEstimate {
    /// Engine name (registration key).
    pub engine: String,
    /// Estimated usefulness.
    pub usefulness: Usefulness,
}

/// One merged result row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
///     .worker_threads(8)
///     .build();
/// assert!(broker.is_empty());
/// ```
pub struct BrokerBuilder<E> {
    estimator: E,
    shards: usize,
    worker_threads: Option<usize>,
    pool_label: Option<String>,
    cache_bytes: usize,
    store: Option<Arc<StoreHandle>>,
}

impl<E: UsefulnessEstimator + Sync> BrokerBuilder<E> {
    /// Fixes the dispatch worker-pool size. Without this the pool is
    /// sized `min(registered engines, available cores)` when the first
    /// query executes.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads.max(1));
        self
    }

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

    /// Names this broker's dispatch pool, so its queue depth and worker
    /// count are additionally published under exclusive, label-suffixed
    /// gauges (`broker_pool_<label>_queue_depth`,
    /// `broker_pool_<label>_workers`) instead of only the process-wide
    /// sums — see [`WorkerPool::named`]. Use a Prometheus-safe fragment
    /// (`[a-z0-9_]+`).
    pub fn pool_label(mut self, label: impl Into<String>) -> Self {
        self.pool_label = Some(label.into());
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
    /// (created if absent), opened as the full tiered stack — a
    /// [`DEFAULT_HOT_TIER_BYTES`] decoded-record cache over the
    /// quantized on-disk cold tier. Every representative the broker
    /// installs is written through (and **canonicalized**: the broker
    /// serves the quantized round-trip, so its estimates are
    /// bit-identical to a broker restored from the store later);
    /// [`Broker::snapshot_registry`] persists a consistent registry cut
    /// and [`Broker::restore`] rebuilds a registry from one.
    pub fn store(mut self, path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        let store = seu_store::open_tiered(path, DEFAULT_HOT_TIER_BYTES)?;
        self.store = Some(Arc::new(StoreHandle::new(Arc::new(store))));
        Ok(self)
    }

    /// Attaches an already-constructed representative store (e.g. a
    /// custom tier stack, or a shared in-memory store in tests). Same
    /// write-through and canonicalization semantics as
    /// [`BrokerBuilder::store`].
    pub fn store_handle(mut self, store: Arc<dyn ReprStore>) -> Self {
        self.store = Some(Arc::new(StoreHandle::new(store)));
        self
    }

    /// Builds the (empty) broker.
    pub fn build(self) -> Broker<E> {
        // Per-shard gauges only exist for actually sharded brokers: a
        // flat (1-shard) broker keeps the historical metric surface.
        let shard_gauges = if self.shards > 1 {
            (0..self.shards)
                .map(|i| ShardGauges {
                    engines: seu_obs::gauge(&format!("broker_registry_engines_shard_{i}")),
                    bytes: seu_obs::gauge(&format!(
                        "broker_representative_bytes_resident_shard_{i}"
                    )),
                })
                .collect()
        } else {
            Vec::new()
        };
        Broker {
            estimator: self.estimator,
            registry: Arc::new(ShardedRegistry::new(self.shards)),
            vocab: Arc::new(RwLock::new(Vocabulary::new())),
            shard_gauges: Arc::new(shard_gauges),
            worker_threads: self.worker_threads,
            pool_label: self.pool_label,
            pool: OnceLock::new(),
            cache: (self.cache_bytes > 0).then(|| QueryCache::new(self.cache_bytes)),
            store: self.store,
            cold_engines: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// A metasearch broker generic over the usefulness estimator.
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
/// // The request pipeline: plan once, execute over the worker pool.
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
pub struct Broker<E> {
    estimator: E,
    /// The registry: N independently locked shards, each owning its
    /// entries, its epoch counter, and its gauge bookkeeping. The
    /// broker-wide registry epoch is derived as the sum of the shard
    /// epochs — bumped under the owning shard's write lock on every
    /// registration and per-engine lifecycle change (refresh,
    /// representative update, engine replacement), never behind a
    /// global lock. [`QueryPlan`] records the sum it was planned
    /// against; a mismatch later means the plan is stale. `Arc` so
    /// per-shard refresh sweeps can run as `'static` worker-pool jobs.
    registry: Arc<ShardedRegistry>,
    /// Union vocabulary over every registered engine — the target of the
    /// single query-analysis pass. Locked *after* a shard's entries lock
    /// everywhere both are held.
    vocab: Arc<RwLock<Vocabulary>>,
    /// Per-shard gauge handles (`broker_registry_engines_shard_<i>`,
    /// `broker_representative_bytes_resident_shard_<i>`); empty for flat
    /// (1-shard) brokers.
    shard_gauges: Arc<Vec<ShardGauges>>,
    /// Builder override for the dispatch pool size.
    worker_threads: Option<usize>,
    /// Builder override for the dispatch pool's metric label.
    pool_label: Option<String>,
    /// The dispatch pool, sized lazily at first execution.
    pool: OnceLock<WorkerPool>,
    /// The query cache (`None` when built with `cache_bytes(0)`). Keys
    /// embed the registry epoch, so staleness falls out of the existing
    /// epoch machinery — see [`crate::cache`] for the design.
    cache: Option<QueryCache>,
    /// The attached representative store (`None` without
    /// [`BrokerBuilder::store`]). Installs write through it; restores
    /// read back from it.
    store: Option<Arc<StoreHandle>>,
    /// Number of restored entries whose representative still lives only
    /// in the cold tier. Planning hydrates lazily: the first plan after
    /// a restore decodes every cold entry (per shard, in parallel),
    /// after which this is 0 and the check is a single atomic load.
    cold_engines: Arc<AtomicU64>,
}

/// Per-shard registry gauge handles.
struct ShardGauges {
    engines: Arc<seu_obs::Gauge>,
    bytes: Arc<seu_obs::Gauge>,
}

/// Re-publishes one shard's contribution to the registry gauges as a
/// delta against what it last reported, so several live brokers (e.g.
/// in one test binary) sum correctly, and so `Drop` can retract exactly
/// what was published. Call with the shard's entries write lock held —
/// publication must be atomic with the change it reports.
fn publish_shard_gauges(
    shard: &Shard,
    shard_idx: usize,
    entries: &[RegisteredEngine],
    per_shard: &[ShardGauges],
) {
    let m = metrics();
    let n = entries.len() as u64;
    // Cold (not-yet-hydrated) entries report the encoded size the
    // manifest recorded; hydrated ones their decoded resident bytes.
    let bytes: u64 = entries
        .iter()
        .map(|e| match e.cold {
            Some(c) => c.repr_bytes,
            None => e.repr.bytes_resident(),
        })
        .sum();
    let prev_n = shard.gauge_engines.swap(n, Ordering::SeqCst);
    let prev_bytes = shard.gauge_repr_bytes.swap(bytes, Ordering::SeqCst);
    let dn = n as f64 - prev_n as f64;
    let dbytes = bytes as f64 - prev_bytes as f64;
    m.registry_engines.add(dn);
    m.representative_bytes.add(dbytes);
    if let Some(g) = per_shard.get(shard_idx) {
        g.engines.add(dn);
        g.bytes.add(dbytes);
    }
}

/// Sweeps one shard for stale entries and refreshes them, bumping the
/// shard epoch once per refresh and republishing the shard's gauges.
/// Returns `(registration seq, name)` of every engine refreshed. Free
/// function (not a method) so multi-shard sweeps can run it as
/// `'static` worker-pool jobs holding only `Arc` handles.
fn sweep_shard(
    registry: &ShardedRegistry,
    idx: usize,
    vocab: &RwLock<Vocabulary>,
    gauges: &[ShardGauges],
    store: Option<&StoreHandle>,
) -> Vec<(u64, String)> {
    let shard = &registry.shards()[idx];
    let mut entries = shard.entries.write();
    let mut refreshed = Vec::new();
    for e in entries.iter_mut() {
        if e.is_stale() && e.try_refresh(&mut vocab.write(), store).is_ok() {
            metrics().representative_refreshes.inc();
            shard.epoch.fetch_add(1, Ordering::SeqCst);
            refreshed.push((e.seq, e.name.clone()));
        }
    }
    if !refreshed.is_empty() {
        publish_shard_gauges(shard, idx, &entries, gauges);
    }
    refreshed
}

/// Hydrates every cold entry in one shard from the store: decodes the
/// stored record, rebuilds the entry's planning metadata and term map
/// from it, and installs the canonical representative. Runs under the
/// shard's write lock; bumps **no** epochs — hydration is invisible to
/// planning because every plan hydrates first, so no plan (or cache
/// entry) can ever have observed the pre-hydration placeholder state.
/// A record that is missing or unreadable marks its entry
/// `pending_invalidation` (surfaced as stale, reconciled by attach)
/// and stashes the error for the next `snapshot_registry`, instead of
/// re-reading the store on every plan.
fn hydrate_shard(
    registry: &ShardedRegistry,
    idx: usize,
    vocab: &RwLock<Vocabulary>,
    gauges: &[ShardGauges],
    store: &StoreHandle,
    cold_engines: &AtomicU64,
) -> usize {
    let shard = &registry.shards()[idx];
    if shard.entries.read().iter().all(|e| e.cold.is_none()) {
        return 0;
    }
    let m = metrics();
    let mut entries = shard.entries.write();
    let mut hydrated = 0usize;
    for e in entries.iter_mut() {
        if e.cold.is_none() {
            continue;
        }
        let timer = m.store_hydration.start_timer();
        let key = e
            .stored_fingerprint
            .expect("cold entries always carry their store key");
        match store.get(key) {
            Some(record) => {
                let endpoint = e.handle.endpoint();
                let meta = RemoteMeta {
                    analyzer: record.analyzer,
                    scheme: record.scheme,
                    n_docs: record.n_docs(),
                    doc_freq: record.doc_freq.clone(),
                    vocab: record.vocab.clone(),
                    fingerprint: record.fingerprint,
                };
                // The record's vocabulary is written in the source
                // collection's term-id order, so this map is valid for
                // any collection with the same fingerprint — which is
                // what lets `replace_engine`/`attach_engine` with
                // identical content plan immediately, exactly like a
                // never-restarted broker.
                e.map = TermMap::from_vocab(&mut vocab.write(), &meta.vocab);
                e.map_fingerprint = Some(record.fingerprint);
                e.repr = record.repr.clone();
                e.handle = EngineHandle::Detached { meta, endpoint };
            }
            None => {
                store.stash(StoreError::missing(format!(
                    "stored representative for engine {:?} ({key:?}) is missing or unreadable",
                    e.name
                )));
                e.pending_invalidation = true;
            }
        }
        e.cold = None;
        cold_engines.fetch_sub(1, Ordering::SeqCst);
        hydrated += 1;
        timer.stop();
    }
    if hydrated > 0 {
        publish_shard_gauges(shard, idx, &entries, gauges);
    }
    hydrated
}

impl<E> Drop for Broker<E> {
    fn drop(&mut self) {
        let m = metrics();
        for (i, shard) in self.registry.shards().iter().enumerate() {
            let n = shard.gauge_engines.swap(0, Ordering::SeqCst);
            let bytes = shard.gauge_repr_bytes.swap(0, Ordering::SeqCst);
            m.registry_engines.add(-(n as f64));
            m.representative_bytes.add(-(bytes as f64));
            if let Some(g) = self.shard_gauges.get(i) {
                g.engines.add(-(n as f64));
                g.bytes.add(-(bytes as f64));
            }
        }
    }
}

impl<E: UsefulnessEstimator + Sync> Broker<E> {
    /// Creates an empty broker with default dispatch configuration.
    pub fn new(estimator: E) -> Self {
        Broker::builder(estimator).build()
    }

    /// Starts configuring a broker.
    pub fn builder(estimator: E) -> BrokerBuilder<E> {
        BrokerBuilder {
            estimator,
            shards: 1,
            worker_threads: None,
            pool_label: None,
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
    fn cache_for(&self, req: &SearchRequest) -> Option<&QueryCache> {
        if req.explain || !req.cache.reads() {
            return None;
        }
        self.cache.as_ref()
    }

    /// Eagerly reclaims cache entries made stale by a lifecycle event.
    /// Correctness never depends on this — keys embed their epoch, so a
    /// stale entry already misses every lookup — it only returns the
    /// dead entries' bytes to the budget immediately.
    fn purge_cache(&self) {
        if let Some(c) = &self.cache {
            c.purge_stale(self.registry.epoch());
        }
    }

    /// Registers an engine; its representative is built from its
    /// collection on the spot (in a deployment the engine would ship the
    /// serialized representative instead — see
    /// [`Broker::register_with_representative`]).
    pub fn register(&self, name: &str, engine: SearchEngine) {
        self.register_shared(name, Arc::new(engine));
    }

    /// [`Broker::register`] for an engine shared by handle — the
    /// federation replication path, where several broker replicas hold
    /// standby copies of the same in-process engine. Registration is
    /// byte-identical to [`Broker::register`]: the representative is
    /// built from the same collection either way.
    pub fn register_shared(&self, name: &str, engine: Arc<SearchEngine>) {
        let repr = Representative::build(engine.collection());
        let provenance = ReprProvenance::Local(engine.fingerprint());
        self.register_inner(name, engine, repr, provenance);
    }

    /// Registers an engine together with a representative it supplied
    /// (e.g. deserialized from [`Representative::to_bytes`], or a
    /// quantized one). The engine's vocabulary is folded into the
    /// broker-global vocabulary so queries are analyzed once, not once
    /// per engine.
    pub fn register_with_representative(
        &self,
        name: &str,
        engine: SearchEngine,
        repr: Representative,
    ) {
        let provenance = ReprProvenance::Shipped {
            n_docs: repr.n_docs(),
            raw_bytes: repr.collection_bytes(),
        };
        self.register_inner(name, Arc::new(engine), repr, provenance);
    }

    /// Registration from a live collection: the term map and the stored
    /// record both come from the engine itself.
    fn register_inner(
        &self,
        name: &str,
        engine: Arc<SearchEngine>,
        repr: Representative,
        provenance: ReprProvenance,
    ) {
        self.install_entry(
            name,
            EngineHandle::Local(Arc::clone(&engine)),
            provenance,
            Some(engine.fingerprint()),
            repr,
            |vocab| TermMap::build(vocab, engine.collection()),
            |repr| record_for_local(name, &engine, repr),
        );
    }

    /// The one install tail every registration path ends in. Lock
    /// order: the owning shard's `entries` before `vocab`, matching
    /// every lifecycle method that touches both. Only the routed shard
    /// is locked — registration in one shard never blocks planning over
    /// another.
    #[allow(clippy::too_many_arguments)]
    fn install_entry(
        &self,
        name: &str,
        handle: EngineHandle,
        provenance: ReprProvenance,
        map_fingerprint: Option<Fingerprint>,
        repr: Representative,
        build_map: impl FnOnce(&mut Vocabulary) -> TermMap,
        record: impl FnOnce(&Representative) -> EngineRecord,
    ) {
        let (idx, shard) = self.registry.shard_of(name);
        let mut entries = shard.entries.write();
        let map = build_map(&mut self.vocab.write());
        // Write-through: an attached store receives the representative
        // and hands back the canonical (quantized round-trip) form,
        // which is what the broker must serve to stay bit-identical
        // with a broker restored from the store later.
        let (repr, stored_fingerprint) = match self.store.as_deref() {
            Some(store) => {
                let canonical = store.canonicalize(&record(&repr));
                (canonical.repr.clone(), Some(canonical.fingerprint))
            }
            None => (Arc::new(repr), None),
        };
        entries.push(RegisteredEngine {
            name: name.to_string(),
            seq: self.registry.next_seq(),
            handle,
            repr,
            map,
            map_fingerprint,
            epoch: 0,
            provenance,
            pending_invalidation: false,
            cold: None,
            stored_fingerprint,
        });
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
        drop(entries);
        self.purge_cache();
    }

    /// Registration from a shipped snapshot (fetched over a transport or
    /// pushed by a front-door): refuses an inconsistent one, then
    /// installs with the term map and the stored record built from the
    /// snapshot's planning metadata, which `handle` also receives.
    fn install_from_snapshot(
        &self,
        snapshot: EngineSnapshot,
        map_fingerprint: Option<Fingerprint>,
        handle: impl FnOnce(RemoteMeta) -> EngineHandle,
    ) -> Result<String, TransportError> {
        if !snapshot.is_consistent() {
            return Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!(
                    "engine {:?} shipped an inconsistent snapshot",
                    snapshot.name
                ),
            ));
        }
        let meta = RemoteMeta::from_snapshot(&snapshot);
        let name = snapshot.name;
        self.install_entry(
            &name,
            handle(meta.clone()),
            ReprProvenance::Remote(snapshot.fingerprint),
            map_fingerprint,
            snapshot.summary.repr,
            |vocab| TermMap::from_vocab(vocab, &meta.vocab),
            |repr| record_for_remote(&name, &meta, repr),
        );
        Ok(name)
    }

    /// Registers an engine that lives in another process, reached through
    /// `transport`: fetches its [`EngineSnapshot`](crate::EngineSnapshot)
    /// (name, analyzer configuration, weighting statistics, fingerprint,
    /// and its representative + vocabulary at full precision), folds its
    /// vocabulary into the broker-global term space, and registers it
    /// under its advertised name. From then on the broker plans for it
    /// exactly as for a local engine — same shared analysis, same term
    /// translation, same estimates, byte for byte — and dispatches to it
    /// over the transport.
    ///
    /// Returns the engine's advertised name, or the [`TransportError`]
    /// if the snapshot could not be fetched or was inconsistent.
    pub fn register_remote(
        &self,
        transport: Arc<dyn RemoteTransport>,
    ) -> Result<String, TransportError> {
        let snapshot = transport.fetch_snapshot()?;
        self.install_from_snapshot(snapshot, None, |meta| EngineHandle::Remote {
            transport,
            meta,
        })
    }

    /// Installs an engine from a shipped [`EngineSnapshot`] — the
    /// federation rebalance path, where a moved engine hydrates on this
    /// broker from the snapshot alone instead of re-registering against
    /// the original collection. With a live `engine` handle (an
    /// in-process source shared across replicas) the entry dispatches
    /// immediately; with only an `endpoint` it is registered detached —
    /// planning and estimates work bit-identically from the shipped
    /// representative, and [`Broker::attach_remote`] upgrades it to a
    /// live remote once a transport dials the endpoint.
    pub fn install_snapshot(
        &self,
        snapshot: EngineSnapshot,
        engine: Option<Arc<SearchEngine>>,
        endpoint: Option<String>,
    ) -> Result<String, TransportError> {
        // The snapshot's vocabulary is id-aligned with the source
        // collection, so when the live engine *is* that collection the
        // map is valid for it and planning may trust it.
        let map_fingerprint = engine
            .as_ref()
            .map(|e| e.fingerprint())
            .filter(|fp| *fp == snapshot.fingerprint);
        self.install_from_snapshot(snapshot, map_fingerprint, |meta| match engine {
            Some(engine) => EngineHandle::Local(engine),
            None => EngineHandle::Detached { meta, endpoint },
        })
    }

    /// Removes an engine from the registry, bumping the shard epoch so
    /// outstanding plans that include it are detectably stale. Returns
    /// `false` for an unknown name. This is the federation rebalance
    /// counterpart of [`Broker::install_snapshot`]: a replica drops an
    /// engine once the ring no longer places it here.
    pub fn deregister(&self, name: &str) -> bool {
        let (idx, shard) = self.registry.shard_of(name);
        let mut entries = shard.entries.write();
        let Some(pos) = entries.iter().position(|e| e.name == name) else {
            return false;
        };
        if entries[pos].cold.is_some() {
            self.cold_engines.fetch_sub(1, Ordering::SeqCst);
        }
        entries.remove(pos);
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
        drop(entries);
        self.purge_cache();
        true
    }

    /// Exports an engine's [`EngineSnapshot`] for shipping to another
    /// broker (the federation rebalance path). Local engines snapshot
    /// their collection, remote engines refetch over their transport,
    /// and detached entries refuse — there is nothing live to export
    /// from.
    pub fn export_snapshot(&self, name: &str) -> Result<EngineSnapshot, TransportError> {
        let (_, shard) = self.registry.shard_of(name);
        let handle = {
            let entries = shard.entries.read();
            entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.handle.clone())
        };
        match handle {
            None => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("unknown engine {name:?}"),
            )),
            Some(EngineHandle::Local(engine)) => Ok(EngineSnapshot::of_engine(name, &engine)),
            Some(EngineHandle::Remote { transport, .. }) => transport.fetch_snapshot(),
            Some(EngineHandle::Detached { .. }) => Err(TransportError::new(
                TransportErrorKind::Refused,
                format!("engine {name:?} is detached; nothing live to export"),
            )),
        }
    }

    /// Applies a push invalidation notice from a remote engine: the
    /// engine's collection changed and its snapshot fingerprint is now
    /// `fingerprint`. If the registry already holds that snapshot the
    /// notice is a no-op; otherwise the broker refetches the snapshot
    /// over the engine's transport and installs it (representative, term
    /// map, planning metadata, and provenance move together), bumping the
    /// engine's epoch and the registry epoch so outstanding plans are
    /// detectably stale.
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
        let m = metrics();
        let (idx, shard) = self.registry.shard_of(name);
        let mut entries = shard.entries.write();
        let Some(i) = entries.iter().position(|e| e.name == name) else {
            return Ok(false);
        };
        m.push_invalidations.inc();
        if entries[i].provenance.matches(fingerprint) && !entries[i].pending_invalidation {
            // The notice describes the snapshot the registry already
            // holds (e.g. a redelivery); nothing to refetch. Restored
            // entries compare against the manifest's fingerprint, so a
            // redelivered pre-snapshot notice is a no-op even before
            // hydration.
            return Ok(true);
        }
        entries[i].try_refresh(&mut self.vocab.write(), self.store.as_deref())?;
        m.representative_refreshes.inc();
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
        // The push half of cache invalidation: entries keyed at the
        // pre-notice epoch are dropped eagerly, not just unreachable.
        drop(entries);
        self.purge_cache();
        Ok(true)
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether no engine is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of registry shards (1 for a flat broker).
    pub fn shards(&self) -> usize {
        self.registry.n_shards()
    }

    /// Registered engine names, in registration order.
    pub fn engine_names(&self) -> Vec<String> {
        let mut named: Vec<(u64, String)> = Vec::new();
        for shard in self.registry.shards() {
            named.extend(shard.entries.read().iter().map(|e| (e.seq, e.name.clone())));
        }
        named.sort_unstable_by_key(|&(seq, _)| seq);
        named.into_iter().map(|(_, name)| name).collect()
    }

    /// Shared handles to the registered **local** engines, in
    /// registration order (used by the hierarchy layer to build group
    /// summaries). Remote engines are skipped: their collections are not
    /// resident in this process.
    pub fn engines(&self) -> Vec<Arc<SearchEngine>> {
        let mut handles: Vec<(u64, Arc<SearchEngine>)> = Vec::new();
        for shard in self.registry.shards() {
            handles.extend(
                shard
                    .entries
                    .read()
                    .iter()
                    .filter_map(|e| e.handle.local().cloned().map(|h| (e.seq, h))),
            );
        }
        handles.sort_unstable_by_key(|&(seq, _)| seq);
        handles.into_iter().map(|(_, h)| h).collect()
    }

    /// The dispatch pool, created at first use: `worker_threads` from the
    /// builder if set, else `min(registered engines, available cores)`.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| {
            let threads = self.worker_threads.unwrap_or_else(|| {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                cores.min(self.len().max(1))
            });
            match &self.pool_label {
                Some(label) => WorkerPool::named(label, threads),
                None => WorkerPool::new(threads),
            }
        })
    }

    /// The configured or effective dispatch pool size, and the peak
    /// number of concurrently dispatched engine searches observed so far
    /// (0 before the first execution).
    pub fn pool_stats(&self) -> (usize, u64) {
        match self.pool.get() {
            Some(pool) => (pool.threads(), pool.peak_active()),
            None => (self.worker_threads.unwrap_or(0), 0),
        }
    }

    /// Rebuilds the named engine's representative — from its current
    /// collection for a local engine (the paper's infrequent
    /// metadata-propagation step, §1), by refetching its snapshot for a
    /// remote one — and, atomically with it, the engine's term map
    /// against the broker-global vocabulary, so terms that entered the
    /// collection after registration reach every subsequent plan. Bumps
    /// the engine's epoch and the registry epoch. Returns false if no
    /// engine has that name or a remote refetch failed (the entry is
    /// then marked stale for the next sweep).
    pub fn refresh_representative(&self, name: &str) -> bool {
        let (idx, shard) = self.registry.shard_of(name);
        let mut entries = shard.entries.write();
        match entries.iter_mut().find(|e| e.name == name) {
            Some(e) => {
                if e.try_refresh(&mut self.vocab.write(), self.store.as_deref())
                    .is_err()
                {
                    return false;
                }
                metrics().representative_refreshes.inc();
                shard.epoch.fetch_add(1, Ordering::SeqCst);
                publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
                drop(entries);
                self.purge_cache();
                true
            }
            None => false,
        }
    }

    /// Replaces the named engine's representative with one it shipped
    /// (e.g. a quantized or accumulator-snapshotted one), rebuilding the
    /// engine's term map alongside it. Bumps the engine's epoch and the
    /// registry epoch. Returns false if no engine has that name, or if
    /// the engine is remote (remote entries receive whole snapshots via
    /// push invalidation or [`Broker::refresh_representative`]).
    pub fn update_representative(&self, name: &str, repr: Representative) -> bool {
        let (idx, shard) = self.registry.shard_of(name);
        let mut entries = shard.entries.write();
        match entries
            .iter_mut()
            .find(|e| e.name == name && e.handle.local().is_some())
        {
            Some(e) => {
                e.install_shipped(&mut self.vocab.write(), repr, self.store.as_deref());
                metrics().representative_refreshes.inc();
                shard.epoch.fetch_add(1, Ordering::SeqCst);
                publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
                drop(entries);
                self.purge_cache();
                true
            }
            None => false,
        }
    }

    /// Swaps the named engine for a new snapshot of it **without**
    /// touching its representative or term map — modelling a remote
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
        // Hydrate first so a restored entry's term map and canonical
        // representative are in place: swapping in a collection with
        // the stored fingerprint then plans immediately (the hydrated
        // map is id-aligned with it), and any other collection follows
        // the usual sidelined-until-sweep path.
        self.ensure_hydrated();
        let (_, shard) = self.registry.shard_of(name);
        let mut entries = shard.entries.write();
        match entries
            .iter_mut()
            .find(|e| e.name == name && !e.handle.is_remote())
        {
            Some(e) => {
                e.handle = EngineHandle::Local(Arc::new(engine));
                e.epoch += 1;
                shard.epoch.fetch_add(1, Ordering::SeqCst);
                // The epoch bump at the same instant as the swap also
                // closes the cache's mid-replacement window: plans and
                // results cached against the sidelined engine are keyed
                // at the pre-swap epoch, so they can never be served —
                // and the purge reclaims them immediately.
                drop(entries);
                self.purge_cache();
                true
            }
            None => false,
        }
    }

    /// Sweeps the registry and rebuilds the representative (and term
    /// map) of every engine whose collection fingerprint no longer
    /// matches what its representative was built from. The comparison is
    /// O(1) per engine — fingerprints are cached at engine construction;
    /// a remote engine is stale only if a push invalidation (or a failed
    /// refetch) marked it — so the sweep is cheap when nothing changed.
    /// A remote refetch that fails leaves its entry stale for the next
    /// sweep. Returns the names of the engines it refreshed, in
    /// registration order.
    ///
    /// Sharded brokers sweep each shard as an independent worker-pool
    /// job: shards refresh concurrently, and a slow shard (e.g. one
    /// full of remote refetches) only holds its own lock while the
    /// others are already serving plans again.
    pub fn refresh_if_stale(&self) -> Vec<String> {
        self.ensure_hydrated();
        let mut refreshed: Vec<(u64, String)> = Vec::new();
        if self.registry.n_shards() == 1 {
            refreshed = sweep_shard(
                &self.registry,
                0,
                &self.vocab,
                &self.shard_gauges,
                self.store.as_deref(),
            );
        } else {
            let jobs: Vec<SweepJob> = (0..self.registry.n_shards())
                .map(|i| {
                    let registry = Arc::clone(&self.registry);
                    let vocab = Arc::clone(&self.vocab);
                    let gauges = Arc::clone(&self.shard_gauges);
                    let store = self.store.clone();
                    Box::new(move || sweep_shard(&registry, i, &vocab, &gauges, store.as_deref()))
                        as SweepJob
                })
                .collect();
            for status in self.pool().run_collect(jobs, None) {
                if let Some(mut names) = status.into_done() {
                    refreshed.append(&mut names);
                }
            }
        }
        refreshed.sort_unstable_by_key(|&(seq, _)| seq);
        if !refreshed.is_empty() {
            self.purge_cache();
        }
        refreshed.into_iter().map(|(_, name)| name).collect()
    }

    /// Whether the named engine's representative is stale (its
    /// collection fingerprint no longer matches). `None` if no engine
    /// has that name.
    pub fn is_stale(&self, name: &str) -> Option<bool> {
        let (_, shard) = self.registry.shard_of(name);
        shard
            .entries
            .read()
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.is_stale())
    }

    /// Per-engine lifecycle status, in registration order. One snapshot
    /// per shard — see [`Broker::registry_snapshot`] for the epoch cut
    /// that comes with it.
    pub fn engine_statuses(&self) -> Vec<EngineStatus> {
        self.registry_snapshot().statuses
    }

    /// Per-engine lifecycle statuses together with the epoch cut they
    /// were captured at. Each shard contributes its statuses *and* its
    /// epoch from under a single read-lock acquisition (one lock
    /// round-trip per shard, not per engine), so within every shard the
    /// statuses and the epoch describe the same instant — the
    /// consistency contract [`RegistrySnapshot`] documents.
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        let mut tagged: Vec<(u64, EngineStatus)> = Vec::new();
        let mut shard_epochs = Vec::with_capacity(self.registry.n_shards());
        for (idx, shard) in self.registry.shards().iter().enumerate() {
            let entries = shard.entries.read();
            // Read under the same guard as the entries: the pair is a
            // consistent cut of this shard.
            shard_epochs.push(shard.epoch.load(Ordering::SeqCst));
            tagged.extend(entries.iter().map(|e| {
                (
                    e.seq,
                    EngineStatus {
                        name: e.name.clone(),
                        shard: idx,
                        epoch: e.epoch,
                        stale: e.is_stale(),
                        // Cold entries report the manifest's bookkeeping
                        // (statuses never force hydration).
                        repr_terms: match e.cold {
                            Some(c) => c.repr_terms as usize,
                            None => e.repr.distinct_terms(),
                        },
                        repr_bytes: match e.cold {
                            Some(c) => c.repr_bytes,
                            None => e.repr.bytes_resident(),
                        },
                        remote: e.handle.is_remote(),
                        detached: e.handle.is_detached(),
                        endpoint: e.handle.endpoint(),
                    },
                )
            }));
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        RegistrySnapshot {
            statuses: tagged.into_iter().map(|(_, s)| s).collect(),
            epoch: shard_epochs.iter().sum(),
            shard_epochs,
        }
    }

    /// The current registry epoch — the sum of the per-shard epochs,
    /// derived without a global lock. Plans made at an older epoch are
    /// stale: their term translations and estimates may no longer
    /// describe the registered representatives.
    pub fn registry_epoch(&self) -> u64 {
        self.registry.epoch()
    }

    /// Whether a persistent representative store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Persists a consistent cut of the registry to the attached store
    /// and returns the committed [`Manifest`]. Each shard contributes
    /// its entries and epoch from under a single read-lock acquisition
    /// (the same cut discipline as [`Broker::registry_snapshot`]); the
    /// representatives themselves were already written through at
    /// install time, so this only flushes segments and swaps the
    /// manifest atomically.
    ///
    /// Fails with [`StoreErrorKind::Invalid`] if the broker was built
    /// without a store, and re-raises the first store error deferred
    /// from a write-through or hydration since the last snapshot —
    /// a snapshot must not silently describe state the store failed
    /// to absorb.
    ///
    /// [`StoreErrorKind::Invalid`]: seu_store::StoreErrorKind
    pub fn snapshot_registry(&self) -> Result<Manifest, StoreError> {
        let store = self.store.as_deref().ok_or_else(|| {
            StoreError::invalid(
                "broker was built without a store; use BrokerBuilder::store to attach one",
            )
        })?;
        if let Some(err) = store.take_error() {
            return Err(err);
        }
        let mut tagged: Vec<(u64, ManifestEntry)> = Vec::new();
        let mut shard_epochs = Vec::with_capacity(self.registry.n_shards());
        for shard in self.registry.shards() {
            let entries = shard.entries.read();
            shard_epochs.push(shard.epoch.load(Ordering::SeqCst));
            for e in entries.iter() {
                let fingerprint = e.stored_fingerprint.ok_or_else(|| {
                    StoreError::missing(format!(
                        "engine {:?} has no stored representative (was it registered \
                         before the store was attached?)",
                        e.name
                    ))
                })?;
                let kind = if matches!(e.provenance, ReprProvenance::Shipped { .. }) {
                    EntryKind::Shipped
                } else {
                    match &e.handle {
                        EngineHandle::Local(_) => EntryKind::Local,
                        EngineHandle::Remote { transport, .. } => EntryKind::Remote {
                            endpoint: transport.endpoint(),
                        },
                        // A still-detached entry keeps whatever kind it
                        // was snapshotted with.
                        EngineHandle::Detached { endpoint, .. } => match endpoint {
                            Some(ep) => EntryKind::Remote {
                                endpoint: ep.clone(),
                            },
                            None => EntryKind::Local,
                        },
                    }
                };
                tagged.push((
                    e.seq,
                    ManifestEntry {
                        name: e.name.clone(),
                        seq: e.seq,
                        epoch: e.epoch,
                        fingerprint,
                        kind,
                        analyzer: e.handle.analyzer_config(),
                        scheme: e.handle.scheme(),
                        repr_terms: match e.cold {
                            Some(c) => c.repr_terms,
                            None => e.repr.distinct_terms() as u64,
                        },
                        repr_bytes: match e.cold {
                            Some(c) => c.repr_bytes,
                            None => e.repr.bytes_resident(),
                        },
                    },
                ));
            }
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        let manifest = Manifest {
            epoch: shard_epochs.iter().sum(),
            shard_epochs,
            next_seq: self.registry.seq_watermark(),
            entries: tagged.into_iter().map(|(_, e)| e).collect(),
        };
        store.store().commit(&manifest)?;
        Ok(manifest)
    }

    /// Rebuilds the registry from the attached store's last committed
    /// manifest and returns how many engines were restored. The broker
    /// serves immediately: every entry comes up **detached** (statuses,
    /// staleness, and invalidation notices work right away) with its
    /// representative left in the cold tier; the first plan hydrates
    /// each shard lazily — see [`Broker::hydrate`]. Re-attach live
    /// engines with [`Broker::attach_engine`] /
    /// [`Broker::attach_remote`] to dispatch to them.
    ///
    /// The restored broker may use a different shard count than the one
    /// that snapshotted: entries re-route by [`crate::shard_for`] and
    /// each shard's epoch is recomputed to keep the registry invariant
    /// (`shard epoch == entries + Σ entry epochs`), so a restored
    /// broker at the same shard count reports exactly the epochs the
    /// snapshotting broker had.
    ///
    /// Fails with [`StoreErrorKind::Invalid`] if no store is attached
    /// or the broker already has engines registered (restore is a
    /// cold-start operation, not a merge).
    ///
    /// [`StoreErrorKind::Invalid`]: seu_store::StoreErrorKind
    pub fn restore(&self) -> Result<usize, StoreError> {
        let store = self.store.as_deref().ok_or_else(|| {
            StoreError::invalid(
                "broker was built without a store; use BrokerBuilder::store to attach one",
            )
        })?;
        if !self.is_empty() {
            return Err(StoreError::invalid(
                "restore requires an empty broker (it rebuilds the registry from scratch)",
            ));
        }
        let manifest = store.store().manifest();
        let n = manifest.entries.len();
        let n_shards = self.registry.n_shards();
        let mut by_shard: Vec<Vec<&ManifestEntry>> = vec![Vec::new(); n_shards];
        for entry in &manifest.entries {
            by_shard[shard_for(&entry.name, n_shards)].push(entry);
        }
        for (idx, group) in by_shard.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.registry.shards()[idx];
            let mut entries = shard.entries.write();
            for e in group {
                let fp = e.fingerprint;
                let endpoint = match &e.kind {
                    EntryKind::Remote { endpoint } => Some(endpoint.clone()),
                    EntryKind::Local | EntryKind::Shipped => None,
                };
                let provenance = match &e.kind {
                    EntryKind::Local => ReprProvenance::Local(fp),
                    EntryKind::Remote { .. } => ReprProvenance::Remote(fp),
                    EntryKind::Shipped => ReprProvenance::Shipped {
                        n_docs: fp.n_docs,
                        raw_bytes: fp.raw_bytes,
                    },
                };
                // Placeholders until hydration: an empty representative
                // and vocabulary are enough for statuses and staleness;
                // no plan can observe them (plans hydrate first).
                let meta = RemoteMeta {
                    analyzer: e.analyzer,
                    scheme: e.scheme,
                    n_docs: fp.n_docs.min(u64::from(u32::MAX)) as u32,
                    doc_freq: Arc::new(Vec::new()),
                    vocab: Arc::new(Vocabulary::new()),
                    fingerprint: fp,
                };
                entries.push(RegisteredEngine {
                    name: e.name.clone(),
                    seq: e.seq,
                    handle: EngineHandle::Detached { meta, endpoint },
                    repr: Arc::new(Representative::from_parts(
                        fp.n_docs,
                        Vec::new(),
                        fp.raw_bytes,
                    )),
                    map: TermMap::from_vocab(&mut self.vocab.write(), &Vocabulary::new()),
                    map_fingerprint: None,
                    epoch: e.epoch,
                    provenance,
                    pending_invalidation: false,
                    cold: Some(ColdEntry {
                        repr_terms: e.repr_terms,
                        repr_bytes: e.repr_bytes,
                    }),
                    stored_fingerprint: Some(fp),
                });
            }
            entries.sort_unstable_by_key(|e| e.seq);
            let entry_epochs: u64 = entries.iter().map(|e| e.epoch).sum();
            // Restore the registry invariant for *this* shard count:
            // one registration bump per entry plus its own epoch.
            shard
                .epoch
                .store(entries.len() as u64 + entry_epochs, Ordering::SeqCst);
            publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
        }
        self.registry.set_seq(manifest.next_seq);
        self.cold_engines.store(n as u64, Ordering::SeqCst);
        Ok(n)
    }

    /// Hydrates every still-cold restored entry from the store now,
    /// instead of waiting for the first plan to do it lazily; returns
    /// how many entries were decoded. Sharded brokers hydrate each
    /// shard as an independent worker-pool job. Idempotent and cheap
    /// (one atomic load) once everything is hydrated.
    pub fn hydrate(&self) -> usize {
        let Some(store) = &self.store else {
            return 0;
        };
        if self.cold_engines.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        if self.registry.n_shards() == 1 {
            return hydrate_shard(
                &self.registry,
                0,
                &self.vocab,
                &self.shard_gauges,
                store,
                &self.cold_engines,
            );
        }
        let jobs: Vec<HydrateJob> = (0..self.registry.n_shards())
            .map(|i| {
                let registry = Arc::clone(&self.registry);
                let vocab = Arc::clone(&self.vocab);
                let gauges = Arc::clone(&self.shard_gauges);
                let store = Arc::clone(store);
                let cold = Arc::clone(&self.cold_engines);
                Box::new(move || hydrate_shard(&registry, i, &vocab, &gauges, &store, &cold))
                    as HydrateJob
            })
            .collect();
        self.pool()
            .run_collect(jobs, None)
            .into_iter()
            .filter_map(|s| s.into_done())
            .sum()
    }

    /// The fast path in front of [`Broker::hydrate`]: a single atomic
    /// load once the registry is fully hydrated.
    fn ensure_hydrated(&self) {
        if self.cold_engines.load(Ordering::SeqCst) != 0 {
            self.hydrate();
        }
    }

    /// Re-attaches a live local engine to a restored (detached) entry.
    /// If the engine's collection fingerprint matches the stored record
    /// the hydrated canonical representative and term map are kept —
    /// estimates stay bit-identical to the broker that wrote the
    /// snapshot; otherwise the representative and map are rebuilt from
    /// the new collection (and written through the store). Bumps the
    /// entry's epoch and the registry epoch either way. Returns false
    /// if no detached entry has that name.
    pub fn attach_engine(&self, name: &str, engine: SearchEngine) -> bool {
        self.ensure_hydrated();
        let (idx, shard) = self.registry.shard_of(name);
        let mut entries = shard.entries.write();
        let Some(e) = entries
            .iter_mut()
            .find(|e| e.name == name && e.handle.is_detached())
        else {
            return false;
        };
        let engine = Arc::new(engine);
        if e.map_fingerprint == Some(engine.fingerprint()) && !e.pending_invalidation {
            // Same collection content as the stored record: the
            // hydrated map is id-aligned with it and the canonical
            // representative describes it.
            e.handle = EngineHandle::Local(engine);
            e.provenance = match e.provenance {
                ReprProvenance::Shipped { .. } => e.provenance,
                _ => ReprProvenance::Local(e.stored_fingerprint.expect("hydrated from store")),
            };
            e.epoch += 1;
        } else {
            e.handle = EngineHandle::Local(engine);
            // Content differs (or hydration failed): rebuild from the
            // live collection — always succeeds for local engines, and
            // bumps the entry epoch itself.
            let _ = e.try_refresh(&mut self.vocab.write(), self.store.as_deref());
        }
        metrics().representative_refreshes.inc();
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
        drop(entries);
        self.purge_cache();
        true
    }

    /// Re-attaches a transport to a restored (detached) entry, keyed by
    /// the engine name its snapshot advertises. If the snapshot's
    /// fingerprint matches the stored record the hydrated metadata and
    /// canonical representative are kept (bit-identical estimates);
    /// otherwise the fresh snapshot is installed (and written through
    /// the store). Returns `Ok(false)` if no detached entry matches the
    /// advertised name, and the [`TransportError`] if the snapshot
    /// fetch failed or was inconsistent — the entry then stays detached
    /// and stale.
    pub fn attach_remote(
        &self,
        transport: Arc<dyn RemoteTransport>,
    ) -> Result<bool, TransportError> {
        self.ensure_hydrated();
        let snapshot = transport.fetch_snapshot()?;
        let name = snapshot.name.clone();
        let (idx, shard) = self.registry.shard_of(&name);
        let mut entries = shard.entries.write();
        let Some(e) = entries
            .iter_mut()
            .find(|e| e.name == name && e.handle.is_detached())
        else {
            return Ok(false);
        };
        let hydrated_meta = match &e.handle {
            EngineHandle::Detached { meta, .. } => meta.clone(),
            _ => unreachable!("filtered to detached entries above"),
        };
        let result = if hydrated_meta.fingerprint == snapshot.fingerprint && !e.pending_invalidation
        {
            e.handle = EngineHandle::Remote {
                transport,
                meta: hydrated_meta,
            };
            e.map_fingerprint = None;
            e.epoch += 1;
            Ok(())
        } else {
            e.handle = EngineHandle::Remote {
                transport,
                meta: RemoteMeta::from_snapshot(&snapshot),
            };
            match e.install_remote(&mut self.vocab.write(), &snapshot, self.store.as_deref()) {
                Ok(()) => Ok(()),
                Err(err) => {
                    // The handle moved even though the install failed;
                    // count the change so outstanding plans go stale.
                    e.epoch += 1;
                    Err(err)
                }
            }
        };
        metrics().representative_refreshes.inc();
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        publish_shard_gauges(shard, idx, &entries, &self.shard_gauges);
        drop(entries);
        self.purge_cache();
        result.map(|()| true)
    }

    /// Analyzes a query text once per distinct analyzer configuration
    /// among the registered engines (normally: exactly once) against the
    /// broker-global vocabulary. The result translates into any engine's
    /// term space without further string processing, and can be reused
    /// across thresholds.
    pub fn analyze(&self, query_text: &str) -> SharedAnalysis {
        // Distinct configs in exact registration order (first occurrence
        // wins), regardless of which shard each engine landed in.
        let mut tagged: Vec<(u64, AnalyzerConfig)> = Vec::new();
        for shard in self.registry.shards() {
            tagged.extend(
                shard
                    .entries
                    .read()
                    .iter()
                    .map(|e| (e.seq, e.handle.analyzer_config())),
            );
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        let mut configs: Vec<AnalyzerConfig> = Vec::new();
        for (_, config) in tagged {
            if !configs.contains(&config) {
                configs.push(config);
            }
        }
        let vocab = self.vocab.read();
        let m = metrics();
        let per_config = configs
            .into_iter()
            .map(|config| {
                m.analyses.inc();
                let tokens = Analyzer::new(config).analyze(query_text);
                (config, seu_engine::shared::global_tf(&vocab, &tokens))
            })
            .collect();
        SharedAnalysis { per_config }
    }

    /// Plans a request: one shared analysis pass, a query vector and a
    /// usefulness estimate per engine, and the policy's invocation set.
    /// No engine is contacted.
    ///
    /// Passing `Some(trace)` records spans into the active trace: one
    /// `plan` span with `analyze`, per-shard `shard_walk`, and `select`
    /// children.
    ///
    /// Unless the request bypasses the cache, the plan is served from
    /// (and inserted into) the plan tier of the query cache, and the
    /// analysis pass from the analysis tier — so a threshold sweep over
    /// the same query text re-estimates from the cached analysis
    /// instead of re-tokenizing (see [`crate::cache`]).
    pub fn plan(&self, req: &SearchRequest, trace: Option<&TraceHandle>) -> QueryPlan {
        self.plan_cached(req, trace).0
    }

    /// [`Broker::plan`], also reporting which cache tier (if any) the
    /// planning work came from: `Some(Plan)` for a plan-tier hit,
    /// `Some(Analysis)` when only the analysis was reused, `None` for a
    /// fully cold plan.
    fn plan_cached(
        &self,
        req: &SearchRequest,
        trace: Option<&TraceHandle>,
    ) -> (QueryPlan, Option<CacheTier>) {
        // Hydration before the epoch read: restored-but-cold entries
        // are decoded from the store now, so no plan (or cache key) is
        // ever computed against the pre-hydration placeholder state.
        // O(1) — one atomic load — once everything is hydrated.
        self.ensure_hydrated();
        let disabled = TraceHandle::disabled();
        let trace = trace.unwrap_or(&disabled);
        let m = metrics();
        let timer = m.plan_latency.start_timer();
        let mut plan_span = trace.span("plan");
        let plan_span_id = plan_span.id();
        // Epoch is read before analysis: a refresh landing mid-plan makes
        // the plan detectably stale rather than silently half-updated.
        // Cache keys carry this same epoch, so a cached value is only
        // ever served for the registry state it was computed against.
        let epoch = self.registry.epoch();
        let cache = self.cache_for(req);
        if let Some(c) = cache {
            if let Some(CachedValue::Plan(p)) = c.get(&CacheKey::plan(req, epoch)) {
                plan_span.attr("cache", "hit");
                plan_span.attr("epoch", epoch);
                plan_span.finish();
                timer.stop();
                return ((*p).clone(), Some(CacheTier::Plan));
            }
        }
        let mut analysis_hit = false;
        let analysis: Arc<SharedAnalysis> =
            match cache.and_then(|c| c.get(&CacheKey::analysis(&req.query, epoch))) {
                Some(CachedValue::Analysis(a)) => {
                    analysis_hit = true;
                    a
                }
                _ => {
                    let a = {
                        let _span = trace.child_span("analyze", plan_span_id);
                        Arc::new(self.analyze(&req.query))
                    };
                    if req.cache.writes() {
                        if let Some(c) = cache {
                            c.insert(
                                CacheKey::analysis(&req.query, epoch),
                                CachedValue::Analysis(Arc::clone(&a)),
                            );
                        }
                    }
                    a
                }
            };
        // One shard's read lock at a time: a lifecycle event on shard A
        // (refresh, registration, invalidation) never blocks planning
        // over shard B. Per-engine estimates are independent, so only
        // the presentation order matters — entries are tagged with
        // their registration seq and sorted afterwards, giving exactly
        // the order a flat registry would have produced (selection
        // tie-breaks and merge order depend on it).
        let mut tagged: Vec<(u64, PlannedEngine)> = Vec::new();
        for (shard_idx, shard) in self.registry.shards().iter().enumerate() {
            let entries = shard.entries.read();
            let mut shard_span = trace.child_span("shard_walk", plan_span_id);
            shard_span.attr("shard", shard_idx);
            shard_span.attr("engines", entries.len());
            m.estimates.add(entries.len() as u64);
            tagged.extend(entries.iter().map(|e| {
                let query = match &e.handle {
                    EngineHandle::Local(engine) => {
                        let collection = engine.collection();
                        // The term map is only valid against the exact
                        // collection it was built from. replace_engine
                        // swaps the collection without rebuilding the
                        // map, so until a refresh reconciles them the
                        // map's local ids may be out of range (or mean
                        // different terms) in the live collection, and
                        // the representative still describes the old
                        // one — no query vector can be consistent with
                        // both. A mid-propagation entry therefore
                        // contributes nothing (empty query, zero
                        // estimate, zero hits) until the sweep
                        // reconciles it, instead of panicking inside
                        // query weighting or estimating through
                        // mismatched term ids.
                        let aligned = e.map_fingerprint == Some(engine.fingerprint());
                        match (aligned, analysis.tf_for(collection.analyzer_config())) {
                            (true, Some(tf)) => collection.query_from_shared(tf, &e.map),
                            // An engine with a config the analysis pass
                            // did not cover (registered concurrently):
                            // analyze directly.
                            (true, None) => collection.query_from_text(&req.query),
                            (false, _) => collection.query_from_tf(Vec::new()),
                        }
                    }
                    EngineHandle::Remote { meta, .. } => match analysis.tf_for(meta.analyzer) {
                        Some(tf) => meta.query_from_shared(tf, &e.map),
                        None => meta.query_from_text(&req.query),
                    },
                    // A restored entry plans exactly like a remote one:
                    // its hydrated metadata carries the stored
                    // vocabulary and weighting statistics, so estimates
                    // are bit-identical to the broker that wrote the
                    // snapshot. Only dispatch needs a live handle.
                    EngineHandle::Detached { meta, .. } => match analysis.tf_for(meta.analyzer) {
                        Some(tf) => meta.query_from_shared(tf, &e.map),
                        None => meta.query_from_text(&req.query),
                    },
                };
                let usefulness = self.estimator.estimate(&e.repr, &query, req.threshold);
                (
                    e.seq,
                    PlannedEngine {
                        name: e.name.clone(),
                        usefulness,
                        query,
                        repr: e.repr.clone(),
                        handle: e.handle.clone(),
                    },
                )
            }));
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        let planned: Vec<PlannedEngine> = tagged.into_iter().map(|(_, e)| e).collect();
        let us: Vec<Usefulness> = planned.iter().map(|e| e.usefulness).collect();
        let selected = {
            let mut span = trace.child_span("select", plan_span_id);
            span.attr("considered", planned.len());
            let selected = req.policy.select(&us);
            span.attr("selected", selected.len());
            selected
        };
        plan_span.attr("epoch", epoch);
        if analysis_hit {
            plan_span.attr("cache", "analysis_hit");
        }
        plan_span.finish();
        timer.stop();
        let plan = QueryPlan {
            query: req.query.clone(),
            threshold: req.threshold,
            policy: req.policy,
            epoch,
            engines: planned,
            selected,
        };
        if req.cache.writes() {
            if let Some(c) = cache {
                c.insert(
                    CacheKey::plan(req, epoch),
                    CachedValue::Plan(Arc::new(plan.clone())),
                );
            }
        }
        (plan, analysis_hit.then_some(CacheTier::Analysis))
    }

    /// Re-estimates a plan's engines at a different threshold without
    /// re-analyzing the query — the query vectors are threshold-free, so
    /// threshold sweeps (e.g. document allocation's bisection) pay for
    /// analysis once. Fails with [`StalePlanError`] if the registry has
    /// changed since the plan was made: the plan's representatives and
    /// term translations may no longer describe the registered engines,
    /// so estimates from them could not be compared against fresh ones.
    ///
    /// Passing `Some(trace)` records one `reestimate` span carrying the
    /// threshold, engine count, and whether the plan was rejected as
    /// stale. Threshold sweeps that obtained their plan via
    /// [`Broker::plan`] share the cached plan across the sweep: every
    /// per-threshold call here reuses the one analysis and shard walk.
    pub fn try_reestimate(
        &self,
        plan: &QueryPlan,
        threshold: f64,
        trace: Option<&TraceHandle>,
    ) -> Result<Vec<EngineEstimate>, StalePlanError> {
        let disabled = TraceHandle::disabled();
        let trace = trace.unwrap_or(&disabled);
        let mut span = trace.span("reestimate");
        span.attr("threshold", threshold);
        span.attr("engines", plan.engines.len());
        let registry_epoch = self.registry.epoch();
        if plan.epoch != registry_epoch {
            metrics().stale_plans.inc();
            span.attr("stale", "true");
            return Err(StalePlanError {
                plan_epoch: plan.epoch,
                registry_epoch,
            });
        }
        metrics().estimates.add(plan.engines.len() as u64);
        Ok(plan
            .engines
            .iter()
            .map(|e| EngineEstimate {
                engine: e.name.clone(),
                usefulness: self.estimator.estimate(&e.repr, &e.query, threshold),
            })
            .collect())
    }

    /// Re-estimates a plan's engines at a different threshold,
    /// transparently replanning from the plan's recorded query text if
    /// the registry has changed since the plan was made (counted by
    /// `broker_stale_plans_total`). Callers that must not silently switch
    /// registries mid-sweep use [`Broker::try_reestimate`].
    pub fn reestimate(&self, plan: &QueryPlan, threshold: f64) -> Vec<EngineEstimate> {
        match self.try_reestimate(plan, threshold, None) {
            Ok(estimates) => estimates,
            Err(_) => self
                .plan(
                    &SearchRequest::new(plan.query.clone())
                        .threshold(threshold)
                        .policy(plan.policy),
                    None,
                )
                .estimates(),
        }
    }

    /// Executes a request end to end: plan, dispatch the selected engines
    /// over the bounded worker pool, merge by global similarity.
    ///
    /// A panicking engine contributes no hits and is reported as
    /// [`DispatchOutcome::Failed`] (counted by
    /// `broker_engine_failures_total`) instead of poisoning the query;
    /// engines that miss the request's timeout budget are reported as
    /// [`DispatchOutcome::TimedOut`]. If a representative refresh lands
    /// between planning and dispatch, the request is replanned once
    /// (counted by `broker_stale_plans_total`).
    ///
    /// Unless the request bypasses the cache, a complete merged response
    /// cached at the current registry epoch is served directly
    /// (`served_from: Some(Results)`, bit-identical to the cold
    /// execution that populated it); otherwise planning goes through the
    /// plan/analysis tiers and a complete response is written back for
    /// the next hit. `explain` requests always run cold so their span
    /// trees describe real work.
    pub fn execute(&self, req: &SearchRequest) -> SearchResponse {
        let m = metrics();
        let timer = m.query_latency.start_timer();
        let mut active = seu_obs::tracer().start_trace("search", req.explain);
        active.root_attr("query", &req.query);
        active.root_attr("threshold", req.threshold);
        let trace = active.handle();
        if let Some(c) = self.cache_for(req) {
            let epoch = self.registry.epoch();
            if let Some(CachedValue::Results(r)) = c.get(&CacheKey::results(req, epoch)) {
                m.queries.inc();
                let mut resp = SearchResponse {
                    hits: r.hits.clone(),
                    estimates: r.estimates.clone(),
                    per_engine_stats: r.per_engine_stats.clone(),
                    trace: None,
                    served_from: Some(CacheTier::Results),
                };
                timer.stop();
                resp.trace = self.finish_trace(active, req, &resp);
                return resp;
            }
        }
        let (mut plan, mut tier) = self.plan_cached(req, Some(&trace));
        if plan.epoch != self.registry.epoch() {
            m.stale_plans.inc();
            (plan, tier) = self.plan_cached(req, Some(&trace));
        }
        let mut resp = self.dispatch_traced(req, &plan, &trace);
        resp.served_from = tier;
        // Only complete responses are cached: a response missing an
        // engine's hits (timeout, failure) must not be replayed after
        // the engine recovers.
        if req.cache.writes() && resp.is_complete() {
            if let Some(c) = self.cache_for(req) {
                c.insert(
                    CacheKey::results(req, plan.epoch),
                    CachedValue::Results(Arc::new(CachedResponse {
                        hits: resp.hits.clone(),
                        estimates: resp.estimates.clone(),
                        per_engine_stats: resp.per_engine_stats.clone(),
                    })),
                );
            }
        }
        timer.stop();
        resp.trace = self.finish_trace(active, req, &resp);
        resp
    }

    /// Closes a request's trace: back-fills coarse per-engine spans for
    /// slow-but-unsampled traces, emits the slow-query log line when the
    /// request ran over budget, and returns the finished trace when the
    /// request asked for it (`explain`).
    fn finish_trace(
        &self,
        mut active: seu_obs::ActiveTrace,
        req: &SearchRequest,
        resp: &SearchResponse,
    ) -> Option<Arc<seu_obs::FinishedTrace>> {
        let tracer = seu_obs::tracer();
        let elapsed = active.elapsed();
        let slow = tracer.is_slow(elapsed);
        active.root_attr("hits", resp.hits.len());
        active.root_attr("complete", resp.is_complete());
        if slow && !active.is_sampled() {
            // The head sampler skipped this request, so no fine-grained
            // spans were recorded — synthesize one coarse span per
            // engine from the dispatch stats so the retained slow trace
            // still shows where the time went. Start offsets are
            // unknown at this point; only the durations are meaningful.
            let root = active.root_span();
            let handle = active.handle();
            handle.adopt_spans(resp.per_engine_stats.iter().map(|s| SpanRecord {
                id: seu_obs::SpanId(0),
                parent: root,
                name: format!("dispatch:{}", s.engine),
                start_unix_ns: 0,
                duration_ns: (s.seconds * 1e9) as u64,
                attrs: vec![
                    ("engine".to_string(), s.engine.clone()),
                    ("hits".to_string(), s.hits.to_string()),
                    ("outcome".to_string(), format!("{:?}", s.outcome)),
                    ("synthesized".to_string(), "true".to_string()),
                ],
            }));
        }
        let trace_id = active.trace_id();
        let finished = active.finish();
        if slow {
            self.emit_slow_query_line(trace_id, req, resp, elapsed);
        }
        if req.explain {
            finished
        } else {
            None
        }
    }

    /// One structured line per over-budget request: total latency plus
    /// the per-engine breakdown, to the tracer's slow-query sink
    /// (stderr or the `--trace-out` file).
    fn emit_slow_query_line(
        &self,
        trace_id: seu_obs::TraceId,
        req: &SearchRequest,
        resp: &SearchResponse,
        elapsed: std::time::Duration,
    ) {
        use std::fmt::Write as _;
        let mut line = String::from("{\"event\": \"slow_query\", \"trace_id\": \"");
        let _ = write!(line, "{}", trace_id.to_hex());
        line.push_str("\", \"query\": ");
        seu_obs::json::write_escaped(&mut line, &req.query);
        let _ = write!(
            line,
            ", \"threshold\": {}, \"duration_ms\": {:.3}, \"hits\": {}, \"engines\": [",
            req.threshold,
            elapsed.as_secs_f64() * 1e3,
            resp.hits.len()
        );
        for (i, s) in resp.per_engine_stats.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str("{\"engine\": ");
            seu_obs::json::write_escaped(&mut line, &s.engine);
            let outcome = match s.outcome {
                crate::DispatchOutcome::Completed => "completed",
                crate::DispatchOutcome::Failed => "failed",
                crate::DispatchOutcome::TimedOut => "timed_out",
            };
            let _ = write!(
                line,
                ", \"seconds\": {:.6}, \"hits\": {}, \"outcome\": \"{outcome}\"}}",
                s.seconds, s.hits
            );
        }
        line.push_str("]}");
        seu_obs::tracer().slow_log_line(&line);
    }

    /// Executes an externally supplied plan — e.g. one the caller
    /// inspected or adjusted before committing to dispatch. If the
    /// registry has changed since the plan was made, the request's
    /// [`StaleMode`] decides: replan transparently (the default) or
    /// surface a [`StalePlanError`]. Either way the staleness is counted
    /// by `broker_stale_plans_total`.
    pub fn execute_plan(
        &self,
        req: &SearchRequest,
        plan: &QueryPlan,
    ) -> Result<SearchResponse, StalePlanError> {
        let m = metrics();
        let timer = m.query_latency.start_timer();
        let registry_epoch = self.registry.epoch();
        let resp = if plan.epoch != registry_epoch {
            m.stale_plans.inc();
            match req.stale_mode {
                StaleMode::Error => {
                    return Err(StalePlanError {
                        plan_epoch: plan.epoch,
                        registry_epoch,
                    });
                }
                StaleMode::Replan => {
                    let (fresh, tier) = self.plan_cached(req, None);
                    let mut resp = self.dispatch(req, &fresh);
                    resp.served_from = tier;
                    resp
                }
            }
        } else {
            self.dispatch(req, plan)
        };
        timer.stop();
        Ok(resp)
    }

    /// Runs a plan's dispatch jobs (one per selected engine, in that
    /// order) and returns one status per engine.
    ///
    /// A remote call blocks on the network, so it is a pool job of its
    /// own (as is a detached engine's refusal). An in-process search
    /// takes microseconds — less than handing it to a worker and waking
    /// the caller for its result — so a plan of fewer than
    /// [`MIN_POOLED_LOCAL`] engines, all of them local, is searched by
    /// the caller itself, and the local engines of any other plan go to
    /// the pool as at most one batch per worker. A plan over a handful
    /// of small engines then crosses no thread, a plan over a thousand
    /// crosses a few instead of a thousand, and how long either takes
    /// does not depend on how promptly the host schedules a hand-off.
    /// Every engine still runs under its own `catch_unwind`. A batch
    /// that misses the deadline times out all its engines; on the
    /// caller an engine that has not finished by the deadline times
    /// out, and the ones after it are not started.
    fn run_dispatch_jobs(
        &self,
        plan: &QueryPlan,
        jobs: Vec<DispatchJob>,
        timeout: Option<std::time::Duration>,
    ) -> Vec<JobStatus<DispatchResult>> {
        let n = jobs.len();
        let (local, single): (Vec<usize>, Vec<usize>) = (0..n).partition(|&p| {
            matches!(
                plan.engines[plan.selected[p]].handle,
                EngineHandle::Local(_)
            )
        });
        if single.is_empty() && n < MIN_POOLED_LOCAL {
            let deadline = timeout.map(|t| Instant::now() + t);
            let late = || deadline.is_some_and(|d| Instant::now() >= d);
            return jobs
                .into_iter()
                .map(|job| {
                    if late() {
                        return JobStatus::TimedOut;
                    }
                    match catch_unwind(AssertUnwindSafe(job)) {
                        _ if late() => JobStatus::TimedOut,
                        Ok(result) => JobStatus::Done(result),
                        Err(_) => JobStatus::Panicked,
                    }
                })
                .collect();
        }
        let pool = self.pool();
        let per_batch = local.len().div_ceil(pool.threads()).max(1);
        let groups: Vec<&[usize]> = single.chunks(1).chain(local.chunks(per_batch)).collect();
        let mut jobs: Vec<Option<DispatchJob>> = jobs.into_iter().map(Some).collect();
        let batches: Vec<DispatchBatch> = groups
            .iter()
            .map(|group| {
                let batch: Vec<DispatchJob> = group
                    .iter()
                    .map(|&p| jobs[p].take().expect("each position is in one group"))
                    .collect();
                Box::new(move || {
                    batch
                        .into_iter()
                        .map(|job| catch_unwind(AssertUnwindSafe(job)).ok())
                        .collect()
                }) as DispatchBatch
            })
            .collect();
        let mut out: Vec<JobStatus<DispatchResult>> = (0..n).map(|_| JobStatus::TimedOut).collect();
        for (group, status) in groups.iter().zip(pool.run_collect(batches, timeout)) {
            match status {
                JobStatus::Done(results) => {
                    for (&p, result) in group.iter().zip(results) {
                        out[p] = result.map_or(JobStatus::Panicked, JobStatus::Done);
                    }
                }
                JobStatus::Panicked => group.iter().for_each(|&p| out[p] = JobStatus::Panicked),
                JobStatus::Rejected => group.iter().for_each(|&p| out[p] = JobStatus::Rejected),
                JobStatus::TimedOut => {}
            }
        }
        out
    }

    /// Dispatches a plan's invocation set over the worker pool and merges
    /// the results. The accounting half of [`Broker::execute`].
    fn dispatch(&self, req: &SearchRequest, plan: &QueryPlan) -> SearchResponse {
        self.dispatch_traced(req, plan, &TraceHandle::disabled())
    }

    /// [`Broker::dispatch`] with span recording: one `dispatch` span
    /// with a `dispatch:<engine>` child per invoked engine (carrying the
    /// queue-wait measured from submission to job start, separate from
    /// the span's own run time) and a `merge` child. Remote engines are
    /// called with the trace context so their server-side spans come
    /// back over the wire and join the same tree.
    fn dispatch_traced(
        &self,
        req: &SearchRequest,
        plan: &QueryPlan,
        trace: &TraceHandle,
    ) -> SearchResponse {
        let m = metrics();
        let dispatch_timer = m.dispatch_latency.start_timer();
        let mut dispatch_span = trace.span("dispatch");
        dispatch_span.attr("engines", plan.selected.len());
        let dispatch_span_id = dispatch_span.id();
        let threshold = req.threshold;
        let jobs: Vec<DispatchJob> = plan
            .selected
            .iter()
            .map(|&i| {
                let e = &plan.engines[i];
                let name = e.name.clone();
                let trace = trace.clone();
                let enqueued = Instant::now();
                match &e.handle {
                    EngineHandle::Local(engine) => {
                        let engine = engine.clone();
                        let query = e.query.clone();
                        Box::new(move || {
                            let mut span =
                                engine_span(&trace, dispatch_span_id, &name, "local", enqueued);
                            let start = Instant::now();
                            let hits: Vec<MergedHit> = engine
                                .search_threshold(&query, threshold)
                                .into_iter()
                                .map(|h| MergedHit {
                                    engine: name.clone(),
                                    doc: engine.collection().doc(h.doc).name.clone(),
                                    sim: h.sim,
                                })
                                .collect();
                            span.attr("hits", hits.len());
                            Ok((hits, start.elapsed().as_secs_f64()))
                        }) as DispatchJob
                    }
                    EngineHandle::Remote { transport, .. } => {
                        let transport = transport.clone();
                        let text = plan.query.clone();
                        Box::new(move || {
                            let mut span =
                                engine_span(&trace, dispatch_span_id, &name, "remote", enqueued);
                            span.attr("endpoint", transport.endpoint());
                            let start = Instant::now();
                            let ctx = trace.context(span.id());
                            let (remote_hits, remote_spans) =
                                transport.search(&text, threshold, Some(&ctx))?;
                            trace.adopt_spans(remote_spans);
                            let hits: Vec<MergedHit> = remote_hits
                                .into_iter()
                                .map(|h| MergedHit {
                                    engine: name.clone(),
                                    doc: h.doc,
                                    sim: h.sim,
                                })
                                .collect();
                            span.attr("hits", hits.len());
                            Ok((hits, start.elapsed().as_secs_f64()))
                        }) as DispatchJob
                    }
                    EngineHandle::Detached { .. } => Box::new(move || {
                        let _span =
                            engine_span(&trace, dispatch_span_id, &name, "detached", enqueued);
                        Err(TransportError::new(
                            TransportErrorKind::Refused,
                            format!(
                                "engine {name:?} is detached (restored from store); \
                                 attach a live engine or transport to dispatch to it"
                            ),
                        ))
                    }) as DispatchJob,
                }
            })
            .collect();
        let statuses = self.run_dispatch_jobs(plan, jobs, req.timeout);

        let mut per_engine: Vec<Vec<MergedHit>> = Vec::with_capacity(statuses.len());
        let mut per_engine_stats = Vec::with_capacity(statuses.len());
        for (&i, status) in plan.selected.iter().zip(statuses) {
            let name = plan.engines[i].name.clone();
            let (hits, seconds, outcome, error) = match status {
                JobStatus::Done(Ok((hits, seconds))) => {
                    (hits, seconds, DispatchOutcome::Completed, None)
                }
                JobStatus::Done(Err(err)) => {
                    let outcome = match err.kind {
                        TransportErrorKind::Timeout => {
                            m.engine_timeouts.inc();
                            DispatchOutcome::TimedOut
                        }
                        _ => {
                            m.engine_failures.inc();
                            DispatchOutcome::Failed
                        }
                    };
                    (Vec::new(), 0.0, outcome, Some(err))
                }
                JobStatus::Panicked | JobStatus::Rejected => {
                    m.engine_failures.inc();
                    (Vec::new(), 0.0, DispatchOutcome::Failed, None)
                }
                JobStatus::TimedOut => {
                    m.engine_timeouts.inc();
                    (Vec::new(), 0.0, DispatchOutcome::TimedOut, None)
                }
            };
            per_engine_stats.push(EngineDispatchStats {
                engine: name,
                hits: hits.len(),
                seconds,
                outcome,
                error,
            });
            per_engine.push(hits);
        }
        let mut merged = {
            let mut span = trace.child_span("merge", dispatch_span_id);
            span.attr(
                "sources",
                per_engine.iter().filter(|h| !h.is_empty()).count(),
            );
            let merged = merge_results(per_engine);
            span.attr("hits", merged.len());
            merged
        };
        if let Some(k) = req.top_k {
            merged.truncate(k);
        }
        dispatch_span.finish();
        dispatch_timer.stop();

        m.queries.inc();
        m.considered.add(plan.engines.len() as u64);
        m.selected.add(plan.selected.len() as u64);
        m.merge_hits.add(merged.len() as u64);
        m.merge_size.observe(merged.len() as f64);

        SearchResponse {
            hits: merged,
            estimates: if req.with_estimates {
                plan.estimates()
            } else {
                Vec::new()
            },
            per_engine_stats,
            trace: None,
            served_from: None,
        }
    }

    /// Estimates every engine's usefulness for a query text at a
    /// threshold, in registration order.
    ///
    /// Wrapper over [`Broker::plan`]; prefer the request pipeline
    /// (`plan(&req).estimates()`) in new code.
    pub fn estimate_all(&self, query_text: &str, threshold: f64) -> Vec<EngineEstimate> {
        self.plan(
            &SearchRequest::new(query_text)
                .threshold(threshold)
                .policy(SelectionPolicy::All),
            None,
        )
        .estimates()
    }

    /// Selects engines for a query under a policy. Returns names in
    /// invocation order.
    ///
    /// Wrapper over [`Broker::plan`]; prefer the request pipeline
    /// (`plan(&req).selected_names()`) in new code.
    pub fn select(&self, query_text: &str, threshold: f64, policy: SelectionPolicy) -> Vec<String> {
        let m = metrics();
        let timer = m.select_latency.start_timer();
        let plan = self.plan(
            &SearchRequest::new(query_text)
                .threshold(threshold)
                .policy(policy),
            None,
        );
        let selected = plan.selected_names();
        m.selects.inc();
        m.considered.add(plan.len() as u64);
        m.selected.add(selected.len() as u64);
        timer.stop();
        selected
    }

    /// Full metasearch: select engines, dispatch the query to them over
    /// the worker pool, and merge results above the threshold by global
    /// similarity.
    ///
    /// Wrapper over [`Broker::execute`]; prefer the request pipeline in
    /// new code — it also exposes estimates, per-engine stats, result
    /// caps, and timeout budgets.
    pub fn search(
        &self,
        query_text: &str,
        threshold: f64,
        policy: SelectionPolicy,
    ) -> Vec<MergedHit> {
        self.execute(
            &SearchRequest::new(query_text)
                .threshold(threshold)
                .policy(policy),
        )
        .hits
    }

    /// Ground-truth selection (which engines truly have a document above
    /// the threshold) — the oracle the evaluation compares against. A
    /// remote engine answers over its transport; one whose transport
    /// fails is treated as not useful.
    pub fn oracle_select(&self, query_text: &str, threshold: f64) -> Vec<String> {
        let mut useful: Vec<(u64, String)> = Vec::new();
        for shard in self.registry.shards() {
            useful.extend(
                shard
                    .entries
                    .read()
                    .iter()
                    .filter(|e| match &e.handle {
                        EngineHandle::Local(engine) => {
                            let query = engine.collection().query_from_text(query_text);
                            engine.true_usefulness(&query, threshold).no_doc >= 1
                        }
                        EngineHandle::Remote { transport, .. } => transport
                            .true_usefulness(query_text, threshold)
                            .map(|u| u.no_doc >= 1)
                            .unwrap_or(false),
                        // No live engine to ask — like a failed
                        // transport, a detached entry is not useful.
                        EngineHandle::Detached { .. } => false,
                    })
                    .map(|e| (e.seq, e.name.clone())),
            );
        }
        useful.sort_unstable_by_key(|&(seq, _)| seq);
        useful.into_iter().map(|(_, name)| name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_core::SubrangeEstimator;
    use seu_engine::{CollectionBuilder, WeightingScheme};
    use seu_text::Analyzer;
    use std::time::Duration;

    fn engine_from(texts: &[&str]) -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, t) in texts.iter().enumerate() {
            b.add_document(&format!("doc{i}"), t);
        }
        SearchEngine::new(b.build())
    }

    fn broker() -> Broker<SubrangeEstimator> {
        let b = Broker::new(SubrangeEstimator::paper_six_subrange());
        b.register(
            "databases",
            engine_from(&[
                "relational databases and query optimization",
                "transaction processing in databases",
                "distributed query processing systems",
            ]),
        );
        b.register(
            "cooking",
            engine_from(&[
                "mushroom soup recipes with cream",
                "baking sourdough bread at home",
            ]),
        );
        b.register(
            "mixed",
            engine_from(&[
                "databases of bread recipes",
                "soup kitchens and processing plants",
            ]),
        );
        b
    }

    #[test]
    fn registration_and_names() {
        let b = broker();
        assert_eq!(b.len(), 3);
        assert_eq!(b.engine_names(), vec!["databases", "cooking", "mixed"]);
        assert!(!b.is_empty());
    }

    #[test]
    fn estimates_favor_matching_engine() {
        let b = broker();
        let ests = b.estimate_all("databases query", 0.1);
        let by_name = |n: &str| {
            ests.iter()
                .find(|e| e.engine == n)
                .unwrap()
                .usefulness
                .no_doc
        };
        assert!(by_name("databases") > by_name("cooking"));
    }

    #[test]
    fn selection_excludes_useless_engines() {
        let b = broker();
        let sel = b.select("mushroom soup", 0.25, SelectionPolicy::EstimatedUseful);
        assert!(sel.contains(&"cooking".to_string()));
        assert!(!sel.contains(&"databases".to_string()));
    }

    #[test]
    fn search_merges_across_engines() {
        let b = broker();
        let hits = b.search("databases", 0.0, SelectionPolicy::All);
        assert!(!hits.is_empty());
        // Sorted descending.
        for w in hits.windows(2) {
            assert!(w[0].sim >= w[1].sim);
        }
        // Hits come from both engines that mention databases.
        let engines: Vec<&str> = hits.iter().map(|h| h.engine.as_str()).collect();
        assert!(engines.contains(&"databases"));
        assert!(engines.contains(&"mixed"));
        assert!(!engines.contains(&"cooking"));
    }

    #[test]
    fn selective_search_returns_subset_of_all() {
        let b = broker();
        let all = b.search("soup", 0.1, SelectionPolicy::All);
        let selected = b.search("soup", 0.1, SelectionPolicy::EstimatedUseful);
        // Everything the selective search returns is in the full search.
        for h in &selected {
            assert!(all.contains(h));
        }
    }

    #[test]
    fn oracle_matches_reality() {
        let b = broker();
        let oracle = b.oracle_select("sourdough", 0.1);
        assert_eq!(oracle, vec!["cooking".to_string()]);
    }

    #[test]
    fn top_k_selection() {
        let b = broker();
        let sel = b.select("databases processing", 0.05, SelectionPolicy::TopK(1));
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0], "databases");
    }

    #[test]
    fn representative_refresh_and_update() {
        let b = broker();
        // Cripple one engine's representative, watch selection change,
        // then refresh it back.
        let empty = Representative::from_parts(0, Vec::new(), 0);
        assert!(b.update_representative("cooking", empty));
        let sel = b.select("mushroom soup", 0.25, SelectionPolicy::EstimatedUseful);
        assert!(!sel.contains(&"cooking".to_string()), "{sel:?}");
        assert!(b.refresh_representative("cooking"));
        let sel = b.select("mushroom soup", 0.25, SelectionPolicy::EstimatedUseful);
        assert!(sel.contains(&"cooking".to_string()), "{sel:?}");
        // Unknown names report failure.
        assert!(!b.refresh_representative("nope"));
        assert!(!b.update_representative("nope", Representative::from_parts(0, Vec::new(), 0)));
    }

    #[test]
    fn unknown_query_selects_nothing_useful() {
        let b = broker();
        let sel = b.select("zebra quantum", 0.1, SelectionPolicy::EstimatedUseful);
        assert!(sel.is_empty());
        let hits = b.search("zebra quantum", 0.1, SelectionPolicy::EstimatedUseful);
        assert!(hits.is_empty());
    }

    #[test]
    fn plan_matches_wrappers() {
        let b = broker();
        let req = SearchRequest::new("databases processing")
            .threshold(0.05)
            .policy(SelectionPolicy::TopK(2));
        let plan = b.plan(&req, None);
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan.estimates(),
            b.estimate_all("databases processing", 0.05)
        );
        assert_eq!(
            plan.selected_names(),
            b.select("databases processing", 0.05, SelectionPolicy::TopK(2))
        );
    }

    #[test]
    fn execute_reports_per_engine_stats() {
        let b = broker();
        let req = SearchRequest::new("databases")
            .threshold(0.0)
            .policy(SelectionPolicy::All)
            .with_estimates(true);
        let resp = b.execute(&req);
        assert_eq!(resp.estimates.len(), 3);
        assert_eq!(resp.per_engine_stats.len(), 3);
        assert!(resp.is_complete());
        let total: usize = resp.per_engine_stats.iter().map(|s| s.hits).sum();
        assert_eq!(total, resp.hits.len());
        assert_eq!(resp.hits, b.search("databases", 0.0, SelectionPolicy::All));
    }

    #[test]
    fn execute_honors_top_k_cap() {
        let b = broker();
        let all = b.execute(
            &SearchRequest::new("databases")
                .threshold(0.0)
                .policy(SelectionPolicy::All),
        );
        assert!(all.hits.len() > 2);
        let capped = b.execute(
            &SearchRequest::new("databases")
                .threshold(0.0)
                .policy(SelectionPolicy::All)
                .top_k(2),
        );
        assert_eq!(capped.hits.len(), 2);
        assert_eq!(capped.hits[..], all.hits[..2]);
    }

    #[test]
    fn zero_timeout_budget_reports_timeouts() {
        let b = broker();
        let resp = b.execute(
            &SearchRequest::new("databases")
                .threshold(0.0)
                .policy(SelectionPolicy::All)
                .timeout(Duration::ZERO),
        );
        assert!(resp.hits.is_empty());
        assert!(!resp.is_complete());
        assert!(resp
            .per_engine_stats
            .iter()
            .all(|s| s.outcome == DispatchOutcome::TimedOut));
    }

    #[test]
    fn reestimate_sweeps_thresholds_without_reanalysis() {
        let b = broker();
        let plan = b.plan(
            &SearchRequest::new("soup").policy(SelectionPolicy::All),
            None,
        );
        for t in [0.0, 0.1, 0.3, 0.9] {
            assert_eq!(b.reestimate(&plan, t), b.estimate_all("soup", t), "t={t}");
        }
    }

    #[test]
    fn mixed_analyzer_configs_are_each_analyzed() {
        let b = Broker::new(SubrangeEstimator::paper_six_subrange());
        b.register("plain", engine_from(&["btree indexes win for range scans"]));
        let mut stemmed = CollectionBuilder::new(
            Analyzer::new(seu_text::AnalyzerConfig {
                remove_stopwords: true,
                stem: true,
            }),
            WeightingScheme::CosineTf,
        );
        stemmed.add_document("d0", "btree indexes win for range scans");
        b.register("stemmed", SearchEngine::new(stemmed.build()));

        let analysis = b.analyze("indexes scanning");
        assert_eq!(analysis.configs(), 2);
        // The stemmed engine resolves both stems; the plain engine only
        // the literal surface form.
        let plan = b.plan(
            &SearchRequest::new("indexes scanning").policy(SelectionPolicy::All),
            None,
        );
        let by =
            |n: &str| &plan.engines()[plan.engines().iter().position(|e| e.name == n).unwrap()];
        assert_eq!(by("plain").query().len(), 1);
        assert_eq!(by("stemmed").query().len(), 2);
    }

    #[test]
    fn pool_stats_reflect_builder_override() {
        let b = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .worker_threads(2)
            .build();
        // Enough engines for the plan to go to the pool.
        for i in 0..MIN_POOLED_LOCAL {
            b.register(&format!("e{i}"), engine_from(&["solo document here"]));
        }
        assert_eq!(b.pool_stats(), (2, 0));
        let _ = b.search("solo", 0.0, SelectionPolicy::All);
        let (threads, peak) = b.pool_stats();
        assert_eq!(threads, 2);
        assert!((1..=2).contains(&peak), "{peak}");
    }

    #[test]
    fn explain_returns_connected_span_tree() {
        let b = broker();
        let resp = b.execute(
            &SearchRequest::new("databases")
                .policy(SelectionPolicy::All)
                .explain(true),
        );
        let trace = resp.trace.as_ref().expect("explain forces a trace");
        assert!(trace.sampled);
        assert_eq!(trace.spans[0].name, "search");
        assert_eq!(trace.spans[0].parent, seu_obs::SpanId(0));
        let root = trace.spans[0].id;
        // The request pipeline's phases are all present.
        for phase in ["plan", "analyze", "select", "dispatch", "merge"] {
            assert!(
                trace.spans.iter().any(|s| s.name == phase),
                "missing span {phase:?}"
            );
        }
        assert!(trace.spans.iter().any(|s| s.name == "shard_walk"));
        // One dispatch child per selected engine, carrying the
        // queue-wait attribute.
        let dispatch = trace.spans.iter().find(|s| s.name == "dispatch").unwrap();
        assert_eq!(dispatch.parent, root);
        let engine_spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("dispatch:"))
            .collect();
        assert_eq!(engine_spans.len(), 3);
        for s in &engine_spans {
            assert_eq!(s.parent, dispatch.id);
            assert!(s.attrs.iter().any(|(k, _)| k == "queue_wait_s"));
        }
        // Every non-root span's parent exists: the tree is connected.
        for s in &trace.spans[1..] {
            assert!(
                trace.spans.iter().any(|p| p.id == s.parent),
                "orphan span {:?}",
                s.name
            );
        }
        // The trace is queryable from the store afterwards.
        let stored = seu_obs::tracer().store().get(trace.trace_id).unwrap();
        assert_eq!(stored.trace_id, trace.trace_id);
    }

    #[test]
    fn unexplained_query_returns_no_trace() {
        let b = broker();
        let resp = b.execute(&SearchRequest::new("databases").policy(SelectionPolicy::All));
        assert!(resp.trace.is_none());
    }

    #[test]
    fn traced_reestimate_records_span() {
        let b = broker();
        let plan = b.plan(
            &SearchRequest::new("soup").policy(SelectionPolicy::All),
            None,
        );
        let trace = seu_obs::tracer().start_trace("reestimate_test", true);
        let handle = trace.handle();
        let ests = b.try_reestimate(&plan, 0.2, Some(&handle)).unwrap();
        assert_eq!(ests.len(), 3);
        let finished = trace.finish().unwrap();
        let span = finished
            .spans
            .iter()
            .find(|s| s.name == "reestimate")
            .unwrap();
        assert!(span.attrs.iter().any(|(k, v)| k == "engines" && v == "3"));
    }
}
