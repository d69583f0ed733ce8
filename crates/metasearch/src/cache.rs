//! Broker-side query cache: epoch-keyed, sharded, byte-budgeted.
//!
//! Real metasearch query streams are heavily Zipfian — a small set of
//! hot queries dominates — yet without a cache every request re-plans
//! and re-dispatches even when nothing changed since the identical
//! request a moment ago. The [`QueryCache`] keeps the one artifact a
//! repeat can be answered from whole: the finished [`Answer`] of a
//! **complete** execution (every selected engine answered) — its merged
//! hits, estimates and accounting — keyed by everything that shapes it.
//! Nothing below the finished answer is cached — an analysis is
//! microseconds since the registry's term postings, and a plan is only
//! ever asked for again by a request whose answer is cached already.
//!
//! An entry is the answer itself, shared by [`Arc`]: a miss inserts the
//! very `Arc` it answers with, and a hit hands that `Arc` out, so
//! neither copies a row. Beside the answer the entry keeps its reply
//! rows, rendered once by [`write_rows`] when the entry is inserted
//! ([`Answer::rows`]); the HTTP door writes them as they are, so a hit
//! is not re-rendered either. The byte budget counts both halves: the
//! answer's rows and strings, and the rendered rows.
//!
//! # Key anatomy and invalidation
//!
//! Every [`CacheKey`] embeds the **registry epoch** the value was
//! computed at. The epoch is the sum of the per-shard epochs, bumped
//! under the owning shard's write lock by *every* lifecycle event —
//! registration, representative refresh/update, engine replacement,
//! push invalidation — so any change anywhere in the registry moves the
//! epoch, every lookup made after it misses, and a stale entry can
//! never be served. This is the same mechanism that makes an
//! outstanding [`QueryPlan`](crate::QueryPlan) detectably stale; the
//! cache adds no second source of truth. The PR 5 mid-replacement
//! window is covered too: `replace_engine` bumps the epoch at the same
//! instant it swaps the collection, so results cached against the
//! sidelined engine are unreachable from the first post-replacement
//! lookup.
//!
//! Epoch-stale entries are additionally dropped **eagerly**: the broker
//! calls [`QueryCache::purge_stale`] from every lifecycle path
//! (`apply_invalidation`, `replace_engine`, refresh, registration), so
//! dead entries stop occupying the byte budget instead of waiting for
//! eviction to find them. Counted by `broker_cache_stale_evictions_total`.
//!
//! Keys compare by full structural equality (query text, epoch,
//! threshold bits, policy, response shape) — the 64-bit
//! [`CacheKey::fingerprint`] only routes to a shard, so a fingerprint
//! collision can never serve the wrong value.
//!
//! # Admission and eviction
//!
//! The replacement policy is not written here: each of the cache's
//! independently locked shards is a [`seu_store::Slru`], the
//! scan-resistant byte-budgeted segmented LRU the store's hot tier wraps
//! too (see its module docs). This module adds what is the query
//! cache's own — the key, the cost of an [`Answer`], the shard
//! routing, the hit / miss / stale counters and the resident-bytes
//! gauge. Eviction runs until the configured budget
//! (`BrokerBuilder::cache_bytes`), split evenly over the shards, holds.

use crate::broker::{EngineEstimate, MergedHit};
use crate::federation::placement::{fnv1a, hash_key};
use crate::request::{DispatchOutcome, EngineDispatchStats, SearchRequest};
use crate::selection::SelectionPolicy;
use parking_lot::Mutex;
use seu_obs::json;
use seu_store::Slru;
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of independently locked cache shards. Fixed: cache contention
/// is per-query hashing, unrelated to the registry's shard count.
const CACHE_SHARDS: usize = 8;

/// Instrument handles cached once per process.
struct CacheMetrics {
    hits: Arc<seu_obs::Counter>,
    misses: Arc<seu_obs::Counter>,
    stale_evictions: Arc<seu_obs::Counter>,
    bytes_resident: Arc<seu_obs::Gauge>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: seu_obs::counter("broker_cache_hits_total"),
        misses: seu_obs::counter("broker_cache_misses_total"),
        stale_evictions: seu_obs::counter("broker_cache_stale_evictions_total"),
        bytes_resident: seu_obs::gauge("broker_cache_bytes_resident"),
    })
}

/// Forces creation of the cache's instruments so expositions include the
/// whole `broker_cache_*` family even before the first lookup.
pub fn register_metrics() {
    let _ = cache_metrics();
}

/// Per-request cache behavior, set on the [`SearchRequest`] builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Serve from the cache and populate it (the default).
    #[default]
    ReadWrite,
    /// Serve from the cache but never insert (e.g. probes that must not
    /// disturb the resident set).
    ReadOnly,
    /// Ignore the cache entirely — the forced-cold path benchmarks and
    /// conformance tests use (`--no-cache`).
    Bypass,
}

impl CacheMode {
    /// Whether lookups may be served from the cache.
    pub fn reads(&self) -> bool {
        !matches!(self, CacheMode::Bypass)
    }

    /// Whether computed values may be inserted.
    pub fn writes(&self) -> bool {
        matches!(self, CacheMode::ReadWrite)
    }
}

/// What a response was served from. The cache has one tier — finished
/// answers — so this is a one-variant enum on purpose: `benchmark/`
/// compares [`SearchResponse::served_from`] against
/// `Some(CacheTier::Results)`, and turning the field into a `bool` is
/// for a `[benchmark]` PR to do.
///
/// [`SearchResponse::served_from`]: crate::SearchResponse::served_from
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTier {
    /// The merged response itself was served without dispatching.
    Results,
}

impl CacheTier {
    /// Stable lower-snake name (used in the HTTP `served_from` field).
    pub fn name(&self) -> &'static str {
        match self {
            CacheTier::Results => "results",
        }
    }
}

/// The full identity of a cached response. Equality is structural over
/// every field; [`CacheKey::fingerprint`] is only a router.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    query: Arc<str>,
    epoch: u64,
    /// `f64::to_bits` of the threshold.
    threshold_bits: u64,
    /// Selection-policy discriminant.
    policy_tag: u8,
    /// Policy parameter (`k`, or `to_bits` of the floor; 0 otherwise).
    policy_bits: u64,
    /// Result cap (`u64::MAX` = uncapped).
    top_k: u64,
    /// Whether the cached response carries estimates.
    with_estimates: bool,
}

impl CacheKey {
    /// Key for a request's merged response at a registry epoch: what
    /// was asked (`query`, `threshold`, `policy`) plus the response
    /// shape (`top_k`, `with_estimates`). The dispatch timeout doesn't
    /// participate: only complete responses are cached, and a complete
    /// response satisfies any budget.
    pub fn results(req: &SearchRequest, epoch: u64) -> CacheKey {
        let (policy_tag, policy_bits) = match req.policy {
            SelectionPolicy::All => (0, 0),
            SelectionPolicy::EstimatedUseful => (1, 0),
            SelectionPolicy::TopK(k) => (2, k as u64),
            SelectionPolicy::MinNoDoc(min) => (3, min.to_bits()),
        };
        CacheKey {
            query: Arc::from(req.query.as_str()),
            epoch,
            threshold_bits: req.threshold.to_bits(),
            policy_tag,
            policy_bits,
            top_k: req.top_k.map(|k| k as u64).unwrap_or(u64::MAX),
            with_estimates: req.with_estimates,
        }
    }

    /// The registry epoch the key was made at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The same key at another epoch, its query not copied.
    pub(crate) fn at_epoch(self, epoch: u64) -> CacheKey {
        CacheKey { epoch, ..self }
    }

    /// 64-bit FNV-1a over every field, with no allocation. Routes the
    /// key to a cache shard; never trusted for identity.
    pub fn fingerprint(&self) -> u64 {
        // Field separator: "ab" + threshold x must not alias "a" +
        // whatever follows from "b…".
        let mut h = fnv1a(hash_key(&self.query), &[0xff]);
        for v in [
            self.epoch,
            self.threshold_bits,
            self.policy_bits,
            self.top_k,
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
        fnv1a(h, &[self.policy_tag, u8::from(self.with_estimates)])
    }
}

/// One finished answer, shared by [`Arc`]: everything
/// [`SearchResponse`] carries except the trace (never cached —
/// `explain` bypasses) and the `served_from` stamp (assigned at serve
/// time), plus the answer's reply rows, rendered once.
///
/// The cache keeps the very `Arc` a miss answers with, so a hit hands
/// out a reference count, not a copy, and the HTTP door writes the
/// rendered rows as they are. An answer is read-only once made, so its
/// rows always render what it holds.
///
/// [`SearchResponse`]: crate::SearchResponse
#[derive(Debug)]
pub struct Answer {
    pub(crate) hits: Vec<MergedHit>,
    pub(crate) estimates: Vec<EngineEstimate>,
    pub(crate) per_engine_stats: Vec<EngineDispatchStats>,
    /// [`Answer::rows`], once rendered.
    rows: OnceLock<Box<str>>,
}

impl Answer {
    /// An answer whose rows are not rendered yet.
    pub fn new(
        hits: Vec<MergedHit>,
        estimates: Vec<EngineEstimate>,
        per_engine_stats: Vec<EngineDispatchStats>,
    ) -> Answer {
        Answer {
            hits,
            estimates,
            per_engine_stats,
            rows: OnceLock::new(),
        }
    }

    /// Merged hits, exactly as the cold execution produced them.
    pub fn hits(&self) -> &[MergedHit] {
        &self.hits
    }

    /// Per-engine estimates (empty unless the request asked for them —
    /// part of the key, so shapes never mix).
    pub fn estimates(&self) -> &[EngineEstimate] {
        &self.estimates
    }

    /// The cold execution's dispatch accounting. `seconds` are the
    /// original run's; a served hit did not re-dispatch.
    pub fn per_engine_stats(&self) -> &[EngineDispatchStats] {
        &self.per_engine_stats
    }

    /// Whether every selected engine completed in time.
    pub fn is_complete(&self) -> bool {
        self.per_engine_stats
            .iter()
            .all(|s| s.outcome == DispatchOutcome::Completed)
    }

    /// The answer's reply rows as [`write_rows`] writes them, rendered
    /// on the first call and kept: [`QueryCache::insert`] renders them
    /// before it charges the entry, and an answer that is never cached
    /// is rendered by the first reply that asks.
    pub fn rows(&self) -> &str {
        self.rows.get_or_init(|| {
            let n = self.hits.len() + self.estimates.len() + self.per_engine_stats.len();
            let mut out = String::with_capacity(64 + 64 * n);
            write_rows(
                &mut out,
                &self.hits,
                &self.estimates,
                &self.per_engine_stats,
            );
            out.into_boxed_str()
        })
    }

    /// Approximate resident bytes of the answer cached under `key`: the
    /// key, the rows inline, every heap string a row owns, and the
    /// rendered rows (rendered here if they were not yet).
    fn cost(&self, key: &CacheKey) -> usize {
        let hits = self.hits.iter().map(|h| h.engine.len() + h.doc.len());
        let estimates = self.estimates.iter().map(|e| e.engine.len());
        let stats = self
            .per_engine_stats
            .iter()
            .map(|s| s.engine.len() + s.error.as_ref().map_or(0, |e| e.detail.len()));
        size_of::<CacheKey>()
            + key.query.len()
            + size_of::<Answer>()
            + size_of_val(&self.hits[..])
            + size_of_val(&self.estimates[..])
            + size_of_val(&self.per_engine_stats[..])
            + hits.chain(estimates).chain(stats).sum::<usize>()
            + self.rows().len()
    }
}

/// Writes the rows of a `POST /search` reply body, from its opening
/// brace to the end of its `per_engine` array:
/// `{"hits":[…],"estimates":[…],"per_engine":[…]`. The reply's own
/// tail (`served_from`, the trace, the closing brace) follows. Each row
/// is written straight into `out`, numbers included.
pub fn write_rows(
    out: &mut String,
    hits: &[MergedHit],
    estimates: &[EngineEstimate],
    per_engine_stats: &[EngineDispatchStats],
) {
    out.push_str("{\"hits\":[");
    for (i, h) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"engine\":");
        json::write_escaped(out, &h.engine);
        out.push_str(",\"doc\":");
        json::write_escaped(out, &h.doc);
        out.push_str(",\"sim\":");
        json::write_num(out, h.sim);
        out.push('}');
    }
    out.push_str("],\"estimates\":[");
    for (i, e) in estimates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"engine\":");
        json::write_escaped(out, &e.engine);
        out.push_str(",\"no_doc\":");
        json::write_num(out, e.usefulness.no_doc);
        out.push_str(",\"avg_sim\":");
        json::write_num(out, e.usefulness.avg_sim);
        out.push('}');
    }
    out.push_str("],\"per_engine\":[");
    for (i, s) in per_engine_stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"engine\":");
        json::write_escaped(out, &s.engine);
        out.push_str(",\"hits\":");
        json::write_u64(out, s.hits as u64);
        out.push_str(",\"seconds\":");
        json::write_num(out, s.seconds);
        out.push_str(match s.outcome {
            DispatchOutcome::Completed => ",\"outcome\":\"completed\"",
            DispatchOutcome::Failed => ",\"outcome\":\"failed\"",
            DispatchOutcome::TimedOut => ",\"outcome\":\"timed_out\"",
        });
        out.push_str(",\"error\":");
        match &s.error {
            Some(e) => json::write_escaped(out, &e.to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
}

/// Live counters for one cache instance (the process-global
/// `broker_cache_*` counters sum across instances; `/healthz` reports
/// these per-broker numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheStats {
    /// Stable lower-snake name of the eviction policy (`/healthz`
    /// prints it).
    pub policy: &'static str,
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Approximate bytes currently resident.
    pub bytes_resident: u64,
    /// Cached responses currently resident: one per distinct complete
    /// answer at the current epoch (plus any not yet purged or evicted).
    pub entries: u64,
    /// Lookups served.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped eagerly because their epoch went stale.
    pub stale_evictions: u64,
}

/// One independently locked slice of the cache.
type Shard = Mutex<Slru<CacheKey, Arc<Answer>>>;

/// The broker's query cache. See the module docs for the design;
/// construction happens through `BrokerBuilder::cache_bytes`.
pub struct QueryCache {
    shards: Vec<Shard>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_evictions: AtomicU64,
    /// Last resident-bytes figure pushed to the process-global gauge;
    /// deltas against it keep several live brokers summing correctly.
    gauge_published: AtomicU64,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("QueryCache")
            .field("policy", &s.policy)
            .field("budget_bytes", &s.budget_bytes)
            .field("bytes_resident", &s.bytes_resident)
            .field("entries", &s.entries)
            .finish()
    }
}

impl QueryCache {
    /// A cache with `budget` approximate resident bytes, split evenly
    /// across the internal shards.
    pub fn new(budget: usize) -> QueryCache {
        let shard_budget = (budget / CACHE_SHARDS).max(1);
        QueryCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Slru::new(shard_budget)))
                .collect(),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_evictions: AtomicU64::new(0),
            gauge_published: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        &self.shards[(key.fingerprint() % CACHE_SHARDS as u64) as usize]
    }

    /// Looks up a key, updating recency state on hit. Counts
    /// into both the process-global counters and this instance's stats.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Answer>> {
        let m = cache_metrics();
        let value = self.shard(key).lock().get(key).cloned();
        let (global, own) = match value {
            Some(_) => (&m.hits, &self.hits),
            None => (&m.misses, &self.misses),
        };
        global.inc();
        own.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Inserts an answer, evicting until the budget holds. Its rows are
    /// rendered first, so the entry is charged for them.
    pub fn insert(&self, key: CacheKey, value: Arc<Answer>) {
        let cost = value.cost(&key);
        self.shard(&key).lock().insert(key, value, cost);
        self.publish_gauge();
    }

    /// Eagerly drops every entry whose epoch differs from
    /// `current_epoch`. Keys embed their epoch, so such entries can
    /// never be served again — this only reclaims their budget early.
    /// Called by the broker from every lifecycle path that bumps the
    /// registry epoch.
    pub fn purge_stale(&self, current_epoch: u64) {
        let fresh = |key: &CacheKey, _: &Arc<Answer>| key.epoch == current_epoch;
        let dropped: usize = self.shards.iter().map(|s| s.lock().retain(fresh)).sum();
        if dropped > 0 {
            cache_metrics().stale_evictions.add(dropped as u64);
            self.stale_evictions
                .fetch_add(dropped as u64, Ordering::Relaxed);
        }
        self.publish_gauge();
    }

    /// This instance's live stats (per-broker view; `/healthz` exposes
    /// them).
    pub fn stats(&self) -> CacheStats {
        let mut bytes = 0u64;
        let mut entries = 0u64;
        for shard in &self.shards {
            let shard = shard.lock();
            bytes += shard.bytes() as u64;
            entries += shard.len() as u64;
        }
        CacheStats {
            policy: "segmented_lru",
            budget_bytes: self.budget as u64,
            bytes_resident: bytes,
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale_evictions: self.stale_evictions.load(Ordering::Relaxed),
        }
    }

    /// Re-publishes resident bytes to the process-global gauge as a
    /// delta against what this instance last reported (several live
    /// brokers sum correctly; `Drop` retracts the remainder).
    fn publish_gauge(&self) {
        let bytes: u64 = self.shards.iter().map(|s| s.lock().bytes() as u64).sum();
        let prev = self.gauge_published.swap(bytes, Ordering::SeqCst);
        cache_metrics()
            .bytes_resident
            .add(bytes as f64 - prev as f64);
    }
}

impl Drop for QueryCache {
    fn drop(&mut self) {
        let published = self.gauge_published.swap(0, Ordering::SeqCst);
        cache_metrics().bytes_resident.add(-(published as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{TransportError, TransportErrorKind};
    use crate::request::DispatchOutcome;

    fn value(n_hits: usize) -> Arc<Answer> {
        let hits = (0..n_hits)
            .map(|i| MergedHit {
                engine: "e".into(),
                doc: format!("doc{i}"),
                sim: 0.5,
            })
            .collect();
        Arc::new(Answer::new(hits, Vec::new(), Vec::new()))
    }

    fn key(q: &str, epoch: u64, t: f64) -> CacheKey {
        CacheKey::results(
            &SearchRequest::new(q)
                .threshold(t)
                .policy(SelectionPolicy::All),
            epoch,
        )
    }

    #[test]
    fn mode_gates() {
        assert!(CacheMode::ReadWrite.reads() && CacheMode::ReadWrite.writes());
        assert!(CacheMode::ReadOnly.reads() && !CacheMode::ReadOnly.writes());
        assert!(!CacheMode::Bypass.reads() && !CacheMode::Bypass.writes());
    }

    #[test]
    fn get_after_insert_roundtrips() {
        let c = QueryCache::new(1 << 20);
        assert!(c.get(&key("soup", 1, 0.2)).is_none());
        c.insert(key("soup", 1, 0.2), value(3));
        let served = c.get(&key("soup", 1, 0.2)).expect("just inserted");
        assert_eq!(served.hits.len(), 3);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes_resident > 0);
    }

    #[test]
    fn distinct_epochs_thresholds_and_shapes_do_not_alias() {
        let c = QueryCache::new(1 << 20);
        c.insert(key("soup", 1, 0.2), value(1));
        assert!(c.get(&key("soup", 2, 0.2)).is_none(), "epoch aliased");
        assert!(c.get(&key("soup", 1, 0.3)).is_none(), "threshold aliased");
        assert!(c.get(&key("stew", 1, 0.2)).is_none(), "query aliased");
        let req = SearchRequest::new("soup")
            .threshold(0.2)
            .policy(SelectionPolicy::All);
        assert!(
            c.get(&CacheKey::results(&req.clone().top_k(5), 1))
                .is_none(),
            "top_k aliased"
        );
        assert!(
            c.get(&CacheKey::results(&req.clone().with_estimates(true), 1))
                .is_none(),
            "with_estimates aliased"
        );
        assert!(
            c.get(&CacheKey::results(
                &req.policy(SelectionPolicy::EstimatedUseful),
                1
            ))
            .is_none(),
            "policy aliased"
        );
    }

    #[test]
    fn purge_stale_drops_only_old_epochs() {
        let c = QueryCache::new(1 << 20);
        c.insert(key("a", 1, 0.0), value(1));
        c.insert(key("b", 2, 0.0), value(1));
        c.purge_stale(2);
        assert!(c.get(&key("a", 1, 0.0)).is_none());
        assert!(c.get(&key("b", 2, 0.0)).is_some());
        let s = c.stats();
        assert_eq!(s.stale_evictions, 1);
        assert_eq!(s.entries, 1);
    }

    /// Hits on one resident entry, then inserts purged as fast as they
    /// arrive: neither grows what the cache holds or reports. (`Slru`'s
    /// own test counts the queue markers under the same script.)
    #[test]
    fn hits_and_purged_inserts_leave_the_resident_set_as_it_was() {
        let c = QueryCache::new(1 << 20);
        c.insert(key("resident", 0, 0.0), value(2));
        let before = c.stats();
        for _ in 0..10_000 {
            assert!(c.get(&key("resident", 0, 0.0)).is_some());
        }
        for i in 0..10_000 {
            c.insert(key(&format!("passing {i}"), 1, 0.0), value(2));
            c.purge_stale(0);
        }
        let after = c.stats();
        assert_eq!(
            (after.entries, after.bytes_resident),
            (before.entries, before.bytes_resident)
        );
        assert_eq!((after.hits, after.stale_evictions), (10_000, 10_000));
    }

    /// An answer with one hit, 100 estimates and one failed engine,
    /// every row naming `engine`.
    fn wide_answer(engine: &str, detail: &str) -> Answer {
        Answer::new(
            vec![MergedHit {
                engine: engine.to_string(),
                doc: "a-document-name".into(),
                sim: 0.5,
            }],
            (0..100)
                .map(|_| EngineEstimate {
                    engine: engine.to_string(),
                    usefulness: Default::default(),
                })
                .collect(),
            vec![EngineDispatchStats {
                engine: engine.to_string(),
                hits: 1,
                seconds: 0.0,
                outcome: DispatchOutcome::Failed,
                error: Some(TransportError::new(
                    TransportErrorKind::Refused,
                    detail.to_string(),
                )),
            }],
        )
    }

    #[test]
    fn cost_counts_the_heap_strings_of_every_row() {
        let engine = "an engine name well past any inline size";
        let detail = "connection refused by the far end";
        let answer = wide_answer(engine, detail);
        let strings = 102 * engine.len() + "a-document-name".len() + detail.len();
        let k = key("soup", 1, 0.2);
        assert!(answer.cost(&k) >= strings + 100 * size_of::<EngineEstimate>());
        // And the budget sees it: the entry is charged what it costs.
        let c = QueryCache::new(1 << 20);
        let cost = answer.cost(&k);
        c.insert(k, Arc::new(answer));
        assert_eq!(c.stats().bytes_resident, cost as u64);
    }

    /// An entry is charged for its rendered rows too: they are rendered
    /// at insert, before the charge, and `bytes_resident` exceeds what
    /// the answer's own rows and strings cost by exactly their length.
    #[test]
    fn bytes_resident_counts_the_rendered_rows() {
        let answer = Arc::new(wide_answer("an engine", "refused"));
        let k = key("soup", 1, 0.2);
        let unrendered = {
            let twin = wide_answer("an engine", "refused");
            twin.cost(&k) - twin.rows().len()
        };
        assert!(answer.rows.get().is_none());
        let c = QueryCache::new(1 << 20);
        c.insert(k.clone(), Arc::clone(&answer));
        let rows = answer.rows.get().expect("rendered at insert");
        assert!(rows.starts_with("{\"hits\":[{\"engine\":\"an engine\""));
        assert!(rows.ends_with("\"error\":\"refused: refused\"}]"));
        assert_eq!(
            c.stats().bytes_resident,
            (unrendered + rows.len()) as u64,
            "{} bytes of rows",
            rows.len()
        );
        // A hit hands out the inserted answer itself.
        assert!(Arc::ptr_eq(&c.get(&k).unwrap(), &answer));
    }

    #[test]
    fn fingerprint_separates_structurally_distinct_keys() {
        // The seed of the proptest suite: a handful of adversarial
        // near-miss pairs (shared prefixes, swapped fields).
        let pairs = [
            (key("ab", 1, 0.2), key("a", 1, 0.2)),
            (key("a", 1, 0.2), key("a", 2, 0.2)),
            (key("a", 1, 0.25), key("a", 1, 0.2)),
            (
                CacheKey::results(&SearchRequest::new("a").top_k(3), 1),
                CacheKey::results(&SearchRequest::new("a"), 1),
            ),
        ];
        for (a, b) in pairs {
            assert_ne!(a, b);
            assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
        }
    }
}
