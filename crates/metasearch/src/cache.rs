//! Broker-side query cache: epoch-keyed, sharded, byte-budgeted.
//!
//! Real metasearch query streams are heavily Zipfian — a small set of
//! hot queries dominates — yet without a cache every request re-plans
//! and re-dispatches even when nothing changed since the identical
//! request a moment ago. The [`QueryCache`] keeps the one artifact a
//! repeat can be answered from whole: the merged hits and accounting of
//! a **complete** execution (every selected engine answered), keyed by
//! everything that shapes it. Nothing below the finished answer is
//! cached — an analysis is microseconds since the registry's term
//! postings, and a plan is only ever asked for again by a request whose
//! answer is cached already.
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
//! cache's own — the key, the cost of a [`CachedResponse`], the shard
//! routing, the hit / miss / stale counters and the resident-bytes
//! gauge. Eviction runs until the configured budget
//! (`BrokerBuilder::cache_bytes`), split evenly over the shards, holds.

use crate::broker::{EngineEstimate, MergedHit};
use crate::request::{EngineDispatchStats, SearchRequest};
use crate::selection::SelectionPolicy;
use parking_lot::Mutex;
use seu_store::Slru;
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// FNV-1a (same constants as the registry's shard router, so the whole
/// broker fingerprints strings one way).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

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

    /// 64-bit FNV-1a over every field. Routes the key to a cache shard;
    /// never trusted for identity.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut byte = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for b in self.query.as_bytes() {
            byte(*b);
        }
        // Field separator: "ab" + threshold x must not alias "a" +
        // whatever follows from "b…".
        byte(0xff);
        for v in [
            self.epoch,
            self.threshold_bits,
            self.policy_bits,
            self.top_k,
        ] {
            for b in v.to_le_bytes() {
                byte(b);
            }
        }
        byte(self.policy_tag);
        byte(self.with_estimates as u8);
        h
    }
}

/// A cached merged response: everything [`SearchResponse`] carries
/// except the trace (never cached — `explain` bypasses) and the
/// `served_from` stamp (assigned at serve time).
///
/// [`SearchResponse`]: crate::SearchResponse
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// Merged hits, exactly as the cold execution produced them.
    pub hits: Vec<MergedHit>,
    /// Per-engine estimates (empty unless the request asked for them —
    /// part of the key, so shapes never mix).
    pub estimates: Vec<EngineEstimate>,
    /// The cold execution's dispatch accounting. `seconds` are the
    /// original run's; a served hit did not re-dispatch.
    pub per_engine_stats: Vec<EngineDispatchStats>,
}

impl CachedResponse {
    /// Approximate resident bytes of the response cached under `key`:
    /// the key, the rows inline, and every heap string a row owns.
    fn cost(&self, key: &CacheKey) -> usize {
        let hits = self.hits.iter().map(|h| h.engine.len() + h.doc.len());
        let estimates = self.estimates.iter().map(|e| e.engine.len());
        let stats = self
            .per_engine_stats
            .iter()
            .map(|s| s.engine.len() + s.error.as_ref().map_or(0, |e| e.detail.len()));
        size_of::<CacheKey>()
            + key.query.len()
            + size_of::<CachedResponse>()
            + size_of_val(&self.hits[..])
            + size_of_val(&self.estimates[..])
            + size_of_val(&self.per_engine_stats[..])
            + hits.chain(estimates).chain(stats).sum::<usize>()
    }
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

impl CacheStats {
    /// Hit rate over all lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One independently locked slice of the cache.
type Shard = Mutex<Slru<CacheKey, Arc<CachedResponse>>>;

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
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedResponse>> {
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

    /// Inserts a response, evicting until the budget holds.
    pub fn insert(&self, key: CacheKey, value: Arc<CachedResponse>) {
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
        let fresh = |key: &CacheKey, _: &Arc<CachedResponse>| key.epoch == current_epoch;
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

    fn value(n_hits: usize) -> Arc<CachedResponse> {
        Arc::new(CachedResponse {
            hits: (0..n_hits)
                .map(|i| MergedHit {
                    engine: "e".into(),
                    doc: format!("doc{i}"),
                    sim: 0.5,
                })
                .collect(),
            estimates: Vec::new(),
            per_engine_stats: Vec::new(),
        })
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

    #[test]
    fn cost_counts_the_heap_strings_of_every_row() {
        let engine = "an engine name well past any inline size".to_string();
        let detail = "connection refused by the far end".to_string();
        let response = CachedResponse {
            hits: vec![MergedHit {
                engine: engine.clone(),
                doc: "a-document-name".into(),
                sim: 0.5,
            }],
            estimates: (0..100)
                .map(|_| EngineEstimate {
                    engine: engine.clone(),
                    usefulness: Default::default(),
                })
                .collect(),
            per_engine_stats: vec![EngineDispatchStats {
                engine: engine.clone(),
                hits: 1,
                seconds: 0.0,
                outcome: DispatchOutcome::Failed,
                error: Some(TransportError::new(
                    TransportErrorKind::Refused,
                    detail.clone(),
                )),
            }],
        };
        let strings = 102 * engine.len() + "a-document-name".len() + detail.len();
        let k = key("soup", 1, 0.2);
        assert!(response.cost(&k) >= strings + 100 * size_of::<EngineEstimate>());
        // And the budget sees it: the entry is charged what it costs.
        let c = QueryCache::new(1 << 20);
        c.insert(k.clone(), Arc::new(response.clone()));
        assert_eq!(c.stats().bytes_resident, response.cost(&k) as u64);
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
