//! Broker-side query cache: epoch-keyed, sharded, byte-budgeted.
//!
//! Real metasearch query streams are heavily Zipfian — a small set of
//! hot queries dominates — yet without a cache every request re-analyzes
//! the text, re-translates it into every engine's term space, and
//! re-estimates every representative even when nothing changed since the
//! identical request a moment ago. The [`QueryCache`] memoizes the three
//! expensive artifacts of the request pipeline as separate **tiers**:
//!
//! 1. [`CacheTier::Analysis`] — the [`SharedAnalysis`] of a query text
//!    (threshold- and policy-free, so threshold sweeps share it);
//! 2. [`CacheTier::Plan`] — a full [`QueryPlan`] for
//!    `(query, threshold, policy)`;
//! 3. [`CacheTier::Results`] — the merged hits + accounting of a
//!    **complete** execution (every selected engine answered).
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
//! outstanding [`QueryPlan`] detectably stale; the cache adds no second
//! source of truth. The PR 5 mid-replacement window is covered too:
//! `replace_engine` bumps the epoch at the same instant it swaps the
//! collection, so plans/results cached against the sidelined engine are
//! unreachable from the first post-replacement lookup.
//!
//! Epoch-stale entries are additionally dropped **eagerly**: the broker
//! calls [`QueryCache::purge_stale`] from every lifecycle path
//! (`apply_invalidation`, `replace_engine`, refresh, registration), so
//! dead entries stop occupying the byte budget instead of waiting for
//! eviction to find them. Counted by `broker_cache_stale_evictions_total`.
//!
//! Keys compare by full structural equality (tier, query text, epoch,
//! threshold bits, policy, response shape) — the 64-bit
//! [`CacheKey::fingerprint`] only routes to a shard and seeds the hash
//! map, so a fingerprint collision can never serve the wrong value.
//!
//! # Admission and eviction
//!
//! Scan-resistant **segmented LRU**: a probationary and a protected
//! segment. New entries start probationary; a hit promotes to
//! protected; when protected outgrows its share (80% of the budget) its
//! LRU tail demotes back to probationary, and eviction always consumes
//! the probationary tail first. One-hit wonders from a cold scan never
//! displace the hot set. Entries account approximate resident bytes and
//! eviction runs until the configured budget
//! (`BrokerBuilder::cache_bytes`) holds.

use crate::broker::{EngineEstimate, MergedHit};
use crate::plan::{QueryPlan, SharedAnalysis};
use crate::request::{EngineDispatchStats, SearchRequest};
use crate::selection::SelectionPolicy;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// FNV-1a (same constants as the registry's shard router, so the whole
/// broker fingerprints strings one way).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Number of independently locked cache shards. Fixed: cache contention
/// is per-query hashing, unrelated to the registry's shard count.
const CACHE_SHARDS: usize = 8;

/// Fraction of the budget the segmented-LRU protected segment may hold.
const PROTECTED_SHARE: f64 = 0.8;

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

/// Which tier of the cache served (part of) a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTier {
    /// Only the query analysis was reused; the plan was rebuilt.
    Analysis,
    /// A cached plan was dispatched.
    Plan,
    /// The merged response itself was served without dispatching.
    Results,
}

impl CacheTier {
    /// Stable lower-snake name (used in the HTTP `served_from` field).
    pub fn name(&self) -> &'static str {
        match self {
            CacheTier::Analysis => "analysis",
            CacheTier::Plan => "plan",
            CacheTier::Results => "results",
        }
    }
}

/// The full identity of a cached value. Equality is structural over
/// every field; [`CacheKey::fingerprint`] is only a router.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    tier: CacheTier,
    query: Arc<str>,
    epoch: u64,
    /// `f64::to_bits` of the threshold (0 for the analysis tier, which
    /// is threshold-free).
    threshold_bits: u64,
    /// Selection-policy discriminant (0 for the analysis tier).
    policy_tag: u8,
    /// Policy parameter (`k`, or `to_bits` of the floor; 0 otherwise).
    policy_bits: u64,
    /// Result cap for the results tier (`u64::MAX` = uncapped; 0 for
    /// the other tiers, which are shape-free).
    top_k: u64,
    /// Whether the cached response carries estimates (results tier).
    with_estimates: bool,
}

fn policy_key(policy: SelectionPolicy) -> (u8, u64) {
    match policy {
        SelectionPolicy::All => (0, 0),
        SelectionPolicy::EstimatedUseful => (1, 0),
        SelectionPolicy::TopK(k) => (2, k as u64),
        SelectionPolicy::MinNoDoc(min) => (3, min.to_bits()),
    }
}

impl CacheKey {
    /// Key for the analysis of `query` at a registry epoch. Analysis
    /// depends only on the registered analyzer configurations and the
    /// global vocabulary — both epoch-stamped — so no other request
    /// field participates.
    pub fn analysis(query: &str, epoch: u64) -> CacheKey {
        CacheKey {
            tier: CacheTier::Analysis,
            query: Arc::from(query),
            epoch,
            threshold_bits: 0,
            policy_tag: 0,
            policy_bits: 0,
            top_k: 0,
            with_estimates: false,
        }
    }

    /// Key for a request's plan: `(query, epoch, threshold, policy)`.
    /// Response-shape fields (`top_k`, `with_estimates`) don't
    /// participate — the plan is shape-free.
    pub fn plan(req: &SearchRequest, epoch: u64) -> CacheKey {
        let (policy_tag, policy_bits) = policy_key(req.policy);
        CacheKey {
            tier: CacheTier::Plan,
            query: Arc::from(req.query.as_str()),
            epoch,
            threshold_bits: req.threshold.to_bits(),
            policy_tag,
            policy_bits,
            top_k: 0,
            with_estimates: false,
        }
    }

    /// Key for a request's merged response: the plan key plus the
    /// response shape (`top_k`, `with_estimates`). The dispatch timeout
    /// doesn't participate: only complete responses are cached, and a
    /// complete response satisfies any budget.
    pub fn results(req: &SearchRequest, epoch: u64) -> CacheKey {
        let (policy_tag, policy_bits) = policy_key(req.policy);
        CacheKey {
            tier: CacheTier::Results,
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

    /// 64-bit FNV-1a over every field. Routes the key to a cache shard
    /// and buckets the shard's map; never trusted for identity.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut byte = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        byte(match self.tier {
            CacheTier::Analysis => 1,
            CacheTier::Plan => 2,
            CacheTier::Results => 3,
        });
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

/// A value in the cache, tagged by tier.
#[derive(Debug, Clone)]
pub enum CachedValue {
    /// A shared query analysis.
    Analysis(Arc<SharedAnalysis>),
    /// A full query plan.
    Plan(Arc<QueryPlan>),
    /// A complete merged response.
    Results(Arc<CachedResponse>),
}

impl CachedValue {
    /// Approximate resident bytes (payload vectors; `Arc`-shared
    /// representatives and engine handles are not attributed to the
    /// cache — they stay resident with the registry regardless).
    fn cost(&self, key: &CacheKey) -> usize {
        let base = key.query.len() + 96;
        base + match self {
            CachedValue::Analysis(a) => a
                .per_config
                .iter()
                .map(|(_, tf)| 16 + tf.len() * 8)
                .sum::<usize>(),
            CachedValue::Plan(p) => {
                p.selected.len() * 8
                    + p.engines
                        .iter()
                        .map(|e| e.name.len() + e.query().len() * 16 + 96)
                        .sum::<usize>()
            }
            CachedValue::Results(r) => {
                r.hits
                    .iter()
                    .map(|h| h.engine.len() + h.doc.len() + 24)
                    .sum::<usize>()
                    + r.estimates.len() * 40
                    + r.per_engine_stats
                        .iter()
                        .map(|s| s.engine.len() + 48)
                        .sum::<usize>()
            }
        }
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
    /// Entries currently resident (all tiers).
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

struct CacheEntry {
    value: CachedValue,
    bytes: usize,
    /// Queue-position stamp: a queue item is current only if its stamp
    /// matches (promotion/demotion re-push under a fresh stamp, lazily
    /// invalidating old positions).
    stamp: u64,
    /// In the protected segment (else probationary).
    in_main: bool,
}

#[derive(Default)]
struct CacheShard {
    map: HashMap<CacheKey, CacheEntry>,
    /// Probationary queue, lazily pruned.
    small: VecDeque<(CacheKey, u64)>,
    /// Protected queue, lazily pruned.
    main: VecDeque<(CacheKey, u64)>,
    bytes: usize,
    main_bytes: usize,
    stamp: u64,
}

impl CacheShard {
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Whether a queue item still names the entry's current position.
    fn current<'a>(
        map: &'a HashMap<CacheKey, CacheEntry>,
        key: &CacheKey,
        stamp: u64,
    ) -> Option<&'a CacheEntry> {
        map.get(key).filter(|e| e.stamp == stamp)
    }

    fn remove(&mut self, key: &CacheKey) -> Option<CacheEntry> {
        let e = self.map.remove(key)?;
        self.bytes -= e.bytes;
        if e.in_main {
            self.main_bytes -= e.bytes;
        }
        Some(e)
    }

    /// A hit: promote to (or refresh within) the protected segment.
    fn touch(&mut self, key: &CacheKey) {
        let stamp = self.next_stamp();
        let Some(e) = self.map.get_mut(key) else {
            return;
        };
        e.stamp = stamp;
        if !e.in_main {
            e.in_main = true;
            self.main_bytes += e.bytes;
        }
        self.main.push_back((key.clone(), stamp));
    }

    fn insert(&mut self, key: CacheKey, value: CachedValue, budget: usize) {
        let bytes = value.cost(&key);
        if bytes > budget {
            // Larger than the whole shard budget: inserting would evict
            // everything and then itself. Skip.
            return;
        }
        if let Some(old) = self.remove(&key) {
            // Replacement (e.g. a re-execution after ReadOnly probes):
            // drop the old body first so accounting stays exact.
            drop(old);
        }
        let stamp = self.next_stamp();
        self.small.push_back((key.clone(), stamp));
        self.bytes += bytes;
        self.map.insert(
            key,
            CacheEntry {
                value,
                bytes,
                stamp,
                in_main: false,
            },
        );
        self.evict(budget);
    }

    fn evict(&mut self, budget: usize) {
        let protected_budget = (budget as f64 * PROTECTED_SHARE) as usize;
        while self.bytes > budget {
            // Keep the protected segment within its share by demoting
            // its LRU tail to probationary.
            if self.main_bytes > protected_budget {
                if let Some((key, stamp)) = self.main.pop_front() {
                    if Self::current(&self.map, &key, stamp).is_some() {
                        let fresh = self.next_stamp();
                        let e = self.map.get_mut(&key).expect("current() saw it");
                        e.in_main = false;
                        e.stamp = fresh;
                        self.main_bytes -= e.bytes;
                        self.small.push_back((key, fresh));
                    }
                    continue;
                }
                self.main_bytes = 0;
            }
            // Evict the probationary LRU tail; fall back to protected
            // when probation is empty.
            match self.small.pop_front() {
                Some((key, stamp)) => {
                    if Self::current(&self.map, &key, stamp).is_some() {
                        self.remove(&key);
                    }
                }
                None => match self.main.pop_front() {
                    Some((key, stamp)) => {
                        if Self::current(&self.map, &key, stamp).is_some() {
                            self.remove(&key);
                        }
                    }
                    None => break,
                },
            }
        }
    }
}

/// The broker's query cache. See the module docs for the design;
/// construction happens through `BrokerBuilder::cache_bytes`.
pub struct QueryCache {
    shards: Vec<Mutex<CacheShard>>,
    budget: usize,
    shard_budget: usize,
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
        QueryCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            budget,
            shard_budget: (budget / CACHE_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_evictions: AtomicU64::new(0),
            gauge_published: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<CacheShard> {
        &self.shards[(key.fingerprint() % CACHE_SHARDS as u64) as usize]
    }

    /// Looks up a key, updating recency state on hit. Counts
    /// into both the process-global counters and this instance's stats.
    pub fn get(&self, key: &CacheKey) -> Option<CachedValue> {
        let m = cache_metrics();
        let mut shard = self.shard(key).lock();
        let value = shard.map.get(key).map(|e| e.value.clone());
        match value {
            Some(v) => {
                shard.touch(key);
                drop(shard);
                m.hits.inc();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                drop(shard);
                m.misses.inc();
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a value, evicting until the budget holds.
    pub fn insert(&self, key: CacheKey, value: CachedValue) {
        {
            let mut shard = self.shard(&key).lock();
            shard.insert(key, value, self.shard_budget);
        }
        self.publish_gauge();
    }

    /// Eagerly drops every entry whose epoch differs from
    /// `current_epoch`. Keys embed their epoch, so such entries can
    /// never be served again — this only reclaims their budget early.
    /// Called by the broker from every lifecycle path that bumps the
    /// registry epoch.
    pub fn purge_stale(&self, current_epoch: u64) {
        let m = cache_metrics();
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let stale: Vec<CacheKey> = shard
                .map
                .keys()
                .filter(|k| k.epoch != current_epoch)
                .cloned()
                .collect();
            dropped += stale.len() as u64;
            for key in stale {
                shard.remove(&key);
            }
        }
        if dropped > 0 {
            m.stale_evictions.add(dropped);
            self.stale_evictions.fetch_add(dropped, Ordering::Relaxed);
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
            bytes += shard.bytes as u64;
            entries += shard.map.len() as u64;
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
        let bytes: u64 = self.shards.iter().map(|s| s.lock().bytes as u64).sum();
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

    fn value(n_hits: usize) -> CachedValue {
        CachedValue::Results(Arc::new(CachedResponse {
            hits: (0..n_hits)
                .map(|i| MergedHit {
                    engine: "e".into(),
                    doc: format!("doc{i}"),
                    sim: 0.5,
                })
                .collect(),
            estimates: Vec::new(),
            per_engine_stats: Vec::new(),
        }))
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
        match c.get(&key("soup", 1, 0.2)) {
            Some(CachedValue::Results(r)) => assert_eq!(r.hits.len(), 3),
            other => panic!("{other:?}"),
        }
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
            c.get(&CacheKey::results(&req.with_estimates(true), 1))
                .is_none(),
            "with_estimates aliased"
        );
        assert!(c
            .get(&CacheKey::plan(&SearchRequest::new("soup"), 1))
            .is_none());
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

    #[test]
    fn byte_budget_is_enforced() {
        // Small budget; all keys land where they land — the shard
        // budget still bounds each shard.
        let c = QueryCache::new(8 << 10);
        for i in 0..512 {
            c.insert(key(&format!("query number {i}"), 1, 0.0), value(8));
        }
        let s = c.stats();
        assert!(
            s.bytes_resident <= 8 << 10,
            "{} resident > budget",
            s.bytes_resident
        );
        assert!(s.entries > 0, "everything evicted");
    }

    #[test]
    fn slru_hits_protect_hot_entries_from_a_scan() {
        let c = QueryCache::new(4 << 10);
        c.insert(key("hot", 1, 0.0), value(2));
        for _ in 0..8 {
            assert!(c.get(&key("hot", 1, 0.0)).is_some());
        }
        // A cold scan many times the budget.
        for i in 0..1024 {
            c.insert(key(&format!("cold scan item {i}"), 1, 0.0), value(2));
        }
        assert!(
            c.get(&key("hot", 1, 0.0)).is_some(),
            "hot entry evicted by one-hit wonders"
        );
    }

    #[test]
    fn oversized_entries_are_refused() {
        let c = QueryCache::new(1024);
        c.insert(key("giant", 1, 0.0), value(10_000));
        assert_eq!(c.stats().entries, 0);
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
                CacheKey::plan(&SearchRequest::new("a"), 1),
                CacheKey::analysis("a", 1),
            ),
        ];
        for (a, b) in pairs {
            assert_ne!(a, b);
            assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
        }
    }
}
