//! The hot tier: decoded records in a byte-budgeted segmented LRU
//! ([`Slru`], the one the broker's query cache is built on too) layered
//! over any [`ReprStore`].
//!
//! [`CachedStore`] is the thin part: one lock around the `Slru`, keyed by
//! fingerprint and charged [`EngineRecord::cost`] per record, the
//! `broker_store_hot_*` counters, and the resident-bytes gauge. A record
//! enters on a cold-tier read or a `put`; a repeat hit promotes it, so a
//! burst of one-touch records (a hydration sweep) cannot flush the
//! records queries actually re-touch.

use crate::codec::EngineRecord;
use crate::slru::Slru;
use crate::{store_metrics, Manifest, ReprStore, StoreError};
use parking_lot::Mutex;
use seu_engine::Fingerprint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hot-tier adapter: serves decoded records from a byte-budgeted
/// segmented-LRU cache, falling through to the wrapped store on miss.
pub struct CachedStore<S> {
    inner: S,
    hot: Mutex<Slru<Fingerprint, Arc<EngineRecord>>>,
    /// Resident bytes last added to the process-global gauge, which sums
    /// over every live store; `Drop` retracts them.
    published: AtomicU64,
}

impl<S: ReprStore> CachedStore<S> {
    /// Wraps `inner` with a hot tier bounded to `budget` resident
    /// bytes (a budget of 0 disables caching entirely).
    pub fn new(inner: S, budget: usize) -> Self {
        CachedStore {
            inner,
            hot: Mutex::new(Slru::new(budget)),
            published: AtomicU64::new(0),
        }
    }

    /// The wrapped record store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Bytes currently resident in the hot tier.
    pub fn hot_bytes(&self) -> usize {
        self.hot.lock().bytes()
    }

    /// Records currently resident in the hot tier.
    pub fn hot_len(&self) -> usize {
        self.hot.lock().len()
    }

    /// Offers a record to the hot tier and republishes the gauge, under
    /// the one lock so the published figure never lags a later insert.
    fn admit(&self, key: Fingerprint, record: &Arc<EngineRecord>) {
        let mut hot = self.hot.lock();
        hot.insert(key, Arc::clone(record), record.cost());
        let bytes = hot.bytes() as u64;
        let published = self.published.swap(bytes, Ordering::SeqCst);
        store_metrics()
            .hot_bytes
            .add(bytes as f64 - published as f64);
    }
}

impl<S> Drop for CachedStore<S> {
    fn drop(&mut self) {
        let published = self.published.swap(0, Ordering::SeqCst);
        store_metrics().hot_bytes.add(-(published as f64));
    }
}

impl<S: ReprStore> ReprStore for CachedStore<S> {
    fn get(&self, key: Fingerprint) -> Result<Option<Arc<EngineRecord>>, StoreError> {
        let m = store_metrics();
        let hit = self.hot.lock().get(&key).cloned();
        if hit.is_some() {
            m.hot_hits.inc();
            return Ok(hit);
        }
        m.hot_misses.inc();
        let record = self.inner.get(key)?;
        if let Some(record) = &record {
            self.admit(key, record);
        }
        Ok(record)
    }

    fn put(&self, record: &EngineRecord) -> Result<Arc<EngineRecord>, StoreError> {
        let canonical = self.inner.put(record)?;
        self.admit(canonical.fingerprint, &canonical);
        Ok(canonical)
    }

    fn contains(&self, key: Fingerprint) -> bool {
        self.hot.lock().contains(&key) || self.inner.contains(key)
    }

    fn manifest(&self) -> Manifest {
        self.inner.manifest()
    }

    fn commit(&self, manifest: &Manifest) -> Result<(), StoreError> {
        self.inner.commit(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
    use seu_repr::Representative;
    use seu_text::Analyzer;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;

    /// Counting in-memory record store so tests can observe cold-tier
    /// traffic.
    #[derive(Default)]
    struct MemRepr {
        records: Mutex<HashMap<Fingerprint, Arc<EngineRecord>>>,
        gets: AtomicUsize,
    }

    impl ReprStore for MemRepr {
        fn get(&self, key: Fingerprint) -> Result<Option<Arc<EngineRecord>>, StoreError> {
            self.gets.fetch_add(1, Ordering::Relaxed);
            Ok(self.records.lock().get(&key).cloned())
        }
        fn put(&self, record: &EngineRecord) -> Result<Arc<EngineRecord>, StoreError> {
            let arc = Arc::new(record.clone());
            self.records
                .lock()
                .insert(record.fingerprint, Arc::clone(&arc));
            Ok(arc)
        }
        fn contains(&self, key: Fingerprint) -> bool {
            self.records.lock().contains_key(&key)
        }
        fn manifest(&self) -> Manifest {
            Manifest::default()
        }
        fn commit(&self, _manifest: &Manifest) -> Result<(), StoreError> {
            Ok(())
        }
    }

    fn record(i: usize) -> EngineRecord {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", &format!("alpha{i} beta{i} gamma{i}"));
        b.add_document("d1", &format!("beta{i} delta{i}"));
        let e = SearchEngine::new(b.build());
        let c = e.collection();
        EngineRecord {
            name: format!("hot-{i}"),
            analyzer: c.analyzer_config(),
            scheme: c.scheme(),
            fingerprint: e.fingerprint(),
            doc_freq: Arc::new(c.vocab().iter().map(|(id, _)| c.doc_freq(id)).collect()),
            vocab: Arc::new(c.vocab().clone()),
            repr: Arc::new(Representative::build(c)),
        }
    }

    #[test]
    fn hits_are_served_without_touching_the_cold_tier() {
        let inner = MemRepr::default();
        let rec = record(0);
        inner.put(&rec).unwrap();
        let store = CachedStore::new(inner, 1 << 20);
        let first = store.get(rec.fingerprint).unwrap().unwrap();
        let cold_after_first = store.inner().gets.load(Ordering::Relaxed);
        let second = store.get(rec.fingerprint).unwrap().unwrap();
        assert_eq!(
            store.inner().gets.load(Ordering::Relaxed),
            cold_after_first,
            "second get must be a hot hit"
        );
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn put_primes_the_hot_tier() {
        let store = CachedStore::new(MemRepr::default(), 1 << 20);
        let rec = record(1);
        let canonical = store.put(&rec).unwrap();
        let cold_before = store.inner().gets.load(Ordering::Relaxed);
        let served = store.get(rec.fingerprint).unwrap().unwrap();
        assert_eq!(store.inner().gets.load(Ordering::Relaxed), cold_before);
        assert!(Arc::ptr_eq(&canonical, &served));
        assert!(store.hot_bytes() > 0);
    }

    #[test]
    fn zero_budget_disables_caching_but_stays_correct() {
        let inner = MemRepr::default();
        let rec = record(3);
        inner.put(&rec).unwrap();
        let store = CachedStore::new(inner, 0);
        for _ in 0..3 {
            let got = store.get(rec.fingerprint).unwrap().unwrap();
            assert_eq!(got.name, rec.name);
        }
        assert_eq!(store.hot_len(), 0);
        assert_eq!(store.inner().gets.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn oversized_record_is_served_but_not_cached() {
        let inner = MemRepr::default();
        let rec = record(4);
        inner.put(&rec).unwrap();
        let store = CachedStore::new(inner, 8);
        assert!(store.get(rec.fingerprint).unwrap().is_some());
        assert_eq!(store.hot_len(), 0);
    }
}
