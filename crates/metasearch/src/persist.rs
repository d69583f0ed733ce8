//! Broker ↔ persistent store glue.
//!
//! [`StoreHandle`] wraps an `Arc<dyn ReprStore>` with deferred error
//! reporting: write-through happens on lifecycle paths that have no
//! natural place to surface an I/O error (refresh sweeps, push
//! invalidations, lazy hydration), so failures are stashed here and
//! re-raised by the next [`Broker::snapshot_registry`] call instead of
//! being silently dropped.
//!
//! The canonicalization contract lives here too: every representative
//! the broker installs while a store is attached is first pushed
//! through the store's quantized codec ([`ReprStore::put`] returns the
//! decoded round-trip), so the estimates a live broker computes are
//! bit-identical to those a restored broker computes after decoding
//! the very same bytes from disk. Even when a write fails, the broker
//! still installs the in-memory round-trip so its behaviour does not
//! depend on disk health. What the codec cannot encode at all — a
//! record whose rows do not align — [`canonical`] refuses *before* an
//! installer assigns anything.
//!
//! Hydration is the third installer: a cold entry has no term list and
//! therefore no postings, `hydrate_entry` fills the list in from the
//! stored vocabulary, and the registry posts it although no epoch moves
//! (any path that changes a representative re-posts the engine's terms;
//! see [`crate::registry`]). Re-attaching content with the stored
//! fingerprint keeps the list and posts nothing.
//!
//! The store half of `impl Broker` lives here as well: snapshotting the
//! registry into a manifest, restoring it cold, hydrating it from the
//! cold tier, and re-attaching live engines and transports.
//!
//! [`Broker::snapshot_registry`]: crate::Broker::snapshot_registry
//! [`ReprStore::put`]: seu_store::ReprStore::put

use crate::broker::{metrics, Broker};
use crate::registry::{
    global_ids, Change, ColdEntry, EngineHandle, RegisteredEngine, ReprProvenance,
};
use crate::remote::{RemoteMeta, RemoteTransport, TransportError};
use parking_lot::{Mutex, RwLock};
use seu_core::UsefulnessEstimator;
use seu_engine::{Fingerprint, SearchEngine};
use seu_repr::Representative;
use seu_store::{codec, EngineRecord, EntryKind, Manifest, ManifestEntry, ReprStore, StoreError};
use seu_text::Vocabulary;
use std::sync::Arc;

/// The broker's view of its attached representative store: the store
/// itself plus a one-slot mailbox for deferred errors.
pub(crate) struct StoreHandle {
    store: Arc<dyn ReprStore>,
    /// First store error since the last `snapshot_registry`; later
    /// errors are dropped (the first is the root cause).
    error: Mutex<Option<StoreError>>,
}

impl StoreHandle {
    pub(crate) fn new(store: Arc<dyn ReprStore>) -> StoreHandle {
        StoreHandle {
            store,
            error: Mutex::new(None),
        }
    }

    /// The wrapped store.
    pub(crate) fn store(&self) -> &Arc<dyn ReprStore> {
        &self.store
    }

    /// Writes `record` through to the store and returns the canonical
    /// (quantized round-trip) form the broker must install. If the
    /// write fails, the error is stashed for the next snapshot call
    /// and the round-trip is computed in memory instead — the live
    /// broker's estimates stay canonical either way.
    pub(crate) fn canonicalize(&self, record: &EngineRecord) -> Arc<EngineRecord> {
        match self.store.put(record) {
            Ok(canonical) => canonical,
            Err(e) => {
                self.stash(e);
                Arc::new(codec::roundtrip(record))
            }
        }
    }

    /// Fetches a record, stashing (and swallowing) any store error.
    pub(crate) fn get(&self, key: Fingerprint) -> Option<Arc<EngineRecord>> {
        match self.store.get(key) {
            Ok(r) => r,
            Err(e) => {
                self.stash(e);
                None
            }
        }
    }

    /// Records a deferred store error (first one wins).
    pub(crate) fn stash(&self, err: StoreError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Takes the stashed error, clearing the slot.
    pub(crate) fn take_error(&self) -> Option<StoreError> {
        self.error.lock().take()
    }
}

/// What the broker installs for `repr`: with a store, the canonical
/// (quantized round-trip) form of `record(repr)`, written through, and
/// the fingerprint it is stored under — serving the round-trip is what
/// keeps a live broker bit-identical with one restored from the store
/// later. Without a store, `repr` itself.
///
/// `None` if there is a store and it cannot take the record: its rows
/// (vocabulary, document frequencies, representative) do not align, which
/// the codec would refuse by panicking. An installer asks this first and
/// assigns nothing when refused, so a misaligned representative leaves
/// the entry whole instead of torn under two write locks.
pub(crate) fn canonical(
    store: Option<&StoreHandle>,
    repr: Representative,
    record: impl FnOnce(&Representative) -> EngineRecord,
) -> Option<(Arc<Representative>, Option<Fingerprint>)> {
    let Some(store) = store else {
        return Some((Arc::new(repr), None));
    };
    let record = record(&repr);
    record.is_consistent().then(|| {
        let canonical = store.canonicalize(&record);
        (canonical.repr.clone(), Some(canonical.fingerprint))
    })
}

/// Builds the storable record for a local engine's representative.
/// The vocabulary and document frequencies are written in collection
/// term-id order, so the decoded representative is id-aligned with the
/// collection that produced it.
pub(crate) fn record_for_local(
    name: &str,
    engine: &SearchEngine,
    repr: &Representative,
) -> EngineRecord {
    let c = engine.collection();
    EngineRecord {
        name: name.to_string(),
        analyzer: c.analyzer_config(),
        scheme: c.scheme(),
        fingerprint: engine.fingerprint(),
        doc_freq: Arc::new(c.vocab().iter().map(|(id, _)| c.doc_freq(id)).collect()),
        vocab: Arc::new(c.vocab().clone()),
        repr: Arc::new(repr.clone()),
    }
}

/// Builds the storable record for a remote engine from its
/// snapshot-derived planning metadata.
pub(crate) fn record_for_remote(
    name: &str,
    meta: &RemoteMeta,
    repr: &Representative,
) -> EngineRecord {
    EngineRecord {
        name: name.to_string(),
        analyzer: meta.analyzer,
        scheme: meta.scheme,
        fingerprint: meta.fingerprint,
        doc_freq: meta.doc_freq.clone(),
        vocab: meta.vocab.clone(),
        repr: Arc::new(repr.clone()),
    }
}

/// Hydrates one cold entry: decodes the stored record, rebuilds the
/// entry's planning metadata and term list from it, and installs the
/// canonical representative. Booked as [`Change::Unchanged`]: every
/// plan hydrates first, so no plan (or cache entry) can have observed
/// the placeholder state — the registry posts the entry all the same,
/// because its term list is a new one. A missing or unreadable record marks its
/// entry `pending_invalidation` (surfaced as stale, reconciled by
/// attach) and stashes the error for the next `snapshot_registry`,
/// instead of re-reading the store on every plan.
fn hydrate_entry(e: &mut RegisteredEngine, vocab: &RwLock<Vocabulary>, store: &StoreHandle) {
    let timer = metrics().store_hydration.start_timer();
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
            // collection's term-id order, so this list is valid for
            // any collection with the same fingerprint — which is
            // what lets `replace_engine`/`attach_engine` with
            // identical content plan immediately, exactly like a
            // never-restarted broker.
            e.terms = global_ids(&mut vocab.write(), &meta.vocab);
            e.terms_fingerprint = Some(record.fingerprint);
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
    timer.stop();
}

impl<E: UsefulnessEstimator + Sync> Broker<E> {
    /// Whether a persistent representative store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// The attached store, or the typed refusal every store operation
    /// gives a broker built without one.
    fn store(&self) -> Result<&StoreHandle, StoreError> {
        self.store.as_deref().ok_or_else(|| {
            StoreError::invalid(
                "broker was built without a store; use BrokerBuilder::store to attach one",
            )
        })
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
        let store = self.store()?;
        if let Some(err) = store.take_error() {
            return Err(err);
        }
        let cut = self.registry.walk(|_, e| manifest_entry(e));
        let manifest = Manifest {
            epoch: cut.shard_epochs.iter().sum(),
            shard_epochs: cut.shard_epochs,
            next_seq: self.registry.seq_watermark(),
            entries: cut.items.into_iter().collect::<Result<_, _>>()?,
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
    /// that snapshotted: entries re-route by [`crate::shard_for`] with
    /// the epochs the manifest recorded, and each shard's epoch is
    /// re-based to `entries + Σ entry epochs`. That is the epoch the
    /// snapshotting broker had (shard by shard, at the same shard count)
    /// only if it never deregistered an engine: a removed entry's
    /// registration, changes and removal are forgotten, so the restored
    /// epoch is then lower.
    ///
    /// Fails with [`StoreErrorKind::Invalid`] if no store is attached
    /// or the broker already has engines registered (restore is a
    /// cold-start operation, not a merge).
    ///
    /// [`StoreErrorKind::Invalid`]: seu_store::StoreErrorKind
    pub fn restore(&self) -> Result<usize, StoreError> {
        let store = self.store()?;
        if !self.is_empty() {
            return Err(StoreError::invalid(
                "restore requires an empty broker (it rebuilds the registry from scratch)",
            ));
        }
        let manifest = store.store().manifest();
        self.registry
            .load(manifest.entries.iter().map(cold_entry), manifest.next_seq);
        Ok(manifest.entries.len())
    }

    /// Hydrates every still-cold restored entry from the store and
    /// returns how many entries were decoded. Every plan (and every
    /// lifecycle method that needs a hydrated entry) calls this first,
    /// so hydration is lazy unless the caller makes it eager; once
    /// everything is hydrated it is a single atomic load. Sharded
    /// brokers hydrate each shard as an independent worker-pool job.
    pub fn hydrate(&self) -> usize {
        if self.registry.cold() == 0 {
            return 0;
        }
        let Some(store) = self.store.clone() else {
            return 0;
        };
        let vocab = Arc::clone(&self.vocab);
        let hydrated = self.registry.update_all(
            || self.pool(),
            |e| e.cold.is_some(),
            move |e| {
                hydrate_entry(e, &vocab, &store);
                (Change::Unchanged, Some(()))
            },
        );
        hydrated.len()
    }

    /// Re-attaches a live local engine to a restored (detached) entry.
    /// If the engine's collection fingerprint matches the stored record
    /// the hydrated canonical representative and term list are kept
    /// (nothing is re-posted) — estimates stay bit-identical to the
    /// broker that wrote the snapshot; otherwise both are rebuilt from
    /// the new collection (and written through the store). Bumps the
    /// entry's epoch and the registry epoch either way. Returns false
    /// if no detached entry has that name.
    pub fn attach_engine(&self, name: &str, engine: SearchEngine) -> bool {
        self.hydrate();
        self.update(name, |e| {
            if !e.handle.is_detached() {
                return (Change::Unchanged, false);
            }
            let engine = Arc::new(engine);
            let same = e.terms_fingerprint == Some(engine.fingerprint()) && !e.pending_invalidation;
            e.handle = EngineHandle::Local(engine);
            if same {
                // Same collection content as the stored record: the
                // hydrated term list is id-aligned with it and the
                // canonical representative describes it.
                e.provenance = match e.provenance {
                    ReprProvenance::Shipped { .. } => e.provenance,
                    _ => ReprProvenance::Local(e.stored_fingerprint.expect("hydrated from store")),
                };
                metrics().representative_refreshes.inc();
            } else {
                // Content differs (or hydration failed): rebuild from
                // the live collection, which cannot fail for a local
                // engine.
                let _ = self.refresh(e);
            }
            (Change::Changed, true)
        })
        .unwrap_or(false)
    }

    /// Re-attaches a transport to a restored (detached) entry, keyed by
    /// the engine name its snapshot advertises. If the snapshot's
    /// fingerprint matches the stored record the hydrated metadata and
    /// canonical representative are kept (bit-identical estimates);
    /// otherwise the fresh snapshot is installed (and written through
    /// the store). Returns `Ok(false)` if no detached entry matches the
    /// advertised name, and the [`TransportError`] if the snapshot
    /// fetch failed (the entry stays as it was) or was inconsistent
    /// (the entry ends up attached and stale: the handle moved, so that
    /// too is a change and outstanding plans go stale).
    pub fn attach_remote(
        &self,
        transport: Arc<dyn RemoteTransport>,
    ) -> Result<bool, TransportError> {
        self.hydrate();
        let snapshot = transport.fetch_snapshot()?;
        let name = snapshot.name.clone();
        self.update(&name, |e| {
            let EngineHandle::Detached { meta, .. } = &e.handle else {
                return (Change::Unchanged, Ok(false));
            };
            let same = meta.fingerprint == snapshot.fingerprint && !e.pending_invalidation;
            let meta = if same {
                meta.clone()
            } else {
                RemoteMeta::from_snapshot(&snapshot)
            };
            e.handle = EngineHandle::Remote { transport, meta };
            metrics().representative_refreshes.inc();
            let installed = if same {
                e.terms_fingerprint = None;
                Ok(true)
            } else {
                e.install_remote(&mut self.vocab.write(), snapshot, self.store.as_deref())
                    .map(|()| true)
            };
            (Change::Changed, installed)
        })
        .unwrap_or(Ok(false))
    }
}

/// The manifest row for one registry entry.
fn manifest_entry(e: &RegisteredEngine) -> Result<ManifestEntry, StoreError> {
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
        // A still-detached entry keeps whatever kind it was
        // snapshotted with: remote if it recorded an endpoint.
        match e.handle.endpoint() {
            Some(endpoint) => EntryKind::Remote { endpoint },
            None => EntryKind::Local,
        }
    };
    Ok(ManifestEntry {
        name: e.name.clone(),
        seq: e.seq,
        epoch: e.epoch,
        fingerprint,
        kind,
        analyzer: e.handle.analyzer_config(),
        scheme: e.handle.scheme(),
        repr_terms: e.repr_terms(),
        repr_bytes: e.repr_bytes(),
    })
}

/// The registry entry a manifest row restores to: detached, cold, with
/// placeholders where hydration will put the representative, the term
/// list and the vocabulary — enough for statuses and staleness, and no
/// plan can observe them (plans hydrate first).
fn cold_entry(e: &ManifestEntry) -> RegisteredEngine {
    let fp = e.fingerprint;
    let (endpoint, provenance) = match &e.kind {
        EntryKind::Local => (None, ReprProvenance::Local(fp)),
        EntryKind::Remote { endpoint } => (Some(endpoint.clone()), ReprProvenance::Remote(fp)),
        EntryKind::Shipped => (
            None,
            ReprProvenance::Shipped {
                n_docs: fp.n_docs,
                raw_bytes: fp.raw_bytes,
            },
        ),
    };
    let meta = RemoteMeta {
        analyzer: e.analyzer,
        scheme: e.scheme,
        n_docs: fp.n_docs.min(u64::from(u32::MAX)) as u32,
        doc_freq: Arc::new(Vec::new()),
        vocab: Arc::new(Vocabulary::new()),
        fingerprint: fp,
    };
    RegisteredEngine {
        name: e.name.clone(),
        seq: e.seq,
        handle: EngineHandle::Detached { meta, endpoint },
        repr: Arc::new(Representative::from_parts(
            fp.n_docs,
            Vec::new(),
            fp.raw_bytes,
        )),
        terms: Arc::from([]),
        terms_fingerprint: None,
        epoch: e.epoch,
        provenance,
        pending_invalidation: false,
        cold: Some(ColdEntry {
            repr_terms: e.repr_terms,
            repr_bytes: e.repr_bytes,
        }),
        stored_fingerprint: Some(fp),
    }
}
