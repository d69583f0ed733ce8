//! Broker ↔ persistent store glue.
//!
//! [`StoreHandle`] wraps the attached [`Store`] with deferred error
//! reporting: write-through happens on lifecycle paths that have no
//! natural place to surface an I/O error (refresh sweeps, push
//! invalidations, lazy hydration), so failures are stashed here and
//! re-raised by the next [`Broker::snapshot_registry`] call instead of
//! being silently dropped.
//!
//! The canonicalization contract lives here too: every record the
//! broker installs while a store is attached is first pushed through
//! the store's quantized codec ([`StoreHandle::canonicalize`];
//! [`ReprStore::put`] returns the decoded round-trip), so the estimates
//! a live broker computes are bit-identical to those a restored broker
//! computes after decoding the very same bytes from disk. Even when a
//! write fails, the broker still installs the in-memory round-trip so
//! its behaviour does not depend on disk health. Every record reaching
//! the codec is consistent: it was built from a collection, or shipped
//! and checked by `EngineRecord::is_consistent`.
//!
//! Hydration fills a cold entry in: it has a placeholder record, no
//! term list and therefore no postings; `hydrate_entry` installs the
//! stored record and its term list, and the registry posts it although
//! no epoch moves (any path that changes a record re-posts the engine's
//! terms; see [`crate::registry`]). Re-attaching content with the
//! stored fingerprint keeps the list and posts nothing.
//!
//! The store half of `impl Broker` lives here as well: snapshotting the
//! registry into a manifest, restoring it cold, hydrating it from the
//! cold tier, and re-attaching live engines and transports.
//!
//! [`Broker::snapshot_registry`]: crate::Broker::snapshot_registry
//! [`ReprStore::put`]: seu_store::ReprStore::put
//! [`Store`]: seu_store::Store

use crate::broker::{metrics, Broker};
use crate::registry::{global_ids, Change, ColdEntry, EngineHandle, RegisteredEngine};
use crate::remote::{check_consistent, RemoteTransport, TransportError};
use parking_lot::{Mutex, RwLock};
use seu_engine::{Fingerprint, SearchEngine};
use seu_repr::Representative;
use seu_store::{
    codec, EngineRecord, EntryKind, Manifest, ManifestEntry, ReprStore, Store, StoreError, Sweep,
};
use seu_text::Vocabulary;
use std::sync::Arc;

/// The broker's view of its attached representative store: the store
/// itself plus a one-slot mailbox for deferred errors.
pub(crate) struct StoreHandle {
    store: Store,
    /// First store error since the last `snapshot_registry`; later
    /// errors are dropped (the first is the root cause).
    error: Mutex<Option<StoreError>>,
}

impl StoreHandle {
    pub(crate) fn new(store: Store) -> StoreHandle {
        StoreHandle {
            store,
            error: Mutex::new(None),
        }
    }

    /// The wrapped store.
    pub(crate) fn store(&self) -> &Store {
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

    /// Fetches a record through `sweep`, stashing (and swallowing) any
    /// store error.
    pub(crate) fn get(&self, sweep: &Sweep, key: Fingerprint) -> Option<Arc<EngineRecord>> {
        match sweep.get(key) {
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

/// Hydrates one cold entry: reads the stored record and installs it,
/// with the term list of its vocabulary. Booked as
/// [`Change::Unchanged`]: every plan hydrates first, so no plan (or
/// cache entry) can have observed the placeholder state — the registry
/// posts the entry all the same, because its term list is a new one.
/// A missing or unreadable record marks its entry
/// `pending_invalidation` (surfaced as stale, reconciled by attach) and
/// stashes the error for the next `snapshot_registry`, instead of
/// re-reading the store on every plan. The record is read through the
/// hydration's one `sweep`, which opens each segment once.
fn hydrate_entry(
    e: &mut RegisteredEngine,
    vocab: &RwLock<Vocabulary>,
    store: &StoreHandle,
    sweep: &Sweep,
) {
    let timer = metrics().store_hydration.start_timer();
    let key = e.record.fingerprint;
    match store.get(sweep, key) {
        Some(record) => {
            // The record's vocabulary is written in the source
            // collection's term-id order, so this list is valid for
            // any collection with the same fingerprint — which is
            // what lets `replace_engine`/`attach_engine` with
            // identical content plan immediately, exactly like a
            // never-restarted broker.
            e.terms = global_ids(&mut vocab.write(), &record.vocab);
            e.record = record;
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

impl Broker {
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
            entries: cut.items,
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
    /// cold-start operation, not a merge), and with
    /// [`StoreErrorKind::Corrupt`], registering nothing, if the manifest
    /// names an engine twice (no broker holds two entries by one name).
    ///
    /// [`StoreErrorKind::Invalid`]: seu_store::StoreErrorKind
    /// [`StoreErrorKind::Corrupt`]: seu_store::StoreErrorKind
    pub fn restore(&self) -> Result<usize, StoreError> {
        let store = self.store()?;
        if !self.is_empty() {
            return Err(StoreError::invalid(
                "restore requires an empty broker (it rebuilds the registry from scratch)",
            ));
        }
        let manifest = store.store().manifest();
        let restored = manifest.entries.iter().map(cold_entry);
        self.registry
            .load(restored, manifest.next_seq)
            .map_err(|name| StoreError::corrupt(format!("manifest names engine {name:?} twice")))
    }

    /// Hydrates every still-cold restored entry from the store and
    /// returns how many entries were decoded. Every plan (and every
    /// lifecycle method that needs a hydrated entry) calls this first,
    /// so hydration is lazy unless the caller makes it eager; once
    /// everything is hydrated it is a single atomic load. Shards are
    /// hydrated on scoped worker threads, as `refresh_if_stale` sweeps,
    /// and the threads read through one store [`Sweep`]: each segment
    /// file is opened once for the whole hydration, not once a record.
    ///
    /// [`Sweep`]: seu_store::Sweep
    pub fn hydrate(&self) -> usize {
        if self.registry.cold() == 0 {
            return 0;
        }
        let Some(store) = self.store.as_deref() else {
            return 0;
        };
        let sweep = store.store().sweep();
        let hydrated = self.registry.update_all(
            |e| e.cold.is_some(),
            |e| {
                hydrate_entry(e, &self.vocab, store, &sweep);
                (Change::Unchanged, Some(()))
            },
        );
        hydrated.len()
    }

    /// Re-attaches a live local engine to a restored (detached) entry.
    /// If the engine's collection fingerprint matches the stored record
    /// the hydrated canonical representative and term list are kept
    /// (nothing is re-posted) — estimates stay bit-identical to the
    /// broker that wrote the snapshot — and the record takes the
    /// collection's vocabulary and document frequencies in place of the
    /// stored copies, as every local entry's does; otherwise the record
    /// is rebuilt from the new collection (and written through the
    /// store). Bumps the entry's epoch and the registry epoch either
    /// way. Returns false if no detached entry has that name.
    pub fn attach_engine(&self, name: &str, engine: SearchEngine) -> bool {
        self.hydrate();
        self.update(name, |e| {
            if !e.handle.is_detached() {
                return (Change::Unchanged, false);
            }
            let engine = Arc::new(engine);
            if e.record.fingerprint == engine.fingerprint() && !e.pending_invalidation {
                // Same collection content as the stored record: the
                // hydrated term list is id-aligned with it and the
                // canonical representative describes it.
                let c = engine.collection();
                e.record = Arc::new(EngineRecord {
                    vocab: c.shared_vocab().clone(),
                    doc_freq: c.shared_doc_freq().clone(),
                    ..(*e.record).clone()
                });
                e.handle = EngineHandle::Local(engine);
                metrics().representative_refreshes.inc();
            } else {
                // Content differs (or hydration failed): rebuild from
                // the live collection, which cannot fail for a local
                // engine.
                e.handle = EngineHandle::Local(engine);
                let _ = self.refresh(e);
            }
            (Change::Changed, true)
        })
        .unwrap_or(false)
    }

    /// Re-attaches a transport to a restored (detached) entry, keyed by
    /// the engine name its snapshot advertises. If the snapshot's
    /// fingerprint matches the stored record the hydrated record and
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
        self.attach_fetched(transport, snapshot)
    }

    /// [`Broker::attach_remote`] with the transport's record already
    /// fetched (a replica install checks its name first).
    pub(crate) fn attach_fetched(
        &self,
        transport: Arc<dyn RemoteTransport>,
        snapshot: Arc<EngineRecord>,
    ) -> Result<bool, TransportError> {
        let name = snapshot.name.clone();
        self.update(&name, |e| {
            if !e.handle.is_detached() {
                return (Change::Unchanged, Ok(false));
            }
            let same = e.record.fingerprint == snapshot.fingerprint && !e.pending_invalidation;
            e.handle = EngineHandle::Remote(transport);
            metrics().representative_refreshes.inc();
            if same {
                return (Change::Changed, Ok(true));
            }
            // The snapshot replaces the stored record, unless the door
            // refuses it: then the entry keeps the stored one and stays
            // stale.
            let installed = match check_consistent(&snapshot) {
                Ok(()) => {
                    e.install(&mut self.vocab.write(), snapshot, self.store.as_deref());
                    Ok(true)
                }
                Err(err) => {
                    e.pending_invalidation = true;
                    Err(err)
                }
            };
            (Change::Changed, installed)
        })
        .unwrap_or(Ok(false))
    }
}

/// The manifest row for one registry entry.
fn manifest_entry(e: &RegisteredEngine) -> ManifestEntry {
    // A still-detached entry keeps whatever kind it was snapshotted
    // with: remote if it recorded an endpoint.
    let kind = match e.handle.endpoint() {
        Some(endpoint) => EntryKind::Remote { endpoint },
        None => EntryKind::Local,
    };
    ManifestEntry {
        name: e.name.clone(),
        seq: e.seq,
        epoch: e.epoch,
        fingerprint: e.record.fingerprint,
        kind,
        analyzer: e.record.analyzer,
        scheme: e.record.scheme,
        repr_terms: e.repr_terms(),
        repr_bytes: e.repr_bytes(),
    }
}

/// The registry entry a manifest row restores to: detached, cold, with a
/// placeholder record (the row's analyzer, scheme and fingerprint, no
/// terms) where hydration will put the stored one, and an empty term
/// list — enough for statuses and staleness, and no plan can observe
/// them (plans hydrate first).
fn cold_entry(e: &ManifestEntry) -> RegisteredEngine {
    let fp = e.fingerprint;
    let endpoint = match &e.kind {
        EntryKind::Local => None,
        EntryKind::Remote { endpoint } => Some(endpoint.clone()),
    };
    let record = Arc::new(EngineRecord {
        name: e.name.clone(),
        analyzer: e.analyzer,
        scheme: e.scheme,
        fingerprint: fp,
        doc_freq: Arc::from([]),
        vocab: Arc::new(Vocabulary::new()),
        repr: Arc::new(Representative::from_parts(
            fp.n_docs,
            Vec::new(),
            fp.raw_bytes,
        )),
    });
    RegisteredEngine {
        epoch: e.epoch,
        cold: Some(ColdEntry {
            repr_terms: e.repr_terms,
            repr_bytes: e.repr_bytes,
        }),
        ..RegisteredEngine::new(&e.name, e.seq, EngineHandle::Detached(endpoint), record)
    }
}
