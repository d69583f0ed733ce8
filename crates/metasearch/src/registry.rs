//! The representative lifecycle: epoch-versioned registry entries,
//! staleness detection, and the registry's own bookkeeping.
//!
//! The paper's broker keeps a *representative* per engine and assumes
//! infrequent metadata propagation keeps it consistent with the engine's
//! collection (§1). This module is the machinery that makes that
//! consistency checkable and restorable instead of assumed:
//!
//! * every registry entry carries a monotonically increasing **epoch**,
//!   bumped on any change to the entry (representative refresh or
//!   replacement, engine snapshot swap);
//! * the entry records the [`Fingerprint`] of the collection its
//!   representative and term list were built from, so a sweep
//!   (`Broker::refresh_if_stale`) can compare it against the engine's
//!   current fingerprint and rebuild only what actually changed;
//! * a [`QueryPlan`](crate::QueryPlan) records the broker-wide registry
//!   epoch it was planned against, so `Broker::execute_plan` and
//!   `Broker::try_reestimate` can detect that a plan's term translation
//!   no longer matches the registry and replan (or surface a typed
//!   [`StalePlanError`] under [`StaleMode::Error`](crate::StaleMode)).
//!
//! The headline invariant: **any** path that changes a representative
//! re-posts the engine's terms. The three installers
//! (`RegisteredEngine::install`, `install_meta` and the store's
//! `hydrate_entry`) build the representative and the entry's term list —
//! its vocabulary as broker-global term ids — together, and the registry
//! posts a replaced list into the shard's postings before it unlocks.
//! Terms added to a collection after registration therefore reach the
//! global vocabulary and every subsequent plan, instead of being
//! silently dropped from query translation.
//!
//! # Who owns what
//!
//! `ShardedRegistry` keeps its own books; four things live here and
//! nowhere else:
//!
//! * **order** — `ShardedRegistry::walk` is the one cross-shard read
//!   (one read lock per shard, the shard epoch read under the same
//!   guard, items restored to registration order);
//! * **epochs** — `ShardedRegistry::insert`, `update` and
//!   `remove` are the only ways an entry appears, changes or leaves.
//!   Each takes the owning shard's write lock, and an entry's epoch and
//!   its shard's move together, once, when the caller's closure reports
//!   `Change::Changed`;
//! * **postings** — each shard keeps, under that same lock, a
//!   `TermIndex`: broker-global term id → the entries that hold the
//!   term and its local id there, plus the analyzer configurations
//!   present. The same calls (and `load`) keep it current
//!   *incrementally*: an entry is posted when it appears, unposted (and
//!   the later positions shifted) when it leaves, and re-posted exactly
//!   when a closure left it with another term list — epoch or no epoch:
//!   hydration reports `Unchanged` and posts. The planner's
//!   `ShardedRegistry::walk_with` reads it, so a plan consults the
//!   vocabulary and representative of the engines that contain a query
//!   term and of no others; `ShardedRegistry::audit_postings` is the
//!   from-scratch reference `tests/index_ledger.rs` holds it to;
//! * **gauges** — the same calls republish the shard's share of
//!   `broker_registry_engines` / `broker_representative_bytes_resident`
//!   before they unlock; dropping the registry retracts it.
//!
//! The broker decides *what* happens to an entry, purges its query
//! cache after a change and writes through its store; it never touches
//! a lock, an epoch, a posting or a gauge.
//!
//! # Sharding
//!
//! At 10k+ engines a single registry lock turns every lifecycle event
//! into a broker-wide stall: one engine's refresh blocks every query's
//! plan. The entries are therefore split across N independently locked
//! shards, routed by [`shard_for`]. Each shard carries its own epoch
//! counter; the broker-global epoch is **derived** as their sum, so no
//! global lock exists anywhere in the lifecycle. Entries carry a global
//! registration sequence number so cross-shard views (planning,
//! statuses, oracle selection) come out in exact registration order —
//! the order selection tie-breaks and result merging depend on, which
//! is what makes a sharded broker bit-identical to a flat one.

use crate::persist::{canonical, record_for_local, record_for_remote, StoreHandle};
use crate::pool::{JobStatus, WorkerPool};
use crate::postings::{Posting, TermIndex};
use crate::remote::{
    EngineSnapshot, RemoteMeta, RemoteTransport, TransportError, TransportErrorKind,
};
use parking_lot::RwLock;
use seu_engine::{Fingerprint, SearchEngine, WeightingScheme};
use seu_repr::Representative;
use seu_text::{AnalyzerConfig, TermId, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a offset basis (same constants as
/// [`seu_engine::Fingerprint`]'s content hash).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Routes an engine id to a shard: FNV-1a over the id's bytes, modulo
/// the shard count.
///
/// The function is pure — no per-process salt, no randomized hasher —
/// so the same id maps to the same shard in every process and across
/// restarts, and re-sharding a registry to the *same* shard count is a
/// no-op (no engine moves). Ids spread uniformly: over any reasonably
/// sized id population each shard receives its expected share within a
/// few percent (property-tested in `tests/shard_routing.rs`).
pub fn shard_for(engine_id: &str, n_shards: usize) -> usize {
    let mut h = FNV_OFFSET;
    for b in engine_id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % n_shards.max(1) as u64) as usize
}

/// The registry gauges — process-wide, or one shard's exclusive pair.
struct SizeGauges {
    engines: Arc<seu_obs::Gauge>,
    bytes: Arc<seu_obs::Gauge>,
}

impl SizeGauges {
    fn named(suffix: &str) -> SizeGauges {
        SizeGauges {
            engines: seu_obs::gauge(&format!("broker_registry_engines{suffix}")),
            bytes: seu_obs::gauge(&format!("broker_representative_bytes_resident{suffix}")),
        }
    }

    fn add(&self, engines: f64, bytes: f64) {
        self.engines.add(engines);
        self.bytes.add(bytes);
    }
}

/// Forces creation of the process-wide registry gauges so snapshots
/// list them before the first broker exists.
pub(crate) fn register_metrics() {
    let _ = SizeGauges::named("");
}

/// One independently locked slice of the registry.
///
/// `epoch` is bumped (`SeqCst`) **while holding the `entries` write
/// lock**, once per registration, per entry change and per removal, so:
///
/// * reading `epoch` under the `entries` read lock observes a
///   consistent cut of this shard;
/// * until the shard's first removal every such cut has
///   `epoch == entries.len() + Σ entry.epoch` (a registration
///   contributes 1 and an entry at epoch 0; each entry bump pairs with
///   one shard bump). A removal takes its entry's terms out of the
///   right-hand side and adds 1 to the left, so from then on it is `≥`;
///   [`ShardedRegistry::load`] (a restore) re-bases to the equality.
///   [`RegistrySnapshot`] exposes the pieces so tests can assert this
///   under concurrency.
struct Shard {
    entries: RwLock<Entries>,
    epoch: AtomicU64,
    /// What this shard last published to the engine-count gauges, so
    /// republication is a delta (several brokers sum) and dropping the
    /// registry can retract it.
    gauge_engines: AtomicU64,
    /// Ditto for representative resident bytes.
    gauge_repr_bytes: AtomicU64,
    /// The `…_shard_<i>` pair; `None` in a flat (1-shard) registry,
    /// which keeps the historical metric surface.
    gauges: Option<SizeGauges>,
}

/// What a shard's lock guards: the entries, in registration order, and
/// the postings over their term lists. The only places an entry appears,
/// changes or leaves (`insert`, `remove`, `load`, and `book` behind
/// `update` / `update_all`) keep `index` equal to what posting every
/// entry of `list` from scratch would give (see
/// [`ShardedRegistry::audit_postings`]).
#[derive(Default)]
struct Entries {
    list: Vec<RegisteredEngine>,
    index: TermIndex,
}

impl Entries {
    /// Posts the entry at `pos` (and counts its analyzer configuration).
    fn post(&mut self, pos: usize) {
        post(&mut self.index, pos, &self.list[pos]);
    }
}

/// Posts `entry`, which sits at `pos` of its shard, into `index`.
fn post(index: &mut TermIndex, pos: usize, entry: &RegisteredEngine) {
    index.add_config(entry.handle.analyzer_config());
    index.post(position(pos), &entry.terms);
}

/// An entry's position in its shard, as postings name it.
fn position(pos: usize) -> u32 {
    u32::try_from(pos).expect("a shard holds fewer than 2^32 entries")
}

/// What a lifecycle closure did to the entry it was handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change {
    /// Nothing a plan could observe (a failed refetch marking the entry
    /// stale, a hydration from the cold tier): no epoch moves.
    Unchanged,
    /// Its epoch and its shard's each move by one, so every outstanding
    /// plan is detectably stale.
    Changed,
}

impl Change {
    /// `Changed` if `changed`, else `Unchanged`.
    pub(crate) fn when(changed: bool) -> Change {
        if changed {
            Change::Changed
        } else {
            Change::Unchanged
        }
    }
}

/// What one [`ShardedRegistry::walk`] made of the entries, in
/// registration order, and the epoch each shard had while visited.
pub(crate) struct Cut<T> {
    pub(crate) items: Vec<T>,
    pub(crate) shard_epochs: Vec<u64>,
}

/// One shard as a walk finds it on taking its lock.
pub(crate) struct ShardView<'a> {
    /// Which shard.
    pub(crate) shard: usize,
    /// How many entries it holds.
    pub(crate) engines: usize,
    index: &'a TermIndex,
}

impl ShardView<'_> {
    /// The analyzer configurations among the shard's entries.
    pub(crate) fn configs(&self) -> impl Iterator<Item = AnalyzerConfig> + '_ {
        self.index.configs()
    }
}

/// One of a walk's terms found in the entry being visited.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hit {
    /// The entry's position in its shard (what the walk groups by).
    entry: u32,
    /// The broker-global id the walk was asked to look up.
    pub(crate) term: u32,
    /// The id the entry's own term space gives the term.
    pub(crate) local: TermId,
}

/// Registration order: the one place a cross-shard view is sorted.
fn in_order<T>(mut tagged: Vec<(u64, T)>) -> Vec<T> {
    tagged.sort_by_key(|&(seq, _)| seq);
    tagged.into_iter().map(|(_, item)| item).collect()
}

/// The broker's registry: N independently locked shards plus the global
/// registration sequence counter. See the module docs for what it owns.
pub(crate) struct ShardedRegistry {
    shards: Vec<Shard>,
    /// Next registration sequence number: one broker-wide registration
    /// order without any cross-shard lock.
    seq: AtomicU64,
    /// Restored entries whose representative still lives only in the
    /// cold tier; the check in front of every plan is this one load.
    cold: AtomicU64,
    /// The process-wide gauges every shard's deltas also go to.
    total: SizeGauges,
}

impl ShardedRegistry {
    pub(crate) fn new(n_shards: usize) -> ShardedRegistry {
        let n_shards = n_shards.max(1);
        ShardedRegistry {
            shards: (0..n_shards)
                .map(|i| Shard {
                    entries: RwLock::new(Entries::default()),
                    epoch: AtomicU64::new(0),
                    gauge_engines: AtomicU64::new(0),
                    gauge_repr_bytes: AtomicU64::new(0),
                    gauges: (n_shards > 1).then(|| SizeGauges::named(&format!("_shard_{i}"))),
                })
                .collect(),
            seq: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            total: SizeGauges::named(""),
        }
    }

    pub(crate) fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard an engine id routes to.
    fn shard_of(&self, engine_id: &str) -> &Shard {
        &self.shards[shard_for(engine_id, self.shards.len())]
    }

    /// The broker-global registry epoch, derived as the sum of the
    /// shard epochs — no global lock. Each term is monotonic, so the
    /// sum is monotonic; a plan that records the sum goes stale the
    /// moment any shard changes.
    pub(crate) fn epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.epoch.load(Ordering::SeqCst))
            .sum()
    }

    /// The next sequence number that *would* be claimed — the snapshot
    /// watermark a manifest records so a restore resumes the sequence
    /// space without colliding with pre-snapshot registrations.
    pub(crate) fn seq_watermark(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Total registered engines (takes each shard's read lock briefly).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.entries.read().list.len())
            .sum()
    }

    /// How many restored entries are still cold.
    pub(crate) fn cold(&self) -> u64 {
        self.cold.load(Ordering::SeqCst)
    }

    /// Reads one entry under its shard's read lock; `None` for an
    /// unknown name.
    pub(crate) fn get<T>(
        &self,
        name: &str,
        read: impl FnOnce(&RegisteredEngine) -> T,
    ) -> Option<T> {
        let entries = self.shard_of(name).entries.read();
        entries.list.iter().find(|e| e.name == name).map(read)
    }

    /// The analyzer configurations among the entries, in a fixed order
    /// (whatever the shard count): each shard's own set, read under its
    /// lock — no entry is visited.
    pub(crate) fn configs(&self) -> Vec<AnalyzerConfig> {
        let mut all: Vec<AnalyzerConfig> = Vec::new();
        for shard in &self.shards {
            for config in shard.entries.read().index.configs() {
                if !all.contains(&config) {
                    all.push(config);
                }
            }
        }
        all.sort_unstable_by_key(|c| (c.remove_stopwords, c.stem));
        all
    }

    /// The one ordered cross-shard read. One shard's read lock at a
    /// time — a lifecycle event on shard A never blocks a walk over
    /// shard B — with the shard epoch read under the same guard, so per
    /// shard the items and the epoch are one consistent cut. The items
    /// `visit(shard index, entry)` makes come back in the order a flat
    /// registry would have had.
    pub(crate) fn walk<T>(&self, mut visit: impl FnMut(usize, &RegisteredEngine) -> T) -> Cut<T> {
        self.walk_with(&[], |view| view.shard, |shard, e, _| visit(*shard, e))
    }

    /// [`ShardedRegistry::walk`] for the planner. `enter(shard)` is
    /// called as each shard's lock is taken; what it returns is handed
    /// to every `visit` of that shard and dropped just before the lock
    /// is (the per-shard span). `visit` also gets the entry's hits:
    /// which of `terms` (broker-global ids) the shard's postings place
    /// in the entry, and under which local id — empty for an entry that
    /// holds none of them, without its vocabulary being looked at.
    pub(crate) fn walk_with<G, T>(
        &self,
        terms: &[u32],
        mut enter: impl FnMut(&ShardView) -> G,
        mut visit: impl FnMut(&mut G, &RegisteredEngine, &[Hit]) -> T,
    ) -> Cut<T> {
        let expected = self
            .shards
            .iter()
            .map(|s| s.gauge_engines.load(Ordering::SeqCst));
        let mut tagged: Vec<(u64, T)> = Vec::with_capacity(expected.sum::<u64>() as usize);
        let mut shard_epochs = Vec::with_capacity(self.shards.len());
        let mut hits: Vec<Hit> = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let entries = shard.entries.read();
            shard_epochs.push(shard.epoch.load(Ordering::SeqCst));
            hits.clear();
            for &term in terms {
                let found = entries.index.postings(term).iter();
                hits.extend(found.map(|&Posting { entry, local }| Hit { entry, term, local }));
            }
            hits.sort_unstable_by_key(|hit| hit.entry);
            let mut entered = enter(&ShardView {
                shard: idx,
                engines: entries.list.len(),
                index: &entries.index,
            });
            let mut rest = hits.as_slice();
            // An exact-size `map`: each item is built in its slot.
            tagged.extend(entries.list.iter().enumerate().map(|(pos, e)| {
                let mine = rest.iter().take_while(|hit| hit.entry as usize == pos);
                let (mine, later) = rest.split_at(mine.count());
                rest = later;
                (e.seq, visit(&mut entered, e, mine))
            }));
        }
        Cut {
            items: in_order(tagged),
            shard_epochs,
        }
    }

    /// Adds (and posts) the entry `build` makes for the sequence number
    /// it is handed; `false`, and nothing added, if it makes none — the
    /// sequence number is then never used, which leaves a gap in an
    /// order, nothing more. `build` runs under the routed shard's write
    /// lock, so it may lock the vocabulary (`entries` before `vocab`,
    /// everywhere); no other shard is locked.
    pub(crate) fn insert(
        &self,
        name: &str,
        build: impl FnOnce(u64) -> Option<RegisteredEngine>,
    ) -> bool {
        let shard = self.shard_of(name);
        let mut entries = shard.entries.write();
        let Some(entry) = build(self.seq.fetch_add(1, Ordering::SeqCst)) else {
            return false;
        };
        entries.list.push(entry);
        let pos = entries.list.len() - 1;
        entries.post(pos);
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        self.publish(shard, &entries.list);
        true
    }

    /// Removes the named entry and its postings, bumping the shard epoch
    /// so outstanding plans that include it are detectably stale.
    /// `false` for an unknown name.
    pub(crate) fn remove(&self, name: &str) -> bool {
        let shard = self.shard_of(name);
        let mut entries = shard.entries.write();
        let Some(pos) = entries.list.iter().position(|e| e.name == name) else {
            return false;
        };
        // Every later entry moves up one slot, and the postings name
        // entries by slot: removal is O(shard) twice over.
        let removed = entries.list.remove(pos);
        entries.index.unpost(position(pos), &removed.terms);
        entries.index.close_gap(position(pos));
        entries
            .index
            .remove_config(removed.handle.analyzer_config());
        if removed.cold.is_some() {
            self.cold.fetch_sub(1, Ordering::SeqCst);
        }
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        self.publish(shard, &entries.list);
        true
    }

    /// Runs `f` on the named entry under its shard's write lock and
    /// books what it reports; `None` for an unknown name.
    pub(crate) fn update<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut RegisteredEngine) -> (Change, T),
    ) -> Option<(Change, T)> {
        let shard = self.shard_of(name);
        let mut entries = shard.entries.write();
        let pos = entries.list.iter().position(|e| e.name == name)?;
        let (resized, booked) = self.book(shard, &mut entries, pos, f);
        if resized {
            self.publish(shard, &entries.list);
        }
        Some(booked)
    }

    /// Runs `f` on every entry `wants` picks — shard by shard, each
    /// under its own write lock, taken only if a look under the read
    /// lock finds a pick — and returns what `f` kept, in registration
    /// order. A flat registry does this on the calling thread, a
    /// sharded one as one job per shard on `pool()`: a slow shard holds
    /// only its own lock.
    pub(crate) fn update_all<'p, T: Send + 'static>(
        self: &Arc<Self>,
        pool: impl FnOnce() -> &'p WorkerPool,
        wants: fn(&RegisteredEngine) -> bool,
        f: impl Fn(&mut RegisteredEngine) -> (Change, Option<T>) + Send + Sync + 'static,
    ) -> Vec<T> {
        if self.shards.len() == 1 {
            return in_order(self.update_shard(0, wants, &f));
        }
        let f = Arc::new(f);
        let jobs = (0..self.shards.len())
            .map(|idx| {
                let (registry, f) = (Arc::clone(self), Arc::clone(&f));
                Box::new(move || registry.update_shard(idx, wants, &*f))
                    as Box<dyn FnOnce() -> Vec<(u64, T)> + Send>
            })
            .collect();
        let done = pool().run_collect(jobs, None);
        in_order(
            done.into_iter()
                .filter_map(JobStatus::into_done)
                .flatten()
                .collect(),
        )
    }

    fn update_shard<T>(
        &self,
        idx: usize,
        wants: fn(&RegisteredEngine) -> bool,
        f: &impl Fn(&mut RegisteredEngine) -> (Change, Option<T>),
    ) -> Vec<(u64, T)> {
        let shard = &self.shards[idx];
        if !shard.entries.read().list.iter().any(wants) {
            return Vec::new();
        }
        let mut entries = shard.entries.write();
        let (mut kept, mut resized) = (Vec::new(), false);
        for pos in 0..entries.list.len() {
            if !wants(&entries.list[pos]) {
                continue;
            }
            let (moved, (_, out)) = self.book(shard, &mut entries, pos, f);
            resized |= moved;
            kept.extend(out.map(|item| (entries.list[pos].seq, item)));
        }
        if resized {
            self.publish(shard, &entries.list);
        }
        kept
    }

    /// The one place an entry change is booked: the entry epoch and the
    /// shard epoch move together, an entry that left the cold tier
    /// leaves the cold count, and an entry whose term list an installer
    /// replaced (with or without an epoch: hydration fills one in and
    /// reports `Unchanged`) is re-posted. Also says whether the entry's
    /// size may have moved, i.e. whether the caller owes a `publish`.
    /// Call with the shard's write lock held.
    fn book<T>(
        &self,
        shard: &Shard,
        entries: &mut Entries,
        pos: usize,
        f: impl FnOnce(&mut RegisteredEngine) -> (Change, T),
    ) -> (bool, (Change, T)) {
        let Entries { list, index } = entries;
        let entry = &mut list[pos];
        let was_cold = entry.cold.is_some();
        let (config, terms) = (entry.handle.analyzer_config(), Arc::clone(&entry.terms));
        let (change, out) = f(entry);
        if !Arc::ptr_eq(&terms, &entry.terms) {
            index.unpost(position(pos), &terms);
            index.post(position(pos), &entry.terms);
        }
        if config != entry.handle.analyzer_config() {
            index.remove_config(config);
            index.add_config(entry.handle.analyzer_config());
        }
        let warmed = was_cold && entry.cold.is_none();
        if warmed {
            self.cold.fetch_sub(1, Ordering::SeqCst);
        }
        if change == Change::Changed {
            entry.epoch += 1;
            shard.epoch.fetch_add(1, Ordering::SeqCst);
        }
        (warmed || change == Change::Changed, (change, out))
    }

    /// Fills an empty registry with restored entries, which keep the
    /// sequence numbers and epochs they were snapshotted with, and
    /// re-bases each shard's epoch to the equality of the [`Shard`]
    /// docs, whatever the snapshotting registry had removed.
    pub(crate) fn load(&self, restored: impl Iterator<Item = RegisteredEngine>, next_seq: u64) {
        let mut by_shard: Vec<Vec<RegisteredEngine>> =
            self.shards.iter().map(|_| Vec::new()).collect();
        for entry in restored {
            by_shard[shard_for(&entry.name, self.shards.len())].push(entry);
        }
        for (shard, mut group) in self.shards.iter().zip(by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut entries = shard.entries.write();
            let cold = group.iter().filter(|e| e.cold.is_some()).count();
            self.cold.fetch_add(cold as u64, Ordering::SeqCst);
            entries.list.append(&mut group);
            // Sorted before posted: postings name entries by position
            // (and posted from scratch, should a registration have
            // slipped in ahead of the restore).
            entries.list.sort_unstable_by_key(|e| e.seq);
            entries.index = TermIndex::default();
            for pos in 0..entries.list.len() {
                entries.post(pos);
            }
            let entry_epochs: u64 = entries.list.iter().map(|e| e.epoch).sum();
            shard
                .epoch
                .store(entries.list.len() as u64 + entry_epochs, Ordering::SeqCst);
            self.publish(shard, &entries.list);
        }
        self.seq.fetch_max(next_seq, Ordering::SeqCst);
    }

    /// Checks every shard's live index against one posted from scratch
    /// from the shard's entries — the reference the incremental
    /// bookkeeping of `insert`, `remove`, `load` and `book` must equal
    /// at every step. `Err` says where the first difference is.
    pub(crate) fn audit_postings(&self) -> Result<(), String> {
        for (idx, shard) in self.shards.iter().enumerate() {
            let entries = shard.entries.read();
            let mut fresh = TermIndex::default();
            for (pos, entry) in entries.list.iter().enumerate() {
                post(&mut fresh, pos, entry);
            }
            let same = entries.index.same_as(&fresh);
            same.map_err(|why| format!("shard {idx}: {why}"))?;
        }
        Ok(())
    }

    /// Re-publishes one shard's share of the registry gauges, as the
    /// difference against what it last reported: several live brokers
    /// (e.g. in one test binary) sum correctly, and dropping the
    /// registry retracts exactly what was published. Call with the
    /// shard's write lock held — publication must be atomic with the
    /// change it reports.
    fn publish(&self, shard: &Shard, entries: &[RegisteredEngine]) {
        let engines = entries.len() as u64;
        let bytes = entries.iter().map(RegisteredEngine::repr_bytes).sum();
        let d_engines = engines as f64 - shard.gauge_engines.swap(engines, Ordering::SeqCst) as f64;
        let d_bytes = bytes as f64 - shard.gauge_repr_bytes.swap(bytes, Ordering::SeqCst) as f64;
        self.total.add(d_engines, d_bytes);
        if let Some(own) = &shard.gauges {
            own.add(d_engines, d_bytes);
        }
    }
}

impl Drop for ShardedRegistry {
    fn drop(&mut self) {
        for shard in &self.shards {
            self.publish(shard, &[]);
        }
    }
}

/// What the registry knows about the collection a representative
/// summarized — the baseline a staleness check compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReprProvenance {
    /// The broker built the representative from the engine's collection
    /// itself: the full content fingerprint is known.
    Local(Fingerprint),
    /// The engine shipped the representative (possibly quantized or
    /// accumulator-snapshotted): only the summary's own totals are
    /// known, so staleness is judged on document count and raw bytes.
    Shipped {
        /// `n_docs` the shipped summary claims.
        n_docs: u64,
        /// `collection_bytes` the shipped summary claims.
        raw_bytes: u64,
    },
    /// A remote engine shipped a full [`EngineSnapshot`]: the snapshot
    /// carries the collection's content fingerprint, so push
    /// invalidations can be compared exactly.
    Remote(Fingerprint),
}

impl ReprProvenance {
    /// The provenance of a representative the engine shipped.
    pub(crate) fn shipped(repr: &Representative) -> ReprProvenance {
        ReprProvenance::Shipped {
            n_docs: repr.n_docs(),
            raw_bytes: repr.collection_bytes(),
        }
    }

    /// Whether a collection with fingerprint `current` is still the one
    /// this representative describes.
    pub(crate) fn matches(&self, current: Fingerprint) -> bool {
        match *self {
            ReprProvenance::Local(fp) | ReprProvenance::Remote(fp) => fp == current,
            ReprProvenance::Shipped { n_docs, raw_bytes } => {
                n_docs == current.n_docs && raw_bytes == current.raw_bytes
            }
        }
    }
}

/// How the broker reaches one registered engine: in-process, or through
/// a [`RemoteTransport`] with broker-side planning metadata.
///
/// Cloning is cheap (`Arc`s all the way down); plans hold a clone so
/// they stay dispatchable after the registry moves on.
#[derive(Debug, Clone)]
pub(crate) enum EngineHandle {
    /// The engine lives in this process; the broker holds it directly.
    Local(Arc<SearchEngine>),
    /// The engine lives elsewhere; the broker holds a transport to it
    /// and the snapshot-derived metadata planning needs.
    Remote {
        /// The wire to the engine.
        transport: Arc<dyn RemoteTransport>,
        /// Planning metadata from the engine's last snapshot.
        meta: RemoteMeta,
    },
    /// The entry was restored from a persistent store and has not been
    /// re-attached to a live engine yet. The broker can still *plan*
    /// over it (its representative and vocabulary come from the store),
    /// but dispatching to it fails until
    /// [`Broker::attach_engine`](crate::Broker::attach_engine) or
    /// [`Broker::attach_remote`](crate::Broker::attach_remote) supplies
    /// the live handle.
    Detached {
        /// Planning metadata decoded from the stored record (a
        /// placeholder until lazy hydration fills it in).
        meta: RemoteMeta,
        /// The endpoint recorded at snapshot time, when the engine was
        /// remote — advisory, for operators re-attaching transports.
        endpoint: Option<String>,
    },
}

impl EngineHandle {
    /// The engine's analyzer configuration (drives the shared-analysis
    /// pass).
    pub(crate) fn analyzer_config(&self) -> AnalyzerConfig {
        match self {
            EngineHandle::Local(e) => e.collection().analyzer_config(),
            EngineHandle::Remote { meta, .. } | EngineHandle::Detached { meta, .. } => {
                meta.analyzer
            }
        }
    }

    /// The engine's weighting scheme (recorded in store manifests).
    pub(crate) fn scheme(&self) -> WeightingScheme {
        match self {
            EngineHandle::Local(e) => e.collection().scheme(),
            EngineHandle::Remote { meta, .. } | EngineHandle::Detached { meta, .. } => meta.scheme,
        }
    }

    /// The in-process engine, when there is one.
    pub(crate) fn local(&self) -> Option<&Arc<SearchEngine>> {
        match self {
            EngineHandle::Local(e) => Some(e),
            EngineHandle::Remote { .. } | EngineHandle::Detached { .. } => None,
        }
    }

    /// Whether this engine is reached over a transport.
    pub(crate) fn is_remote(&self) -> bool {
        matches!(self, EngineHandle::Remote { .. })
    }

    /// Whether this entry is restored-but-unattached.
    pub(crate) fn is_detached(&self) -> bool {
        matches!(self, EngineHandle::Detached { .. })
    }

    /// The remote endpoint, when there is one (for detached entries,
    /// the endpoint recorded at snapshot time).
    pub(crate) fn endpoint(&self) -> Option<String> {
        match self {
            EngineHandle::Local(_) => None,
            EngineHandle::Remote { transport, .. } => Some(transport.endpoint()),
            EngineHandle::Detached { endpoint, .. } => endpoint.clone(),
        }
    }
}

/// One engine's registry entry: the engine handle, its representative,
/// its term list, and the lifecycle bookkeeping.
pub(crate) struct RegisteredEngine {
    pub(crate) name: String,
    /// Broker-wide registration sequence number: cross-shard views sort
    /// by it to recover exact registration order.
    pub(crate) seq: u64,
    pub(crate) handle: EngineHandle,
    pub(crate) repr: Arc<Representative>,
    /// The term list: `terms[local id]` is the broker-global id of each
    /// term of the vocabulary the representative is row-aligned with —
    /// what the shard's postings say about this entry. Built together
    /// with the representative, never independently of it, and replaced
    /// whole, never edited: a different `Arc` is how
    /// [`ShardedRegistry`] knows to re-post the entry. Empty while cold.
    pub(crate) terms: Arc<[u32]>,
    /// For local engines: the full fingerprint of the collection `terms`
    /// was built from. [`Broker::replace_engine`](crate::Broker) swaps
    /// the collection *without* rebuilding the list (metadata
    /// propagation is infrequent by design), so planning must check
    /// this before using the local ids the postings give it — they may
    /// be out of range (or denote different terms) in the new
    /// collection. `None` for remote entries, whose list and metadata
    /// always move together.
    pub(crate) terms_fingerprint: Option<Fingerprint>,
    /// Per-engine version, starting at 0 and bumped — by
    /// [`ShardedRegistry::update`], never by the entry's own methods —
    /// on every refresh, representative update, engine replacement or
    /// attach.
    pub(crate) epoch: u64,
    /// Fingerprint (or shipped totals) of the collection `repr` and
    /// `terms` were built from.
    pub(crate) provenance: ReprProvenance,
    /// Remote engines only: a push invalidation notice arrived (or a
    /// snapshot refetch failed) and the entry has not been refreshed
    /// yet, so [`RegisteredEngine::is_stale`] reports true until a
    /// refetch succeeds.
    pub(crate) pending_invalidation: bool,
    /// Set while a restored entry's representative still lives only in
    /// the cold tier; cleared by lazy hydration. Carries the manifest's
    /// size bookkeeping so statuses and gauges stay meaningful before
    /// the first plan touches the shard.
    pub(crate) cold: Option<ColdEntry>,
    /// The fingerprint this entry's representative is stored under in
    /// the attached store, when there is one — the key `snapshot`
    /// writes into the manifest and `restore` hydrates from.
    pub(crate) stored_fingerprint: Option<Fingerprint>,
}

/// Size bookkeeping for a restored entry that has not been hydrated
/// from the cold tier yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdEntry {
    /// Distinct terms in the stored representative.
    pub(crate) repr_terms: u64,
    /// Encoded bytes of the stored record.
    pub(crate) repr_bytes: u64,
}

impl RegisteredEngine {
    /// Distinct terms in the representative. A cold entry reports the
    /// manifest's bookkeeping: statuses and gauges never force
    /// hydration.
    pub(crate) fn repr_terms(&self) -> u64 {
        match self.cold {
            Some(c) => c.repr_terms,
            None => self.repr.distinct_terms() as u64,
        }
    }

    /// Bytes of the representative: the encoded size the manifest
    /// recorded while cold, the decoded resident size once hydrated.
    pub(crate) fn repr_bytes(&self) -> u64 {
        match self.cold {
            Some(c) => c.repr_bytes,
            None => self.repr.bytes_resident(),
        }
    }

    /// Whether the engine's current collection no longer matches the
    /// collection its representative was built from. For local engines
    /// this is an O(1) fingerprint comparison; for remote engines the
    /// broker cannot poll cheaply, so staleness is what push
    /// invalidation (or a failed refetch) has marked.
    pub(crate) fn is_stale(&self) -> bool {
        match &self.handle {
            EngineHandle::Local(e) => !self.provenance.matches(e.fingerprint()),
            EngineHandle::Remote { .. } | EngineHandle::Detached { .. } => {
                self.pending_invalidation
            }
        }
    }

    /// A new entry for `handle` that summarizes nothing yet; the caller
    /// installs a representative before the registry publishes it.
    pub(crate) fn new(name: &str, seq: u64, handle: EngineHandle) -> RegisteredEngine {
        RegisteredEngine {
            name: name.to_string(),
            seq,
            handle,
            repr: Arc::new(Representative::from_parts(0, Vec::new(), 0)),
            terms: Arc::from([]),
            terms_fingerprint: None,
            epoch: 0,
            provenance: ReprProvenance::Shipped {
                n_docs: 0,
                raw_bytes: 0,
            },
            pending_invalidation: false,
            cold: None,
            stored_fingerprint: None,
        }
    }

    /// Rebuilds the representative — from the collection for local
    /// engines, by refetching the snapshot for remote ones — through
    /// the same two installers registration uses, so the term list can
    /// never lag the representative. A remote refetch that fails leaves
    /// the entry marked stale so the next sweep retries it.
    pub(crate) fn try_refresh(
        &mut self,
        global_vocab: &mut Vocabulary,
        store: Option<&StoreHandle>,
    ) -> Result<(), TransportError> {
        match &self.handle {
            EngineHandle::Local(engine) => {
                let repr = Representative::build(engine.collection());
                let provenance = ReprProvenance::Local(engine.fingerprint());
                let installed = self.install(global_vocab, repr, provenance, store);
                debug_assert!(installed, "built from the collection, so aligned with it");
                Ok(())
            }
            EngineHandle::Remote { transport, .. } => match transport.clone().fetch_snapshot() {
                Ok(snapshot) => self.install_remote(global_vocab, snapshot, store),
                Err(e) => {
                    self.pending_invalidation = true;
                    Err(e)
                }
            },
            EngineHandle::Detached { .. } => {
                // Nothing to refresh from: the entry has no live
                // engine. Stay marked stale until something attaches.
                self.pending_invalidation = true;
                Err(TransportError::new(
                    TransportErrorKind::Refused,
                    format!(
                        "engine {:?} is detached (restored from store); \
                         attach a live engine or transport to refresh it",
                        self.name
                    ),
                ))
            }
        }
    }

    /// Installs a fetched remote snapshot, or marks the entry stale and
    /// refuses if the snapshot is inconsistent.
    pub(crate) fn install_remote(
        &mut self,
        global_vocab: &mut Vocabulary,
        snapshot: EngineSnapshot,
        store: Option<&StoreHandle>,
    ) -> Result<(), TransportError> {
        let installed = snapshot.check_consistent().and_then(|()| {
            let meta = RemoteMeta::from_snapshot(&snapshot);
            if self.install_meta(global_vocab, meta, snapshot.summary.repr, store) {
                return Ok(());
            }
            Err(EngineSnapshot::inconsistent(&snapshot.name))
        });
        if installed.is_err() {
            self.pending_invalidation = true;
        }
        installed
    }

    /// The installer for an engine known by its snapshot: term list,
    /// (canonical) representative, planning metadata and fingerprint
    /// provenance move together, built from `meta`. Whatever can refuse
    /// is computed before anything is assigned: `false` leaves the entry
    /// as it was (see [`canonical`]).
    #[must_use]
    pub(crate) fn install_meta(
        &mut self,
        global_vocab: &mut Vocabulary,
        meta: RemoteMeta,
        repr: Representative,
        store: Option<&StoreHandle>,
    ) -> bool {
        let record = |repr: &Representative| record_for_remote(&self.name, &meta, repr);
        let Some((repr, stored_fingerprint)) = canonical(store, repr, record) else {
            return false;
        };
        (self.repr, self.stored_fingerprint) = (repr, stored_fingerprint);
        self.terms = global_ids(global_vocab, &meta.vocab);
        self.terms_fingerprint = None;
        self.provenance = ReprProvenance::Remote(meta.fingerprint);
        if let EngineHandle::Remote { meta: m, .. } = &mut self.handle {
            *m = meta;
        }
        self.pending_invalidation = false;
        self.cold = None;
        true
    }

    /// The installer for an engine in this process: term list and
    /// (canonical) representative move together, built from its current
    /// collection — which a shipped `repr` must be row-aligned with:
    /// `false`, and nothing assigned, if a store is attached and `repr`
    /// is not (see [`canonical`]). Remote entries receive whole
    /// snapshots instead.
    #[must_use]
    pub(crate) fn install(
        &mut self,
        global_vocab: &mut Vocabulary,
        repr: Representative,
        provenance: ReprProvenance,
        store: Option<&StoreHandle>,
    ) -> bool {
        let engine = self
            .handle
            .local()
            .expect("install targets local engines; remote entries use install_remote")
            .clone();
        let record = |repr: &Representative| record_for_local(&self.name, &engine, repr);
        let Some((repr, stored_fingerprint)) = canonical(store, repr, record) else {
            return false;
        };
        (self.repr, self.stored_fingerprint) = (repr, stored_fingerprint);
        self.terms = global_ids(global_vocab, engine.collection().vocab());
        self.terms_fingerprint = Some(engine.fingerprint());
        self.provenance = provenance;
        self.cold = None;
        true
    }
}

/// An entry's term list for the vocabulary `local`: the broker-global id
/// of each of its terms, in local-id order, interning into `global` the
/// terms no registered engine had before.
pub(crate) fn global_ids(global: &mut Vocabulary, local: &Vocabulary) -> Arc<[u32]> {
    local
        .iter()
        .map(|(_, term)| global.intern(term).0)
        .collect()
}

/// One engine's lifecycle status, as reported by
/// [`Broker::engine_statuses`](crate::Broker::engine_statuses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStatus {
    /// Engine name (registration key).
    pub name: String,
    /// The registry shard the engine routes to (see [`shard_for`]).
    pub shard: usize,
    /// Per-engine epoch: how many times this entry has changed since
    /// registration.
    pub epoch: u64,
    /// Whether the engine's collection no longer matches its
    /// representative (a `refresh_if_stale` sweep would rebuild it).
    pub stale: bool,
    /// Distinct terms in the representative.
    pub repr_terms: usize,
    /// Approximate resident bytes of the representative.
    pub repr_bytes: u64,
    /// Whether the engine is reached over a transport.
    pub remote: bool,
    /// Whether the entry was restored from a persistent store and has
    /// not been re-attached to a live engine or transport yet (it can
    /// be planned over but not dispatched to).
    pub detached: bool,
    /// The remote endpoint, when the engine is remote (for detached
    /// entries, the endpoint recorded at snapshot time).
    pub endpoint: Option<String>,
}

/// A consistent cut of the registry's lifecycle state, as reported by
/// [`Broker::registry_snapshot`](crate::Broker::registry_snapshot).
///
/// Each shard contributes its statuses and its epoch from under a
/// single read-lock acquisition, so per shard the pair is a consistent
/// cut: even while other threads mutate the registry,
/// `shard_epochs[i] == |statuses with shard == i| + Σ their epochs`
/// until shard `i` sees its first `deregister`, and `≥` after it (the
/// removed entry's terms leave the right-hand side while the removal
/// itself bumps the left). A broker restored from a snapshot starts
/// again from the equality. (A torn implementation that re-locked per
/// engine could observe an entry epoch bump without the matching shard
/// bump and violate either form.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Per-engine statuses, in registration order.
    pub statuses: Vec<EngineStatus>,
    /// The broker-global epoch at the cut (sum of `shard_epochs`).
    pub epoch: u64,
    /// Each shard's epoch at its cut.
    pub shard_epochs: Vec<u64>,
}

/// A plan was made against an older registry state than the broker
/// currently holds: its per-engine term translations and estimates may
/// no longer describe the registered representatives.
///
/// Returned by [`Broker::try_reestimate`](crate::Broker::try_reestimate)
/// always, and by [`Broker::execute_plan`](crate::Broker::execute_plan)
/// under [`StaleMode::Error`](crate::StaleMode); under the default
/// [`StaleMode::Replan`](crate::StaleMode) the broker replans instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalePlanError {
    /// The registry epoch the plan was made against.
    pub plan_epoch: u64,
    /// The registry epoch the broker holds now.
    pub registry_epoch: u64,
}

impl std::fmt::Display for StalePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan was made against registry epoch {} but the registry is at epoch {}",
            self.plan_epoch, self.registry_epoch
        )
    }
}

impl std::error::Error for StalePlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_provenance_matches_on_totals_only() {
        let p = ReprProvenance::Shipped {
            n_docs: 3,
            raw_bytes: 100,
        };
        assert!(p.matches(Fingerprint {
            n_docs: 3,
            raw_bytes: 100,
            hash: 0xdead,
        }));
        assert!(!p.matches(Fingerprint {
            n_docs: 4,
            raw_bytes: 100,
            hash: 0xdead,
        }));
    }

    #[test]
    fn local_provenance_matches_on_full_fingerprint() {
        let fp = Fingerprint {
            n_docs: 3,
            raw_bytes: 100,
            hash: 7,
        };
        let p = ReprProvenance::Local(fp);
        assert!(p.matches(fp));
        assert!(!p.matches(Fingerprint { hash: 8, ..fp }));
    }

    #[test]
    fn shard_routing_is_pure_and_in_range() {
        for n in [1usize, 2, 4, 16, 31] {
            for id in ["", "cooking", "databases", "engine-9999"] {
                let s = shard_for(id, n);
                assert!(s < n, "shard_for({id:?}, {n}) = {s}");
                assert_eq!(s, shard_for(id, n), "routing must be deterministic");
            }
        }
        // One shard degenerates to the flat registry.
        assert_eq!(shard_for("anything", 1), 0);
        // Zero shards is clamped rather than dividing by zero.
        assert_eq!(shard_for("anything", 0), 0);
    }

    fn entry(name: &str, seq: u64) -> RegisteredEngine {
        let mut b = seu_engine::CollectionBuilder::new(
            seu_text::Analyzer::paper_default(),
            WeightingScheme::CosineTf,
        );
        b.add_document("d0", "mushroom soup");
        let engine = Arc::new(SearchEngine::new(b.build()));
        RegisteredEngine {
            name: name.to_string(),
            seq,
            repr: Arc::new(Representative::build(engine.collection())),
            terms: Arc::from([]),
            terms_fingerprint: None,
            epoch: 0,
            provenance: ReprProvenance::Local(engine.fingerprint()),
            handle: EngineHandle::Local(engine),
            pending_invalidation: false,
            cold: None,
            stored_fingerprint: None,
        }
    }

    #[test]
    fn sharded_registry_epoch_sums_shards() {
        let r = ShardedRegistry::new(4);
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.len(), 0);
        // Names that route to different shards.
        let names = ["cooking", "databases", "engine-9999"];
        assert!(names
            .iter()
            .any(|n| shard_for(n, 4) != shard_for(names[0], 4)));
        for name in names {
            assert!(r.insert(name, |seq| Some(entry(name, seq))));
        }
        assert_eq!(r.epoch(), 3);
        // A reported change moves the entry and its shard by one each;
        // an unchanged entry, an unknown name and a failed removal move
        // nothing.
        assert_eq!(
            r.update("cooking", |_| (Change::Changed, 7)),
            Some((Change::Changed, 7))
        );
        assert!(r.update("cooking", |_| (Change::Unchanged, ())).is_some());
        assert!(r.update("nobody", |_| (Change::Changed, ())).is_none());
        assert!(!r.remove("nobody"));
        assert_eq!(r.epoch(), 4);
        let cut = r.walk(|shard, e| (shard, e.name.clone(), e.epoch));
        assert_eq!(cut.shard_epochs.iter().sum::<u64>(), 4);
        let booked: Vec<_> = cut.items.iter().map(|(_, n, e)| (n.as_str(), *e)).collect();
        assert_eq!(
            booked,
            [("cooking", 1), ("databases", 0), ("engine-9999", 0)]
        );
        for (i, &epoch) in cut.shard_epochs.iter().enumerate() {
            let mine = cut.items.iter().filter(|(shard, ..)| *shard == i);
            assert_eq!(epoch, mine.map(|(_, _, e)| 1 + e).sum::<u64>(), "shard {i}");
        }
        // A removal bumps its shard and breaks the equality for good.
        assert!(r.remove("cooking"));
        assert_eq!(r.epoch(), 5);
        assert_eq!(r.len(), 2);
        assert_eq!(r.seq_watermark(), 3);
    }

    #[test]
    fn stale_plan_error_formats_epochs() {
        let e = StalePlanError {
            plan_epoch: 2,
            registry_epoch: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("epoch 2"), "{msg}");
        assert!(msg.contains("epoch 5"), "{msg}");
    }
}
