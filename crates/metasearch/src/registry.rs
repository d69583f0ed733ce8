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
//! * the entry's record carries the fingerprint of the collection its
//!   representative and term list describe, so a sweep
//!   (`Broker::refresh_if_stale`) can compare it against the engine's
//!   current fingerprint and rebuild only what actually changed;
//! * a [`QueryPlan`](crate::QueryPlan) records the broker-wide registry
//!   epoch it was planned against, so `Broker::execute_plan` and
//!   `Broker::try_reestimate` can detect that a plan's term translation
//!   no longer matches the registry and replan (or surface a typed
//!   [`StalePlanError`] under [`StaleMode::Error`](crate::StaleMode)).
//!
//! An entry is its [`EngineRecord`]: one `Arc` holds the engine's
//! representative, the vocabulary it is row-aligned with, the weighting
//! statistics a plan builds query vectors from and the fingerprint of
//! the collection they describe, whatever the entry's handle. A record
//! comes in two ways: built from the engine's own collection (sharing
//! its vocabulary and document frequencies, not copying them), or
//! shipped, once it has passed its consistency check at the door.
//!
//! The headline invariant: **any** path that changes a record re-posts
//! the engine's terms. The one installer (`RegisteredEngine::install`,
//! and the store's `hydrate_entry`, which fills a cold entry in) takes
//! the record and the entry's term list — its vocabulary as
//! broker-global term ids — together, and the registry posts a replaced
//! list into the shard's postings before it unlocks. Terms added to a
//! collection after registration therefore reach the global vocabulary
//! and every subsequent plan, instead of being silently dropped from
//! query translation.
//!
//! # Who owns what
//!
//! `ShardedRegistry` keeps its own books; five things live here and
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
//!   `ShardedRegistry::walk_with` reads it, so a plan visits the
//!   entries of the engines that contain a query term and no others;
//!   `ShardedRegistry::audit_postings` is the from-scratch reference
//!   `tests/index_ledger.rs` holds it to;
//! * **names** — each shard keeps, under that same lock, a name → slot
//!   map beside its list: a name is one entry, so `insert` refuses a
//!   held one, and `get`, `update` and `remove` find their entry
//!   without a scan;
//! * **gauges** — the same calls add the change in the one entry that
//!   moved to the shard's share of `broker_registry_engines` /
//!   `broker_representative_bytes_resident` before they unlock; dropping
//!   the registry retracts it. `ShardedRegistry::audit_totals` holds the
//!   names and the shard's running totals to a from-scratch recount.
//!
//! # What a lifecycle op costs
//!
//! Finding an entry by name and publishing its gauges visit one entry,
//! whatever the shard holds: `get`, `update` and `insert` are O(1) in
//! the shard's size (plus what the caller's closure and the entry's
//! postings cost). Removal is O(shard) twice over: every later entry
//! moves up one slot, and both the slots and the postings name entries
//! by position. A restore (`load`) indexes each shard once from scratch.
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

use crate::federation::hash_key;
use crate::persist::StoreHandle;
use crate::postings::{Posting, TermIndex};
use crate::remote::{refetch, RemoteTransport, TransportError, TransportErrorKind};
use parking_lot::RwLock;
use seu_engine::SearchEngine;
use seu_repr::Representative;
use seu_store::EngineRecord;
use seu_text::{AnalyzerConfig, TermId, Vocabulary};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Routes an engine id to a shard: FNV-1a over the id's bytes
/// ([`hash_key`]), modulo the shard count.
///
/// The function is pure — no per-process salt, no randomized hasher —
/// so the same id maps to the same shard in every process and across
/// restarts, and re-sharding a registry to the *same* shard count is a
/// no-op (no engine moves). Ids spread uniformly: over any reasonably
/// sized id population each shard receives its expected share within a
/// few percent (property-tested in `tests/shard_routing.rs`).
pub fn shard_for(engine_id: &str, n_shards: usize) -> usize {
    (hash_key(engine_id) % n_shards.max(1) as u64) as usize
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
    /// The entries this shard has published to the engine-count gauges:
    /// a running total that every change adds its delta to (several
    /// brokers sum), and that dropping the registry retracts.
    gauge_engines: AtomicU64,
    /// Ditto for representative resident bytes.
    gauge_repr_bytes: AtomicU64,
    /// The `…_shard_<i>` pair; `None` in a flat (1-shard) registry,
    /// which keeps the historical metric surface.
    gauges: Option<SizeGauges>,
}

/// What a shard's lock guards: the entries, in registration order, each
/// one's slot by name, and the postings over their term lists. The only
/// places an entry appears, changes or leaves (`insert`, `remove`,
/// `load`, and `book` behind `update` / `update_all`) keep `slots` and
/// `index` equal to what indexing every entry of `list` from scratch
/// would give (see [`ShardedRegistry::audit_postings`] and
/// [`ShardedRegistry::audit_totals`]).
#[derive(Default)]
struct Entries {
    list: Vec<RegisteredEngine>,
    /// Name → position in `list`: a name is one entry.
    slots: HashMap<String, usize>,
    index: TermIndex,
}

impl Entries {
    /// Posts the entry at `pos` (and counts its analyzer configuration).
    fn post(&mut self, pos: usize) {
        post(&mut self.index, pos, &self.list[pos]);
    }

    /// Where the named entry sits.
    fn slot(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }
}

/// Posts `entry`, which sits at `pos` of its shard, into `index`.
fn post(index: &mut TermIndex, pos: usize, entry: &RegisteredEngine) {
    index.add_config(entry.record.analyzer);
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

/// What one [`ShardedRegistry::walk`] made of the entries (or kept, for
/// [`ShardedRegistry::walk_with`]), in registration order, and the epoch
/// each shard had while visited.
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
        entries.slot(name).map(|pos| read(&entries.list[pos]))
    }

    /// Whether an entry holds `name`.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.shard_of(name).entries.read().slots.contains_key(name)
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
        let every = |view: &ShardView| (view.shard, true);
        self.walk_with(&[], every, |shard, e, _| Some(visit(*shard, e)))
    }

    /// [`ShardedRegistry::walk`] for the planner. `enter(shard)` is
    /// called as each shard's lock is taken. It returns what is handed
    /// to every `visit` of that shard and dropped just before the lock
    /// is (the per-shard span), and whether to visit every entry of the
    /// shard or only the entries its postings name for `terms`
    /// (broker-global ids). `visit` gets the entry's hits: which of
    /// `terms` the postings place in the entry, and under which local
    /// id — empty for an entry that holds none of them, without its
    /// vocabulary being looked at. The walk keeps what `visit` returns.
    pub(crate) fn walk_with<G, T>(
        &self,
        terms: &[u32],
        mut enter: impl FnMut(&ShardView) -> (G, bool),
        mut visit: impl FnMut(&mut G, &RegisteredEngine, &[Hit]) -> Option<T>,
    ) -> Cut<T> {
        let mut tagged: Vec<(u64, T)> = Vec::new();
        let mut shard_epochs = Vec::with_capacity(self.shards.len());
        let mut hits: Vec<Hit> = Vec::new();
        let same_entry = |a: &Hit, b: &Hit| a.entry == b.entry;
        for (idx, shard) in self.shards.iter().enumerate() {
            let entries = shard.entries.read();
            shard_epochs.push(shard.epoch.load(Ordering::SeqCst));
            hits.clear();
            for &term in terms {
                let found = entries.index.postings(term).iter();
                hits.extend(found.map(|&Posting { entry, local }| Hit { entry, term, local }));
            }
            hits.sort_unstable_by_key(|hit| hit.entry);
            let (mut entered, every) = enter(&ShardView {
                shard: idx,
                engines: entries.list.len(),
                index: &entries.index,
            });
            let mut groups = hits.chunk_by(same_entry).peekable();
            if every {
                tagged.reserve(entries.list.len());
                for (pos, e) in entries.list.iter().enumerate() {
                    let mine = groups.next_if(|g| g[0].entry as usize == pos);
                    let kept = visit(&mut entered, e, mine.unwrap_or_default());
                    tagged.extend(kept.map(|item| (e.seq, item)));
                }
            } else {
                tagged.reserve(hits.chunk_by(same_entry).count());
                for mine in groups {
                    let e = &entries.list[mine[0].entry as usize];
                    let kept = visit(&mut entered, e, mine);
                    tagged.extend(kept.map(|item| (e.seq, item)));
                }
            }
        }
        Cut {
            items: in_order(tagged),
            shard_epochs,
        }
    }

    /// Adds (and posts) the entry `build` makes for the sequence number
    /// it is handed, named `name`; `false`, and nothing built, if an
    /// entry already holds the name. `build` runs under the routed
    /// shard's write lock, so it may lock the vocabulary (`entries`
    /// before `vocab`, everywhere); no other shard is locked.
    pub(crate) fn insert(&self, name: &str, build: impl FnOnce(u64) -> RegisteredEngine) -> bool {
        let shard = self.shard_of(name);
        let mut entries = shard.entries.write();
        if entries.slots.contains_key(name) {
            return false;
        }
        let entry = build(self.seq.fetch_add(1, Ordering::SeqCst));
        debug_assert_eq!(entry.name, name, "an entry is inserted under its own name");
        let (pos, bytes) = (entries.list.len(), entry.repr_bytes());
        entries.slots.insert(name.to_string(), pos);
        entries.list.push(entry);
        entries.post(pos);
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        self.publish(shard, 1, bytes as i64);
        true
    }

    /// Removes the named entry and its postings, bumping the shard epoch
    /// so outstanding plans that include it are detectably stale.
    /// `false` for an unknown name.
    pub(crate) fn remove(&self, name: &str) -> bool {
        let shard = self.shard_of(name);
        let mut entries = shard.entries.write();
        let Some(pos) = entries.slots.remove(name) else {
            return false;
        };
        // Every later entry moves up one slot, and the slots and the
        // postings name entries by position: removal is O(shard) twice
        // over.
        let removed = entries.list.remove(pos);
        let Entries { list, slots, index } = &mut *entries;
        for (at, later) in list.iter().enumerate().skip(pos) {
            *slots.get_mut(&later.name).expect("every entry has a slot") = at;
        }
        index.unpost(position(pos), &removed.terms);
        index.close_gap(position(pos));
        index.remove_config(removed.record.analyzer);
        if removed.cold.is_some() {
            self.cold.fetch_sub(1, Ordering::SeqCst);
        }
        shard.epoch.fetch_add(1, Ordering::SeqCst);
        self.publish(shard, -1, -(removed.repr_bytes() as i64));
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
        let pos = entries.slot(name)?;
        let (bytes, booked) = self.book(shard, &mut entries, pos, f);
        self.publish(shard, 0, bytes);
        Some(booked)
    }

    /// Runs `f` on every entry `wants` picks — shard by shard, each
    /// under its own write lock, taken only if a look under the read
    /// lock finds a pick — and returns what `f` kept, in registration
    /// order. The shards with a pick are swept by as many scoped
    /// `seu-sweep-<i>` threads as there are such shards, at most one a
    /// core, which take shard indices from one counter: a slow shard
    /// holds only its own lock, and no thread outlives the call. The
    /// caller only looks and waits; it never sweeps. Each shard's sweep runs under `catch_unwind`: if `f`
    /// panics, that shard's results are lost and every other shard's
    /// are kept.
    pub(crate) fn update_all<T: Send>(
        &self,
        wants: fn(&RegisteredEngine) -> bool,
        f: impl Fn(&mut RegisteredEngine) -> (Change, Option<T>) + Sync,
    ) -> Vec<T> {
        let picked: Vec<usize> = (0..self.shards.len())
            .filter(|&idx| self.shards[idx].entries.read().list.iter().any(wants))
            .collect();
        let next = AtomicUsize::new(0);
        let sweep = || {
            let mut kept = Vec::new();
            while let Some(&idx) = picked.get(next.fetch_add(1, Ordering::Relaxed)) {
                let swept = catch_unwind(AssertUnwindSafe(|| self.update_shard(idx, wants, &f)));
                kept.extend(swept.unwrap_or_default());
            }
            kept
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let kept = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..picked.len().min(cores))
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("seu-sweep-{i}"))
                        .spawn_scoped(scope, sweep)
                        .expect("spawning a sweep worker")
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("a sweep worker catches its shards' panics"))
                .collect()
        });
        in_order(kept)
    }

    /// `f` on every pick of shard `idx`, under its write lock.
    fn update_shard<T>(
        &self,
        idx: usize,
        wants: fn(&RegisteredEngine) -> bool,
        f: &impl Fn(&mut RegisteredEngine) -> (Change, Option<T>),
    ) -> Vec<(u64, T)> {
        let shard = &self.shards[idx];
        let mut entries = shard.entries.write();
        let (mut kept, mut bytes) = (Vec::new(), 0);
        for pos in 0..entries.list.len() {
            if !wants(&entries.list[pos]) {
                continue;
            }
            let (moved, (_, out)) = self.book(shard, &mut entries, pos, f);
            bytes += moved;
            kept.extend(out.map(|item| (entries.list[pos].seq, item)));
        }
        self.publish(shard, 0, bytes);
        kept
    }

    /// The one place an entry change is booked: the entry epoch and the
    /// shard epoch move together, an entry that left the cold tier
    /// leaves the cold count, and an entry whose term list an installer
    /// replaced (with or without an epoch: hydration fills one in and
    /// reports `Unchanged`) is re-posted. Also says by how many bytes
    /// the entry's representative moved, the delta the caller owes
    /// `publish`. Call with the shard's write lock held.
    fn book<T>(
        &self,
        shard: &Shard,
        entries: &mut Entries,
        pos: usize,
        f: impl FnOnce(&mut RegisteredEngine) -> (Change, T),
    ) -> (i64, (Change, T)) {
        let Entries { list, index, .. } = entries;
        let entry = &mut list[pos];
        let was_cold = entry.cold.is_some();
        let (config, terms) = (entry.record.analyzer, Arc::clone(&entry.terms));
        let bytes = entry.repr_bytes();
        let (change, out) = f(entry);
        if !Arc::ptr_eq(&terms, &entry.terms) {
            index.unpost(position(pos), &terms);
            index.post(position(pos), &entry.terms);
        }
        if config != entry.record.analyzer {
            index.remove_config(config);
            index.add_config(entry.record.analyzer);
        }
        if was_cold && entry.cold.is_none() {
            self.cold.fetch_sub(1, Ordering::SeqCst);
        }
        if change == Change::Changed {
            entry.epoch += 1;
            shard.epoch.fetch_add(1, Ordering::SeqCst);
        }
        (entry.repr_bytes() as i64 - bytes as i64, (change, out))
    }

    /// Fills an empty registry with restored entries, which keep the
    /// sequence numbers and epochs they were snapshotted with, re-bases
    /// each shard's epoch to the equality of the [`Shard`] docs, whatever
    /// the snapshotting registry had removed, and returns how many it
    /// loaded. A name restored twice is refused (`Err` with the name)
    /// before any shard changes; a restored name a registration took
    /// while the restore ran stays that registration's.
    pub(crate) fn load(
        &self,
        restored: impl Iterator<Item = RegisteredEngine>,
        next_seq: u64,
    ) -> Result<usize, String> {
        let mut by_shard: Vec<Vec<RegisteredEngine>> =
            self.shards.iter().map(|_| Vec::new()).collect();
        for entry in restored {
            by_shard[shard_for(&entry.name, self.shards.len())].push(entry);
        }
        // A repeated name routes twice to one shard.
        for group in &by_shard {
            let mut seen = HashSet::with_capacity(group.len());
            if let Some(twice) = group.iter().find(|e| !seen.insert(e.name.as_str())) {
                return Err(twice.name.clone());
            }
        }
        let mut loaded = 0;
        for (shard, mut group) in self.shards.iter().zip(by_shard) {
            let mut entries = shard.entries.write();
            group.retain(|e| !entries.slots.contains_key(&e.name));
            if group.is_empty() {
                continue;
            }
            loaded += group.len();
            let cold = group.iter().filter(|e| e.cold.is_some()).count();
            self.cold.fetch_add(cold as u64, Ordering::SeqCst);
            let bytes: u64 = group.iter().map(RegisteredEngine::repr_bytes).sum();
            let added = group.len() as i64;
            entries.list.append(&mut group);
            // Sorted before indexed: slots and postings name entries by
            // position (and indexed from scratch, should a registration
            // have slipped in ahead of the restore).
            entries.list.sort_unstable_by_key(|e| e.seq);
            let Entries { list, slots, .. } = &mut *entries;
            *slots = list
                .iter()
                .enumerate()
                .map(|(pos, e)| (e.name.clone(), pos))
                .collect();
            entries.index = TermIndex::default();
            for pos in 0..entries.list.len() {
                entries.post(pos);
            }
            let entry_epochs: u64 = entries.list.iter().map(|e| e.epoch).sum();
            shard
                .epoch
                .store(entries.list.len() as u64 + entry_epochs, Ordering::SeqCst);
            self.publish(shard, added, bytes as i64);
        }
        self.seq.fetch_max(next_seq, Ordering::SeqCst);
        Ok(loaded)
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

    /// Checks every shard's running totals against a from-scratch
    /// recount of its entries: each entry's slot under its name and no
    /// other name slotted, and the shard's own gauge atomics equal to
    /// its entry count and the sum of its entries' representative
    /// bytes — what `insert`, `remove`, `load` and `book` must keep
    /// current one delta at a time. `Err` says where the first
    /// difference is.
    pub(crate) fn audit_totals(&self) -> Result<(), String> {
        for (idx, shard) in self.shards.iter().enumerate() {
            let entries = shard.entries.read();
            let fail = |why: String| Err(format!("shard {idx}: {why}"));
            if entries.slots.len() != entries.list.len() {
                let (slots, list) = (entries.slots.len(), entries.list.len());
                return fail(format!("{slots} names slotted for {list} entries"));
            }
            for (pos, e) in entries.list.iter().enumerate() {
                let slot = entries.slot(&e.name);
                if slot != Some(pos) {
                    return fail(format!("{:?} sits at {pos}, slotted at {slot:?}", e.name));
                }
            }
            let engines = entries.list.len() as u64;
            let bytes: u64 = entries.list.iter().map(RegisteredEngine::repr_bytes).sum();
            let published = (
                shard.gauge_engines.load(Ordering::SeqCst),
                shard.gauge_repr_bytes.load(Ordering::SeqCst),
            );
            if published != (engines, bytes) {
                return fail(format!(
                    "gauges read {published:?}, the entries hold {:?}",
                    (engines, bytes)
                ));
            }
        }
        Ok(())
    }

    /// Adds one change to a shard's share of the registry gauges: the
    /// shard's own totals and the gauges move by the same delta, so
    /// several live brokers (e.g. in one test binary) sum correctly and
    /// dropping the registry retracts exactly what was published. Call
    /// with the shard's write lock held — publication must be atomic
    /// with the change it reports.
    fn publish(&self, shard: &Shard, engines: i64, bytes: i64) {
        if engines == 0 && bytes == 0 {
            return;
        }
        // A negative delta wraps: two's complement adds it exactly.
        shard
            .gauge_engines
            .fetch_add(engines as u64, Ordering::SeqCst);
        shard
            .gauge_repr_bytes
            .fetch_add(bytes as u64, Ordering::SeqCst);
        self.total.add(engines as f64, bytes as f64);
        if let Some(own) = &shard.gauges {
            own.add(engines as f64, bytes as f64);
        }
    }
}

impl Drop for ShardedRegistry {
    fn drop(&mut self) {
        for shard in &self.shards {
            let engines = shard.gauge_engines.load(Ordering::SeqCst) as i64;
            let bytes = shard.gauge_repr_bytes.load(Ordering::SeqCst) as i64;
            self.publish(shard, -engines, -bytes);
        }
    }
}

/// How the broker reaches one registered engine: in-process, through a
/// [`RemoteTransport`], or not at all yet. What it plans with is the
/// entry's record, whatever the handle.
///
/// Cloning is cheap (`Arc`s all the way down); plans hold a clone so
/// they stay dispatchable after the registry moves on.
#[derive(Debug, Clone)]
pub(crate) enum EngineHandle {
    /// The engine lives in this process; the broker holds it directly.
    Local(Arc<SearchEngine>),
    /// The engine lives elsewhere; the broker holds a transport to it.
    Remote(Arc<dyn RemoteTransport>),
    /// The entry was restored from a persistent store and has not been
    /// re-attached to a live engine yet. The broker can still *plan*
    /// over it (its record comes from the store), but dispatching to it
    /// fails until [`Broker::attach_engine`](crate::Broker::attach_engine)
    /// or [`Broker::attach_remote`](crate::Broker::attach_remote)
    /// supplies the live handle. It keeps the endpoint recorded at
    /// snapshot time, when the engine was remote — advisory, for
    /// operators re-attaching transports.
    Detached(Option<String>),
}

impl EngineHandle {
    /// The in-process engine, when there is one.
    pub(crate) fn local(&self) -> Option<&Arc<SearchEngine>> {
        match self {
            EngineHandle::Local(e) => Some(e),
            EngineHandle::Remote(_) | EngineHandle::Detached(_) => None,
        }
    }

    /// Whether this engine is reached over a transport.
    pub(crate) fn is_remote(&self) -> bool {
        matches!(self, EngineHandle::Remote(_))
    }

    /// Whether this entry is restored-but-unattached.
    pub(crate) fn is_detached(&self) -> bool {
        matches!(self, EngineHandle::Detached(_))
    }

    /// The remote endpoint, when there is one (for detached entries,
    /// the endpoint recorded at snapshot time).
    pub(crate) fn endpoint(&self) -> Option<String> {
        match self {
            EngineHandle::Local(_) => None,
            EngineHandle::Remote(transport) => Some(transport.endpoint()),
            EngineHandle::Detached(endpoint) => endpoint.clone(),
        }
    }
}

/// One engine's registry entry: the engine handle, its record, its term
/// list, and the lifecycle bookkeeping.
pub(crate) struct RegisteredEngine {
    pub(crate) name: String,
    /// Broker-wide registration sequence number: cross-shard views sort
    /// by it to recover exact registration order.
    pub(crate) seq: u64,
    pub(crate) handle: EngineHandle,
    /// What the broker knows of the engine, whatever its handle: the
    /// representative, the vocabulary and weighting statistics a plan
    /// translates queries with, and the fingerprint of the collection
    /// they describe — the key a store holds the record under, what
    /// `snapshot` writes into the manifest and what a staleness check
    /// compares. A local engine's record shares its collection's
    /// vocabulary and document frequencies until
    /// [`Broker::replace_engine`](crate::Broker) swaps the collection
    /// without reinstalling it (metadata propagation is infrequent by
    /// design): from then on the fingerprints differ, and the entry
    /// plans no row until a refresh reconciles them. A cold entry holds
    /// a placeholder with the manifest's fingerprint.
    pub(crate) record: Arc<EngineRecord>,
    /// The term list: `terms[local id]` is the broker-global id of each
    /// term of the record's vocabulary — what the shard's postings say
    /// about this entry. Installed together with the record, never
    /// independently of it, and replaced whole, never edited: a
    /// different `Arc` is how [`ShardedRegistry`] knows to re-post the
    /// entry. Empty while cold.
    pub(crate) terms: Arc<[u32]>,
    /// Per-engine version, starting at 0 and bumped — by
    /// [`ShardedRegistry::update`], never by the entry's own methods —
    /// on every refresh, representative update, engine replacement or
    /// attach.
    pub(crate) epoch: u64,
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
            None => self.record.repr.distinct_terms() as u64,
        }
    }

    /// Bytes of the representative: the encoded size the manifest
    /// recorded while cold, the decoded resident size once hydrated.
    pub(crate) fn repr_bytes(&self) -> u64 {
        match self.cold {
            Some(c) => c.repr_bytes,
            None => self.record.repr.bytes_resident(),
        }
    }

    /// Whether the engine's current collection no longer matches the
    /// collection its record describes. For local engines this is an
    /// O(1) fingerprint comparison; for remote engines the broker cannot
    /// poll cheaply, so staleness is what push invalidation (or a failed
    /// refetch) has marked.
    pub(crate) fn is_stale(&self) -> bool {
        match &self.handle {
            EngineHandle::Local(e) => self.record.fingerprint != e.fingerprint(),
            EngineHandle::Remote(_) | EngineHandle::Detached(_) => self.pending_invalidation,
        }
    }

    /// A new entry for `handle` holding `record` and no term list: the
    /// caller installs a record (or, for a cold entry, leaves that to
    /// hydration) before the registry publishes it.
    pub(crate) fn new(
        name: &str,
        seq: u64,
        handle: EngineHandle,
        record: Arc<EngineRecord>,
    ) -> RegisteredEngine {
        RegisteredEngine {
            name: name.to_string(),
            seq,
            handle,
            record,
            terms: Arc::from([]),
            epoch: 0,
            pending_invalidation: false,
            cold: None,
        }
    }

    /// Rebuilds the record — from the collection for local engines, by
    /// refetching the snapshot for remote ones, which must pass the
    /// door's consistency check and carry the entry's name — through the
    /// installer registration uses, so the term list can never lag the
    /// record. A remote refetch that fails or is refused leaves the
    /// entry marked stale so the next sweep retries it.
    pub(crate) fn try_refresh(
        &mut self,
        global_vocab: &mut Vocabulary,
        store: Option<&StoreHandle>,
    ) -> Result<(), TransportError> {
        let record = match &self.handle {
            EngineHandle::Local(engine) => {
                let repr = Representative::build(engine.collection());
                Arc::new(EngineRecord::of_engine(&self.name, engine, repr))
            }
            EngineHandle::Remote(transport) => match refetch(&**transport, &self.name) {
                Ok(record) => record,
                Err(e) => {
                    self.pending_invalidation = true;
                    return Err(e);
                }
            },
            EngineHandle::Detached(_) => {
                // Nothing to refresh from: the entry has no live
                // engine. Stay marked stale until something attaches.
                self.pending_invalidation = true;
                return Err(TransportError::new(
                    TransportErrorKind::Refused,
                    format!(
                        "engine {:?} is detached (restored from store); \
                         attach a live engine or transport to refresh it",
                        self.name
                    ),
                ));
            }
        };
        self.install(global_vocab, record, store);
        Ok(())
    }

    /// The installer: record and term list move together, all from
    /// `record`, which is consistent (built from a collection, or
    /// checked at the door). With a store attached the record is
    /// written through and its canonical (quantized round-trip)
    /// representative installed — what keeps a live broker
    /// bit-identical with one restored from the store later. A local
    /// engine's record keeps its collection's vocabulary and document
    /// frequencies; any other takes the canonical record whole, the one
    /// the store's hot tier shares.
    pub(crate) fn install(
        &mut self,
        global_vocab: &mut Vocabulary,
        record: Arc<EngineRecord>,
        store: Option<&StoreHandle>,
    ) {
        self.record = match (store, &self.handle) {
            (None, _) => record,
            (Some(store), EngineHandle::Local(_)) => {
                let repr = store.canonicalize(&record).repr.clone();
                Arc::new(EngineRecord {
                    repr,
                    ..(*record).clone()
                })
            }
            (Some(store), _) => store.canonicalize(&record),
        };
        self.terms = global_ids(global_vocab, &self.record.vocab);
        self.pending_invalidation = false;
        self.cold = None;
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

    fn engine() -> SearchEngine {
        let mut b = seu_engine::CollectionBuilder::new(
            seu_text::Analyzer::paper_default(),
            seu_engine::WeightingScheme::CosineTf,
        );
        b.add_document("d0", "mushroom soup");
        SearchEngine::new(b.build())
    }

    fn entry(name: &str, seq: u64) -> RegisteredEngine {
        let engine = Arc::new(engine());
        let repr = Representative::build(engine.collection());
        let record = Arc::new(EngineRecord::of_engine(name, &engine, repr));
        RegisteredEngine::new(name, seq, EngineHandle::Local(engine), record)
    }

    /// A local entry's record shares its collection's vocabulary and
    /// document frequencies — after registration (with a store or
    /// without), after a refresh, and after a restore re-attaches equal
    /// content — so it costs two refcounts, not a copy.
    #[test]
    fn a_local_entry_shares_its_collections_buffers() {
        use crate::Broker;
        use seu_core::SubrangeEstimator;
        let shares = |b: &Broker<SubrangeEstimator>| {
            b.registry.get("cooking", |e| {
                let c = e.handle.local().expect("a local entry").collection();
                Arc::ptr_eq(&e.record.vocab, c.shared_vocab())
                    && Arc::ptr_eq(&e.record.doc_freq, c.shared_doc_freq())
            })
        };
        let flat = Broker::new(SubrangeEstimator::paper_six_subrange());
        flat.register("cooking", engine());
        assert_eq!(shares(&flat), Some(true), "registered, no store");

        let dir = std::env::temp_dir().join(format!("seu-registry-shares-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stored = || {
            let b = Broker::builder(SubrangeEstimator::paper_six_subrange());
            b.store(&dir).expect("open store").build()
        };
        let live = stored();
        live.register("cooking", engine());
        assert_eq!(shares(&live), Some(true), "registered");
        assert!(live.refresh_representative("cooking"));
        assert_eq!(shares(&live), Some(true), "refreshed");
        live.snapshot_registry().expect("snapshot");

        let restored = stored();
        assert_eq!(restored.restore().expect("restore"), 1);
        restored.hydrate();
        let hydrated = restored.registry.get("cooking", |e| e.record.repr.clone());
        assert!(restored.attach_engine("cooking", engine()));
        assert_eq!(shares(&restored), Some(true), "restored and attached");
        let kept = restored.registry.get("cooking", |e| e.record.repr.clone());
        assert!(
            Arc::ptr_eq(&kept.unwrap(), &hydrated.unwrap()),
            "hydrated repr kept"
        );
        std::fs::remove_dir_all(&dir).ok();
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
            r.insert(name, |seq| entry(name, seq));
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

    /// `update_all` visits every pick once, on at most
    /// `min(shards, cores)` `seu-sweep-*` threads at a time and never on
    /// the caller, and answers in registration order.
    #[test]
    fn update_all_sweeps_each_pick_once_on_bounded_sweep_threads() {
        use std::sync::Mutex;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let caller = std::thread::current().id();
        for shards in [1, 4, 16] {
            let r = ShardedRegistry::new(shards);
            for i in 0..48 {
                let name = format!("engine-{i}");
                r.insert(&name, |seq| entry(&name, seq));
            }
            let picked: Vec<u64> = (0..48).filter(|seq| seq % 3 != 0).collect();
            let (active, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let visits = Mutex::new(Vec::new());
            let kept = r.update_all(
                |e| e.seq % 3 != 0,
                |e| {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let me = std::thread::current();
                    assert_ne!(me.id(), caller, "swept on the caller");
                    let name = me.name().unwrap_or_default().to_string();
                    visits.lock().unwrap().push((e.seq, name));
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    active.fetch_sub(1, Ordering::SeqCst);
                    (Change::Unchanged, Some(e.seq))
                },
            );
            assert_eq!(kept, picked, "{shards} shards: not in registration order");
            let mut visits = visits.into_inner().unwrap();
            assert!(
                visits
                    .iter()
                    .all(|(_, name)| name.starts_with("seu-sweep-")),
                "{shards} shards: {visits:?}"
            );
            visits.sort();
            let seqs: Vec<u64> = visits.iter().map(|&(seq, _)| seq).collect();
            assert_eq!(
                seqs, picked,
                "{shards} shards: a pick missed or swept twice"
            );
            let peak = peak.into_inner();
            assert!(
                (1..=shards.min(cores)).contains(&peak),
                "{shards} shards on {cores} cores: {peak} at once"
            );
        }
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
