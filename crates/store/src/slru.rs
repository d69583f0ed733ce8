//! The byte-budgeted segmented LRU both of the broker's caches are built
//! on: the store's hot tier ([`crate::CachedStore`]) and the query cache
//! of `seu-metasearch`. It is plain single-threaded data over
//! `&mut self` — each caller wraps it in its own lock and counters — and
//! it knows nothing of records or requests: the caller passes each
//! entry's cost.
//!
//! New entries start **probationary**; a hit promotes an entry to the
//! **protected** segment, which may hold at most [`PROTECTED_SHARE`] of
//! the budget — promoting past that demotes the protected segment's
//! least-recent entries back to probation. Eviction consumes the
//! probationary tail first, so a burst of one-touch entries (a cold scan,
//! a hydration sweep) cannot flush the entries that are re-touched.
//!
//! Each segment is a queue of lazy `(key, stamp)` markers. Every move of
//! an entry (insert, promotion, demotion) pushes a marker under a fresh
//! stamp and records that stamp in the entry; a marker whose stamp is not
//! its entry's is dead and is skipped when popped, which keeps every
//! operation O(1) amortized. Dead markers are dropped wholesale once a
//! queue outgrows `4 × live + 16`, so a queue's length is bounded by the
//! entries resident, not by the operations performed.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Fraction of the byte budget the protected segment may occupy.
pub const PROTECTED_SHARE: f64 = 0.8;

struct Entry<V> {
    value: V,
    cost: usize,
    /// The stamp of the one live marker naming this entry; the marker
    /// sits in the queue `protected` says.
    stamp: u64,
    protected: bool,
}

/// A segmented LRU over `K → V` holding at most `budget` bytes of
/// caller-stated cost. See the module docs.
pub struct Slru<K, V> {
    map: HashMap<K, Entry<V>>,
    probation: VecDeque<(K, u64)>,
    protected: VecDeque<(K, u64)>,
    budget: usize,
    protected_cap: usize,
    bytes: usize,
    protected_bytes: usize,
    stamp: u64,
}

impl<K: Hash + Eq + Clone, V> Slru<K, V> {
    /// An empty cache bounded to `budget` bytes (a budget of 0 admits
    /// nothing).
    pub fn new(budget: usize) -> Self {
        Slru {
            map: HashMap::new(),
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            budget,
            protected_cap: (budget as f64 * PROTECTED_SHARE) as usize,
            bytes: 0,
            protected_bytes: 0,
            stamp: 0,
        }
    }

    /// Looks `key` up and, when present, promotes it: a probationary
    /// entry becomes protected, a protected one most-recent.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let stamp = self.stamp + 1;
        let entry = self.map.get_mut(key)?;
        self.stamp = stamp;
        entry.stamp = stamp;
        if !entry.protected {
            entry.protected = true;
            self.protected_bytes += entry.cost;
        }
        self.protected.push_back((key.clone(), stamp));
        self.enforce_protected_cap();
        self.compact();
        // Demotion moves entries between segments, never out of the map.
        self.map.get(key).map(|e| &e.value)
    }

    /// Inserts `value` as a probationary entry of `cost` bytes, replacing
    /// any entry under `key`, then evicts until the budget holds. A value
    /// dearer than the whole budget is refused.
    pub fn insert(&mut self, key: K, value: V, cost: usize) {
        self.forget(&key);
        if cost <= self.budget {
            self.stamp += 1;
            self.probation.push_back((key.clone(), self.stamp));
            self.bytes += cost;
            self.map.insert(
                key,
                Entry {
                    value,
                    cost,
                    stamp: self.stamp,
                    protected: false,
                },
            );
            while self.bytes > self.budget && self.evict_one() {}
        }
        self.compact();
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.forget(key);
        self.compact();
        value
    }

    /// Keeps only the entries `keep` approves; returns how many were
    /// dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        let (bytes, protected_bytes) = (&mut self.bytes, &mut self.protected_bytes);
        self.map.retain(|key, e| {
            let kept = keep(key, &e.value);
            if !kept {
                *bytes -= e.cost;
                if e.protected {
                    *protected_bytes -= e.cost;
                }
            }
            kept
        });
        self.compact();
        before - self.map.len()
    }

    /// Whether an entry is resident under `key` (no promotion).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Summed cost of the resident entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Drops the entry under `key` from the map and the byte counts; its
    /// marker dies with it and is left to `compact`.
    fn forget(&mut self, key: &K) -> Option<V> {
        let entry = self.map.remove(key)?;
        self.bytes -= entry.cost;
        if entry.protected {
            self.protected_bytes -= entry.cost;
        }
        Some(entry.value)
    }

    /// Whether a marker still names its entry's position. Stamps are
    /// never reused, so an equal stamp also means the same queue.
    fn live(map: &HashMap<K, Entry<V>>, key: &K, stamp: u64) -> bool {
        map.get(key).is_some_and(|e| e.stamp == stamp)
    }

    /// Evicts the least-recent probationary entry, else the least-recent
    /// protected one; false when nothing is left.
    fn evict_one(&mut self) -> bool {
        loop {
            let popped = self.probation.pop_front();
            let Some((key, stamp)) = popped.or_else(|| self.protected.pop_front()) else {
                return false;
            };
            if Self::live(&self.map, &key, stamp) {
                self.forget(&key);
                return true;
            }
        }
    }

    /// Demotes least-recent protected entries to probation until the
    /// protected segment fits its share of the budget.
    fn enforce_protected_cap(&mut self) {
        while self.protected_bytes > self.protected_cap {
            let Some((key, stamp)) = self.protected.pop_front() else {
                break;
            };
            let Some(entry) = self.map.get_mut(&key).filter(|e| e.stamp == stamp) else {
                continue;
            };
            self.stamp += 1;
            entry.stamp = self.stamp;
            entry.protected = false;
            self.protected_bytes -= entry.cost;
            self.probation.push_back((key, self.stamp));
        }
    }

    /// Drops dead markers once a queue has grown well past the live
    /// entry count, bounding memory under re-touch and purge traffic.
    fn compact(&mut self) {
        let map = &self.map;
        for queue in [&mut self.probation, &mut self.protected] {
            if queue.len() > 4 * map.len() + 16 {
                queue.retain(|(key, stamp)| Self::live(map, key, *stamp));
            }
        }
    }

    /// Markers queued in the two segments, dead ones included.
    #[cfg(test)]
    pub(crate) fn markers(&self) -> (usize, usize) {
        (self.probation.len(), self.protected.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_serves_and_remove_forgets() {
        let mut c: Slru<u32, &str> = Slru::new(100);
        assert!(c.get(&1).is_none() && c.is_empty());
        c.insert(1, "one", 10);
        c.insert(2, "two", 20);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!((c.len(), c.bytes()), (2, 30));
        // A replacement swaps value and cost, not the count.
        c.insert(1, "uno", 15);
        assert_eq!(c.get(&1), Some(&"uno"));
        assert_eq!((c.len(), c.bytes()), (2, 35));
        assert_eq!(c.remove(&2), Some("two"));
        assert!(!c.contains(&2) && c.contains(&1));
        assert_eq!((c.len(), c.bytes()), (1, 15));
    }

    #[test]
    fn the_budget_bounds_resident_bytes() {
        let mut c = Slru::new(100);
        for key in 0..64u32 {
            c.insert(key, (), 30);
            if key % 3 == 0 {
                c.get(&key);
            }
            assert!(c.bytes() <= 100, "{} resident after key {key}", c.bytes());
        }
        assert_eq!(c.len(), 3, "eviction leaves what fits");
    }

    #[test]
    fn re_touched_entries_survive_a_one_touch_flood() {
        let mut c = Slru::new(100);
        c.insert(0u32, (), 20);
        assert!(c.get(&0).is_some(), "the hit that promotes");
        // A cold scan many times the budget.
        for key in 1..1_000 {
            c.insert(key, (), 20);
        }
        assert!(c.contains(&0), "protected entry evicted by one-hit wonders");
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn the_protected_share_is_enforced_on_promotion() {
        let mut c = Slru::new(100);
        for key in 0..5u32 {
            c.insert(key, (), 20);
            c.get(&key);
        }
        // Five promotions of 20 against a protected cap of 80: the first
        // was demoted again, so it is the next victim.
        c.insert(5, (), 20);
        assert!(!c.contains(&0) && (1..=5).all(|key| c.contains(&key)));
    }

    #[test]
    fn an_oversized_entry_is_refused() {
        let mut c = Slru::new(100);
        c.insert(1u32, (), 40);
        c.insert(2, (), 101);
        assert!(!c.contains(&2));
        assert_eq!((c.len(), c.bytes()), (1, 40), "and evicts nothing");
        let mut off: Slru<u32, ()> = Slru::new(0);
        off.insert(1, (), 1);
        assert!(off.is_empty());
    }

    #[test]
    fn retain_drops_what_it_is_told_and_counts_it() {
        let mut c = Slru::new(100);
        c.insert(1u32, "a", 40);
        c.insert(2, "b", 40);
        assert!(c.get(&1).is_some() && c.get(&2).is_some());
        assert_eq!(c.retain(|key, value| *key != 1 && *value != "z"), 1);
        assert!(!c.contains(&1) && c.contains(&2));
        assert_eq!((c.len(), c.bytes()), (1, 40));
        // The dropped entry's protected bytes went with it: promoting a
        // third entry fits the cap of 80 and demotes nobody, so the one
        // probationary entry a fourth insert can evict is itself.
        c.insert(3, "c", 40);
        assert!(c.get(&3).is_some());
        c.insert(4, "d", 40);
        assert!(c.contains(&2) && c.contains(&3) && !c.contains(&4));
    }

    /// Every hit and every insert pushes a marker; compaction keeps the
    /// queues proportional to what is resident all the same.
    #[test]
    fn markers_are_bounded_by_live_entries_not_by_operations() {
        let mut c = Slru::new(1 << 20);
        let bounded = |c: &Slru<u32, ()>| {
            let (probation, protected) = c.markers();
            probation.max(protected) <= 4 * c.len() + 16
        };
        c.insert(0u32, (), 64);
        for _ in 0..10_000 {
            assert!(c.get(&0).is_some());
            assert!(bounded(&c), "{:?}", c.markers());
        }
        for key in 1..=10_000 {
            c.insert(key, (), 64);
            assert_eq!(c.retain(|key, _| *key == 0), 1);
            assert!(bounded(&c), "{:?}", c.markers());
        }
        assert_eq!((c.len(), c.bytes()), (1, 64));
    }
}
