//! Term dictionary: interning term strings to dense [`TermId`]s.
//!
//! Everything downstream (document vectors, inverted indexes, database
//! representatives) works with dense integer term ids; the dictionary is the
//! single place strings live.
//!
//! # Layout
//!
//! A [`Vocabulary`] is three flat buffers, whatever its size:
//!
//! * `arena` — every term's bytes, back to back in id order;
//! * `ends` — where each term ends in `arena` (term `i` starts where term
//!   `i - 1` ends), so [`Vocabulary::term`] is two loads and a slice;
//! * `slots` — an open-addressing table of ids (linear probing, `EMPTY`
//!   for a free slot), kept at most half full, so a lookup hashes the
//!   string once and compares it against the arena.
//!
//! So a term costs its bytes, a four-byte end and two to four four-byte
//! slots, and a clone is three allocations, not two per term.
//!
//! # Why the hash is keyed
//!
//! Terms arrive from outside the process: a remote engine's record (its
//! wire reply, a `.repr` file) is interned into the broker's global
//! vocabulary. With an unkeyed hash, a peer could choose terms that all
//! land in one probe run and turn every lookup into a scan of the table
//! (hash flooding). The table therefore hashes with std's
//! [`RandomState`], whose keys are drawn per process, as `HashMap` does.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// Dense identifier of a distinct term within one [`Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A free slot of the id table.
const EMPTY: u32 = u32::MAX;

/// The id table's size when the first term arrives.
const MIN_SLOTS: usize = 8;

/// A bidirectional term dictionary.
#[derive(Default, Clone)]
pub struct Vocabulary {
    /// Every term's bytes, in id order.
    arena: String,
    /// `ends[i]` is the end of term `i` in `arena`.
    ends: Vec<u32>,
    /// Term ids by hash slot, `EMPTY` where free: empty, or a power of
    /// two at least twice `ends.len()`.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty vocabulary with room for `terms` terms of `bytes` bytes
    /// in all: interning that many grows no buffer, so a decoder that
    /// knows both counts allocates once per buffer and keeps no slack.
    pub fn with_capacity(terms: usize, bytes: usize) -> Self {
        let mut vocab = Self::default();
        if terms > 0 {
            vocab.arena.reserve_exact(bytes);
            vocab.ends.reserve_exact(terms);
            vocab.rehash((2 * terms).next_power_of_two().max(MIN_SLOTS));
        }
        vocab
    }

    /// Interns `term`, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &str) -> TermId {
        if self.slots.is_empty() {
            self.rehash(MIN_SLOTS);
        }
        let slot = match self.probe(term) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("vocabulary exceeds u32 terms");
        self.arena.push_str(term);
        self.ends
            .push(u32::try_from(self.arena.len()).expect("vocabulary exceeds u32 bytes"));
        self.slots[slot] = id;
        if 2 * self.ends.len() > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
        TermId(id)
    }

    /// Looks up an existing term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(term).ok()
    }

    /// The string for a term id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this vocabulary.
    pub fn term(&self, id: TermId) -> &str {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start as usize..self.ends[i] as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(TermId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(i, &end)| {
            let term = &self.arena[start as usize..end as usize];
            start = end;
            (TermId(i as u32), term)
        })
    }

    /// Heap bytes the vocabulary holds: its arena, ends and id table at
    /// their capacities.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity() + 4 * (self.ends.capacity() + self.slots.capacity())
    }

    /// The id of `term`, or the free slot where it would go. The table
    /// must be non-empty; being at most half full, it always has a free
    /// slot, so the probe ends.
    fn probe(&self, term: &str) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(term) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if self.term(TermId(id)) == term => return Ok(TermId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the id table with `size` slots (a power of two).
    fn rehash(&mut self, size: usize) {
        let mask = size - 1;
        let mut slots = vec![EMPTY; size];
        for (id, term) in self.iter() {
            let mut slot = self.hasher.hash_one(term) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id.0;
        }
        self.slots = slots;
    }
}

impl fmt::Debug for Vocabulary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, t)| t)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut v = Vocabulary::new();
        let a = v.intern("apple");
        let b = v.intern("banana");
        let a2 = v.intern("apple");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.term(a), "apple");
        assert_eq!(v.term(b), "banana");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut v = Vocabulary::new();
        for (i, w) in ["x0", "x1", "x2", "x3"].iter().enumerate() {
            assert_eq!(v.intern(w), TermId(i as u32));
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut v = Vocabulary::new();
        assert!(v.get("missing").is_none());
        assert_eq!(v.len(), 0);
        v.intern("present");
        assert!(v.get("present").is_some());
    }

    #[test]
    fn a_presized_vocabulary_holds_what_a_clone_does() {
        let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let bytes = words.iter().map(|w| w.len()).sum();
        let (mut sized, mut grown) = (
            Vocabulary::with_capacity(words.len(), bytes),
            Vocabulary::new(),
        );
        for w in words {
            assert_eq!(sized.intern(w), grown.intern(w));
        }
        assert!(sized.iter().eq(grown.iter()));
        assert_eq!(sized.heap_bytes(), grown.clone().heap_bytes());
        assert_eq!(Vocabulary::with_capacity(0, 0).heap_bytes(), 0);
    }

    #[test]
    fn iter_round_trips() {
        let mut v = Vocabulary::new();
        v.intern("one");
        v.intern("two");
        let pairs: Vec<_> = v.iter().map(|(id, s)| (id.0, s.to_string())).collect();
        assert_eq!(pairs, [(0, "one".into()), (1, "two".into())]);
    }
}
