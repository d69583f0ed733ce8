//! One registry shard's inverted file over its entries' vocabularies:
//! broker-global term id → the entries that hold the term, each with the
//! term's id in that entry's own term space.
//!
//! A plan asks it which entries contain a query term; every other entry
//! of the shard contains none, so its generating function is the
//! constant 1 (paper Prop. 1) and its estimate `(0, 0)` without looking
//! at its representative. The index lives inside the shard's `entries`
//! lock (see [`crate::registry`]) and names an entry by its position in
//! the shard, so the registry shifts the positions when an entry leaves.
//!
//! Shaped by the data: of the 257 982 distinct terms the 53 newsgroup
//! databases hold, 238 467 occur in exactly one. A term with one holder
//! is 12 bytes in a hash table, a term with several a list of 8-byte
//! postings; nothing is sized by the global vocabulary, only by what the
//! shard's own entries hold.
//!
//! The shard's set of analyzer configurations is kept here too: it is
//! the other thing a plan used to walk every entry for.

use seu_text::{AnalyzerConfig, TermId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a broker-global term id: one multiplication. The ids are the
/// broker's own — handed out one after the other as it interns terms, so
/// nobody outside can pick colliding ones — and refreshing a 5 700-term
/// engine, which re-posts it, took 3–4 ms with the default hasher, 2 ms
/// with this one.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only term ids are hashed");
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// One entry's claim on a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Posting {
    /// The entry's position in its shard.
    pub(crate) entry: u32,
    /// The term's id in the entry's own term space.
    pub(crate) local: TermId,
}

/// A shard's postings and analyzer configurations. Every method is
/// called with the shard's lock held.
#[derive(Debug, Default)]
pub(crate) struct TermIndex {
    /// Terms exactly one entry holds — most of any vocabulary — inline.
    one: IdMap<Posting>,
    /// Terms two or more entries hold, in no particular order.
    many: IdMap<Vec<Posting>>,
    /// The analyzer configurations among the shard's entries, each with
    /// the number of entries that use it.
    configs: Vec<(AnalyzerConfig, u32)>,
}

impl TermIndex {
    /// The entries that hold `term`.
    pub(crate) fn postings(&self, term: u32) -> &[Posting] {
        match self.one.get(&term) {
            Some(only) => std::slice::from_ref(only),
            None => self.many.get(&term).map_or(&[], Vec::as_slice),
        }
    }

    /// Posts the entry at position `entry`: `terms[local id]` is the
    /// global id of each term of its vocabulary.
    pub(crate) fn post(&mut self, entry: u32, terms: &[u32]) {
        for (local, &term) in terms.iter().enumerate() {
            let posting = Posting {
                entry,
                local: TermId(local as u32),
            };
            if let Some(list) = self.many.get_mut(&term) {
                list.push(posting);
                continue;
            }
            match self.one.entry(term) {
                Entry::Vacant(slot) => {
                    slot.insert(posting);
                }
                Entry::Occupied(first) => {
                    self.many.insert(term, vec![first.remove(), posting]);
                }
            }
        }
    }

    /// Takes back what [`TermIndex::post`] posted for the same `entry`
    /// and `terms`.
    pub(crate) fn unpost(&mut self, entry: u32, terms: &[u32]) {
        for &term in terms {
            let Some(list) = self.many.get_mut(&term) else {
                let only = self.one.remove(&term);
                debug_assert!(only.is_some_and(|p| p.entry == entry), "term {term}");
                continue;
            };
            let at = list.iter().position(|p| p.entry == entry);
            debug_assert!(at.is_some(), "term {term}");
            if let Some(at) = at {
                list.swap_remove(at);
            }
            if let &[last] = list.as_slice() {
                self.many.remove(&term);
                self.one.insert(term, last);
            }
        }
    }

    /// The entry at position `removed` (already unposted) left the
    /// shard: every later entry is now one position earlier.
    pub(crate) fn close_gap(&mut self, removed: u32) {
        let lists = self.many.values_mut().flatten();
        for posting in self.one.values_mut().chain(lists) {
            debug_assert_ne!(posting.entry, removed);
            if posting.entry > removed {
                posting.entry -= 1;
            }
        }
    }

    /// Counts one more entry under `config`.
    pub(crate) fn add_config(&mut self, config: AnalyzerConfig) {
        match self.configs.iter_mut().find(|(c, _)| *c == config) {
            Some((_, entries)) => *entries += 1,
            None => self.configs.push((config, 1)),
        }
    }

    /// Counts one entry fewer under `config`.
    pub(crate) fn remove_config(&mut self, config: AnalyzerConfig) {
        let at = self.configs.iter().position(|(c, _)| *c == config);
        debug_assert!(at.is_some(), "{config:?}");
        if let Some(at) = at {
            self.configs[at].1 -= 1;
            if self.configs[at].1 == 0 {
                self.configs.swap_remove(at);
            }
        }
    }

    /// The analyzer configurations among the shard's entries.
    pub(crate) fn configs(&self) -> impl Iterator<Item = AnalyzerConfig> + '_ {
        self.configs.iter().map(|&(config, _)| config)
    }

    /// Whether `self` and `other` say the same thing, whatever order
    /// their lists and configurations came to be in; the difference
    /// otherwise. The audit behind `Broker::audit_postings`.
    pub(crate) fn same_as(&self, other: &TermIndex) -> Result<(), String> {
        fn sorted(index: &TermIndex) -> Vec<(u32, Vec<Posting>)> {
            let one = index.one.iter().map(|(&term, &only)| (term, vec![only]));
            let many = index.many.iter().map(|(&term, list)| {
                let mut list = list.clone();
                list.sort_unstable();
                (term, list)
            });
            let mut all: Vec<_> = one.chain(many).collect();
            all.sort_unstable();
            all
        }
        if let Some((term, list)) = self.many.iter().find(|(_, list)| list.len() < 2) {
            return Err(format!("term {term}: a shared list of {}", list.len()));
        }
        let (mine, theirs) = (sorted(self), sorted(other));
        if let Some((a, b)) = mine.iter().zip(&theirs).find(|(a, b)| a != b) {
            return Err(format!("postings differ: {a:?} vs {b:?}"));
        }
        if mine.len() != theirs.len() {
            return Err(format!("{} terms vs {}", mine.len(), theirs.len()));
        }
        let by_flags = |index: &TermIndex| {
            let mut configs = index.configs.clone();
            configs.sort_unstable_by_key(|&(c, n)| (c.remove_stopwords, c.stem, n));
            configs
        };
        if by_flags(self) != by_flags(other) {
            return Err(format!(
                "configurations differ: {:?} vs {:?}",
                self.configs, other.configs
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(index: &TermIndex, term: u32) -> Vec<(u32, u32)> {
        let mut held: Vec<(u32, u32)> = index
            .postings(term)
            .iter()
            .map(|p| (p.entry, p.local.0))
            .collect();
        held.sort_unstable();
        held
    }

    #[test]
    fn post_unpost_and_close_gap_round_trip() {
        let mut index = TermIndex::default();
        // Entry 0 holds terms 10, 11, 12 as local 0, 1, 2; entry 1 holds
        // 12 and 13; entry 2 holds 12 and 10.
        index.post(0, &[10, 11, 12]);
        index.post(1, &[12, 13]);
        index.post(2, &[12, 10]);
        assert_eq!(held(&index, 10), [(0, 0), (2, 1)]);
        assert_eq!(held(&index, 11), [(0, 1)]);
        assert_eq!(held(&index, 12), [(0, 2), (1, 0), (2, 0)]);
        assert_eq!(held(&index, 13), [(1, 1)]);
        assert_eq!(held(&index, 14), []);

        // Entry 1 leaves: its terms go, entry 2 becomes entry 1.
        index.unpost(1, &[12, 13]);
        index.close_gap(1);
        assert_eq!(held(&index, 12), [(0, 2), (1, 0)]);
        assert_eq!(held(&index, 10), [(0, 0), (1, 1)]);
        assert_eq!(held(&index, 13), []);

        // The same index, built from scratch.
        let mut fresh = TermIndex::default();
        fresh.post(1, &[12, 10]);
        fresh.post(0, &[10, 11, 12]);
        assert_eq!(index.same_as(&fresh), Ok(()));

        // A list that shrinks to one holder goes back inline.
        index.unpost(1, &[12, 10]);
        assert_eq!(held(&index, 12), [(0, 2)]);
        assert!(index.many.is_empty());
        assert!(index.same_as(&fresh).is_err());
        index.unpost(0, &[10, 11, 12]);
        assert!(index.one.is_empty());
        assert_eq!(index.same_as(&TermIndex::default()), Ok(()));
    }

    #[test]
    fn configs_are_counted() {
        let plain = AnalyzerConfig::default();
        let stemmed = AnalyzerConfig {
            stem: true,
            ..plain
        };
        let mut index = TermIndex::default();
        index.add_config(plain);
        index.add_config(stemmed);
        index.add_config(plain);
        assert_eq!(index.configs().collect::<Vec<_>>(), [plain, stemmed]);
        index.remove_config(plain);
        assert_eq!(index.configs().count(), 2);
        index.remove_config(plain);
        assert_eq!(index.configs().collect::<Vec<_>>(), [stemmed]);
        let mut other = TermIndex::default();
        other.add_config(stemmed);
        assert_eq!(index.same_as(&other), Ok(()));
        other.add_config(stemmed);
        assert!(index.same_as(&other).is_err());
    }
}
