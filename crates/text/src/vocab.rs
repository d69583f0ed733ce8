//! Term dictionary: interning term strings to dense [`TermId`]s.
//!
//! Everything downstream (document vectors, inverted indexes, database
//! representatives) works with dense integer term ids; the dictionary is the
//! single place strings live.

use std::collections::HashMap;

/// Dense identifier of a distinct term within one [`Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional term dictionary.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    terms: Vec<String>,
    ids: HashMap<String, TermId>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("vocabulary exceeds u32 terms"));
        self.terms.push(term.to_string());
        self.ids.insert(term.to_string(), id);
        id
    }

    /// Looks up an existing term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// The string for a term id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this vocabulary.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(TermId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, s)| (TermId(i as u32), s.as_str()))
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
    fn iter_round_trips() {
        let mut v = Vocabulary::new();
        v.intern("one");
        v.intern("two");
        let pairs: Vec<_> = v.iter().map(|(id, s)| (id.0, s.to_string())).collect();
        assert_eq!(pairs, [(0, "one".into()), (1, "two".into())]);
    }
}
