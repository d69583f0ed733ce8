//! Incremental, mergeable representative construction.
//!
//! The paper's architecture (Section 1) assumes local updates "may need
//! to be propagated to the metadata that represent the contents of local
//! databases, \[but\] the propagation can be done infrequently as the
//! metadata are typically statistical". That requires the engine side to
//! maintain its per-term statistics *incrementally* as documents arrive,
//! and to snapshot them cheaply whenever the broker asks.
//!
//! [`RepresentativeAccumulator`] does exactly that: per-term Welford
//! moments folded one document at a time, merged across parallel indexing
//! shards, snapshotted into a [`Representative`] in O(vocabulary).
//!
//! Under the cosine weighting schemes a document's normalized weights do
//! not depend on any collection-wide statistic, so accumulation is
//! *exact*: the snapshot equals [`Representative::build`] on the same
//! documents. Under tf–idf or pivoted normalization the weights shift as
//! the collection grows; there the accumulator is the (standard)
//! approximation that defers re-weighting to the next full rebuild.

use crate::representative::{Representative, TermStats};
use seu_engine::Document;
use seu_stats::Moments;

/// Streaming builder of a database representative.
#[derive(Debug, Clone, Default)]
pub struct RepresentativeAccumulator {
    n_docs: u64,
    collection_bytes: u64,
    /// Per-term weight moments, indexed by `TermId` (grows on demand).
    acc: Vec<Moments>,
}

impl RepresentativeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one already-weighted document (its `terms` carry the
    /// normalized weights), accounting `raw_bytes` of source text.
    pub fn add_document(&mut self, doc: &Document, raw_bytes: u64) {
        self.n_docs += 1;
        self.collection_bytes += raw_bytes;
        for &(term, weight) in &doc.terms {
            let idx = term.index();
            if idx >= self.acc.len() {
                self.acc.resize(idx + 1, Moments::new());
            }
            self.acc[idx].push(weight);
        }
    }

    /// Merges another accumulator (e.g. a parallel indexing shard). Both
    /// sides must index term ids against the same vocabulary.
    pub fn merge(&mut self, other: &RepresentativeAccumulator) {
        self.n_docs += other.n_docs;
        self.collection_bytes += other.collection_bytes;
        if other.acc.len() > self.acc.len() {
            self.acc.resize(other.acc.len(), Moments::new());
        }
        for (mine, theirs) in self.acc.iter_mut().zip(&other.acc) {
            mine.merge(theirs);
        }
    }

    /// Number of documents folded in so far.
    pub fn n_docs(&self) -> u64 {
        self.n_docs
    }

    /// Snapshots the current statistics into a representative the broker
    /// can use immediately.
    pub fn snapshot(&self) -> Representative {
        let n = self.n_docs;
        let stats = self
            .acc
            .iter()
            .map(|m| TermStats {
                p: if n == 0 {
                    0.0
                } else {
                    m.count() as f64 / n as f64
                },
                mean: m.mean(),
                std_dev: m.std_dev(),
                max: m.max(),
            })
            .collect();
        Representative::from_parts(n, stats, self.collection_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{Collection, CollectionBuilder, WeightingScheme};
    use seu_text::Analyzer;

    fn collection() -> Collection {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "alpha beta alpha");
        b.add_document("d1", "beta gamma");
        b.add_document("d2", "alpha gamma gamma gamma");
        b.add_document("d3", "delta");
        b.build()
    }

    fn assert_repr_eq(a: &Representative, b: &Representative) {
        assert_eq!(a.n_docs(), b.n_docs());
        assert_eq!(a.distinct_terms(), b.distinct_terms());
        for (term, s) in a.iter() {
            let s2 = b.get(term).expect("term present");
            assert!((s.p - s2.p).abs() < 1e-12);
            assert!((s.mean - s2.mean).abs() < 1e-12);
            assert!((s.std_dev - s2.std_dev).abs() < 1e-10);
            assert!((s.max - s2.max).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulation_matches_batch_build() {
        let c = collection();
        let batch = Representative::build(&c);
        let mut acc = RepresentativeAccumulator::new();
        for doc in c.docs() {
            acc.add_document(doc, 0);
        }
        assert_repr_eq(&acc.snapshot(), &batch);
    }

    #[test]
    fn sharded_merge_matches_batch_build() {
        let c = collection();
        let batch = Representative::build(&c);
        let mut shard_a = RepresentativeAccumulator::new();
        let mut shard_b = RepresentativeAccumulator::new();
        for (i, doc) in c.docs().iter().enumerate() {
            if i % 2 == 0 {
                shard_a.add_document(doc, 0);
            } else {
                shard_b.add_document(doc, 0);
            }
        }
        shard_a.merge(&shard_b);
        assert_repr_eq(&shard_a.snapshot(), &batch);
    }

    #[test]
    fn incremental_snapshots_track_growth() {
        let c = collection();
        let mut acc = RepresentativeAccumulator::new();
        let mut prev_terms = 0;
        for doc in c.docs() {
            acc.add_document(doc, 10);
            let snap = acc.snapshot();
            assert!(snap.distinct_terms() >= prev_terms);
            prev_terms = snap.distinct_terms();
        }
        assert_eq!(acc.snapshot().collection_bytes(), 40);
        assert_eq!(acc.n_docs(), 4);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let c = collection();
        let mut acc = RepresentativeAccumulator::new();
        for doc in c.docs() {
            acc.add_document(doc, 0);
        }
        let before = acc.snapshot();
        acc.merge(&RepresentativeAccumulator::new());
        assert_repr_eq(&acc.snapshot(), &before);
        let mut empty = RepresentativeAccumulator::new();
        empty.merge(&acc);
        assert_repr_eq(&empty.snapshot(), &before);
    }

    #[test]
    fn empty_accumulator_snapshot() {
        let snap = RepresentativeAccumulator::new().snapshot();
        assert_eq!(snap.n_docs(), 0);
        assert_eq!(snap.distinct_terms(), 0);
    }
}
