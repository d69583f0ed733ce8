//! Inverted index: per-term postings of `(document, normalized weight)`.
//!
//! # Layout
//!
//! The index is compressed sparse rows: one `postings` array holding
//! every term's postings back to back in term-id order, and `starts`,
//! where term `t`'s run is `postings[starts[t]..starts[t + 1]]`. A build
//! counts each term's documents, sums the counts into `starts`, then
//! places each document's postings in document order, so every run is
//! sorted by document id. However many terms the collection has, the
//! index is two allocations.

use crate::collection::{Collection, DocId};
use seu_text::TermId;

/// One posting: a document containing the term, with the term's normalized
/// weight in that document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// Containing document.
    pub doc: DocId,
    /// Cosine-normalized weight of the term in the document.
    pub weight: f64,
}

/// The inverted index over a [`Collection`].
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// `starts[t]..starts[t + 1]` is term `t`'s run of `postings`; one
    /// entry more than the vocabulary has terms.
    starts: Vec<u32>,
    /// Every term's postings, by term id, each run sorted by document id.
    postings: Vec<Posting>,
}

impl InvertedIndex {
    /// Builds the index from a collection in two passes over the
    /// documents: one counts each term's postings, one places them.
    pub fn build(collection: &Collection) -> Self {
        // starts[t + 1] counts term t's postings, then (summed) is
        // where term t's run ends.
        let mut starts = vec![0u32; collection.vocab().len() + 1];
        for doc in collection.docs() {
            for &(term, _) in &doc.terms {
                starts[term.index() + 1] += 1;
            }
        }
        for t in 1..starts.len() {
            starts[t] = starts[t]
                .checked_add(starts[t - 1])
                .expect("index exceeds u32 postings");
        }
        let total = starts[starts.len() - 1] as usize;
        let vacant = Posting {
            doc: DocId(0),
            weight: 0.0,
        };
        let mut postings = vec![vacant; total];
        // Place with starts[t] as term t's cursor: it walks to where
        // term t ends, which is where term t + 1 starts...
        for (i, doc) in collection.docs().iter().enumerate() {
            let id = DocId(i as u32);
            for &(term, weight) in &doc.terms {
                let cursor = &mut starts[term.index()];
                postings[*cursor as usize] = Posting { doc: id, weight };
                *cursor += 1;
            }
        }
        // ...so shifting the cursors up one restores the starts.
        starts.rotate_right(1);
        starts[0] = 0;
        InvertedIndex { starts, postings }
    }

    /// Postings for a term (empty slice for out-of-vocabulary ids).
    pub fn postings(&self, term: TermId) -> &[Posting] {
        let t = term.index();
        match (self.starts.get(t), self.starts.get(t + 1)) {
            (Some(&start), Some(&end)) => &self.postings[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Document frequency of a term as seen by the index.
    pub fn doc_freq(&self, term: TermId) -> usize {
        self.postings(term).len()
    }

    /// Number of terms with at least one posting.
    pub fn active_terms(&self) -> usize {
        self.starts.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// Total number of postings (index size driver).
    pub fn total_postings(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionBuilder;
    use crate::weighting::WeightingScheme;
    use seu_text::Analyzer;

    fn index() -> (Collection, InvertedIndex) {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "apple banana");
        b.add_document("d1", "banana cherry banana");
        b.add_document("d2", "durian");
        let c = b.build();
        let i = InvertedIndex::build(&c);
        (c, i)
    }

    #[test]
    fn postings_match_documents() {
        let (c, idx) = index();
        let banana = c.vocab().get("banana").unwrap();
        let posts = idx.postings(banana);
        assert_eq!(posts.len(), 2);
        assert_eq!(posts[0].doc, DocId(0));
        assert_eq!(posts[1].doc, DocId(1));
        // d1 = (banana:2, cherry:1) -> banana weight 2/sqrt(5).
        assert!((posts[1].weight - 2.0 / 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn doc_freq_agrees_with_collection() {
        let (c, idx) = index();
        for (term, _) in c.vocab().iter() {
            assert_eq!(idx.doc_freq(term) as u32, c.doc_freq(term));
        }
    }

    #[test]
    fn totals() {
        let (_, idx) = index();
        assert_eq!(idx.active_terms(), 4);
        assert_eq!(idx.total_postings(), 5);
    }

    #[test]
    fn out_of_vocab_is_empty() {
        let (_, idx) = index();
        assert!(idx.postings(TermId(999)).is_empty());
    }
}
