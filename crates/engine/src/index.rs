//! Inverted index: per-term postings of `(document, normalized weight)`.

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
    /// Postings per term id, each sorted by document id.
    postings: Vec<Vec<Posting>>,
}

impl InvertedIndex {
    /// Builds the index from a collection in one pass over the documents.
    pub fn build(collection: &Collection) -> Self {
        let mut postings: Vec<Vec<Posting>> = vec![Vec::new(); collection.vocab().len()];
        for (i, doc) in collection.docs().iter().enumerate() {
            let id = DocId(i as u32);
            for &(term, weight) in &doc.terms {
                postings[term.index()].push(Posting { doc: id, weight });
            }
        }
        InvertedIndex { postings }
    }

    /// Postings for a term (empty slice for out-of-vocabulary ids).
    pub fn postings(&self, term: TermId) -> &[Posting] {
        self.postings
            .get(term.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Document frequency of a term as seen by the index.
    pub fn doc_freq(&self, term: TermId) -> usize {
        self.postings(term).len()
    }

    /// Number of terms with at least one posting.
    pub fn active_terms(&self) -> usize {
        self.postings.iter().filter(|p| !p.is_empty()).count()
    }

    /// Total number of postings (index size driver).
    pub fn total_postings(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
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
