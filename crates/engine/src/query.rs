//! Query vectors.

use seu_text::TermId;

/// A cosine-normalized sparse query vector `q = (u_1, …, u_r)`.
///
/// Built by [`crate::Collection::query_from_text`] (or directly from
/// term/weight pairs); terms are sorted by id and weights are expected to
/// be normalized so that single-term queries carry weight 1. The default
/// is the empty query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    terms: Vec<(TermId, f64)>,
}

impl Query {
    /// Creates a query from `(term, weight)` pairs; sorts by term id and
    /// merges duplicate terms by summing weights.
    pub fn new(terms: impl IntoIterator<Item = (TermId, f64)>) -> Self {
        let mut v: Vec<(TermId, f64)> = terms.into_iter().collect();
        v.sort_by_key(|&(t, _)| t);
        let mut merged: Vec<(TermId, f64)> = Vec::with_capacity(v.len());
        for (t, w) in v {
            match merged.last_mut() {
                Some(last) if last.0 == t => last.1 += w,
                _ => merged.push((t, w)),
            }
        }
        Query { terms: merged }
    }

    /// The `(term, weight)` pairs, sorted by term id.
    pub fn terms(&self) -> &[(TermId, f64)] {
        &self.terms
    }

    /// Number of distinct query terms `r`.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the query has no terms (it then matches nothing).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether this is a single-term query (the class for which the paper
    /// proves exact engine identification).
    pub fn is_single_term(&self) -> bool {
        self.terms.len() == 1
    }

    /// The weight of `term` in the query (0 if absent).
    pub fn weight(&self, term: TermId) -> f64 {
        self.terms
            .binary_search_by_key(&term, |&(t, _)| t)
            .map(|i| self.terms[i].1)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_merges() {
        let q = Query::new([(TermId(3), 0.5), (TermId(1), 0.2), (TermId(3), 0.25)]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.terms()[0].0, TermId(1));
        assert!((q.weight(TermId(3)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_term_detection() {
        assert!(Query::new([(TermId(0), 1.0)]).is_single_term());
        assert!(!Query::new([(TermId(0), 1.0), (TermId(1), 1.0)]).is_single_term());
        assert!(!Query::new([]).is_single_term());
        assert!(Query::new([]).is_empty());
    }

    #[test]
    fn absent_weight_is_zero() {
        let q = Query::new([(TermId(0), 1.0)]);
        assert_eq!(q.weight(TermId(42)), 0.0);
    }
}
