//! Shared query analysis: one broker-global analyzed query, and query
//! vectors built from collection *statistics* alone.
//!
//! A metasearch broker fronts many collections, each with its own
//! [`Vocabulary`]. Analyzing the query text once per *engine* repeats the
//! expensive part of query processing (tokenization, stopword filtering,
//! stemming, string hashing) `n` times. Instead the broker keeps one
//! global vocabulary covering the union of its engines' terms, analyzes
//! the query once against it ([`term_counts`]), and finds the engines that
//! hold each term — and the term's local id there — in its own postings;
//! the `(local term, count)` pairs go through
//! [`Collection::query_from_tf`](crate::Collection::query_from_tf), or
//! through [`weighted_query`] where the broker holds only an engine's
//! statistics.

use crate::query::Query;
use seu_text::{TermId, Vocabulary};

/// Builds a cosine-normalized query vector from explicit term
/// frequencies and collection *statistics* alone — no
/// [`Collection`](crate::Collection) required. This is
/// [`Collection::query_from_tf`](crate::Collection::query_from_tf) with
/// the collection replaced by the three numbers query weighting actually
/// consumes (scheme, document count, per-term document frequency), so a
/// broker can form byte-identical query vectors for a **remote** engine
/// from metadata it shipped.
pub fn weighted_query(
    scheme: crate::weighting::WeightingScheme,
    n_docs: u32,
    doc_freq: impl Fn(TermId) -> u32,
    tf: impl IntoIterator<Item = (TermId, u32)>,
) -> Query {
    let mut weights: Vec<(u32, f64)> = tf
        .into_iter()
        .filter(|&(_, f)| f > 0)
        .map(|(t, f)| {
            // A scheme that ignores collection statistics is not handed
            // a document frequency: a broker plans from statistics it
            // reaches through a record, one cache miss a row to fetch.
            let df = if scheme.needs_collection_stats() {
                doc_freq(t)
            } else {
                0
            };
            (t.0, scheme.weight(f, df, n_docs))
        })
        .collect();
    weights.sort_by_key(|&(t, _)| t);
    crate::weighting::normalize(&mut weights);
    Query::new(
        weights
            .into_iter()
            .filter(|&(_, w)| w > 0.0)
            .map(|(t, w)| (TermId(t), w)),
    )
}

/// Folds analyzed tokens into `(term id, count)` pairs sorted by id,
/// dropping tokens `vocab` does not hold (they cannot contribute to any
/// similarity). Every query is counted here: a collection's and a
/// record's against their own vocabulary, a broker's against its
/// global one.
pub fn term_counts(vocab: &Vocabulary, tokens: &[String]) -> Vec<(TermId, u32)> {
    tally(tokens.iter().filter_map(|token| vocab.get(token)))
}

/// Counts term ids into `(id, count)` pairs sorted by id: the one count
/// behind [`term_counts`] and the collection builder's staging.
pub(crate) fn tally(ids: impl Iterator<Item = TermId>) -> Vec<(TermId, u32)> {
    let mut ids: Vec<TermId> = ids.collect();
    ids.sort_unstable();
    let runs = ids.chunk_by(|a, b| a == b);
    runs.map(|run| (run[0], run.len() as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_counts_counts_and_sorts() {
        let mut global = Vocabulary::new();
        for term in ["unrelated", "banana", "apple"] {
            global.intern(term);
        }
        let tokens: Vec<String> = ["banana", "apple", "banana", "zebra"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let tf = term_counts(&global, &tokens);
        assert_eq!(tf.len(), 2);
        assert!(tf.windows(2).all(|w| w[0].0 < w[1].0));
        let by_term = |t: &str| {
            let id = global.get(t).unwrap();
            tf.iter().find(|&&(g, _)| g == id).unwrap().1
        };
        assert_eq!(by_term("banana"), 2);
        assert_eq!(by_term("apple"), 1);
    }
}
