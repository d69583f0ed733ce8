//! Shared query analysis: one broker-global analyzed query, and query
//! vectors built from collection *statistics* alone.
//!
//! A metasearch broker fronts many collections, each with its own
//! [`Vocabulary`]. Analyzing the query text once per *engine* repeats the
//! expensive part of query processing (tokenization, stopword filtering,
//! stemming, string hashing) `n` times. Instead the broker keeps one
//! global vocabulary covering the union of its engines' terms, analyzes
//! the query once against it ([`global_tf`]), and finds the engines that
//! hold each term — and the term's local id there — in its own postings;
//! the `(local term, count)` pairs go through
//! [`Collection::query_from_tf`](crate::Collection::query_from_tf), or
//! through [`weighted_query`] where the broker holds only an engine's
//! statistics.

use crate::query::Query;
use seu_text::{TermId, Vocabulary};
use std::collections::HashMap;

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
        .map(|(t, f)| (t.0, scheme.weight(f, doc_freq(t), n_docs)))
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

/// Folds analyzed tokens into `(global term id, count)` pairs against a
/// broker-global vocabulary, dropping tokens no registered collection
/// knows (they cannot contribute to any similarity). Pairs are sorted by
/// global id.
pub fn global_tf(vocab: &Vocabulary, tokens: &[String]) -> Vec<(u32, u32)> {
    let mut tf: HashMap<u32, u32> = HashMap::with_capacity(tokens.len());
    for token in tokens {
        if let Some(id) = vocab.get(token) {
            *tf.entry(id.0).or_insert(0) += 1;
        }
    }
    let mut pairs: Vec<(u32, u32)> = tf.into_iter().collect();
    pairs.sort_by_key(|&(g, _)| g);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_tf_counts_and_sorts() {
        let mut global = Vocabulary::new();
        for term in ["unrelated", "banana", "apple"] {
            global.intern(term);
        }
        let tokens: Vec<String> = ["banana", "apple", "banana", "zebra"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let tf = global_tf(&global, &tokens);
        assert_eq!(tf.len(), 2);
        assert!(tf.windows(2).all(|w| w[0].0 < w[1].0));
        let by_term = |t: &str| {
            let id = global.get(t).unwrap().0;
            tf.iter().find(|&&(g, _)| g == id).unwrap().1
        };
        assert_eq!(by_term("banana"), 2);
        assert_eq!(by_term("apple"), 1);
    }
}
