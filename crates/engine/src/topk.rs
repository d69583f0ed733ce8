//! Max-score top-k retrieval: the paper's critical statistic (the per-term
//! maximum normalized weight) doubles as the classic query-evaluation
//! pruning bound.
//!
//! For a query `q = (u_1, …, u_r)`, no document can score more than
//! `Σ u_i * mw_i` over any subset of terms, where `mw_i` is term `i`'s
//! maximum normalized weight in the collection. Sorting the query terms
//! by ascending `u_i * mw_i` and keeping suffix sums of the bounds lets
//! term-at-a-time evaluation skip the low-impact terms entirely for
//! documents that cannot reach the current top-k floor (Turtle & Flood's
//! MaxScore, adapted to exhaustive term-at-a-time accumulation).
//!
//! The result is *identical* to [`SearchEngine::search_top_k`]; only the
//! work differs. Measured top-10 over a 761-document collection, the
//! trade-off is: on small newsgroup-scale collections (hundreds of
//! documents, short postings lists) the pruning bookkeeping costs more
//! than it saves, and plain accumulation wins; the bound only pays off
//! on long postings lists.

use crate::collection::DocId;
use crate::query::Query;
use crate::search::{SearchEngine, SearchHit};
use std::cmp::Ordering;
use std::collections::HashMap;

impl SearchEngine {
    /// The `k` most similar documents, computed with max-score pruning.
    /// Exact: returns the same hits as [`SearchEngine::search_top_k`].
    pub fn search_top_k_maxscore(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        if k == 0 || query.is_empty() {
            return Vec::new();
        }
        // Per-term upper bound u_i * mw_i, terms sorted by descending
        // bound so the high-impact terms are accumulated first.
        let mut terms: Vec<(f64, &[crate::index::Posting], f64)> = query
            .terms()
            .iter()
            .map(|&(term, u)| {
                let postings = self.index().postings(term);
                let mw = postings.iter().map(|p| p.weight).fold(0.0f64, f64::max);
                (u, postings, u * mw)
            })
            .filter(|&(_, postings, _)| !postings.is_empty())
            .collect();
        terms.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(Ordering::Equal));

        // Suffix sums: bound_rest[i] = max possible contribution of terms
        // i.. (so a partial score s after terms 0..i can reach at most
        // s + bound_rest[i]).
        let mut bound_rest = vec![0.0; terms.len() + 1];
        for i in (0..terms.len()).rev() {
            bound_rest[i] = bound_rest[i + 1] + terms[i].2;
        }

        // Accumulate high-impact terms; candidates gather partial scores.
        let mut acc: HashMap<u32, f64> = HashMap::new();
        let mut floor = 0.0f64; // k-th best full score so far (lower bound)
        let mut scores: Vec<f64> = Vec::new(); // full-score tracker
        for (i, &(u, postings, _)) in terms.iter().enumerate() {
            // Once even a document containing ALL remaining terms (and
            // nothing so far) cannot reach the floor, documents not yet
            // in the accumulator can never surface: remaining terms only
            // need to *update* existing candidates. `>=` keeps exact ties
            // alive (tie-breaking is by document id, which a skipped
            // document could win).
            let new_docs_possible = acc.len() < k || bound_rest[i] >= floor;
            for p in postings {
                match acc.entry(p.doc.0) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        *e.get_mut() += u * p.weight;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        if new_docs_possible {
                            e.insert(u * p.weight);
                        }
                    }
                }
            }
            // Refresh the floor estimate (k-th largest optimistic-free
            // partial score; partial scores only grow, so this is a valid
            // lower bound on the final k-th best).
            if acc.len() >= k {
                scores.clear();
                scores.extend(acc.values().copied());
                // Partial selection: k-th largest.
                let idx = scores.len() - k;
                scores.select_nth_unstable_by(idx, |a, b| {
                    a.partial_cmp(b).unwrap_or(Ordering::Equal)
                });
                floor = scores[idx];
            }
        }

        let m = crate::search::metrics();
        m.searches.inc();
        m.postings_touched
            .add(terms.iter().map(|&(_, p, _)| p.len() as u64).sum());
        m.docs_scored.add(acc.len() as u64);

        let mut hits: Vec<SearchHit> = acc
            .into_iter()
            .filter(|&(_, sim)| sim > 0.0)
            .map(|(d, sim)| SearchHit { doc: DocId(d), sim })
            .collect();
        hits.sort_by(|a, b| {
            b.sim
                .partial_cmp(&a.sim)
                .unwrap_or(Ordering::Equal)
                .then(a.doc.0.cmp(&b.doc.0))
        });
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionBuilder;
    use crate::weighting::WeightingScheme;
    use seu_text::Analyzer;

    fn engine(docs: &[&str]) -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, d) in docs.iter().enumerate() {
            b.add_document(&format!("d{i}"), d);
        }
        SearchEngine::new(b.build())
    }

    fn assert_same_hits(e: &SearchEngine, q: &Query, k: usize) {
        let plain = e.search_top_k(q, k);
        let pruned = e.search_top_k_maxscore(q, k);
        assert_eq!(plain.len(), pruned.len(), "k={k}");
        for (a, b) in plain.iter().zip(&pruned) {
            assert_eq!(a.doc, b.doc, "k={k}");
            assert!((a.sim - b.sim).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn matches_plain_top_k() {
        let e = engine(&[
            "apple banana apple apple",
            "banana cherry",
            "apple cherry cherry",
            "banana banana banana apple",
            "durian elderberry",
            "apple durian",
        ]);
        for text in [
            "apple",
            "apple banana",
            "apple banana cherry",
            "apple banana cherry durian elderberry",
        ] {
            let q = e.collection().query_from_text(text);
            for k in [1, 2, 3, 5, 10] {
                assert_same_hits(&e, &q, k);
            }
        }
    }

    #[test]
    fn empty_cases() {
        let e = engine(&["apple banana"]);
        let q = e.collection().query_from_text("apple");
        assert!(e.search_top_k_maxscore(&q, 0).is_empty());
        assert!(e.search_top_k_maxscore(&Query::new([]), 5).is_empty());
        let unknown = e.collection().query_from_text("zebra");
        assert!(e.search_top_k_maxscore(&unknown, 5).is_empty());
    }

    #[test]
    fn randomized_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let vocab = ["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen"];
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..30 {
            let docs: Vec<String> = (0..rng.gen_range(1..25))
                .map(|_| {
                    (0..rng.gen_range(1..15))
                        .map(|_| vocab[rng.gen_range(0..vocab.len())])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            let e = engine(&refs);
            let n_terms = rng.gen_range(1..5);
            let text = (0..n_terms)
                .map(|_| vocab[rng.gen_range(0..vocab.len())])
                .collect::<Vec<_>>()
                .join(" ");
            let q = e.collection().query_from_text(&text);
            let k = rng.gen_range(1..8);
            let plain = e.search_top_k(&q, k);
            let pruned = e.search_top_k_maxscore(&q, k);
            assert_eq!(plain.len(), pruned.len(), "trial {trial}");
            for (a, b) in plain.iter().zip(&pruned) {
                assert!((a.sim - b.sim).abs() < 1e-12, "trial {trial}");
            }
        }
    }
}
