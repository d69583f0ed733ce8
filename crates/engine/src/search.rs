//! Query evaluation: threshold search, top-k search, and exact usefulness.

use crate::collection::{Collection, DocId, Fingerprint};
use crate::index::InvertedIndex;
use crate::query::Query;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Instrument handles cached once per process; each scoring pass then
/// costs three relaxed atomic adds.
pub(crate) struct EngineMetrics {
    pub(crate) searches: Arc<seu_obs::Counter>,
    pub(crate) docs_scored: Arc<seu_obs::Counter>,
    pub(crate) postings_touched: Arc<seu_obs::Counter>,
}

pub(crate) fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        searches: seu_obs::counter("engine_searches_total"),
        docs_scored: seu_obs::counter("engine_docs_scored_total"),
        postings_touched: seu_obs::counter("engine_postings_touched_total"),
    })
}

/// Forces creation of the engine's instruments so snapshots and
/// expositions include the whole `engine_*` family — zero-valued if the
/// process never searched — instead of a family that appears only after
/// the first call touches it.
pub fn register_metrics() {
    let _ = metrics();
}

/// One retrieved document with its global (cosine) similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The document.
    pub doc: DocId,
    /// Cosine similarity with the query, in `[0, 1]` for non-negative
    /// weights.
    pub sim: f64,
}

/// Exact usefulness of a database for a query at a threshold — the ground
/// truth the estimators are judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrueUsefulness {
    /// `NoDoc(T, q, D)`: number of documents with `sim > T`.
    pub no_doc: u64,
    /// `AvgSim(T, q, D)`: mean similarity of those documents (0 when
    /// `no_doc == 0`).
    pub avg_sim: f64,
    /// Largest similarity of any document with the query (`max_sim_i` in
    /// the paper's single-term analysis); 0 when nothing matches.
    pub max_sim: f64,
}

/// A local search engine: a collection plus its inverted index.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    collection: Collection,
    index: InvertedIndex,
    /// Content fingerprint, computed once at index-build time (the
    /// collection is immutable, so indexing a new snapshot is the only
    /// way content can change — and that recomputes this).
    fingerprint: Fingerprint,
}

impl SearchEngine {
    /// Indexes a collection.
    pub fn new(collection: Collection) -> Self {
        let index = InvertedIndex::build(&collection);
        let fingerprint = collection.fingerprint();
        SearchEngine {
            collection,
            index,
            fingerprint,
        }
    }

    /// The underlying collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The collection's content fingerprint (cached at construction, so
    /// registry staleness sweeps cost O(1) per engine).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Scores every document sharing at least one term with the query
    /// (term-at-a-time accumulation). Returned in document-id order.
    fn accumulate(&self, query: &Query) -> Vec<(DocId, f64)> {
        let mut acc: Vec<(u32, f64)> = Vec::new();
        for &(term, u) in query.terms() {
            for p in self.index.postings(term) {
                acc.push((p.doc.0, u * p.weight));
            }
        }
        acc.sort_by_key(|&(d, _)| d);
        let postings = acc.len() as u64;
        let mut out: Vec<(DocId, f64)> = Vec::with_capacity(acc.len());
        for (d, s) in acc {
            match out.last_mut() {
                Some(last) if last.0 .0 == d => last.1 += s,
                _ => out.push((DocId(d), s)),
            }
        }
        let m = metrics();
        m.searches.inc();
        m.postings_touched.add(postings);
        m.docs_scored.add(out.len() as u64);
        out
    }

    /// All documents with `sim > threshold`, sorted by descending
    /// similarity (ties broken by document id, ascending).
    pub fn search_threshold(&self, query: &Query, threshold: f64) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self
            .accumulate(query)
            .into_iter()
            .filter(|&(_, s)| s > threshold)
            .map(|(doc, sim)| SearchHit { doc, sim })
            .collect();
        hits.sort_by(|a, b| {
            b.sim
                .partial_cmp(&a.sim)
                .unwrap_or(Ordering::Equal)
                .then(a.doc.0.cmp(&b.doc.0))
        });
        hits
    }

    /// The `k` most similar documents (similarity > 0), best first.
    pub fn search_top_k(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        if k == 0 {
            return Vec::new();
        }
        // Min-heap of the current best k, keyed by (sim, Reverse(doc)).
        #[derive(PartialEq)]
        struct Entry(f64, u32);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Smaller sim first; for equal sims, larger doc id first,
                // so it is evicted before a smaller id.
                other
                    .0
                    .partial_cmp(&self.0)
                    .unwrap_or(Ordering::Equal)
                    .then(self.1.cmp(&other.1))
                    .reverse()
            }
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<Entry>> = BinaryHeap::with_capacity(k + 1);
        for (doc, sim) in self.accumulate(query) {
            if sim <= 0.0 {
                continue;
            }
            heap.push(std::cmp::Reverse(Entry(sim, doc.0)));
            if heap.len() > k {
                heap.pop();
            }
        }
        let mut hits: Vec<SearchHit> = heap
            .into_iter()
            .map(|std::cmp::Reverse(Entry(sim, d))| SearchHit { doc: DocId(d), sim })
            .collect();
        hits.sort_by(|a, b| {
            b.sim
                .partial_cmp(&a.sim)
                .unwrap_or(Ordering::Equal)
                .then(a.doc.0.cmp(&b.doc.0))
        });
        hits
    }

    /// Computes the exact `(NoDoc, AvgSim, max_sim)` of this database for
    /// the query at `threshold` — Equations (1) and (2) of the paper,
    /// evaluated by brute force over the index.
    pub fn true_usefulness(&self, query: &Query, threshold: f64) -> TrueUsefulness {
        let mut no_doc = 0u64;
        let mut sim_sum = 0.0;
        let mut max_sim = 0.0f64;
        for (_, sim) in self.accumulate(query) {
            if sim > threshold {
                no_doc += 1;
                sim_sum += sim;
            }
            if sim > max_sim {
                max_sim = sim;
            }
        }
        TrueUsefulness {
            no_doc,
            avg_sim: if no_doc > 0 {
                sim_sum / no_doc as f64
            } else {
                0.0
            },
            max_sim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionBuilder;
    use crate::weighting::WeightingScheme;
    use seu_text::Analyzer;

    fn engine() -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "apple banana apple apple");
        b.add_document("d1", "banana cherry");
        b.add_document("d2", "apple cherry cherry");
        b.add_document("d3", "durian");
        SearchEngine::new(b.build())
    }

    /// Brute-force similarity for cross-checking.
    fn brute_sim(e: &SearchEngine, q: &Query, d: DocId) -> f64 {
        q.terms()
            .iter()
            .map(|&(t, u)| u * e.collection().doc(d).weight(t))
            .sum()
    }

    #[test]
    fn accumulation_matches_brute_force() {
        let e = engine();
        let q = e.collection().query_from_text("apple cherry");
        for i in 0..4 {
            let d = DocId(i);
            let expected = brute_sim(&e, &q, d);
            let got = e
                .search_threshold(&q, -1.0)
                .into_iter()
                .find(|h| h.doc == d)
                .map(|h| h.sim)
                .unwrap_or(0.0);
            assert!((got - expected).abs() < 1e-12, "doc {i}");
        }
    }

    #[test]
    fn threshold_filters_strictly() {
        let e = engine();
        let q = e.collection().query_from_text("apple");
        let all = e.search_threshold(&q, 0.0);
        assert_eq!(all.len(), 2); // d0 and d2 contain apple.
        let top_sim = all[0].sim;
        // Strict inequality: threshold exactly at the top similarity
        // excludes it.
        assert!(e.search_threshold(&q, top_sim).is_empty());
    }

    #[test]
    fn hits_sorted_descending() {
        let e = engine();
        let q = e.collection().query_from_text("apple banana cherry");
        let hits = e.search_threshold(&q, 0.0);
        for w in hits.windows(2) {
            assert!(w[0].sim >= w[1].sim);
        }
    }

    #[test]
    fn top_k_matches_threshold_search_prefix() {
        let e = engine();
        let q = e.collection().query_from_text("apple banana cherry");
        let all = e.search_threshold(&q, 0.0);
        for k in 0..=all.len() + 1 {
            let top = e.search_top_k(&q, k);
            assert_eq!(top.len(), k.min(all.len()), "k={k}");
            for (a, b) in top.iter().zip(all.iter()) {
                assert_eq!(a.doc, b.doc, "k={k}");
                assert!((a.sim - b.sim).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn true_usefulness_counts_and_averages() {
        let e = engine();
        let q = e.collection().query_from_text("apple");
        let hits = e.search_threshold(&q, 0.0);
        let t = e.true_usefulness(&q, 0.0);
        assert_eq!(t.no_doc, hits.len() as u64);
        let mean: f64 = hits.iter().map(|h| h.sim).sum::<f64>() / hits.len() as f64;
        assert!((t.avg_sim - mean).abs() < 1e-12);
        assert!((t.max_sim - hits[0].sim).abs() < 1e-12);
    }

    #[test]
    fn empty_query_matches_nothing() {
        let e = engine();
        let q = Query::new([]);
        assert!(e.search_threshold(&q, 0.0).is_empty());
        let t = e.true_usefulness(&q, 0.0);
        assert_eq!(t.no_doc, 0);
        assert_eq!(t.avg_sim, 0.0);
        assert_eq!(t.max_sim, 0.0);
    }

    #[test]
    fn similarities_bounded_by_one() {
        let e = engine();
        for text in ["apple", "apple banana", "apple banana cherry durian"] {
            let q = e.collection().query_from_text(text);
            for h in e.search_threshold(&q, -1.0) {
                assert!(h.sim <= 1.0 + 1e-12 && h.sim >= 0.0, "{text}: {}", h.sim);
            }
        }
    }

    #[test]
    fn identical_doc_and_query_similarity_is_one() {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d", "alpha beta gamma");
        let e = SearchEngine::new(b.build());
        let q = e.collection().query_from_text("alpha beta gamma");
        let t = e.true_usefulness(&q, 0.0);
        assert!((t.max_sim - 1.0).abs() < 1e-12);
    }
}
