//! Property-based tests for the vector-space engine.

use proptest::prelude::*;
use seu_engine::{Collection, CollectionBuilder, Query, SearchEngine, WeightingScheme};
use seu_text::Analyzer;

fn arb_docs() -> impl Strategy<Value = Vec<Vec<String>>> {
    let word = prop::sample::select(vec![
        "ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibis", "jay",
    ]);
    prop::collection::vec(
        prop::collection::vec(word.prop_map(String::from), 0..30),
        1..20,
    )
}

fn build(docs: &[Vec<String>], scheme: WeightingScheme) -> Collection {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), scheme);
    for (i, tokens) in docs.iter().enumerate() {
        b.add_tokens(&format!("d{i}"), tokens);
    }
    b.build()
}

fn arb_query_words() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::sample::select(vec!["ant", "bee", "cat", "dog", "eel", "zebra"])
            .prop_map(String::from),
        1..5,
    )
}

fn query_of(c: &Collection, words: &[String]) -> Query {
    c.query_from_tf(seu_engine::shared::term_counts(c.vocab(), words))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cosine documents have unit norm (or are empty).
    #[test]
    fn cosine_docs_are_unit_norm(docs in arb_docs()) {
        let c = build(&docs, WeightingScheme::CosineTf);
        for doc in c.docs() {
            let sq: f64 = doc.terms.iter().map(|&(_, w)| w * w).sum();
            prop_assert!(doc.terms.is_empty() || (sq - 1.0).abs() < 1e-9);
        }
    }

    /// All similarities are in [0, 1] under cosine weighting, and the
    /// engine's max_sim bounds every hit.
    #[test]
    fn similarities_bounded(docs in arb_docs(), qw in arb_query_words()) {
        let c = build(&docs, WeightingScheme::CosineTf);
        let engine = SearchEngine::new(c.clone());
        let q = query_of(&c, &qw);
        let truth = engine.true_usefulness(&q, 0.0);
        for hit in engine.search_threshold(&q, -1.0) {
            prop_assert!(hit.sim >= -1e-12 && hit.sim <= 1.0 + 1e-9);
            prop_assert!(hit.sim <= truth.max_sim + 1e-12);
        }
    }

    /// Threshold search returns exactly the hits above the threshold,
    /// and NoDoc is monotone in the threshold.
    #[test]
    fn threshold_search_consistent(docs in arb_docs(), qw in arb_query_words(), t in 0.0f64..1.0) {
        let c = build(&docs, WeightingScheme::CosineTf);
        let engine = SearchEngine::new(c.clone());
        let q = query_of(&c, &qw);
        let hits = engine.search_threshold(&q, t);
        for h in &hits {
            prop_assert!(h.sim > t);
        }
        let all = engine.search_threshold(&q, 0.0);
        prop_assert!(hits.len() <= all.len());
        prop_assert_eq!(hits.len() as u64, engine.true_usefulness(&q, t).no_doc);
    }

    /// Top-k returns the k best hits of the full ranking.
    #[test]
    fn top_k_is_a_prefix(docs in arb_docs(), qw in arb_query_words(), k in 0usize..10) {
        let c = build(&docs, WeightingScheme::CosineTf);
        let engine = SearchEngine::new(c.clone());
        let q = query_of(&c, &qw);
        let all = engine.search_threshold(&q, 0.0);
        let top = engine.search_top_k(&q, k);
        prop_assert_eq!(top.len(), k.min(all.len()));
        for (a, b) in top.iter().zip(all.iter()) {
            prop_assert_eq!(a.doc, b.doc);
        }
    }

    /// The inverted index agrees with the documents.
    #[test]
    fn index_matches_documents(docs in arb_docs()) {
        let c = build(&docs, WeightingScheme::CosineTf);
        let engine = SearchEngine::new(c.clone());
        let mut postings_total = 0;
        for (term, _) in c.vocab().iter() {
            for p in engine.index().postings(term) {
                let w = c.doc(p.doc).weight(term);
                prop_assert!((w - p.weight).abs() < 1e-12);
                postings_total += 1;
            }
        }
        let doc_terms: usize = c.docs().iter().map(|d| d.terms.len()).sum();
        prop_assert_eq!(postings_total, doc_terms);
    }

    /// Pivoted normalization preserves the engine invariants (hits sorted,
    /// truth consistent) even though norms are no longer 1.
    #[test]
    fn pivoted_engine_is_consistent(docs in arb_docs(), qw in arb_query_words(), t in 0.0f64..0.8) {
        let c = build(&docs, WeightingScheme::PivotedLogTf { slope: 0.3 });
        let engine = SearchEngine::new(c.clone());
        let q = query_of(&c, &qw);
        let hits = engine.search_threshold(&q, t);
        for w in hits.windows(2) {
            prop_assert!(w[0].sim >= w[1].sim);
        }
        prop_assert_eq!(hits.len() as u64, engine.true_usefulness(&q, t).no_doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `InvertedIndex::build` against one `Vec` of postings per term,
    /// filled from the documents in order: every term's run, its
    /// document frequency, the active-term and posting totals, and an
    /// empty run for ids past the vocabulary. Empty documents and terms
    /// that recur across documents are common at these sizes.
    #[test]
    fn index_matches_a_list_per_term(
        docs in prop::collection::vec(prop::collection::vec(0usize..40, 0..12), 0..24),
        scheme in prop::sample::select(vec![
            WeightingScheme::CosineTf,
            WeightingScheme::CosineTfIdf,
            WeightingScheme::PivotedLogTf { slope: 0.2 },
        ]),
        past in 0u32..5,
    ) {
        let words: Vec<Vec<String>> = docs
            .iter()
            .map(|d| d.iter().map(|w| format!("w{w}")).collect())
            .collect();
        let c = build(&words, scheme);
        let index = seu_engine::InvertedIndex::build(&c);
        let mut model: Vec<Vec<seu_engine::index::Posting>> = vec![Vec::new(); c.vocab().len()];
        for (i, doc) in c.docs().iter().enumerate() {
            for &(term, weight) in &doc.terms {
                model[term.index()].push(seu_engine::index::Posting {
                    doc: seu_engine::DocId(i as u32),
                    weight,
                });
            }
        }
        for (t, run) in model.iter().enumerate() {
            let term = seu_text::TermId(t as u32);
            prop_assert_eq!(index.postings(term), run.as_slice());
            prop_assert_eq!(index.doc_freq(term), run.len());
        }
        prop_assert_eq!(index.active_terms(), model.iter().filter(|r| !r.is_empty()).count());
        prop_assert_eq!(index.total_postings(), model.iter().map(Vec::len).sum::<usize>());
        for id in [c.vocab().len() as u32 + past, u32::MAX - past] {
            prop_assert!(index.postings(seu_text::TermId(id)).is_empty());
            prop_assert_eq!(index.doc_freq(seu_text::TermId(id)), 0);
        }
    }
}
