//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* collection and query, not just the curated workloads.

use proptest::prelude::*;
use seu::core::{
    BasicEstimator, DisjointEstimator, Expansion, HighCorrelationEstimator, PrevMethodEstimator,
    SubrangeEstimator, UsefulnessEstimator,
};
use seu::engine::{Collection, CollectionBuilder, Query, SearchEngine, WeightingScheme};
use seu::metasearch::EngineRecord;
use seu::repr::{
    MaxWeightMode, QuantizedRepresentative, Representative, SubrangeScheme, TermStats,
};
use seu::text::Analyzer;
use seu_net::wire::{record_from_bytes, record_to_bytes};

/// Strategy: a small random collection over a closed vocabulary, as token
/// lists (so weights and co-occurrence are arbitrary).
fn arb_collection() -> impl Strategy<Value = Collection> {
    let vocab = prop::sample::select(vec![
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    ]);
    let doc = prop::collection::vec(vocab, 1..40);
    prop::collection::vec(doc, 1..25).prop_map(|docs| {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, tokens) in docs.iter().enumerate() {
            b.add_tokens(&format!("d{i}"), tokens);
        }
        b.build()
    })
}

/// Strategy: a query over the same vocabulary (some terms may be missing
/// from a particular generated collection — that is part of the point).
fn arb_query_tokens() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::sample::select(vec![
            "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
            "unknown",
        ]),
        1..6,
    )
    .prop_map(|v| v.into_iter().map(String::from).collect())
}

fn query_of(c: &Collection, tokens: &[String]) -> Query {
    c.query_from_tf(seu::engine::shared::term_counts(c.vocab(), tokens))
}

fn all_estimators() -> Vec<Box<dyn UsefulnessEstimator>> {
    vec![
        Box::new(SubrangeEstimator::paper_six_subrange()),
        Box::new(SubrangeEstimator::paper_triplet()),
        Box::new(SubrangeEstimator::new(
            SubrangeScheme::paper_six(),
            MaxWeightMode::Stored,
            Expansion::Grid { cells: 512 },
        )),
        Box::new(BasicEstimator::new()),
        Box::new(PrevMethodEstimator::new()),
        Box::new(HighCorrelationEstimator::new()),
        Box::new(DisjointEstimator::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Estimated NoDoc is always within [0, n] and AvgSim within [0, ~1].
    #[test]
    fn estimates_are_bounded(c in arb_collection(), toks in arb_query_tokens(), t in 0.0f64..1.0) {
        let repr = Representative::build(&c);
        let q = query_of(&c, &toks);
        for est in all_estimators() {
            let u = est.estimate(&repr, &q, t);
            prop_assert!(u.no_doc >= 0.0, "{}: {}", est.name(), u.no_doc);
            prop_assert!(u.no_doc <= c.len() as f64 + 1e-6, "{}: {}", est.name(), u.no_doc);
            prop_assert!(u.avg_sim >= 0.0);
            // AvgSim of the tail always exceeds the threshold when nonzero.
            if u.no_doc > 0.0 {
                prop_assert!(u.avg_sim > t - 1e-9, "{}: avg {} at t {}", est.name(), u.avg_sim, t);
            }
        }
    }

    /// Estimated NoDoc is monotone non-increasing in the threshold.
    #[test]
    fn no_doc_monotone_in_threshold(c in arb_collection(), toks in arb_query_tokens()) {
        let repr = Representative::build(&c);
        let q = query_of(&c, &toks);
        for est in all_estimators() {
            let mut prev = f64::INFINITY;
            for i in 0..=10 {
                let t = i as f64 / 10.0;
                let u = est.estimate(&repr, &q, t);
                prop_assert!(u.no_doc <= prev + 1e-9, "{} at t={t}", est.name());
                prev = u.no_doc;
            }
        }
    }

    /// `estimate_sweep` agrees with repeated `estimate` calls.
    #[test]
    fn sweep_matches_pointwise(c in arb_collection(), toks in arb_query_tokens()) {
        let repr = Representative::build(&c);
        let q = query_of(&c, &toks);
        let thresholds = [0.05, 0.2, 0.45, 0.7];
        for est in all_estimators() {
            let sweep = est.estimate_sweep(&repr, &q, &thresholds);
            for (i, &t) in thresholds.iter().enumerate() {
                let single = est.estimate(&repr, &q, t);
                prop_assert!((sweep[i].no_doc - single.no_doc).abs() < 1e-9, "{}", est.name());
                prop_assert!((sweep[i].avg_sim - single.avg_sim).abs() < 1e-9, "{}", est.name());
            }
        }
    }

    /// The single-term guarantee on arbitrary collections: with stored max
    /// weights, a single-term query selects a database iff its max
    /// normalized weight for the term exceeds the threshold — which also
    /// means selection agrees exactly with ground truth.
    #[test]
    fn single_term_guarantee(c in arb_collection(), t in 0.01f64..0.99) {
        let repr = Representative::build(&c);
        let engine = SearchEngine::new(c.clone());
        let est = SubrangeEstimator::paper_six_subrange();
        for (term, _) in c.vocab().iter() {
            let q = Query::new([(term, 1.0)]);
            let predicted_useful = est.estimate(&repr, &q, t).no_doc > 0.0;
            let truly_useful = engine.true_usefulness(&q, t).no_doc >= 1;
            prop_assert_eq!(
                predicted_useful, truly_useful,
                "term {:?} t {}", c.vocab().term(term), t
            );
        }
    }

    /// The grid expansion never exceeds the exact expansion's NoDoc and
    /// stays close at reasonable resolution.
    #[test]
    fn grid_is_conservative(c in arb_collection(), toks in arb_query_tokens(), t in 0.0f64..0.9) {
        let repr = Representative::build(&c);
        let q = query_of(&c, &toks);
        let exact = SubrangeEstimator::paper_six_subrange();
        let grid = SubrangeEstimator::new(
            SubrangeScheme::paper_six(),
            MaxWeightMode::Stored,
            Expansion::Grid { cells: 2048 },
        );
        let a = exact.estimate(&repr, &q, t);
        let b = grid.estimate(&repr, &q, t);
        prop_assert!(b.no_doc <= a.no_doc + 1e-9);
    }

    /// Quantization moves every estimate by at most a small amount — in
    /// the sandwich sense: the quantized NoDoc at threshold `t` lies
    /// between the full-precision NoDoc at `t + delta` and `t - delta`
    /// (weight codes move exponents by at most `delta`), plus a small
    /// probability-perturbation slack. A pointwise bound would be wrong:
    /// an exponent sitting exactly on the threshold can jump the tail
    /// mass discontinuously.
    #[test]
    fn quantization_is_gentle(c in arb_collection(), toks in arb_query_tokens(), t in 0.0f64..0.9) {
        let full = Representative::build(&c);
        let quant = QuantizedRepresentative::from_representative(&full).decode();
        let q = query_of(&c, &toks);
        let est = BasicEstimator::new();
        let b = est.estimate(&quant, &q, t);
        // Weights live in [0, 1]: each code moves a weight by < 1/256;
        // a query has < 6 terms with weights summing below sqrt(6).
        let delta = 6.0 / 256.0;
        // Each of < 6 probabilities moves by < 1/256.
        let slack = 6.0 / 256.0 * c.len() as f64 + 1e-6;
        let hi = est.estimate(&full, &q, (t - delta).max(0.0)).no_doc + slack;
        let lo = est.estimate(&full, &q, t + delta).no_doc - slack;
        prop_assert!(b.no_doc <= hi, "{} > {}", b.no_doc, hi);
        prop_assert!(b.no_doc >= lo, "{} < {}", b.no_doc, lo);
    }

    /// The subrange estimator with a single subrange reduces to the basic
    /// method.
    #[test]
    fn single_subrange_is_basic(c in arb_collection(), toks in arb_query_tokens(), t in 0.0f64..0.9) {
        let repr = Representative::build(&c);
        let q = query_of(&c, &toks);
        let sub = SubrangeEstimator::new(
            SubrangeScheme::single(),
            MaxWeightMode::Stored,
            Expansion::Exact,
        );
        let a = sub.estimate(&repr, &q, t);
        let b = BasicEstimator::new().estimate(&repr, &q, t);
        // z(0.5) differs from 0 only by the quantile approximation error,
        // and the median weight is clamped to [0, max].
        prop_assert!((a.no_doc - b.no_doc).abs() < 0.05 * c.len() as f64 + 1e-6);
    }

    /// Representatives survive the exact record encoding bit for bit,
    /// no matter the collection: the record a remote engine ships (or a
    /// `.repr` file holds) plans exactly like the representative built
    /// in process.
    #[test]
    fn representative_round_trips(c in arb_collection()) {
        let engine = SearchEngine::new(c);
        let repr = Representative::build(engine.collection());
        let record = EngineRecord::of_engine("e", &engine, repr);
        let back = record_from_bytes(&record_to_bytes(&record)).expect("valid");
        prop_assert_eq!(back.repr.n_docs(), record.repr.n_docs());
        prop_assert_eq!(back.repr.distinct_terms(), record.repr.distinct_terms());
        let bits = |s: &TermStats| [s.p, s.mean, s.std_dev, s.max].map(f64::to_bits);
        for (term, s) in record.repr.iter() {
            prop_assert_eq!(back.vocab.term(term), record.vocab.term(term));
            prop_assert_eq!(back.repr.get(term).map(bits), Some(bits(s)));
        }
    }

    /// The record decoder on arbitrary byte strings never panics, and a
    /// record it admits never claims more terms than the input could
    /// encode (so what it reserves is bounded by the input length).
    #[test]
    fn record_from_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(record) = record_from_bytes(&bytes) {
            // Each term is a row of at least 34 bytes: a u16 name length
            // and four f64 statistics.
            prop_assert!(record.vocab.len() <= bytes.len() / 34);
        }
    }

    /// Corrupting any single byte of a valid record either still decodes
    /// to a consistent record or is refused — never a panic.
    #[test]
    fn record_from_bytes_survives_single_byte_corruption(
        c in arb_collection(),
        pos in any::<usize>(),
        flip in 1u8..255,
    ) {
        let engine = SearchEngine::new(c);
        let repr = Representative::build(engine.collection());
        let mut corrupt = record_to_bytes(&EngineRecord::of_engine("e", &engine, repr));
        let pos = pos % corrupt.len();
        corrupt[pos] ^= flip;
        if let Ok(record) = record_from_bytes(&corrupt) {
            prop_assert!(record.is_consistent());
        }
    }

    /// True usefulness is consistent with threshold search.
    #[test]
    fn truth_matches_search(c in arb_collection(), toks in arb_query_tokens(), t in 0.0f64..1.0) {
        let engine = SearchEngine::new(c.clone());
        let q = query_of(&c, &toks);
        let truth = engine.true_usefulness(&q, t);
        let hits = engine.search_threshold(&q, t);
        prop_assert_eq!(truth.no_doc, hits.len() as u64);
        if !hits.is_empty() {
            let mean = hits.iter().map(|h| h.sim).sum::<f64>() / hits.len() as f64;
            prop_assert!((truth.avg_sim - mean).abs() < 1e-9);
            prop_assert!((truth.max_sim - hits[0].sim).abs() < 1e-12);
        }
    }
}
