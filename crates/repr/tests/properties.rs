//! Property-based tests for representatives, subrange decomposition,
//! quantization and incremental accumulation.

use proptest::prelude::*;
use seu_engine::{Collection, CollectionBuilder, WeightingScheme};
use seu_repr::{
    FrozenSummary, MaxWeightMode, QuantizedRepresentative, Representative,
    RepresentativeAccumulator, SubrangeScheme,
};
use seu_text::Analyzer;

fn arb_collection() -> impl Strategy<Value = Collection> {
    let word = prop::sample::select(vec!["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen"]);
    prop::collection::vec(
        prop::collection::vec(word.prop_map(String::from), 0..25),
        1..20,
    )
    .prop_map(|docs| {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, tokens) in docs.iter().enumerate() {
            b.add_tokens(&format!("d{i}"), tokens);
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Representative statistics obey their definitional bounds.
    #[test]
    fn stats_are_bounded(c in arb_collection()) {
        let r = Representative::build(&c);
        prop_assert_eq!(r.n_docs(), c.len() as u64);
        for (_, s) in r.iter() {
            prop_assert!(s.p > 0.0 && s.p <= 1.0);
            prop_assert!(s.mean > 0.0);
            prop_assert!(s.mean <= s.max + 1e-12);
            prop_assert!(s.std_dev >= 0.0);
            // Cosine-normalized weights never exceed 1.
            prop_assert!(s.max <= 1.0 + 1e-9);
        }
    }

    /// Subrange decomposition conserves the term's probability mass for
    /// every scheme and both max-weight modes.
    #[test]
    fn decompose_conserves_mass(c in arb_collection(), k in 1usize..8, with_max in any::<bool>()) {
        let r = Representative::build(&c);
        let schemes = [SubrangeScheme::paper_six(), SubrangeScheme::equal(k, with_max)];
        for scheme in &schemes {
            for mode in [MaxWeightMode::Stored, MaxWeightMode::estimated_999()] {
                for (_, s) in r.iter() {
                    let spikes = scheme.decompose(s, r.n_docs(), mode);
                    let mass: f64 = spikes.iter().map(|&(p, _)| p).sum();
                    prop_assert!((mass - s.p).abs() < 1e-9);
                    for &(p, w) in &spikes {
                        prop_assert!(p >= 0.0);
                        prop_assert!(w >= 0.0);
                    }
                }
            }
        }
    }

    /// With the stored max and clamping, no spike exceeds the max weight.
    #[test]
    fn clamped_spikes_bounded_by_max(c in arb_collection()) {
        let r = Representative::build(&c);
        let scheme = SubrangeScheme::paper_six();
        for (_, s) in r.iter() {
            for (_, w) in scheme.decompose(s, r.n_docs(), MaxWeightMode::Stored) {
                prop_assert!(w <= s.max + 1e-12);
            }
        }
    }

    /// Quantize -> decode keeps every term and moves p by < 1/256.
    #[test]
    fn quantization_round_trip(c in arb_collection()) {
        let r = Representative::build(&c);
        let r2 = QuantizedRepresentative::from_representative(&r).decode();
        prop_assert_eq!(r2.distinct_terms(), r.distinct_terms());
        for (term, s) in r.iter() {
            let s2 = r2.get(term).expect("term survives");
            prop_assert!((s.p - s2.p).abs() <= 1.0 / 256.0 + 1e-9);
        }
    }

    /// The serialized wire format round-trips on arbitrary collections.
    #[test]
    fn wire_format_round_trip(c in arb_collection()) {
        let r = Representative::build(&c);
        let r2 = Representative::from_bytes(r.to_bytes()).expect("valid buffer");
        prop_assert_eq!(r2.n_docs(), r.n_docs());
        prop_assert_eq!(r2.distinct_terms(), r.distinct_terms());
    }

    /// `FrozenSummary::from_bytes` on arbitrary byte strings never
    /// panics, and the summary it admits never claims more terms than
    /// the input could possibly encode (so the up-front allocation is
    /// bounded by the input length).
    #[test]
    fn frozen_from_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Some(summary) = FrozenSummary::from_bytes(&bytes[..]) {
            // Each parsed term consumed at least 18 bytes of input.
            prop_assert!(summary.repr.table_len() <= bytes.len() / 18);
        }
    }

    /// Corrupting any single byte of a valid wire buffer either still
    /// parses or is rejected — never a panic.
    #[test]
    fn frozen_from_bytes_survives_single_byte_corruption(
        c in arb_collection(),
        pos in any::<usize>(),
        flip in 1u8..255,
    ) {
        let valid = FrozenSummary::of_collection(&c).to_bytes();
        let mut corrupt = valid.to_vec();
        let pos = pos % corrupt.len();
        corrupt[pos] ^= flip;
        let _ = FrozenSummary::from_bytes(&corrupt[..]);
    }

    /// Incremental accumulation over any document order equals the batch
    /// build (cosine weights are per-document, so order cannot matter).
    #[test]
    fn accumulator_matches_batch(c in arb_collection(), reverse in any::<bool>()) {
        let batch = Representative::build(&c);
        let mut acc = RepresentativeAccumulator::new();
        let docs: Vec<_> = if reverse {
            c.docs().iter().rev().collect()
        } else {
            c.docs().iter().collect()
        };
        for doc in docs {
            acc.add_document(doc, 0);
        }
        let snap = acc.snapshot();
        prop_assert_eq!(snap.distinct_terms(), batch.distinct_terms());
        for (term, s) in batch.iter() {
            let s2 = snap.get(term).expect("present");
            prop_assert!((s.p - s2.p).abs() < 1e-12);
            prop_assert!((s.mean - s2.mean).abs() < 1e-10);
            prop_assert!((s.std_dev - s2.std_dev).abs() < 1e-9);
            prop_assert!((s.max - s2.max).abs() < 1e-12);
        }
    }
}
