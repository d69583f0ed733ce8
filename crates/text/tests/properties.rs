//! Property-based tests for the text pipeline.

use proptest::prelude::*;
use seu_text::{is_stopword, porter_stem, tokenize, Analyzer, AnalyzerConfig, Vocabulary};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tokens are lowercase alphanumeric runs of length >= 2 that appear
    /// (case-insensitively) in the input.
    #[test]
    fn tokenizer_invariants(text in ".{0,200}") {
        let lower = text.to_lowercase();
        for tok in tokenize(&text) {
            prop_assert!(tok.len() >= 2);
            prop_assert!(tok.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
            prop_assert!(lower.contains(&tok), "{tok:?} not in input");
        }
    }

    /// Tokenization never panics and is deterministic.
    #[test]
    fn tokenizer_deterministic(text in ".{0,200}") {
        let a: Vec<String> = tokenize(&text).collect();
        let b: Vec<String> = tokenize(&text).collect();
        prop_assert_eq!(a, b);
    }

    /// Stems are never longer than the word, never empty for valid
    /// input, and stay ASCII-lowercase/digit.
    #[test]
    fn stemmer_invariants(word in "[a-z0-9]{1,20}") {
        let stem = porter_stem(&word);
        prop_assert!(!stem.is_empty());
        // Porter only shrinks or rewrites suffixes of comparable length;
        // a one-letter growth is possible (e.g. "bl" -> "ble" inside a
        // longer rewrite) but never more.
        prop_assert!(stem.len() <= word.len() + 1, "{word} -> {stem}");
        prop_assert!(stem.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
    }

    /// The stemmer is a pure function.
    #[test]
    fn stemmer_deterministic(word in "[a-z]{1,15}") {
        prop_assert_eq!(porter_stem(&word), porter_stem(&word));
    }

    /// Analysis with stopword removal yields a subsequence of analysis
    /// without it.
    #[test]
    fn stopword_removal_is_a_filter(text in "[a-zA-Z ]{0,120}") {
        let keep_all = Analyzer::new(AnalyzerConfig { remove_stopwords: false, stem: false });
        let filtered = Analyzer::new(AnalyzerConfig { remove_stopwords: true, stem: false });
        let all = keep_all.analyze(&text);
        let some = filtered.analyze(&text);
        // `some` is `all` minus stopwords, in order.
        let expected: Vec<String> = all.iter().filter(|t| !is_stopword(t)).cloned().collect();
        prop_assert_eq!(some, expected);
    }

    /// Vocabulary interning: ids are dense, stable, and round-trip.
    #[test]
    fn vocabulary_round_trip(words in prop::collection::vec("[a-z]{1,8}", 1..50)) {
        let mut v = Vocabulary::new();
        let ids: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        for (w, &id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.term(id), w.as_str());
            prop_assert_eq!(v.get(w), Some(id));
        }
        // Interning again changes nothing.
        let before = v.len();
        for w in &words {
            v.intern(w);
        }
        prop_assert_eq!(v.len(), before);
        // Ids are dense.
        prop_assert!(v.len() <= words.len());
    }
}

/// What a [`Vocabulary`] must answer: terms by id in insertion order,
/// ids by term.
#[derive(Clone, Default)]
struct Model {
    ids: std::collections::HashMap<String, u32>,
    terms: Vec<String>,
}

impl Model {
    fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.to_string());
        self.ids.insert(term.to_string(), id);
        id
    }
}

/// The vocabulary agrees with the model on everything it holds.
fn agrees(v: &Vocabulary, model: &Model) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(v.len(), model.terms.len());
    prop_assert_eq!(v.is_empty(), model.terms.is_empty());
    let listed: Vec<(u32, &str)> = v.iter().map(|(id, t)| (id.0, t)).collect();
    let expected: Vec<(u32, &str)> = model
        .terms
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.as_str()))
        .collect();
    prop_assert_eq!(listed, expected);
    for (i, t) in model.terms.iter().enumerate() {
        prop_assert_eq!(v.term(seu_text::TermId(i as u32)), t.as_str());
        prop_assert_eq!(v.get(t), Some(seu_text::TermId(i as u32)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Vocabulary` against a `HashMap` + `Vec` model. Words of zero to
    /// three characters from a class with multi-byte UTF-8 (`.`) repeat
    /// often, the empty word included; the pool's hundreds of distinct
    /// words carry the table across every growth boundary up to 512
    /// slots; halfway through, the rest is interned into a clone, and
    /// the original must not move.
    #[test]
    fn vocabulary_matches_a_map_and_a_list(
        pool in prop::collection::vec(".{0,3}", 1..300),
        ops in prop::collection::vec((0usize..1000, any::<bool>()), 0..600),
        split in 0usize..600,
    ) {
        let mut v = Vocabulary::new();
        let mut model = Model::default();
        let split = split.min(ops.len());
        let mut original = None;
        for (n, &(pick, intern)) in ops.iter().enumerate() {
            if n == split {
                let copy = v.clone();
                original = Some((std::mem::replace(&mut v, copy), model.clone()));
            }
            let word = &pool[pick % pool.len()];
            if intern {
                let before = model.terms.len();
                prop_assert_eq!(v.intern(word).0, model.intern(word));
                let len = model.terms.len();
                // Check everything where the table grows (at 5, 9, 17,
                // ... terms) and just before.
                if len != before && ((len - 1).is_power_of_two() || len.is_power_of_two()) {
                    agrees(&v, &model)?;
                }
            } else {
                prop_assert_eq!(v.get(word).map(|id| id.0), model.ids.get(word).copied());
            }
        }
        agrees(&v, &model)?;
        if let Some((original, at_split)) = original {
            agrees(&original, &at_split)?;
            // The clone went on interning; the original knows nothing of it.
            for t in &model.terms[at_split.terms.len()..] {
                prop_assert_eq!(original.get(t), None);
            }
        }
    }
}
